"""Directed subgraph matching — the paper's §2 extension, implemented."""

from .digraph_data import DirectedGraph, DirectedGraphError
from .matcher import (
    DirectedBruteForce,
    DirectedDAFMatcher,
    directed_initial_candidates,
    is_directed_embedding,
    passes_directed_nlf,
)

__all__ = [
    "DirectedBruteForce",
    "DirectedDAFMatcher",
    "DirectedGraph",
    "DirectedGraphError",
    "directed_initial_candidates",
    "is_directed_embedding",
    "passes_directed_nlf",
]
