"""Generalized matching — the remaining §2 extensions: disconnected
queries, multi-label vertices, and edge labels.  (Directed graphs live
in :mod:`repro.directed`.)"""

from .disconnected import BRIDGE_LABEL, DisconnectedDAFMatcher, bridge_graphs
from .edgelabel import (
    EdgeLabeledDAFMatcher,
    EdgeLabeledGraph,
    edge_labeled_candidates,
    is_edge_labeled_embedding,
)
from .multilabel import (
    MultiLabelDAFMatcher,
    is_multilabel_embedding,
    label_index,
    multilabel_candidates,
    multilabel_graph,
    passes_multilabel_nlf,
)

__all__ = [
    "BRIDGE_LABEL",
    "DisconnectedDAFMatcher",
    "EdgeLabeledDAFMatcher",
    "EdgeLabeledGraph",
    "MultiLabelDAFMatcher",
    "bridge_graphs",
    "edge_labeled_candidates",
    "is_edge_labeled_embedding",
    "is_multilabel_embedding",
    "label_index",
    "multilabel_candidates",
    "multilabel_graph",
    "passes_multilabel_nlf",
]
