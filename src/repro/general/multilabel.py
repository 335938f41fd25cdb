"""Multi-label vertices (paper §2's extension, implemented).

Vertices carry *sets* of labels; a mapping is label-preserving when the
query vertex's label set is a **subset** of its image's:
``L_q(u) ⊆ L_G(v)``.  This is the RDF/property-graph setting where an
entity has several types.

Representation: plain :class:`~repro.graph.graph.Graph` objects whose
vertex labels are ``frozenset`` instances (:func:`multilabel_graph`
builds them).  Only the candidate layer changes:

- candidates are computed by subset containment over a per-label inverted
  index, with degree domination;
- the NLF generalizes per label: for every label ``l``, ``v`` needs at
  least as many neighbors carrying ``l`` as ``u`` has neighbors requiring
  ``l``;
- DAG-graph DP and the engine run unchanged via the
  ``initial_sets`` hook of :func:`~repro.core.candidate_space.build_candidate_space`.

Leaf decomposition is disabled: its combinatorics assume same-label
leaves share candidates and different-label leaves never collide, which
subset semantics breaks (a ``{A}`` leaf and a ``{B}`` leaf both match an
``{A, B}`` vertex).
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterable
from typing import Callable, Optional

from ..core.backtrack import BacktrackEngine
from ..core.candidate_space import build_candidate_space
from ..core.config import MatchConfig
from ..core.dag import bfs_vertex_order
from ..graph.digraph import RootedDAG
from ..graph.graph import Graph
from ..graph.properties import is_connected
from ..interfaces import (
    DEFAULT_LIMIT,
    Deadline,
    Embedding,
    MatchResult,
    SearchStats,
    TimeoutSignal,
)


def multilabel_graph(labels: Iterable[Iterable[object]], edges) -> Graph:
    """A graph whose vertex labels are frozensets of atomic labels."""
    return Graph(labels=[frozenset(label_set) for label_set in labels], edges=edges)


def label_index(data: Graph) -> dict[object, set[int]]:
    """Inverted index: atomic label -> data vertices carrying it."""
    index: dict[object, set[int]] = {}
    for v in data.vertices():
        for atom in data.label(v):
            index.setdefault(atom, set()).add(v)
    return index


def multilabel_candidates(
    query: Graph,
    data: Graph,
    u: int,
    index: Optional[dict[object, set[int]]] = None,
    check_degree: bool = True,
) -> set[int]:
    """C_ini under subset semantics: containment + degree domination.

    ``check_degree=False`` drops the (injectivity-assuming) degree filter
    — used in homomorphism mode.
    """
    if index is None:
        index = label_index(data)
    required = query.label(u)
    degree_u = query.degree(u) if check_degree else 0
    if not required:  # unlabeled query vertex matches anything
        return {v for v in data.vertices() if data.degree(v) >= degree_u}
    atom_iter = iter(required)
    pool = set(index.get(next(atom_iter), set()))
    for atom in atom_iter:
        pool &= index.get(atom, set())
        if not pool:
            return set()
    return {v for v in pool if data.degree(v) >= degree_u}


def passes_multilabel_nlf(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Per-atomic-label neighbor-count domination."""
    needed: dict[object, int] = {}
    for w in query.neighbors(u):
        for atom in query.label(w):
            needed[atom] = needed.get(atom, 0) + 1
    if not needed:
        return True
    available: dict[object, int] = {}
    for x in data.neighbors(v):
        for atom in data.label(x):
            available[atom] = available.get(atom, 0) + 1
    return all(available.get(atom, 0) >= count for atom, count in needed.items())


def is_multilabel_embedding(mapping: Embedding, query: Graph, data: Graph) -> bool:
    """Injective, subset-label-preserving, edge-preserving."""
    if len(mapping) != query.num_vertices or len(set(mapping)) != len(mapping):
        return False
    for u in query.vertices():
        if not query.label(u) <= data.label(mapping[u]):
            return False
    return all(data.has_edge(mapping[u], mapping[w]) for u, w in query.edges())


class MultiLabelDAFMatcher:
    """DAF under subset-label semantics.

    Queries and data are :func:`multilabel_graph` objects; everything
    else matches the :class:`~repro.core.matcher.DAFMatcher` contract.
    """

    def __init__(self, config: Optional[MatchConfig] = None) -> None:
        base = config if config is not None else MatchConfig()
        if base.induced:
            raise ValueError("induced matching is not supported for multi-label graphs")
        # Leaf combinatorics assume exact-label candidate disjointness.
        self.config = dataclasses.replace(base, leaf_decomposition=False)
        self.name = f"{self.config.variant_name}-multilabel"

    def match(
        self,
        query: Graph,
        data: Graph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
    ) -> MatchResult:
        query._require_frozen()
        data._require_frozen()
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        if query.num_vertices > 1 and not is_connected(query):
            raise ValueError("query graph must be connected (wrap with the "
                             "disconnected-query matcher otherwise)")
        start = time.perf_counter()
        index = label_index(data)
        if self.config.injective:
            initial_sets = [
                {
                    v
                    for v in multilabel_candidates(query, data, u, index)
                    if not self.config.use_local_filters
                    or passes_multilabel_nlf(query, data, u, v)
                }
                for u in query.vertices()
            ]
        else:
            # Homomorphisms: degree/NLF assume injectivity; label-only.
            initial_sets = [
                multilabel_candidates(query, data, u, index, check_degree=False)
                for u in query.vertices()
            ]

        # Root rule over the true candidate counts; the BFS order's label
        # frequency (exact-set frequency) is only a tie-break heuristic.
        def score(u: int) -> float:
            degree = query.degree(u)
            count = len(initial_sets[u])
            return count / degree if degree else float(count)

        root = min(query.vertices(), key=lambda u: (score(u), u))
        order = bfs_vertex_order(query, data, root)
        rank = {u: i for i, u in enumerate(order)}
        dag_edges = [
            (u, w) if rank[u] < rank[w] else (w, u) for u, w in query.edges()
        ]
        dag = RootedDAG(query, dag_edges, root)
        cs = build_candidate_space(
            query,
            data,
            dag,
            refinement_steps=self.config.refinement_steps,
            refine_to_fixpoint=self.config.refine_to_fixpoint,
            use_local_filters=False,  # folded into initial_sets above
            initial_sets=initial_sets,
        )
        stats = SearchStats(
            candidates_total=cs.size,
            filter_iterations=cs.refinement_steps,
            preprocess_seconds=time.perf_counter() - start,
        )
        result = MatchResult(stats=stats)
        if cs.is_empty():
            return result
        engine = BacktrackEngine(
            cs,
            self.config,
            limit=limit,
            deadline=Deadline(time_limit),
            stats=stats,
            on_embedding=on_embedding,
        )
        search_start = time.perf_counter()
        try:
            engine.run()
        except TimeoutSignal:
            result.timed_out = True
        stats.search_seconds = time.perf_counter() - search_start
        result.embeddings = engine.embeddings
        result.limit_reached = engine.limit_reached
        return result

    def count(self, query: Graph, data: Graph, **kwargs) -> int:
        return self.match(query, data, **kwargs).count
