"""Edge-labeled matching (the last of §2's "readily extended" cases).

Property graphs label their relationships ("knows", "cites", bond
types); an edge-labeled embedding additionally requires
``L_q(u, u') = L_G(M(u), M(u'))`` for every query edge.  As with the
directed extension, only the candidate layer changes: the DAG-graph DP
and CS edge materialization admit a data edge only when its label
matches the query edge's, and the unmodified engine searches the result.

:class:`EdgeLabeledGraph` wraps an undirected structure plus an
edge-label map; build one with ``add_edge(u, v, label)``.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Iterable
from typing import Callable, Optional

from ..core.backtrack import BacktrackEngine
from ..core.candidate_space import CandidateSpace
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


class EdgeLabeledGraph:
    """An undirected graph with one label per vertex *and* per edge."""

    def __init__(self) -> None:
        self._skeleton = Graph()
        self._edge_labels: dict[tuple[int, int], Hashable] = {}
        self._frozen = False

    @classmethod
    def build(
        cls,
        vertex_labels: Iterable[Hashable],
        edges: Iterable[tuple[int, int, Hashable]],
    ) -> "EdgeLabeledGraph":
        g = cls()
        for label in vertex_labels:
            g.add_vertex(label)
        for u, v, label in edges:
            g.add_edge(u, v, label)
        return g.freeze()

    def add_vertex(self, label: Hashable) -> int:
        return self._skeleton.add_vertex(label)

    def add_edge(self, u: int, v: int, label: Hashable) -> None:
        self._skeleton.add_edge(u, v)
        self._edge_labels[(u, v) if u < v else (v, u)] = label

    def freeze(self) -> "EdgeLabeledGraph":
        self._skeleton.freeze()
        self._frozen = True
        return self

    @property
    def skeleton(self) -> Graph:
        """The underlying vertex-labeled Graph (no edge labels)."""
        return self._skeleton

    def edge_label(self, u: int, v: int) -> Hashable:
        return self._edge_labels[(u, v) if u < v else (v, u)]

    def edge_label_counts(self, v: int) -> dict[tuple[Hashable, Hashable], int]:
        """Multiset of (neighbor vertex label, edge label) pairs at ``v``
        — the edge-labeled NLF signature."""
        counts: dict[tuple[Hashable, Hashable], int] = {}
        for w in self._skeleton.neighbors(v):
            key = (self._skeleton.label(w), self.edge_label(v, w))
            counts[key] = counts.get(key, 0) + 1
        return counts

    # Delegations used by matching.
    @property
    def num_vertices(self) -> int:
        return self._skeleton.num_vertices

    @property
    def num_edges(self) -> int:
        return self._skeleton.num_edges

    def vertices(self) -> range:
        return self._skeleton.vertices()

    def label(self, v: int) -> Hashable:
        return self._skeleton.label(v)

    def edges(self) -> Iterable[tuple[int, int, Hashable]]:
        for u, v in self._skeleton.edges():
            yield u, v, self.edge_label(u, v)

    def __repr__(self) -> str:
        return (
            f"EdgeLabeledGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"edge_labels={len(set(self._edge_labels.values()))})"
        )


def is_edge_labeled_embedding(
    mapping: Embedding, query: EdgeLabeledGraph, data: EdgeLabeledGraph
) -> bool:
    """Injective, vertex-label-, edge- and edge-label-preserving."""
    skeleton_q, skeleton_d = query.skeleton, data.skeleton
    if len(mapping) != skeleton_q.num_vertices or len(set(mapping)) != len(mapping):
        return False
    for u in skeleton_q.vertices():
        if skeleton_q.label(u) != skeleton_d.label(mapping[u]):
            return False
    for u, w in skeleton_q.edges():
        if not skeleton_d.has_edge(mapping[u], mapping[w]):
            return False
        if query.edge_label(u, w) != data.edge_label(mapping[u], mapping[w]):
            return False
    return True


def edge_labeled_candidates(
    query: EdgeLabeledGraph, data: EdgeLabeledGraph, u: int, use_nlf: bool = True
) -> set[int]:
    """C_ini with the edge-labeled NLF: per (vertex label, edge label)
    pair domination."""
    skeleton_q, skeleton_d = query.skeleton, data.skeleton
    needed = query.edge_label_counts(u) if use_nlf else {}
    degree_u = skeleton_q.degree(u)
    survivors = set()
    for v in skeleton_d.vertices_with_label(skeleton_q.label(u)):
        if skeleton_d.degree(v) < degree_u:
            continue
        if needed:
            available = data.edge_label_counts(v)
            if any(available.get(key, 0) < count for key, count in needed.items()):
                continue
        survivors.add(v)
    return survivors


def build_edge_labeled_candidate_space(
    query: EdgeLabeledGraph,
    data: EdgeLabeledGraph,
    refinement_steps: int = 3,
    use_local_filters: bool = True,
    injective: bool = True,
) -> tuple[CandidateSpace, RootedDAG]:
    """BuildDAG + BuildCS with edge-label-aware adjacency."""
    skeleton_q, skeleton_d = query.skeleton, data.skeleton
    if skeleton_q.num_vertices > 1 and not is_connected(skeleton_q):
        raise ValueError("query graph must be connected")
    if injective:
        candidate_sets = [
            edge_labeled_candidates(query, data, u, use_nlf=use_local_filters)
            for u in skeleton_q.vertices()
        ]
    else:
        candidate_sets = [
            set(skeleton_d.vertices_with_label(skeleton_q.label(u)))
            for u in skeleton_q.vertices()
        ]

    def score(u: int) -> float:
        degree = skeleton_q.degree(u)
        count = len(candidate_sets[u])
        return count / degree if degree else float(count)

    root = min(skeleton_q.vertices(), key=lambda u: (score(u), u))
    order = bfs_vertex_order(skeleton_q, skeleton_d, root)
    rank = {u: i for i, u in enumerate(order)}
    dag = RootedDAG(
        skeleton_q,
        [(u, w) if rank[u] < rank[w] else (w, u) for u, w in skeleton_q.edges()],
        root,
    )

    def compatible_neighbors(v: int, u: int, u_c: int) -> list[int]:
        """Data neighbors of ``v`` reachable over the right edge label."""
        wanted = query.edge_label(u, u_c)
        return [w for w in skeleton_d.neighbors(v) if data.edge_label(v, w) == wanted]

    passes = [dag.reverse(), dag]
    for step in range(refinement_steps):
        direction = passes[step % 2]
        for u in reversed(direction.topological_order()):
            children = direction.children(u)
            if not children:
                continue
            survivors: set[int] = set()
            for v in candidate_sets[u]:
                if all(
                    any(w in candidate_sets[u_c] for w in compatible_neighbors(v, u, u_c))
                    for u_c in children
                ):
                    survivors.add(v)
            candidate_sets[u] = survivors

    candidates = [sorted(c) for c in candidate_sets]
    candidate_index = [{v: i for i, v in enumerate(c)} for c in candidates]
    down: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in skeleton_q.vertices()]
    for u in skeleton_q.vertices():
        for u_c in dag.children(u):
            child_index = candidate_index[u_c]
            down[u][u_c] = [
                tuple(
                    child_index[w]
                    for w in compatible_neighbors(v, u, u_c)
                    if w in child_index
                )
                for v in candidates[u]
            ]
    cs = CandidateSpace(
        query=skeleton_q,
        data=skeleton_d,
        dag=dag,
        candidates=candidates,
        candidate_index=candidate_index,
        down=down,
        refinement_steps=refinement_steps,
    )
    return cs, dag


class EdgeLabeledDAFMatcher:
    """DAF over edge-labeled graphs (same contract as DAFMatcher)."""

    def __init__(self, config: Optional[MatchConfig] = None) -> None:
        self.config = config if config is not None else MatchConfig()
        if self.config.induced:
            raise ValueError("induced matching is not supported for edge-labeled graphs")
        self.name = f"{self.config.variant_name}-edgelabeled"

    def match(
        self,
        query: EdgeLabeledGraph,
        data: EdgeLabeledGraph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
    ) -> MatchResult:
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        start = time.perf_counter()
        cs, _dag = build_edge_labeled_candidate_space(
            query,
            data,
            refinement_steps=self.config.refinement_steps,
            use_local_filters=self.config.use_local_filters,
            injective=self.config.injective,
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

    def count(self, query: EdgeLabeledGraph, data: EdgeLabeledGraph, **kwargs) -> int:
        return self.match(query, data, **kwargs).count
