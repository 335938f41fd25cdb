"""Edge-labeled matching (the last of §2's "readily extended" cases).

Property graphs label their relationships ("knows", "cites", bond
types); an edge-labeled embedding additionally requires
``L_q(u, u') = L_G(M(u), M(u'))`` for every query edge.  As with the
directed extension, only the candidate layer changes: C_ini applies a
(vertex label, edge label) NLF, and the shared edge-aware DP and CS
edge materialization
(:func:`~repro.core.candidate_space.build_edge_aware_candidate_space`)
admit a data edge only when its label matches the query edge's.  Root
selection, BuildDAG and the search are core DAF's.

:class:`EdgeLabeledGraph` wraps an undirected structure plus an
edge-label map; build one with ``add_edge(u, v, label)``.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Iterable

from ..core.candidate_space import build_edge_aware_candidate_space
from ..core.dag import build_dag, select_root
from ..core.matcher import ExtensionMatcher, PreparedQuery
from ..graph.graph import Graph
from ..graph.properties import is_connected
from ..interfaces import Embedding


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


class EdgeLabeledDAFMatcher(ExtensionMatcher):
    """DAF over edge-labeled graphs (same contract as DAFMatcher)."""

    name_suffix = "edgelabeled"
    graph_kind = "edge-labeled"

    def prepare(self, query: EdgeLabeledGraph, data: EdgeLabeledGraph) -> PreparedQuery:
        """BuildDAG + BuildCS with edge-label-aware adjacency."""
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        start = time.perf_counter()
        skeleton_q, skeleton_d = query.skeleton, data.skeleton
        if skeleton_q.num_vertices > 1 and not is_connected(skeleton_q):
            raise ValueError("query graph must be connected")
        if self.config.injective:
            initial = [
                edge_labeled_candidates(query, data, u, use_nlf=self.config.use_local_filters)
                for u in skeleton_q.vertices()
            ]
        else:
            initial = [
                set(skeleton_d.vertices_with_label(skeleton_q.label(u)))
                for u in skeleton_q.vertices()
            ]
        root = select_root(skeleton_q, skeleton_d, [len(c) for c in initial])
        dag = build_dag(skeleton_q, skeleton_d, root)

        def adjacent(u: int, u_c: int, v: int) -> list[int]:
            """Data neighbours of ``v`` over the query edge's label."""
            wanted = query.edge_label(u, u_c)
            return [w for w in skeleton_d.neighbors(v) if data.edge_label(v, w) == wanted]

        cs = build_edge_aware_candidate_space(
            skeleton_q,
            skeleton_d,
            dag,
            initial,
            adjacent,
            refinement_steps=self.config.refinement_steps,
            refine_to_fixpoint=self.config.refine_to_fixpoint,
        )
        return PreparedQuery(
            query=skeleton_q,
            data=skeleton_d,
            dag=dag,
            cs=cs,
            preprocess_seconds=time.perf_counter() - start,
        )
