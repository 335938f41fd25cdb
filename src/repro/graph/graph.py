"""Vertex-labeled undirected graphs.

This module provides the :class:`Graph` substrate that every matcher in the
library operates on.  Vertices are dense integers ``0..n-1`` and labels are
arbitrary hashable values (strings in file formats, small ints in generated
workloads).  A graph is built incrementally with :meth:`Graph.add_vertex`
and :meth:`Graph.add_edge` and then *frozen*; freezing sorts the adjacency
lists, builds the label index and makes the graph safe to share between
matchers and worker processes.  The filter statistics
(:class:`~repro.graph.index.GraphIndex`) are derived from a frozen graph
once, the first time a filter reads them.  Nothing a frozen graph holds
is ever mutated, so :meth:`Graph._derive` (behind
:func:`repro.graph.mutate.apply_update`) shares every untouched row, and
an unchanged label index, between a graph and the versions derived from it.

The representation is chosen for pure-Python matching speed:

- per-vertex adjacency as a sorted ``tuple`` (cheap iteration, cache-friendly)
- per-vertex adjacency ``frozenset`` (O(1) edge membership tests)
- label index ``label -> tuple of vertices`` (label statistics)
- degree array (filter checks without recomputation)
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

Label = Hashable
Vertex = int
Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised for structurally invalid graph operations."""


class Graph:
    """An undirected graph with one label per vertex.

    Parameters
    ----------
    labels:
        Optional iterable of labels; vertex ``i`` receives the i-th label.
    edges:
        Optional iterable of ``(u, v)`` pairs over those vertices.

    Examples
    --------
    >>> g = Graph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.label(2)
    'A'
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = (
        "_labels",
        "_adj_sets",
        "_adj",
        "_num_edges",
        "_frozen",
        "_label_index",
        "_degrees",
        "_index",
    )

    def __init__(
        self,
        labels: Optional[Iterable[Label]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._labels: list[Label] = []
        self._adj_sets: list[set[int]] = []
        self._adj: list[tuple[int, ...]] = []
        self._num_edges = 0
        self._frozen = False
        self._label_index: dict[Label, tuple[int, ...]] = {}
        self._degrees: tuple[int, ...] = ()
        self._index = None
        if labels is not None:
            for label in labels:
                self.add_vertex(label)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)
        if labels is not None or edges is not None:
            self.freeze()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: Label) -> int:
        """Add a vertex with the given label and return its id."""
        if self._frozen:
            raise GraphError("cannot add vertices to a frozen graph")
        self._labels.append(label)
        self._adj_sets.append(set())
        return len(self._labels) - 1

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``(u, v)``.

        Self-loops and duplicate edges are rejected: neither occurs in the
        paper's (simple-graph) setting and silently ignoring them hides
        workload-generation bugs.
        """
        if self._frozen:
            raise GraphError("cannot add edges to a frozen graph")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        n = len(self._labels)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references unknown vertex")
        if v in self._adj_sets[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._adj_sets[u].add(v)
        self._adj_sets[v].add(u)
        self._num_edges += 1

    def freeze(self) -> "Graph":
        """Finalize the graph: sort adjacency, build indexes.

        Idempotent; returns ``self`` for chaining.
        """
        if self._frozen:
            return self
        self._adj = [tuple(sorted(s)) for s in self._adj_sets]
        self._adj_sets = [frozenset(s) for s in self._adj_sets]  # type: ignore[misc]
        self._degrees = tuple(len(a) for a in self._adj)
        self._index_labels()
        self._frozen = True
        return self

    def _index_labels(self) -> None:
        index: dict[Label, list[int]] = {}
        for v, label in enumerate(self._labels):
            index.setdefault(label, []).append(v)
        self._label_index = {lab: tuple(vs) for lab, vs in index.items()}

    def _derive(self, labels: Mapping[int, Label], rows: Mapping[int, set[int]]) -> "Graph":
        """A frozen copy of this graph with the vertices in ``labels``
        relabeled (ids from :attr:`num_vertices` on append new vertices)
        and the rows in ``rows`` replaced by the given neighbor sets, which
        the caller keeps symmetric.  Every other row is shared with this
        graph, and so is the label index when ``labels`` is empty; otherwise
        the label index is rebuilt as :meth:`freeze` builds it.
        """
        self._require_frozen()
        n = len(self._labels)
        grow = max(labels, default=n - 1) + 1 - n
        g = Graph()
        g._labels = self._labels + [None] * grow
        g._adj = self._adj + [()] * grow
        g._adj_sets = self._adj_sets + [frozenset()] * grow  # type: ignore[operator]
        degrees = list(self._degrees) + [0] * grow
        for v, row in rows.items():
            if v >= n or row != self._adj_sets[v]:
                g._adj[v] = tuple(sorted(row))
                g._adj_sets[v] = frozenset(row)  # type: ignore[call-overload]
                degrees[v] = len(row)
        g._degrees = tuple(degrees)
        old_degree_sum = sum(self._degrees[v] for v in rows if v < n)
        g._num_edges = self._num_edges + (sum(map(len, rows.values())) - old_degree_sum) // 2
        g._label_index = self._label_index
        if labels:
            for v, label in labels.items():
                g._labels[v] = label
            g._index_labels()
        g._frozen = True
        return g

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise GraphError("graph must be frozen first (call freeze())")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        return range(len(self._labels))

    def label(self, v: int) -> Label:
        return self._labels[v]

    @property
    def labels(self) -> tuple[Label, ...]:
        """Labels of all vertices, indexed by vertex id."""
        return tuple(self._labels)

    def degree(self, v: int) -> int:
        self._require_frozen()
        return self._degrees[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        self._require_frozen()
        return self._degrees

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        self._require_frozen()
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        self._require_frozen()
        return self._adj_sets[v]  # type: ignore[return-value]

    def has_edge(self, u: int, v: int) -> bool:
        self._require_frozen()
        return v in self._adj_sets[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        self._require_frozen()
        for u in self.vertices():
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Label statistics
    # ------------------------------------------------------------------
    def vertices_with_label(self, label: Label) -> tuple[int, ...]:
        self._require_frozen()
        return self._label_index.get(label, ())

    def label_frequency(self, label: Label) -> int:
        """Number of vertices carrying ``label``."""
        self._require_frozen()
        return len(self._label_index.get(label, ()))

    def distinct_labels(self) -> frozenset[Label]:
        self._require_frozen()
        return frozenset(self._label_index)

    @property
    def num_labels(self) -> int:
        self._require_frozen()
        return len(self._label_index)

    def average_degree(self) -> float:
        """avg-deg(g) = sum of degrees / number of vertices (paper §2)."""
        if not self._labels:
            return 0.0
        return 2.0 * self._num_edges / len(self._labels)

    def neighbor_label_counts(self, v: int) -> dict[Label, int]:
        """Multiset of labels among v's neighbors (the NLF signature)."""
        self._require_frozen()
        return self._neighbor_stats(v)[0]

    def max_neighbor_degree(self, v: int) -> int:
        """Largest degree among v's neighbors (0 for isolated v)."""
        self._require_frozen()
        return self._neighbor_stats(v)[1]

    def _neighbor_stats(self, v: int) -> tuple[dict[Label, int], int]:
        """NLF signature and max-neighbor degree of ``v`` in one pass over
        its neighbors; the :class:`GraphIndex` build and refresh use it too."""
        labels, degrees = self._labels, self._degrees
        counts: dict[Label, int] = {}
        best = 0
        for w in self._adj[v]:
            lab = labels[w]
            counts[lab] = counts.get(lab, 0) + 1
            if degrees[w] > best:
                best = degrees[w]
        return counts, best

    # ------------------------------------------------------------------
    # Filter index
    # ------------------------------------------------------------------
    def ensure_index(self):
        """Build (once) and return this graph's :class:`GraphIndex`.

        The index holds the degree-sorted label buckets, NLF signatures
        and max-neighbor degrees that the C_ini/MND/NLF filters in
        ``repro.core.filters`` read.  Every frozen graph has one: it is
        built on first use (see :attr:`index`), and
        ``repro.service.DataGraphSession`` calls this eagerly so the build
        lands in session set-up rather than in the first request.
        """
        self._require_frozen()
        if self._index is None:
            from .index import GraphIndex

            self._index = GraphIndex(self)
        return self._index

    @property
    def index(self):
        """This graph's :class:`GraphIndex`, built by :meth:`ensure_index`
        the first time it is read."""
        index = self._index
        if index is None:
            index = self.ensure_index()
        return index

    def adopt_index(self, index) -> None:
        """Attach a pre-built :class:`GraphIndex` to this frozen graph.

        Used by the dynamic serving layer, which refreshes the previous
        graph's index incrementally after a delta batch instead of paying
        a full :meth:`ensure_index` build on the replacement graph.  The
        caller is responsible for the index actually describing this
        graph; an index for a different vertex count is rejected.
        """
        self._require_frozen()
        if len(index._nlf) != self.num_vertices:
            raise GraphError("index does not describe this graph (vertex count differs)")
        self._index = index

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Return ``(g[S], old->new vertex map)`` for ``S = vertices``.

        The subgraph keeps all edges of this graph with both endpoints in
        ``S`` (paper §2 g[S]); new vertex ids are assigned in the iteration
        order of ``vertices``.
        """
        self._require_frozen()
        order = list(dict.fromkeys(vertices))
        mapping = {old: new for new, old in enumerate(order)}
        sub = Graph()
        for old in order:
            sub.add_vertex(self._labels[old])
        chosen = set(order)
        for old in order:
            for w in self._adj[old]:
                if w in chosen and old < w:
                    sub.add_edge(mapping[old], mapping[w])
        return sub.freeze(), mapping

    def relabeled(self, labels: Mapping[int, Label] | list[Label]) -> "Graph":
        """A copy of this graph with new vertex labels, same edges."""
        self._require_frozen()
        if isinstance(labels, Mapping):
            new_labels = [labels.get(v, self._labels[v]) for v in self.vertices()]
        else:
            if len(labels) != self.num_vertices:
                raise GraphError("label list length must equal vertex count")
            new_labels = list(labels)
        return Graph(labels=new_labels, edges=self.edges())

    def copy(self) -> "Graph":
        """An unfrozen, independently mutable copy."""
        g = Graph()
        for label in self._labels:
            g.add_vertex(label)
        if self._frozen:
            edge_iter: Iterable[Edge] = self.edges()
        else:
            edge_iter = (
                (u, v) for u in range(len(self._labels)) for v in self._adj_sets[u] if u < v
            )
        for u, v in edge_iter:
            g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labels={len(set(self._labels))}, {state})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same labels, same edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self._labels != other._labels or self._num_edges != other._num_edges:
            return False
        self._require_frozen()
        other._require_frozen()
        return self._adj == other._adj

    def __hash__(self) -> int:
        self._require_frozen()
        return hash((tuple(self._labels), tuple(self._adj)))
