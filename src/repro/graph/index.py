"""The data-side statistics behind the candidate filters.

C_ini (paper §3) needs the vertices of one label with at least a given
degree; the local filters (§4, "Optimizing CS") need each vertex's
neighbor-label multiset (NLF) and its largest neighbor degree (MND).  A
:class:`GraphIndex` holds all three for one frozen :class:`Graph`, so
every filter check in ``repro.core.filters`` is a bucket lookup or an
array read.

Every frozen graph has exactly one index, built the first time a filter
reads ``graph.index`` (or eagerly by ``Graph.ensure_index()``, which
``repro.service.DataGraphSession`` calls during set-up) and shared from
then on by DAF preprocessing, the baseline filters and forked parallel
workers (which inherit it copy-on-write).  After a delta batch
:func:`refresh_index` derives the new graph's index from the old one.

Contents, per frozen graph:

- **degree-sorted label buckets**: for each label, the vertices carrying
  it sorted by ``(degree, id)`` plus the parallel degree array, so
  ``C_ini(u)`` = a ``bisect`` + slice and ``|C_ini(u)|`` (root
  selection) is O(log n);
- **NLF signatures**: ``neighbor_label_counts(v)`` for every vertex;
- **MND array**: ``max_neighbor_degree(v)`` for every vertex.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import Graph, Label


def _label_bucket(graph: "Graph", label: "Label") -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertices carrying ``label`` sorted by ``(degree, id)``, and
    their degrees."""
    degrees = graph.degrees
    verts = sorted(graph.vertices_with_label(label), key=lambda v: (degrees[v], v))
    return tuple(verts), tuple(degrees[v] for v in verts)


class GraphIndex:
    """Immutable derived statistics of one frozen :class:`Graph`.

    Construction is O(V log V + E); every query-time operation is a
    dictionary lookup, a bisect, or an array read.  The returned
    containers are shared, not copied — callers must treat them as
    read-only (the NLF dicts in particular are handed out by reference
    on the hot filter path).  Two indexes are equal when their buckets,
    NLF signatures and MND arrays are.
    """

    __slots__ = ("_buckets", "_nlf", "_max_nbr_deg", "build_seconds")

    def __init__(self, graph: "Graph") -> None:
        graph._require_frozen()
        start = time.perf_counter()
        self._buckets = {lab: _label_bucket(graph, lab) for lab in dict.fromkeys(graph.labels)}
        nlf: list[dict["Label", int]] = []
        max_nbr_deg: list[int] = []
        for v in graph.vertices():
            counts, best = graph._neighbor_stats(v)
            nlf.append(counts)
            max_nbr_deg.append(best)
        self._nlf = tuple(nlf)
        self._max_nbr_deg = tuple(max_nbr_deg)
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # C_ini support (label + degree threshold)
    # ------------------------------------------------------------------
    def candidates_with_min_degree(self, label: "Label", min_degree: int) -> list[int]:
        """``{ v : L(v) = label, deg(v) >= min_degree }`` in ascending
        vertex-id order."""
        bucket = self._buckets.get(label)
        if bucket is None:
            return []
        verts, degs = bucket
        return sorted(verts[bisect_left(degs, min_degree):])

    def count_with_min_degree(self, label: "Label", min_degree: int) -> int:
        bucket = self._buckets.get(label)
        if bucket is None:
            return 0
        verts, degs = bucket
        return len(verts) - bisect_left(degs, min_degree)

    # ------------------------------------------------------------------
    # Local-filter support (NLF / MND)
    # ------------------------------------------------------------------
    def neighbor_label_counts(self, v: int) -> dict["Label", int]:
        """Precomputed NLF signature of ``v`` — shared dict, do not mutate."""
        return self._nlf[v]

    def max_neighbor_degree(self, v: int) -> int:
        return self._max_nbr_deg[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphIndex):
            return NotImplemented
        return (
            self._buckets == other._buckets
            and self._nlf == other._nlf
            and self._max_nbr_deg == other._max_nbr_deg
        )

    def __repr__(self) -> str:
        return (
            f"GraphIndex(labels={len(self._buckets)}, "
            f"vertices={len(self._nlf)}, built in {self.build_seconds * 1e3:.1f}ms)"
        )


def refresh_index(
    old_graph: "Graph", old_index: GraphIndex, new_graph: "Graph", footprint
) -> GraphIndex:
    """Incrementally rebuild a :class:`GraphIndex` after a delta batch.

    ``footprint`` is the :class:`repro.graph.mutate.DeltaFootprint` of the
    batch that turned ``old_graph`` into ``new_graph``.  Only the slices
    the batch could have perturbed are recomputed; everything else is
    shared with ``old_index`` by reference:

    - a label bucket is rebuilt iff some dirty vertex carries that label
      in the old or new graph (bucket contents depend only on the label's
      membership and its members' degrees, and a degree can only change
      at an ``edge_touched`` vertex — whose label is then dirty), and
      dropped when the new graph no longer has the label; every other
      bucket is carried over without visiting the graph's labels;
    - NLF/MND entries are recomputed for dirty vertices and their new-
      graph neighborhoods (a vertex that lost a neighbor entirely is
      itself ``edge_touched``).

    The result equals ``GraphIndex(new_graph)``.
    """
    start = time.perf_counter()
    dirty = footprint.dirty
    old_vertex_count = old_graph.num_vertices
    dirty_labels = {new_graph.label(v) for v in dirty}
    dirty_labels.update(old_graph.label(v) for v in dirty if v < old_vertex_count)

    index = object.__new__(GraphIndex)
    index._buckets = dict(old_index._buckets)
    for lab in dirty_labels:
        if new_graph.label_frequency(lab):
            index._buckets[lab] = _label_bucket(new_graph, lab)
        else:
            index._buckets.pop(lab, None)

    recompute = set(dirty)
    for v in dirty:
        recompute.update(new_graph.neighbors(v))
    nlf = list(old_index._nlf)
    max_nbr_deg = list(old_index._max_nbr_deg)
    grown = new_graph.num_vertices - len(nlf)
    if grown > 0:
        nlf.extend({} for _ in range(grown))
        max_nbr_deg.extend(0 for _ in range(grown))
    for v in recompute:
        nlf[v], max_nbr_deg[v] = new_graph._neighbor_stats(v)
    index._nlf = tuple(nlf)
    index._max_nbr_deg = tuple(max_nbr_deg)
    index.build_seconds = time.perf_counter() - start
    return index
