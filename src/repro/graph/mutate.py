"""Applying :class:`repro.interfaces.UpdateBatch` deltas to a data graph.

:class:`Graph` is deliberately immutable once frozen — every matcher,
cached prepared query, and forked worker shares it by reference.  Dynamic
serving therefore mutates by *replacement*: :func:`apply_update` derives
a new frozen graph from the old one plus a batch of deltas and reports the
batch's :class:`DeltaFootprint` (which vertices could possibly have
changed label, degree, adjacency, or local-filter signature).  The new
graph shares every row the batch did not touch with the old one, so a
batch costs in proportion to what it touches; the serving layer uses the
footprint to refresh the :class:`GraphIndex` and every cached candidate
space the same way instead of rebuilding them.

Two representation rules keep downstream id-based structures stable:

- **Vertex ids never move.**  New vertices append after the current ones
  (ids assigned in batch order); removed vertices are *tombstoned* — all
  incident edges are dropped and the label becomes
  :data:`TOMBSTONE_LABEL`, a reserved sentinel no query may use, so the
  vertex can never re-enter any candidate set.
- **Batches are atomic.**  Deltas are validated in order against an
  overlay of the touched rows; any invalid delta raises
  :class:`repro.interfaces.UpdateError` and the original graph is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interfaces import Delta, UpdateBatch, UpdateError
from .graph import Graph, Label

#: Reserved label given to deleted vertices.  Ordinary graphs must never
#: use it: queries carrying it match nothing by construction, and
#: :func:`apply_update` rejects ``insert-vertex`` deltas that claim it.
TOMBSTONE_LABEL = "__tombstone__"


@dataclass(frozen=True)
class DeltaFootprint:
    """Which vertices an applied batch could possibly have perturbed.

    All sets are *gross* (an edge inserted and deleted within one batch
    contributes to both sides): supersets are sound everywhere the
    footprint is consumed — incremental refresh re-evaluates footprint
    vertices from scratch, and the standing-query delta search only uses
    the footprint to *anchor* enumeration, subtracting the old embedding
    set afterwards.

    Attributes
    ----------
    edge_touched:
        Endpoints of every inserted or deleted edge, including the edges
        stripped by vertex tombstoning.  Exactly the vertices whose
        degree or adjacency may differ.
    added:
        Ids of vertices created by ``insert-vertex`` deltas.
    tombstoned:
        Ids of vertices removed by ``delete-vertex`` deltas.
    inserted_edges / deleted_edges:
        The touched edges themselves as ``(u, v)`` with ``u < v``.
    """

    edge_touched: frozenset[int]
    added: frozenset[int]
    tombstoned: frozenset[int]
    inserted_edges: frozenset[tuple[int, int]]
    deleted_edges: frozenset[tuple[int, int]]

    @property
    def dirty(self) -> frozenset[int]:
        """Vertices whose label, degree, or adjacency may have changed."""
        return self.edge_touched | self.added | self.tombstoned

    def local_dirty(self, graph: Graph) -> set[int]:
        """Vertices whose *local-filter signature* (NLF/MND — a function
        of the neighbors' labels and degrees) may have changed: the dirty
        vertices plus their neighborhoods in the mutated ``graph``.

        Sound because a vertex that lost a neighbor outright is itself
        ``edge_touched``; every other affected vertex still borders a
        dirty vertex in the new graph.
        """
        out = set(self.dirty)
        for v in self.dirty:
            out.update(graph.neighbors(v))
        return out


def apply_update(graph: Graph, batch: UpdateBatch) -> tuple[Graph, DeltaFootprint]:
    """Apply ``batch`` to frozen ``graph``; return the new frozen graph
    and the batch's :class:`DeltaFootprint`.

    Deltas are validated and applied in order against an overlay of the
    touched rows, so later deltas may reference vertices or edges created
    earlier in the same batch.  Raises :class:`UpdateError` (naming the
    delta and its position) on the first invalid delta, leaving ``graph``
    untouched.  The result shares every untouched row with ``graph``.
    """
    graph._require_frozen()
    labels: dict[int, Label] = {}  # new and relabeled vertices
    rows: dict[int, set[int]] = {}  # touched adjacency rows, in full

    edge_touched: set[int] = set()
    added: set[int] = set()
    tombstoned: set[int] = set()
    inserted_edges: set[tuple[int, int]] = set()
    deleted_edges: set[tuple[int, int]] = set()

    def row(v: int) -> set[int]:
        return rows[v] if v in rows else rows.setdefault(v, set(graph.neighbor_set(v)))

    def fail(position: int, delta: Delta, why: str) -> UpdateError:
        return UpdateError(f"deltas[{position}] ({delta.op}): {why}")

    def check_endpoint(position: int, delta: Delta, v: int) -> None:
        if not 0 <= v < graph.num_vertices + len(added):
            raise fail(position, delta, f"vertex {v} does not exist")
        if (labels[v] if v in labels else graph.label(v)) == TOMBSTONE_LABEL:
            raise fail(position, delta, f"vertex {v} was deleted")

    for position, delta in enumerate(batch):
        if delta.op == "insert-edge":
            u, v = delta.u, delta.v
            check_endpoint(position, delta, u)
            check_endpoint(position, delta, v)
            if v in row(u):
                raise fail(position, delta, f"edge ({u}, {v}) already exists")
            row(u).add(v)
            row(v).add(u)
            edge_touched.update((u, v))
            inserted_edges.add((u, v) if u < v else (v, u))
        elif delta.op == "delete-edge":
            u, v = delta.u, delta.v
            check_endpoint(position, delta, u)
            check_endpoint(position, delta, v)
            if v not in row(u):
                raise fail(position, delta, f"edge ({u}, {v}) does not exist")
            row(u).discard(v)
            row(v).discard(u)
            edge_touched.update((u, v))
            deleted_edges.add((u, v) if u < v else (v, u))
        elif delta.op == "insert-vertex":
            if delta.label == TOMBSTONE_LABEL:
                raise fail(position, delta, f"label {TOMBSTONE_LABEL!r} is reserved")
            v = graph.num_vertices + len(added)
            labels[v] = delta.label
            rows[v] = set()
            added.add(v)
        else:  # delete-vertex
            u = delta.u
            check_endpoint(position, delta, u)
            for w in sorted(row(u)):
                row(w).discard(u)
                edge_touched.update((u, w))
                deleted_edges.add((u, w) if u < w else (w, u))
            row(u).clear()
            labels[u] = TOMBSTONE_LABEL
            tombstoned.add(u)

    footprint = DeltaFootprint(
        edge_touched=frozenset(edge_touched),
        added=frozenset(added),
        tombstoned=frozenset(tombstoned),
        inserted_edges=frozenset(inserted_edges),
        deleted_edges=frozenset(deleted_edges),
    )
    return graph._derive(labels, rows), footprint
