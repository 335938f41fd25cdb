"""Dynamic-graph serving: versioned mutation and standing queries.

This module is the serving-layer half of incremental maintenance.  A
:class:`~repro.service.DataGraphSession` delegates here when its data
graph mutates:

- :func:`apply_batch` turns an :class:`repro.interfaces.UpdateBatch`
  into a new graph version — a graph derived from the old one by
  :func:`repro.graph.mutate.apply_update`, incremental
  :class:`~repro.graph.GraphIndex` refresh, and a
  :meth:`PreparedQueryCache.rebase` pass that refreshes each cached
  candidate space through :func:`repro.core.cs_delta.refresh_candidate_space`
  (or invalidates the entry when the batch re-oriented the query's DAG);
- :class:`StandingQuery` implements continuous queries: after every
  batch the subscription's embedding set is brought forward by
  re-checking only old embeddings that touch the delta footprint
  (disappearance) and enumerating only embeddings anchored at
  delta-touched vertices (appearance), then streamed as schema'd
  ``embedding.appeared`` / ``embedding.disappeared`` events.

The appearance search is exact, not heuristic: a new embedding that was
not valid before the batch must use an inserted edge or vertex (or, in
induced mode, lose a conflicting edge), so its image intersects the
anchor set; enumerating all embeddings through each anchor and
subtracting the previous set yields exactly the fresh-run difference.
The equivalence suite and the ``dynamic smoke`` CI step assert this
against full re-enumeration after every batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core.candidate_space import initial_candidate_sets
from ..core.cs_delta import cs_diff, dag_equivalent, refresh_candidate_space
from ..core.dag import build_dag
from ..core.matcher import DAFMatcher, PreparedQuery
from ..graph.graph import Graph
from ..graph.index import GraphIndex, refresh_index
from ..graph.mutate import DeltaFootprint, apply_update
from ..interfaces import (
    MatchRequest,
    UnsupportedOptionError,
    UpdateBatch,
    UpdateError,
)

#: MatchOptions fields a standing query understands: per-batch governance
#: only.  Everything else (limits, callbacks, count-only, resume,
#: explain) contradicts the exact-difference streaming contract.
SUBSCRIBE_SUPPORTED_OPTIONS = frozenset({"time_limit", "budget"})


class _StandingSurface:
    """Adapter giving :class:`UnsupportedOptionError` (which reports a
    matcher-like ``name`` and ``supported_options``) a subscription
    surface to describe."""

    name = "standing-query"
    supported_options = SUBSCRIBE_SUPPORTED_OPTIONS


@dataclass(frozen=True)
class EmbeddingEvent:
    """One streamed change of a standing query's embedding set."""

    kind: str  # "appeared" | "disappeared"
    embedding: tuple[int, ...]
    graph_version: int


@dataclass
class UpdateResult:
    """What one :meth:`DataGraphSession.apply` call did."""

    graph_version: int
    deltas: int
    added_vertices: tuple[int, ...]
    cache_refreshed: int
    cache_invalidated: int
    appeared: int
    disappeared: int
    seconds: float


# ----------------------------------------------------------------------
# Exact embedding maintenance primitives
# ----------------------------------------------------------------------
def _still_embeds(
    query: Graph, data: Graph, embedding: tuple[int, ...], injective: bool, induced: bool
) -> bool:
    """Direct validity re-check of one mapping against the mutated graph.

    Vertex ids are stable across mutations (tombstoning), so injectivity
    cannot change; labels and edges can.
    """
    for u in query.vertices():
        if data.label(embedding[u]) != query.label(u):
            return False
    for u1, u2 in query.edges():
        if not data.has_edge(embedding[u1], embedding[u2]):
            return False
    if induced:
        n = query.num_vertices
        for u1 in range(n):
            for u2 in range(u1 + 1, n):
                if not query.has_edge(u1, u2) and data.has_edge(
                    embedding[u1], embedding[u2]
                ):
                    return False
    return True


def _search_order(query: Graph, start: int) -> list[int]:
    """BFS order from ``start`` so every later vertex (in a connected
    query) has an already-mapped neighbor to extend from."""
    order = [start]
    seen = {start}
    head = 0
    while head < len(order):
        for w in query.neighbors(order[head]):
            if w not in seen:
                seen.add(w)
                order.append(w)
        head += 1
    for u in query.vertices():  # disconnected queries: append the rest
        if u not in seen:
            order.append(u)
    return order


def _anchored_embeddings(
    query: Graph,
    data: Graph,
    cand_sets: list[set[int]],
    anchor_u: int,
    anchor_v: int,
    injective: bool,
    induced: bool,
    out: set[tuple[int, ...]],
    deadline: Optional[float],
    budget,
) -> None:
    """All embeddings of ``query`` in ``data`` with ``anchor_u -> anchor_v``,
    added to ``out``.  Plain candidate-pool backtracking ordered BFS-out
    from the anchor, so the walk never leaves the anchor's neighborhood
    in the query — the "delta-touched region" of the search space."""
    if anchor_v not in cand_sets[anchor_u]:
        return
    n = query.num_vertices
    order = _search_order(query, anchor_u)
    mapping = [-1] * n
    mapping[anchor_u] = anchor_v
    used = {anchor_v}

    def extend(position: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise UpdateError("standing-query delta search exceeded its time limit")
        if budget is not None:
            budget.poll()
        if position == n:
            emb = tuple(mapping)
            if induced:
                for u1 in range(n):
                    for u2 in range(u1 + 1, n):
                        if not query.has_edge(u1, u2) and data.has_edge(
                            emb[u1], emb[u2]
                        ):
                            return
            out.add(emb)
            return
        u = order[position]
        mapped_neighbors = [w for w in query.neighbors(u) if mapping[w] != -1]
        if mapped_neighbors:
            first = mapped_neighbors[0]
            pool = [v for v in data.neighbors(mapping[first]) if v in cand_sets[u]]
            rest = mapped_neighbors[1:]
        else:
            pool = sorted(cand_sets[u])
            rest = []
        for v in pool:
            if injective and v in used:
                continue
            if any(not data.has_edge(v, mapping[w]) for w in rest):
                continue
            mapping[u] = v
            if injective:
                used.add(v)
            extend(position + 1)
            mapping[u] = -1
            if injective:
                used.discard(v)

    extend(1)


# ----------------------------------------------------------------------
# Standing queries
# ----------------------------------------------------------------------
class StandingQuery:
    """A continuous query over one session's mutating data graph.

    Created by :meth:`DataGraphSession.subscribe`; holds the query's
    current embedding set and, after each applied batch, streams the
    exact difference as :class:`EmbeddingEvent` records (and schema'd
    ``embedding.appeared`` / ``embedding.disappeared`` events on the
    session's observer).  ``drain()`` hands pending events to the caller;
    ``cancel()`` detaches the subscription.
    """

    def __init__(
        self,
        session,
        subscription_id: str,
        request: MatchRequest,
        injective: bool,
        induced: bool,
        embeddings: set[tuple[int, ...]],
    ) -> None:
        self._session = session
        self.id = subscription_id
        self.request = request
        self.injective = injective
        self.induced = induced
        self.active = True
        self._current = set(embeddings)
        self._pending: list[EmbeddingEvent] = []
        self.events: list[EmbeddingEvent] = []

    @property
    def embeddings(self) -> frozenset[tuple[int, ...]]:
        """The query's current embedding set (probe coordinates)."""
        return frozenset(self._current)

    def drain(self) -> list[EmbeddingEvent]:
        """Events accumulated since the last drain, oldest first."""
        pending, self._pending = self._pending, []
        return pending

    def cancel(self) -> None:
        """Stop observing batches; the event history stays readable."""
        if self.active:
            self.active = False
            self._session._subscriptions.pop(self.id, None)

    # -- called by apply_batch -----------------------------------------
    def _on_batch(
        self, data: Graph, footprint: DeltaFootprint, graph_version: int, observer
    ) -> tuple[int, int]:
        query = self.request.query
        options = self.request.options
        deadline = (
            time.monotonic() + options.time_limit
            if options.time_limit is not None
            else None
        )
        budget = options.budget

        check = footprint.dirty
        disappeared = sorted(
            emb
            for emb in self._current
            if any(v in check for v in emb)
            and not _still_embeds(query, data, emb, self.injective, self.induced)
        )

        anchors = {v for edge in footprint.inserted_edges for v in edge}
        anchors |= footprint.added
        if self.induced:
            anchors |= {v for edge in footprint.deleted_edges for v in edge}
        found: set[tuple[int, ...]] = set()
        if anchors:
            cand_sets = initial_candidate_sets(query, data, self.injective)
            for u in query.vertices():
                for v in sorted(anchors & cand_sets[u]):
                    _anchored_embeddings(
                        query,
                        data,
                        cand_sets,
                        u,
                        v,
                        self.injective,
                        self.induced,
                        found,
                        deadline,
                        budget,
                    )
        appeared = sorted(emb for emb in found if emb not in self._current)

        self._current.difference_update(disappeared)
        self._current.update(appeared)
        for emb in disappeared:
            self._record("disappeared", emb, graph_version, observer)
        for emb in appeared:
            self._record("appeared", emb, graph_version, observer)
        return len(appeared), len(disappeared)

    def _record(
        self, kind: str, embedding: tuple[int, ...], graph_version: int, observer
    ) -> None:
        event = EmbeddingEvent(kind=kind, embedding=embedding, graph_version=graph_version)
        self._pending.append(event)
        self.events.append(event)
        if observer is None:
            return
        if kind == "appeared":
            observer.emit(
                {
                    "event": "embedding.appeared",
                    "subscription": self.id,
                    "graph_version": graph_version,
                    "embedding": list(embedding),
                }
            )
        else:
            observer.emit(
                {
                    "event": "embedding.disappeared",
                    "subscription": self.id,
                    "graph_version": graph_version,
                    "embedding": list(embedding),
                }
            )

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        return (
            f"StandingQuery(id={self.id!r}, |V(q)|={self.request.query.num_vertices}, "
            f"embeddings={len(self._current)}, {state})"
        )


def subscribe(session, request: MatchRequest) -> StandingQuery:
    """Register a continuous query on ``session`` (its ``subscribe()``)."""
    if request.data is not None and request.data is not session.data:
        raise ValueError(
            "subscription carries a different data graph than this session"
        )
    unsupported = [
        name
        for name in request.options.non_default_fields()
        if name not in SUBSCRIBE_SUPPORTED_OPTIONS
    ]
    if unsupported:
        raise UnsupportedOptionError(_StandingSurface(), unsupported)

    config = getattr(session.matcher, "config", None)
    injective = getattr(config, "injective", True)
    induced = getattr(config, "induced", False)
    if config is not None and not getattr(config, "collect_embeddings", True):
        raise ValueError(
            "standing queries maintain an explicit embedding set; the session "
            "matcher must collect embeddings"
        )

    # Baseline embedding set: one full enumeration at the current version.
    result = session.run(MatchRequest(query=request.query, options=request.options))
    if result.timed_out or getattr(result, "budget_breach", None):
        raise UpdateError(
            "standing-query baseline enumeration was cut short; "
            "raise the subscription's time/budget options"
        )
    if len(result.embeddings) >= request.options.resolved_limit:
        raise UpdateError(
            "standing-query baseline enumeration hit the embedding limit; "
            "its difference stream would not be exact"
        )

    session._subscription_seq += 1
    subscription_id = f"sq{session._subscription_seq:06d}"
    standing = StandingQuery(
        session,
        subscription_id,
        request,
        injective,
        induced,
        set(result.embeddings),
    )
    session._subscriptions[subscription_id] = standing
    return standing


# ----------------------------------------------------------------------
# Batch application
# ----------------------------------------------------------------------
def _graph_state(graph: Graph) -> tuple:
    """Everything a frozen graph answers, read through its accessors."""
    rows = [(graph.neighbors(v), graph.neighbor_set(v)) for v in graph.vertices()]
    labels = {lab: graph.vertices_with_label(lab) for lab in graph.distinct_labels()}
    return graph.labels, graph.num_edges, graph.degrees, rows, labels


def apply_batch(
    session, batch: UpdateBatch, cross_validate: bool = False
) -> UpdateResult:
    """Apply ``batch`` to ``session`` (its ``apply()``): new graph
    version, index refresh, cache rebase, subscription notification.

    With ``cross_validate=True`` the derived graph, the refreshed
    :class:`GraphIndex` and every refreshed cache entry's CS are
    additionally compared against cold rebuilds and a mismatch raises
    :class:`UpdateError` — the acceptance check behind the incremental
    path, also exposed as ``repro update --cross-validate``.
    """
    if not isinstance(batch, UpdateBatch):
        batch = UpdateBatch(deltas=tuple(batch))
    start = time.perf_counter()
    old_data = session.data
    new_data, footprint = apply_update(old_data, batch)
    if cross_validate and _graph_state(new_data) != _graph_state(
        Graph(labels=new_data.labels, edges=new_data.edges())
    ):
        raise UpdateError("derived graph diverged from cold rebuild")

    new_data.adopt_index(refresh_index(old_data, old_data.index, new_data, footprint))
    if cross_validate and new_data.index != GraphIndex(new_data):
        raise UpdateError("incremental GraphIndex diverged from cold rebuild")

    new_version = session._graph_version + 1
    matcher = session.matcher
    config = matcher.config if isinstance(matcher, DAFMatcher) else None

    def refresh(prepared):
        if config is None or prepared.cs.trail is None:
            return None
        new_dag = build_dag(prepared.query, new_data)
        if not dag_equivalent(new_dag, prepared.dag):
            # The batch moved the data statistics BuildDAG keys on; a
            # trail replay against a different orientation is meaningless.
            return None
        new_cs = refresh_candidate_space(
            prepared.cs, new_data, footprint, config, observer=session.observer
        )
        if cross_validate:
            cold = matcher.prepare(prepared.query, new_data, keep_trail=True)
            problems = cs_diff(new_cs, cold.cs)
            if problems:
                raise UpdateError(
                    "incremental CS diverged from cold rebuild: "
                    + "; ".join(problems)
                )
        return PreparedQuery(
            query=prepared.query,
            data=new_data,
            dag=prepared.dag,
            cs=new_cs,
            preprocess_seconds=prepared.preprocess_seconds,
        )

    refreshed, invalidated = session.cache.rebase(new_version, refresh)

    session.data = new_data
    session._graph_version = new_version

    appeared_total = 0
    disappeared_total = 0
    for standing in list(session._subscriptions.values()):
        appeared, disappeared = standing._on_batch(
            new_data, footprint, new_version, session.observer
        )
        appeared_total += appeared
        disappeared_total += disappeared

    seconds = time.perf_counter() - start
    if session.observer is not None:
        session.observer.emit(
            {
                "event": "update.batch",
                "graph_version": new_version,
                "deltas": len(batch),
                "edges_inserted": len(footprint.inserted_edges),
                "edges_deleted": len(footprint.deleted_edges),
                "vertices_added": len(footprint.added),
                "vertices_removed": len(footprint.tombstoned),
                "cache_refreshed": refreshed,
                "cache_invalidated": invalidated,
                "appeared": appeared_total,
                "disappeared": disappeared_total,
                "seconds": seconds,
            }
        )
    return UpdateResult(
        graph_version=new_version,
        deltas=len(batch),
        added_vertices=tuple(sorted(footprint.added)),
        cache_refreshed=refreshed,
        cache_invalidated=invalidated,
        appeared=appeared_total,
        disappeared=disappeared_total,
        seconds=seconds,
    )
