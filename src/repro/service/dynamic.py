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
anchor set.  It runs on DAF's own pipeline, scoped to the batch: for
each query vertex whose C_ini holds an anchor, a query DAG rooted there
and a CS whose root candidates are pinned to those anchors, searched by
:meth:`~repro.core.matcher.DAFMatcher.search` under the session
matcher's config.  The union of those searches minus the previous set
is exactly the fresh-run difference.  A batch is atomic: every
subscription's difference is computed before the graph, the cache or
any subscription moves to the new version.  The equivalence suite and
the ``dynamic smoke`` CI step assert the difference against full
re-enumeration after every batch.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Optional

from ..core import dag as query_dag
from ..core.candidate_space import (
    build_candidate_space,
    config_build_options,
    initial_candidate_sets,
)
from ..core.config import MatchConfig
from ..core.cs_delta import cs_diff, dag_equivalent, refresh_candidate_space
from ..core.dag import build_dag
from ..core.matcher import DAFMatcher, PreparedQuery
from ..graph.graph import Graph
from ..graph.index import GraphIndex, changed_signatures, refresh_index
from ..graph.mutate import DeltaFootprint, apply_update
from ..graph.properties import is_connected
from ..interfaces import (
    MatchRequest,
    UnsupportedOptionError,
    UpdateBatch,
    UpdateError,
)

#: MatchOptions fields a standing query understands: a per-batch time
#: limit only.  A ``budget`` is single-use and would lapse after one
#: batch; everything else (limits, callbacks, count-only, resume,
#: explain) contradicts the exact-difference streaming contract.
SUBSCRIBE_SUPPORTED_OPTIONS = frozenset({"time_limit"})


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
    query: Graph, data: Graph, embedding: tuple[int, ...], induced: bool
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


def _embeddings_through(
    query: Graph,
    data: Graph,
    config: MatchConfig,
    anchors: set[int],
    deadline: Optional[float],
) -> set[tuple[int, ...]]:
    """Every embedding of ``query`` in ``data`` whose image meets
    ``anchors``, found by DAF's own pipeline.

    For each query vertex ``u`` whose C_ini holds an anchor, the query
    DAG is rooted at ``u`` and BuildCS starts from C_ini with ``C(u)``
    pinned to those anchors, under the session config's build options;
    :meth:`DAFMatcher.search` enumerates that CS.  The union over ``u``
    is the answer.  Passing ``deadline`` (a ``time.monotonic()`` value)
    raises :class:`UpdateError` instead of returning a partial set.
    """
    found: set[tuple[int, ...]] = set()
    if not anchors:
        return found
    engine = DAFMatcher(config)
    options = config_build_options(config, query, data)
    initial = options.pop("initial_sets") or initial_candidate_sets(query, data)
    for u in query.vertices():
        pinned = initial[u] & anchors
        if not pinned:
            continue
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise UpdateError("standing-query delta search exceeded its time limit")
        # Looked up on its module: this module's ``build_dag`` global is
        # the cache-refresh orientation check.
        dag = query_dag.build_dag(query, data, root=u)
        cs = build_candidate_space(
            query,
            data,
            dag,
            initial_sets=[pinned if w == u else initial[w] for w in query.vertices()],
            **options,
        )
        result = engine.search(
            PreparedQuery(query=query, data=data, dag=dag, cs=cs, preprocess_seconds=0.0),
            limit=sys.maxsize,
            time_limit=remaining,
        )
        if result.timed_out:
            raise UpdateError("standing-query delta search exceeded its time limit")
        found.update(result.embeddings)
    return found


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
        config: MatchConfig,
        embeddings: set[tuple[int, ...]],
    ) -> None:
        self._session = session
        self.id = subscription_id
        self.request = request
        #: The session matcher's config: the delta search runs DAF with it.
        self.config = config
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
    def _difference(
        self, data: Graph, footprint: DeltaFootprint
    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The embeddings the batch behind ``footprint`` made appear and
        disappear on ``data``, both sorted.  Changes nothing, so a batch
        computes every subscription's difference before it commits any."""
        query = self.request.query
        time_limit = self.request.options.time_limit
        deadline = None if time_limit is None else time.monotonic() + time_limit

        dirty = footprint.dirty
        disappeared = sorted(
            emb
            for emb in self._current
            if not dirty.isdisjoint(emb)
            and not _still_embeds(query, data, emb, self.config.induced)
        )

        anchors = {v for edge in footprint.inserted_edges for v in edge}
        anchors |= footprint.added
        if self.config.induced:
            anchors |= {v for edge in footprint.deleted_edges for v in edge}
        found = _embeddings_through(query, data, self.config, anchors, deadline)
        appeared = sorted(emb for emb in found if emb not in self._current)
        return appeared, disappeared

    def _commit(
        self,
        appeared: list[tuple[int, ...]],
        disappeared: list[tuple[int, ...]],
        graph_version: int,
        observer,
    ) -> None:
        self._current.difference_update(disappeared)
        self._current.update(appeared)
        for emb in disappeared:
            self._record("disappeared", emb, graph_version, observer)
        for emb in appeared:
            self._record("appeared", emb, graph_version, observer)

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
    if not isinstance(config, MatchConfig):
        config = MatchConfig()
    if not config.collect_embeddings:
        raise ValueError(
            "standing queries maintain an explicit embedding set; the session "
            "matcher must collect embeddings"
        )
    query = request.query
    if query.num_vertices > 1 and not is_connected(query):
        raise ValueError("a standing query must be a connected query graph")

    # Baseline embedding set: one full enumeration at the current version.
    result = session.run(MatchRequest(query=query, options=request.options))
    if result.timed_out or getattr(result, "budget_breach", None):
        raise UpdateError(
            "standing-query baseline enumeration was cut short; "
            "raise the subscription's time_limit"
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
        config,
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
    # The vertices whose MND/NLF entry moved, for every refresh to share.
    moved = changed_signatures(old_data.index, new_data.index, new_data, footprint)

    def refresh(prepared):
        if config is None or prepared.cs.trail is None:
            return None
        new_dag = build_dag(prepared.query, new_data)
        if not dag_equivalent(new_dag, prepared.dag):
            # The batch moved the data statistics BuildDAG keys on; a
            # trail replay against a different orientation is meaningless.
            return None
        new_cs = refresh_candidate_space(
            prepared.cs, new_data, footprint, config, observer=session.observer, moved=moved
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

    # Every subscription's difference is computed before anything is
    # committed: one that fails (say, past its time limit) leaves the
    # session, its cache and every subscription on the old version.
    differences = [
        (standing, standing._difference(new_data, footprint))
        for standing in session._subscriptions.values()
    ]
    refreshed, invalidated = session.cache.rebase(new_version, refresh)

    session.data = new_data
    session._graph_version = new_version

    appeared_total = 0
    disappeared_total = 0
    for standing, (appeared, disappeared) in differences:
        standing._commit(appeared, disappeared, new_version, session.observer)
        appeared_total += len(appeared)
        disappeared_total += len(disappeared)

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
