"""Persistent data-graph sessions.

A :class:`DataGraphSession` amortizes everything that is per-*data-graph*
rather than per-query:

- the graph is frozen once and its :class:`repro.graph.GraphIndex`
  (degree-sorted label buckets, NLF signatures, max-neighbor degrees) is
  built during set-up; every frozen graph builds its index once, on
  first use, so this only moves the build out of the first request;
- prepared queries (DAG + CS) are retained in a
  :class:`~repro.service.PreparedQueryCache` keyed by WL canonical hash,
  so a repeated or isomorphic query skips BuildDAG + BuildCS entirely
  and goes straight to Backtrack.

Results are bit-identical to the sessionless path: both run the same
filter code over the same index, and a cache hit replays the search
over the identical prepared structure (embeddings of an
isomorphic-but-relabeled probe are translated through the verified
vertex bijection, which preserves the embedding *set*).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..core.matcher import DAFMatcher, PreparedQuery
from ..graph.graph import Graph
from ..interfaces import (
    Matcher,
    MatchRequest,
    MatchResult,
    SearchStats,
    UnsupportedOptionError,
)
from ..obs.telemetry import TraceContext, TraceIdAllocator, resumed_context
from ..resilience.budget import BudgetExceeded
from . import dynamic
from .cache import PreparedQueryCache


def _remap(embedding: tuple[int, ...], pi: tuple[int, ...]) -> tuple[int, ...]:
    """Translate an embedding found in cached-query coordinates back to
    the probe query's coordinates (``pi``: probe vertex -> cached vertex)."""
    return tuple(embedding[pi[u]] for u in range(len(pi)))


class DataGraphSession:
    """One resident data graph, shared indexes, and a prepared-query cache.

    Parameters
    ----------
    data:
        The data graph to serve queries against.  Frozen on entry (if not
        already) and its index built up front via
        :meth:`repro.graph.Graph.ensure_index`.
    matcher:
        Default matcher for :meth:`run`; a :class:`DAFMatcher` (whose
        ``prepare``/``search`` split is what the cache retains) unless
        overridden.  Non-DAF matchers share the graph index but bypass
        the prepared cache.
    cache_size:
        Prepared-query LRU capacity (entries, not buckets).
    observer:
        Optional :class:`repro.obs.MetricsRegistry`; receives the
        ``cache_hit``/``cache_miss``/``cache_eviction`` counters and the
        usual per-search spans/counters for session-run queries.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> from repro.interfaces import MatchRequest
    >>> data = Graph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2), (1, 2)])
    >>> session = DataGraphSession(data)
    >>> query = Graph(labels=["A", "B"], edges=[(0, 1)])
    >>> sorted(session.run(MatchRequest(query)).embeddings)
    [(0, 1), (0, 2)]
    >>> session.cache.stats()["misses"]
    1
    >>> sorted(session.run(MatchRequest(query)).embeddings)  # cache hit
    [(0, 1), (0, 2)]
    >>> session.cache.stats()["hits"]
    1
    """

    def __init__(
        self,
        data: Graph,
        matcher: Optional[Matcher] = None,
        cache_size: int = 64,
        observer=None,
    ) -> None:
        if not data.frozen:
            data.freeze()
        data.ensure_index()
        self.data = data
        self.matcher: Matcher = matcher if matcher is not None else DAFMatcher()
        self.observer = observer
        self.cache = PreparedQueryCache(cache_size, observer=observer)
        # Deterministic per-session trace ids: request N is always tN
        # (same-seed reruns produce bit-identical streams).
        self.traces = TraceIdAllocator()
        # Dynamic-graph state: the mutation counter and the standing
        # queries notified after every applied batch (repro.service.dynamic).
        self._graph_version = 0
        self._subscriptions: dict[str, "dynamic.StandingQuery"] = {}
        self._subscription_seq = 0

    # ------------------------------------------------------------------
    def run(
        self,
        request: MatchRequest,
        matcher: Optional[Matcher] = None,
        trace: Optional[TraceContext] = None,
    ) -> MatchResult:
        """Execute one :class:`~repro.interfaces.MatchRequest` against the
        session's data graph.

        ``request.data`` must be ``None`` (the session supplies its graph)
        or the session's graph itself; anything else is an error — a
        session's cache entries are only valid for its own graph.

        When the session is observed, every event the request emits is
        stamped with a :class:`~repro.obs.TraceContext` — the one passed
        in (``BatchEngine`` pre-allocates), the resumed request's original
        context (when ``options.resume_from`` carries one), or a fresh id
        from the session's allocator.
        """
        matcher = matcher if matcher is not None else self.matcher
        if request.data is not None and request.data is not self.data:
            raise ValueError(
                "request carries a different data graph than this session; "
                "open a separate DataGraphSession for it"
            )
        observer = self.observer
        previous = None
        if observer is not None:
            if trace is None:
                trace = self._request_trace(request)
            previous = observer.trace
            observer.trace = trace
        try:
            if isinstance(matcher, DAFMatcher):
                return self._run_daf(matcher, request)
            bound = MatchRequest(
                query=request.query,
                data=self.data,
                options=request.options,
                tag=request.tag,
            )
            return matcher.run_request(bound)
        finally:
            if observer is not None:
                observer.trace = previous

    def _request_trace(self, request: MatchRequest) -> TraceContext:
        """The context a request runs under: resume lineage wins (the
        continuation stays inside the original request's trace), else a
        fresh deterministic id."""
        resume = request.options.resume_from
        payload = None
        if resume is not None:
            payload = (
                resume.get("trace")
                if isinstance(resume, dict)
                else getattr(resume, "trace", None)
            )
        resumed = resumed_context(payload)
        if resumed is not None:
            return resumed
        return self.traces.allocate()

    def warm(self, queries) -> int:
        """Prepare (or touch) each query so later requests hit the cache.

        Returns the number of queries that were *built* (cache misses).
        """
        matcher = self.matcher
        if not isinstance(matcher, DAFMatcher):
            raise TypeError("warm() requires the session matcher to be a DAFMatcher")
        built = 0
        for query in queries:
            _prepared, _pi, _seconds, state = self._lookup_or_prepare(matcher, query, None)
            if state == "miss":
                built += 1
        return built

    # ------------------------------------------------------------------
    # Dynamic graphs and continuous queries (repro.service.dynamic)
    # ------------------------------------------------------------------
    @property
    def graph_version(self) -> int:
        """Monotone mutation counter: 0 at construction, +1 per applied
        batch.  Mirrored in :meth:`PreparedQueryCache.stats`."""
        return self._graph_version

    def apply(self, batch, cross_validate: bool = False):
        """Apply an :class:`~repro.interfaces.UpdateBatch` of graph deltas.

        Atomically replaces the session's data graph with the mutated
        version (derived from the old one, sharing its untouched rows),
        bumps :attr:`graph_version`, refreshes the graph index
        and every cached prepared query incrementally (entries whose DAG
        the batch re-oriented are invalidated instead), and notifies all
        standing queries with the exact appeared/disappeared embedding
        difference.  Returns an :class:`repro.service.UpdateResult`.

        ``cross_validate=True`` additionally rebuilds the new graph, its
        index and every refreshed CS cold and raises :class:`~repro.interfaces.UpdateError` on any
        divergence — the incremental path's equivalence check.

        Checkpoints taken before a batch (``options.resume_from``) are
        tied to the pre-batch graph: resuming them afterwards is the
        caller's responsibility (re-run instead when in doubt).
        """
        return dynamic.apply_batch(self, batch, cross_validate=cross_validate)

    def subscribe(self, request: MatchRequest):
        """Register ``request`` as a continuous query.

        Runs one full enumeration as the baseline, then streams the exact
        embedding difference after every :meth:`apply` as
        ``embedding.appeared`` / ``embedding.disappeared`` events.  Only
        the ``time_limit`` option is accepted; any other non-default
        option (``budget`` included: one search spends it) raises
        :class:`~repro.interfaces.UnsupportedOptionError`.  Returns the
        :class:`repro.service.StandingQuery`.
        """
        return dynamic.subscribe(self, request)

    @property
    def subscriptions(self) -> tuple:
        """The active standing queries, in subscription order."""
        return tuple(self._subscriptions.values())

    # ------------------------------------------------------------------
    def _lookup_or_prepare(
        self, matcher: DAFMatcher, query: Graph, budget, observer=None
    ) -> tuple[PreparedQuery, Optional[tuple[int, ...]], float, str]:
        """Cache lookup, falling back to a full BuildDAG + BuildCS.

        Returns ``(prepared, pi, preprocess_seconds, "hit"|"miss")``;
        ``pi`` is ``None`` when no coordinate translation is needed
        (miss, or hit under the identity).  May raise
        :class:`~repro.resilience.BudgetExceeded` from the build.
        ``observer`` overrides the session registry for the build itself
        (the explain path routes it to a per-request registry); the
        ``cache_lookup`` span always lands on the session registry.
        """
        build_observer = observer if observer is not None else self.observer
        start = time.perf_counter()
        found = self.cache.lookup(query)
        if self.observer is not None:
            self.observer.record_span("cache_lookup", time.perf_counter() - start)
        if found is not None:
            entry, pi = found
            if pi == tuple(range(query.num_vertices)):
                pi = None
            # A hit's preprocessing cost is the lookup itself (hash +
            # isomorphism verification); the dag_build/cs_construct spans
            # are *not* recorded, which is how the bench measures the
            # amortization.
            return entry.prepared, pi, time.perf_counter() - start, "hit"
        # keep_trail: sessions serve mutable graphs, and the refinement
        # trail is what lets apply() refresh this entry incrementally.
        if build_observer is not None:
            prepared = matcher.prepare(
                query, self.data, budget=budget, observer=build_observer, keep_trail=True
            )
        else:
            prepared = matcher.prepare(query, self.data, budget=budget, keep_trail=True)
        self.cache.insert(query, prepared)
        return prepared, None, time.perf_counter() - start, "miss"

    def _run_daf(self, matcher: DAFMatcher, request: MatchRequest) -> MatchResult:
        options = request.options
        unsupported = [
            name
            for name in options.non_default_fields()
            if name not in matcher.supported_options
        ]
        if unsupported:
            raise UnsupportedOptionError(matcher, unsupported)
        budget = options.budget
        explain_registry = None
        if options.explain:
            # The report's per-vertex actuals must equal the registry
            # totals for exactly this request, so the run is observed by
            # a dedicated registry sharing the session sink/trace rather
            # than the session-wide accumulating one.
            from ..obs.metrics import MetricsRegistry

            explain_registry = MetricsRegistry(
                sink=getattr(self.observer, "sink", None)
            )
            if self.observer is not None and self.observer.trace is not None:
                explain_registry.trace = self.observer.trace
        try:
            prepared, pi, preprocess, _state = self._lookup_or_prepare(
                matcher, request.query, budget, observer=explain_registry
            )
        except BudgetExceeded as exc:
            result = MatchResult()
            result.budget_breach = exc.dimension
            result.timed_out = exc.dimension == "time"
            return result
        remaining = None
        if options.time_limit is not None:
            remaining = options.time_limit - preprocess
            if remaining <= 0:
                result = MatchResult(
                    stats=SearchStats(
                        candidates_total=prepared.cs.size,
                        filter_iterations=prepared.cs.refinement_steps,
                        preprocess_seconds=preprocess,
                    )
                )
                result.timed_out = True
                return result
        search_matcher = matcher
        if options.count_only and matcher.config.collect_embeddings:
            search_matcher = DAFMatcher(
                dataclasses.replace(matcher.config, collect_embeddings=False),
                observer=matcher.observer,
            )
        on_embedding = options.on_embedding
        if pi is not None and on_embedding is not None:
            user_callback = on_embedding

            def on_embedding(embedding, _cb=user_callback, _pi=pi):
                _cb(_remap(embedding, _pi))

        result = search_matcher.search(
            prepared,
            limit=options.resolved_limit,
            time_limit=remaining,
            on_embedding=on_embedding,
            budget=budget,
            observer=explain_registry if explain_registry is not None else self.observer,
            resume_from=options.resume_from,
        )
        result.stats.preprocess_seconds = preprocess
        if pi is not None and result.embeddings:
            result.embeddings = [_remap(e, pi) for e in result.embeddings]
        if explain_registry is not None:
            # A cache hit replays the *cached* query's prepared structure,
            # so the per-vertex dims come back in its coordinates; pi
            # translates them like the embeddings above.
            from ..obs.explain import attach_report, explain as build_plan

            plan = build_plan(request.query, self.data, matcher.config)
            attach_report(
                result,
                algorithm=matcher.name,
                query=request.query,
                data=self.data,
                plan=plan,
                registry=explain_registry,
                pi=pi,
            )
        return result

    def __repr__(self) -> str:
        return (
            f"DataGraphSession(|V|={self.data.num_vertices}, "
            f"|E|={self.data.num_edges}, matcher={self.matcher.name!r}, "
            f"cache={len(self.cache)}/{self.cache.capacity})"
        )
