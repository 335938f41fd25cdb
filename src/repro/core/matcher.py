"""Top-level DAF matcher (paper Algorithm 1).

``DAFMatcher.match`` runs the three stages — BuildDAG, BuildCS, Backtrack —
and returns a :class:`~repro.interfaces.MatchResult`.  A prepared query
(DAG + CS + weight array) can also be built once with
:meth:`DAFMatcher.prepare` and searched repeatedly or in parallel slices,
which is what the parallel extension (Appendix A.4) uses.
"""

from __future__ import annotations

import sys
import time
from abc import abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

from ..graph.digraph import RootedDAG
from ..graph.graph import Graph
from ..graph.properties import is_connected
from ..interfaces import (
    DEFAULT_LIMIT,
    Deadline,
    Embedding,
    Matcher,
    MatchOptions,
    MatchRequest,
    MatchResult,
    SearchStats,
    TimeoutSignal,
    validate_inputs,
)
from ..resilience.budget import Budget, BudgetExceeded
from ..resilience.checkpoint import resume_payload
from .backtrack import BacktrackEngine
from .candidate_space import CandidateSpace, build_candidate_space, config_build_options
from .config import MatchConfig
from .dag import build_dag


@dataclass
class PreparedQuery:
    """A query preprocessed against a data graph: DAG + CS.

    Reusable across searches (e.g. different limits, or the per-worker
    root-candidate slices of parallel DAF).
    """

    query: Graph
    data: Graph
    dag: RootedDAG
    cs: CandidateSpace
    preprocess_seconds: float

    @property
    def is_negative(self) -> bool:
        """True iff the CS proves there are no embeddings (empty C(u))."""
        return self.cs.is_empty()


class DAFMatcher(Matcher):
    """The paper's DAF algorithm (default config: DAF-path).

    Examples
    --------
    >>> from repro.graph import Graph
    >>> data = Graph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2), (1, 2)])
    >>> query = Graph(labels=["A", "B"], edges=[(0, 1)])
    >>> from repro.interfaces import MatchRequest
    >>> result = DAFMatcher().match(MatchRequest(query, data))
    >>> sorted(result.embeddings)
    [(0, 1), (0, 2)]
    """

    #: Beyond the shared surface, DAF honors a multi-dimension resource
    #: ``budget``, the enumerate-only ``count_only`` fast path, resuming
    #: a suspended search from a checkpoint (``resume_from``), and the
    #: EXPLAIN ANALYZE capture path (``explain`` — docs/explain.md).
    supported_options = Matcher.supported_options | {
        "budget",
        "count_only",
        "resume_from",
        "explain",
    }

    def __init__(self, config: Optional[MatchConfig] = None, observer=None) -> None:
        self.config = config if config is not None else MatchConfig()
        self.name = self.config.variant_name
        #: Optional :class:`repro.obs.MetricsRegistry`; ``None`` keeps the
        #: engine entirely un-instrumented (the zero-overhead contract).
        self.observer = observer

    # ------------------------------------------------------------------
    def prepare(
        self,
        query: Graph,
        data: Graph,
        budget: Optional[Budget] = None,
        observer=None,
        keep_trail: bool = False,
    ) -> PreparedQuery:
        """Run BuildDAG + BuildCS (Algorithm 1 lines 1-2).

        ``keep_trail=True`` asks BuildCS to record its per-pass
        refinement snapshots (``cs.trail``) so the serving layer can
        refresh the CS incrementally after data-graph mutations.

        With a ``budget``, CS construction is governed too: an oversized
        or overlong build raises
        :class:`~repro.resilience.BudgetExceeded` (``match`` converts it
        into a flagged result).  ``observer`` overrides the matcher's
        attached registry for this call; the build emits ``dag_build``,
        ``cs_construct`` and ``cs_refine`` spans plus filter-stage prune
        counters and the candidate histogram.
        """
        obs = observer if observer is not None else self.observer
        validate_inputs(query, data)
        if query.num_vertices > 1 and not is_connected(query):
            raise ValueError(
                "query graph must be connected (paper §2); match components separately"
            )
        start = time.perf_counter()
        dag = build_dag(query, data)
        if obs is not None:
            obs.record_span("dag_build", time.perf_counter() - start)
        cs_start = time.perf_counter()
        cs = build_candidate_space(
            query,
            data,
            dag,
            **config_build_options(self.config, query, data),
            budget=budget,
            observer=obs,
            keep_trail=keep_trail,
        )
        if obs is not None:
            obs.record_span("cs_construct", time.perf_counter() - cs_start)
        return PreparedQuery(
            query=query,
            data=data,
            dag=dag,
            cs=cs,
            preprocess_seconds=time.perf_counter() - start,
        )

    def search(
        self,
        prepared: PreparedQuery,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
        root_candidate_indices: Optional[list[int]] = None,
        tracer=None,
        budget: Optional[Budget] = None,
        observer=None,
        resume_from=None,
        checkpoint_every: Optional[int] = None,
        on_checkpoint=None,
    ) -> MatchResult:
        """Run Backtrack (Algorithm 1 line 4) over a prepared query.

        Pass a :class:`repro.core.trace.SearchTracer` as ``tracer`` to
        record the full search tree (nodes, leaf classes, failing sets —
        the paper's Figure 6/8 view) and its folded stacks; with
        ``keep_tree=False`` it keeps only the bounded folded stacks, which
        scales to real workloads.

        A ``budget`` replaces the plain wall-clock deadline with the
        multi-dimension governor (``time_limit`` additionally tightens
        its wall-clock dimension when both are given).  The search never
        raises on expiry: timeouts, budget breaches and
        ``KeyboardInterrupt`` all return the partial result with the
        corresponding flag set.

        ``observer`` (or the matcher-level ``self.observer``) records
        prune-reason counters, the ``order``/``search`` spans, and leaves
        its snapshot in ``result.stats.metrics``.

        Suspend/resume: when the search is cut short at a resumable safe
        phase, ``result.checkpoint`` carries a
        :class:`~repro.resilience.checkpoint.SearchCheckpoint`; pass it
        back as ``resume_from`` (with the same prepared query and config)
        to continue bit-identically.  ``checkpoint_every`` /
        ``on_checkpoint`` additionally stream periodic snapshots every
        that-many recursive calls (how parallel workers heartbeat their
        frontier to the supervisor).
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        obs = observer if observer is not None else self.observer
        stats = SearchStats(
            candidates_total=prepared.cs.size,
            filter_iterations=prepared.cs.refinement_steps,
            preprocess_seconds=prepared.preprocess_seconds,
        )
        result = MatchResult(stats=stats)
        if prepared.is_negative:
            # Negativity proven by preprocessing alone (A.3); the filter
            # counters still explain *why* (some C(u) emptied).
            if obs is not None:
                stats.metrics = obs.snapshot()
                obs.emit_counters()
            return result
        if budget is not None:
            if time_limit is not None:
                budget.cap_time(time_limit)
            deadline = budget
        else:
            deadline = Deadline(time_limit)
        order_start = time.perf_counter()
        engine = BacktrackEngine(
            prepared.cs,
            self.config,
            limit=limit,
            deadline=deadline,
            stats=stats,
            on_embedding=on_embedding,
            root_candidate_indices=root_candidate_indices,
            tracer=tracer,
            observer=obs,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        if resume_from is not None:
            ckpt = resume_payload(resume_from)
            engine.restore(ckpt)
            if obs is not None:
                obs.resumes += 1
                # Continue the original request's trace (resume lineage)
                # unless a caller already installed a context.
                obs.adopt_trace(ckpt.trace)
                obs.emit(
                    {
                        "event": "checkpoint.resume",
                        "phase": ckpt.phase,
                        "depth": ckpt.depth,
                        "recursive_calls": ckpt.recursive_calls,
                        "embeddings_found": ckpt.embeddings_found,
                    }
                )
        if obs is not None:
            # Engine setup is dominated by the matching-order machinery
            # (weight arrays for path-size ordering).
            obs.record_span("order", time.perf_counter() - order_start)
        # Queries can reach hundreds of vertices (Fig. 11 uses 400); give
        # the recursion comfortable headroom beyond the interpreter default.
        needed_depth = 1000 + 4 * prepared.query.num_vertices
        old_depth = sys.getrecursionlimit()
        if old_depth < needed_depth:
            sys.setrecursionlimit(needed_depth)
        search_start = time.perf_counter()

        def attach_checkpoint(reason: str) -> None:
            if not engine.can_checkpoint():
                return
            ckpt = engine.capture_checkpoint()
            result.checkpoint = ckpt
            if obs is not None:
                if obs.trace is not None:
                    ckpt.trace = obs.trace.to_dict()
                obs.emit(
                    {
                        "event": "checkpoint.save",
                        "reason": reason,
                        "phase": ckpt.phase,
                        "depth": ckpt.depth,
                        "recursive_calls": ckpt.recursive_calls,
                        "embeddings_found": ckpt.embeddings_found,
                    }
                )

        try:
            engine.run()
        except BudgetExceeded as exc:
            result.budget_breach = exc.dimension
            result.timed_out = exc.dimension == "time"
            attach_checkpoint(f"budget:{exc.dimension}")
        except TimeoutSignal:
            result.timed_out = True
            attach_checkpoint("timeout")
        except KeyboardInterrupt:
            # Cooperative cancel: surface what was found, flagged, instead
            # of discarding the work (the CLI maps this to exit code 130).
            result.interrupted = True
            attach_checkpoint("interrupt")
        except Exception as exc:
            # Unexpected crash (e.g. an injected fault): hang the frontier
            # on the exception so supervisors can resume instead of
            # restarting, then let it propagate.
            if engine.can_checkpoint():
                ckpt = engine.capture_checkpoint()
                if obs is not None and obs.trace is not None:
                    ckpt.trace = obs.trace.to_dict()
                exc.search_checkpoint = ckpt
            raise
        finally:
            stats.search_seconds = time.perf_counter() - search_start
            if old_depth < needed_depth:
                sys.setrecursionlimit(old_depth)
        result.embeddings = engine.embeddings
        result.limit_reached = engine.limit_reached
        if obs is not None:
            obs.record_span("search", stats.search_seconds)
            stats.metrics = obs.snapshot()
            obs.emit_counters()
        return result

    def _match_impl(
        self,
        query: Graph,
        data: Graph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
        budget: Optional[Budget] = None,
        count_only: bool = False,
        resume_from=None,
        explain: bool = False,
    ) -> MatchResult:
        """Algorithm 1: find up to ``limit`` embeddings of query in data.

        ``budget`` optionally governs the *whole* invocation (CS build
        included) across every dimension; a breach returns a flagged
        partial result rather than raising.  ``count_only`` counts
        matches without materializing embedding tuples (the engine's
        ``collect_embeddings=False`` path).  ``resume_from`` continues a
        previously checkpointed search over the same query/data/config.
        ``explain`` captures an EXPLAIN ANALYZE report in
        ``result.explain``: the run executes under a dedicated metrics
        registry and the static plan is joined with its per-vertex
        actuals (``repro.obs.explain``, docs/explain.md).
        """
        if count_only and self.config.collect_embeddings:
            import dataclasses

            counting = DAFMatcher(
                dataclasses.replace(self.config, collect_embeddings=False),
                observer=self.observer,
            )
            return counting._match_impl(
                query,
                data,
                limit=limit,
                time_limit=time_limit,
                on_embedding=on_embedding,
                budget=budget,
                resume_from=resume_from,
                explain=explain,
            )
        if explain:
            from ..obs.explain import run_with_explain

            return run_with_explain(
                self,
                query,
                data,
                limit=limit,
                time_limit=time_limit,
                on_embedding=on_embedding,
                budget=budget,
                resume_from=resume_from,
            )
        overall_deadline = Deadline(time_limit)
        try:
            prepared = self.prepare(query, data, budget=budget)
        except BudgetExceeded as exc:
            result = MatchResult()
            result.budget_breach = exc.dimension
            result.timed_out = exc.dimension == "time"
            return result
        if overall_deadline.expired():
            result = MatchResult(
                stats=SearchStats(
                    candidates_total=prepared.cs.size,
                    filter_iterations=prepared.cs.refinement_steps,
                    preprocess_seconds=prepared.preprocess_seconds,
                )
            )
            result.timed_out = True
            if self.observer is not None:
                result.stats.metrics = self.observer.snapshot()
            return result
        remaining = None
        if time_limit is not None:
            remaining = max(0.0, time_limit - prepared.preprocess_seconds)
        return self.search(
            prepared,
            limit=limit,
            time_limit=remaining,
            on_embedding=on_embedding,
            budget=budget,
            resume_from=resume_from,
        )


class ExtensionMatcher(Matcher):
    """Base of the §2 extension matchers (directed, edge-labeled and
    multi-label graphs).

    A subclass builds its own C_ini and candidate space in
    :meth:`prepare`, rooting the query DAG with
    :func:`~repro.core.dag.select_root` over its own candidate counts
    and orienting it with :func:`~repro.core.dag.build_dag`.  The search
    is :meth:`DAFMatcher.search`, unchanged.  Induced matching is
    rejected: its non-edge semantics are not defined for these graphs.
    """

    #: Suffix of :attr:`name` (after the variant name).
    name_suffix = ""
    #: The graphs named in the induced-mode error.
    graph_kind = ""

    def __init__(self, config: Optional[MatchConfig] = None) -> None:
        self.config = config if config is not None else MatchConfig()
        if self.config.induced:
            raise ValueError(
                f"induced matching is not supported for {self.graph_kind} graphs"
            )
        self.name = f"{self.config.variant_name}-{self.name_suffix}"

    @abstractmethod
    def prepare(self, query, data) -> PreparedQuery:
        """BuildDAG + BuildCS for this matcher's graph kind."""

    def _match_impl(
        self,
        query,
        data,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
    ) -> MatchResult:
        return DAFMatcher(self.config, observer=self.observer).search(
            self.prepare(query, data),
            limit=limit,
            time_limit=time_limit,
            on_embedding=on_embedding,
        )


def find_embeddings(
    query: Graph,
    data: Graph,
    limit: int = DEFAULT_LIMIT,
    time_limit: Optional[float] = None,
    config: Optional[MatchConfig] = None,
) -> list[Embedding]:
    """Convenience wrapper: the embeddings of ``query`` in ``data``."""
    request = MatchRequest(query, data, options=MatchOptions(limit=limit, time_limit=time_limit))
    return DAFMatcher(config).run_request(request).embeddings


def count_embeddings(
    query: Graph,
    data: Graph,
    limit: int = DEFAULT_LIMIT,
    time_limit: Optional[float] = None,
    config: Optional[MatchConfig] = None,
) -> int:
    """Convenience wrapper: the number of embeddings (capped at limit),
    counted without materializing them."""
    request = MatchRequest(
        query,
        data,
        options=MatchOptions(limit=limit, time_limit=time_limit, count_only=True),
    )
    return DAFMatcher(config).run_request(request).count


def has_embedding(
    query: Graph,
    data: Graph,
    time_limit: Optional[float] = None,
    config: Optional[MatchConfig] = None,
) -> bool:
    """Convenience wrapper: does at least one embedding exist?"""
    return count_embeddings(query, data, limit=1, time_limit=time_limit, config=config) > 0
