"""EXPLAIN / EXPLAIN ANALYZE: static query plans joined with run actuals.

Two levels of forensics for one query:

- :func:`explain` (EXPLAIN) runs the preprocessing pipeline only —
  BuildDAG + BuildCS — and reports the decisions the paper's heuristics
  made: the chosen root and why, the DAG orientation, candidate-set
  sizes per refinement step, and the weight array driving the path-size
  order: a :class:`QueryPlan`.
- :func:`explain_analyze` (EXPLAIN ANALYZE) additionally *runs* the
  search under a dedicated :class:`~repro.obs.MetricsRegistry` and joins
  the plan with the actuals — per-query-vertex extensions, conflicts,
  emptyset failures and failing-set prunes (the
  :data:`~repro.obs.VERTEX_COUNTERS` dimensions), phase spans, and the
  Lemma 6.1 backjump accounting (``fs_cuts`` cuts, ``prune_failing_set``
  skipped subtrees) — into an :class:`ExplainReport` rendered as text or
  as a schema-tagged JSON document (:data:`repro.obs.schema.EXPLAIN_SCHEMA`,
  validated by ``scripts/check_metrics_schema.py``).
- :func:`diff_reports` classifies per-vertex differences between two
  reports (runs, matcher variants, or before/after a change): candidate
  blowups, order inversions, prune-rate collapses.

The per-vertex actuals in a report are copied verbatim from the
registry's :meth:`~repro.obs.MetricsRegistry.snapshot` for the run, so
report totals always equal the registry's vertex-counter totals exactly.
See ``docs/explain.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.candidate_space import build_candidate_space
from ..core.config import MatchConfig
from ..core.dag import build_dag, select_root
from ..core.filters import initial_candidate_count
from ..core.matcher import DAFMatcher
from ..graph.graph import Graph
from ..interfaces import MatchOptions, MatchRequest, MatchResult
from .metrics import VERTEX_COUNTERS, MetricsRegistry
from .schema import EXPLAIN_SCHEMA

#: Candidate-trail rendering cap: a per-step chain longer than this is
#: elided to its first/last steps (full detail stays in the JSON report).
_TRAIL_HEAD = 3
_TRAIL_TAIL = 2
_TRAIL_MAX = _TRAIL_HEAD + _TRAIL_TAIL + 1


@dataclass
class QueryPlan:
    """A human-readable account of DAF's preprocessing decisions."""

    root: int
    root_scores: dict[int, float]
    dag_edges: list[tuple[int, int]]
    topological_order: tuple[int, ...]
    candidate_sizes_initial: dict[int, int]
    candidate_sizes_per_step: list[dict[int, int]]
    cs_size: int
    cs_edges: int
    is_negative: bool
    weight_summary: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: Final per-vertex |C(u)| after refinement (may differ from the last
    #: per-step entry when ``refine_to_fixpoint`` runs extra passes).
    candidate_sizes_final: dict[int, int] = field(default_factory=dict)

    @property
    def filtering_rate(self) -> float:
        """Fraction of initial candidates removed by DAG-graph DP."""
        initial = sum(self.candidate_sizes_initial.values())
        if initial == 0:
            return 0.0
        return 1.0 - self.cs_size / initial

    def render(self) -> str:
        """Multi-line text report."""
        lines = [
            f"root: u{self.root} "
            f"(score |C_ini|/deg = {self.root_scores[self.root]:.3f}, the minimum)",
            f"DAG edges ({len(self.dag_edges)}): "
            + ", ".join(f"u{p}->u{c}" for p, c in self.dag_edges),
            f"matching follows topological orders of: {self.topological_order}",
            "candidate sets:",
        ]
        for u in sorted(self.candidate_sizes_initial):
            steps = [str(step[u]) for step in self.candidate_sizes_per_step]
            if len(steps) > _TRAIL_MAX:
                elided = len(steps) - _TRAIL_HEAD - _TRAIL_TAIL
                steps = (
                    steps[:_TRAIL_HEAD]
                    + [f"...({elided} elided)..."]
                    + steps[-_TRAIL_TAIL:]
                )
            trail = " -> ".join(steps)
            lines.append(
                f"  C(u{u}): {self.candidate_sizes_initial[u]} initial -> {trail}"
            )
        lines.append(
            f"CS: {self.cs_size} candidates, {self.cs_edges} edges "
            f"({100 * self.filtering_rate:.1f}% filtered)"
        )
        if self.is_negative:
            lines.append("NEGATIVE: some candidate set is empty; no search needed")
        elif self.weight_summary:
            lines.append("path-size weights (min, max) per vertex:")
            for u, (low, high) in sorted(self.weight_summary.items()):
                lines.append(f"  W(u{u}): {low}..{high}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready payload (int keys become strings, tuples lists)."""
        return {
            "root": self.root,
            "root_scores": {str(u): s for u, s in sorted(self.root_scores.items())},
            "dag_edges": [list(edge) for edge in self.dag_edges],
            "topological_order": list(self.topological_order),
            "candidate_sizes_initial": {
                str(u): n for u, n in sorted(self.candidate_sizes_initial.items())
            },
            "candidate_sizes_per_step": [
                {str(u): n for u, n in sorted(step.items())}
                for step in self.candidate_sizes_per_step
            ],
            "candidate_sizes_final": {
                str(u): n for u, n in sorted(self.candidate_sizes_final.items())
            },
            "cs_size": self.cs_size,
            "cs_edges": self.cs_edges,
            "is_negative": self.is_negative,
            "weight_summary": {
                str(u): list(bounds) for u, bounds in sorted(self.weight_summary.items())
            },
        }


def explain(query: Graph, data: Graph, config: MatchConfig | None = None) -> QueryPlan:
    """Build the preprocessing structures and report every decision."""
    cfg = config if config is not None else MatchConfig()
    root_scores = {}
    for u in query.vertices():
        degree = query.degree(u)
        count = initial_candidate_count(query, data, u)
        root_scores[u] = count / degree if degree else float(count)
    root = select_root(query, data)
    dag = build_dag(query, data, root=root)

    initial_sizes = {
        u: initial_candidate_count(query, data, u) for u in query.vertices()
    }
    cs = build_candidate_space(
        query,
        data,
        dag,
        refinement_steps=cfg.refinement_steps,
        refine_to_fixpoint=cfg.refine_to_fixpoint,
        use_local_filters=cfg.use_local_filters,
        keep_trail=True,
    )
    # Sizes after each of the first ``refinement_steps`` passes (final size
    # plus later removals), padded with the last: a pass is idempotent at the fixpoint.
    steps = [[len(c) for c in cs.candidates]]
    for removed in reversed(cs.trail[1:]):
        steps.insert(0, [n + len(r) for n, r in zip(steps[0], removed)])
    steps = steps[: cfg.refinement_steps]
    steps += [steps[-1]] * (cfg.refinement_steps - len(steps))
    per_step = [dict(enumerate(s)) for s in steps]
    weight_summary = {}
    if not cs.is_empty():
        for u in query.vertices():
            row = cs.weights[u]
            if row:
                weight_summary[u] = (min(row), max(row))
    return QueryPlan(
        root=root,
        root_scores=root_scores,
        dag_edges=sorted(dag.edges()),
        topological_order=dag.topological_order(),
        candidate_sizes_initial=initial_sizes,
        candidate_sizes_per_step=per_step,
        cs_size=cs.size,
        cs_edges=cs.num_edges,
        is_negative=cs.is_empty(),
        weight_summary=weight_summary,
        candidate_sizes_final={
            u: len(cs.candidates[u]) for u in query.vertices()
        },
    )


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE: plan + actuals


def _ranks(values: dict[int, int], ascending: bool) -> dict[int, int]:
    """Dense 0-based ranks, ties broken by vertex id (deterministic)."""
    ordered = sorted(values, key=lambda u: (values[u] if ascending else -values[u], u))
    return {u: rank for rank, u in enumerate(ordered)}


@dataclass
class ExplainReport:
    """One EXPLAIN ANALYZE outcome: a plan (DAF only) joined with actuals.

    ``vertices`` rows carry, per query vertex, the planned candidate-set
    sizes next to the actual per-vertex counters
    (:data:`~repro.obs.VERTEX_COUNTERS`: ``entered`` / ``conflict`` /
    ``empty`` / ``fs_pruned``) copied verbatim from the run's registry
    snapshot, plus planned-vs-actual order ranks.  ``fs_cuts`` /
    ``fs_skipped`` are the Lemma 6.1 backjump accounting (number of cuts
    and subtrees they skipped).  ``order_inversions`` counts vertex pairs
    where the plan's candidate-size order disagrees with the observed
    effort order (0 = the estimate ranked the work perfectly).
    """

    algorithm: str
    query_vertices: int
    data_vertices: int
    embeddings: int
    recursive_calls: int
    solved: bool
    limit_reached: bool = False
    timed_out: bool = False
    negative: bool = False
    fs_cuts: int = 0
    fs_skipped: int = 0
    order_inversions: Optional[int] = None
    totals: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    vertices: list = field(default_factory=list)
    plan: Optional[QueryPlan] = None
    features: dict = field(default_factory=dict)
    trace_id: Optional[str] = None
    #: The :class:`~repro.interfaces.MatchResult` the report was built
    #: from (not serialized; ``None`` for reports loaded from disk).
    result: Optional[Any] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The schema-tagged JSON document (see docs/explain.md)."""
        payload: dict = {
            "schema": EXPLAIN_SCHEMA,
            "algorithm": self.algorithm,
            "query_vertices": self.query_vertices,
            "data_vertices": self.data_vertices,
            "embeddings": self.embeddings,
            "recursive_calls": self.recursive_calls,
            "solved": self.solved,
            "limit_reached": self.limit_reached,
            "timed_out": self.timed_out,
            "negative": self.negative,
            "fs_cuts": self.fs_cuts,
            "fs_skipped": self.fs_skipped,
            "totals": dict(self.totals),
            "spans": dict(self.spans),
            "vertices": [dict(row) for row in self.vertices],
            "features": dict(self.features),
        }
        if self.order_inversions is not None:
            payload["order_inversions"] = self.order_inversions
        if self.plan is not None:
            payload["plan"] = self.plan.to_dict()
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        return payload

    def event(self) -> dict:
        """The flat ``explain.report`` event mirrored into JSONL sinks."""
        payload = {
            "event": "explain.report",
            "algorithm": self.algorithm,
            "query_vertices": self.query_vertices,
            "data_vertices": self.data_vertices,
            "recursive_calls": self.recursive_calls,
            "embeddings": self.embeddings,
            "solved": self.solved,
            "negative": self.negative,
            "fs_cuts": self.fs_cuts,
            "fs_skipped": self.fs_skipped,
        }
        if self.plan is not None:
            payload["cs_size"] = self.plan.cs_size
            payload["cs_edges"] = self.plan.cs_edges
            payload["filtering_rate"] = self.plan.filtering_rate
        return payload

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.to_dict(), stream, indent=2, sort_keys=False)
            stream.write("\n")

    def render(self) -> str:
        """Multi-line EXPLAIN ANALYZE text block."""
        lines = [f"EXPLAIN ANALYZE — {self.algorithm}"]
        if self.plan is not None:
            lines.append("plan:")
            lines.extend("  " + line for line in self.plan.render().splitlines())
        lines.append("actuals:")
        lines.append(
            f"  recursive_calls={self.recursive_calls} "
            f"embeddings={self.embeddings} solved={self.solved}"
        )
        lines.append(
            f"  failing sets: {self.fs_cuts} backjumps, "
            f"{self.fs_skipped} sibling subtrees skipped"
        )
        if self.order_inversions is not None:
            lines.append(
                f"  order quality: {self.order_inversions} planned-vs-actual "
                "rank inversions"
            )
        if self.trace_id is not None:
            lines.append(f"  trace: {self.trace_id} (see `repro trace show`)")
        header = f"  {'u':>4} {'label':>6} {'planned':>8}"
        for dim in VERTEX_COUNTERS:
            header += f" {dim:>9}"
        header += f" {'plan#':>6} {'effort#':>8}"
        lines.append("per-vertex (planned vs actual):")
        lines.append(header)
        for row in self.vertices:
            planned = row.get("planned_candidates")
            line = (
                f"  u{row['vertex']:>3} {row.get('label', '?'):>6} "
                f"{'-' if planned is None else planned:>8}"
            )
            for dim in VERTEX_COUNTERS:
                line += f" {row.get(dim, 0):>9}"
            plan_rank = row.get("planned_rank")
            line += f" {'-' if plan_rank is None else plan_rank:>6}"
            line += f" {row.get('effort_rank', 0):>8}"
            lines.append(line)
        if self.spans:
            lines.append(
                "phases: "
                + " ".join(
                    f"{name}={seconds:.6f}s"
                    for name, seconds in sorted(self.spans.items())
                )
            )
        if self.totals:
            lines.append(
                "counters: "
                + " ".join(
                    f"{name}={value}"
                    for name, value in sorted(self.totals.items())
                    if value
                )
            )
        return "\n".join(lines)


def load_report(path) -> dict:
    """Load a saved ``.explain.json`` report document as a plain dict."""
    with open(path, "r", encoding="utf-8") as stream:
        document = json.load(stream)
    if not isinstance(document, dict) or document.get("schema") != EXPLAIN_SCHEMA:
        raise ValueError(f"{path}: not a {EXPLAIN_SCHEMA!r}-tagged report")
    return document


def build_report(
    *,
    algorithm: str,
    query: Graph,
    data: Graph,
    plan: Optional[QueryPlan],
    result: MatchResult,
    snapshot: dict,
    trace_id: Optional[str] = None,
    pi: Optional[tuple[int, ...]] = None,
) -> ExplainReport:
    """Join a plan (may be ``None`` for baselines) with one run's snapshot.

    ``pi`` translates vertex dimensions recorded in cached-query
    coordinates back to the probe query's (``pi``: probe vertex ->
    recorded vertex), mirroring the prepared-query cache's embedding
    remap — totals are permutation-invariant, so they stay exact.
    """
    totals = dict(snapshot.get("counters", {}))
    spans = dict(snapshot.get("spans", {}))
    vertex_counters = snapshot.get("vertex_counters", {}) or {}
    n = query.num_vertices

    def actual(dim: str, u: int) -> int:
        recorded = pi[u] if pi is not None else u
        return vertex_counters.get(dim, {}).get(str(recorded), 0)

    entered = {u: actual("entered", u) for u in range(n)}
    effort_ranks = _ranks(entered, ascending=False)
    planned_sizes: Optional[dict[int, int]] = None
    planned_ranks: dict[int, int] = {}
    if plan is not None:
        planned_sizes = plan.candidate_sizes_final or plan.candidate_sizes_initial
        planned_ranks = _ranks(planned_sizes, ascending=True)
    total_entered = sum(entered.values())
    rows = []
    for u in range(n):
        row: dict = {"vertex": u, "label": query.label(u)}
        if planned_sizes is not None:
            row["planned_initial"] = plan.candidate_sizes_initial.get(u, 0)
            row["planned_candidates"] = planned_sizes.get(u, 0)
            row["planned_rank"] = planned_ranks[u]
        for dim in VERTEX_COUNTERS:
            row[dim] = actual(dim, u)
        row["effort_rank"] = effort_ranks[u]
        row["effort_share"] = entered[u] / total_entered if total_entered else 0.0
        rows.append(row)

    order_inversions = None
    if planned_sizes is not None:
        order_inversions = 0
        for u in range(n):
            for w in range(u + 1, n):
                planned_delta = planned_sizes.get(u, 0) - planned_sizes.get(w, 0)
                entered_delta = entered[u] - entered[w]
                if planned_delta * entered_delta < 0:
                    order_inversions += 1

    from ..analysis.features import feature_row  # deferred: analysis -> core

    features = feature_row(query, data, plan=plan, totals=totals, result=result)
    return ExplainReport(
        algorithm=algorithm,
        query_vertices=n,
        data_vertices=data.num_vertices,
        embeddings=result.stats.embeddings_found,
        recursive_calls=result.stats.recursive_calls,
        solved=result.solved,
        limit_reached=result.limit_reached,
        timed_out=result.timed_out,
        negative=plan.is_negative if plan is not None else False,
        fs_cuts=totals.get("fs_cuts", 0),
        fs_skipped=totals.get("prune_failing_set", 0),
        order_inversions=order_inversions,
        totals=totals,
        spans=spans,
        vertices=rows,
        plan=plan,
        features=features,
        trace_id=trace_id,
    )


def attach_report(
    result: MatchResult,
    *,
    algorithm: str,
    query: Graph,
    data: Graph,
    plan: Optional[QueryPlan],
    registry: MetricsRegistry,
    pi: Optional[tuple[int, ...]] = None,
) -> ExplainReport:
    """Build a report from ``registry``'s run, attach it to ``result``,
    and mirror the flat ``explain.report`` event into the sink."""
    snapshot = (
        result.stats.metrics
        if result.stats.metrics is not None
        else registry.snapshot()
    )
    trace_id = registry.trace.trace_id if registry.trace is not None else None
    report = build_report(
        algorithm=algorithm,
        query=query,
        data=data,
        plan=plan,
        result=result,
        snapshot=snapshot,
        trace_id=trace_id,
        pi=pi,
    )
    report.result = result
    result.explain = report
    registry.emit(report.event())
    return report


def run_with_explain(
    matcher: DAFMatcher,
    query: Graph,
    data: Graph,
    *,
    limit: int,
    time_limit: Optional[float] = None,
    on_embedding=None,
    budget=None,
    resume_from=None,
) -> MatchResult:
    """The ``MatchOptions(explain=True)`` capture path for ``DAFMatcher``.

    The run executes under a *dedicated* fresh registry (sharing the
    matcher observer's sink and trace context, if any), so the report's
    per-vertex actuals equal the registry totals for exactly this run —
    a matcher-level observer with accumulated prior state would blur the
    join.  The engine itself is unchanged: explain off keeps the
    zero-overhead path.
    """
    outer = matcher.observer
    registry = MetricsRegistry(sink=getattr(outer, "sink", None))
    if outer is not None and outer.trace is not None:
        registry.trace = outer.trace
    runner = DAFMatcher(matcher.config, observer=registry)
    result = runner._match_impl(
        query,
        data,
        limit=limit,
        time_limit=time_limit,
        on_embedding=on_embedding,
        budget=budget,
        resume_from=resume_from,
    )
    plan = explain(query, data, matcher.config)
    attach_report(
        result,
        algorithm=matcher.name,
        query=query,
        data=data,
        plan=plan,
        registry=registry,
    )
    return result


def explain_analyze(
    query: Graph,
    data: Graph,
    config: Optional[MatchConfig] = None,
    matcher=None,
    limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    sink=None,
    trace=None,
) -> ExplainReport:
    """Run one instrumented search and return its :class:`ExplainReport`.

    ``matcher`` may be any :class:`~repro.interfaces.Matcher`; a
    :class:`~repro.core.DAFMatcher` (the default, built from ``config``)
    gets the full static plan joined in, baselines get actuals only
    (``plan`` is ``None`` — they have no DAG/CS to plan with).  ``sink``
    receives the run's events plus the final ``explain.report``;
    ``trace`` stamps them (and the report) for ``repro trace show``
    cross-linking.  The underlying :class:`~repro.interfaces.MatchResult`
    rides along as ``report.result``.
    """
    if matcher is None:
        matcher = DAFMatcher(config)
    elif config is not None:
        raise ValueError("pass config= or matcher=, not both")
    registry = MetricsRegistry(sink=sink)
    if trace is not None:
        registry.trace = trace
    request = MatchRequest(
        query=query,
        data=data,
        options=MatchOptions(limit=limit, time_limit=time_limit),
    )
    plan = None
    if isinstance(matcher, DAFMatcher):
        plan = explain(query, data, matcher.config)
        runner = DAFMatcher(matcher.config, observer=registry)
        result = runner.run_request(request)
    else:
        previous = matcher.observer
        matcher.observer = registry
        try:
            result = matcher.run_request(request)
        finally:
            matcher.observer = previous
    return attach_report(
        result,
        algorithm=matcher.name,
        query=query,
        data=data,
        plan=plan,
        registry=registry,
    )


# ----------------------------------------------------------------------
# Report diffing


@dataclass
class ExplainDiff:
    """Classified per-vertex differences between two reports.

    Each entry is ``{"vertex", "kind", "severity", "base", "current",
    "detail"}`` with ``kind`` one of ``candidate_blowup`` /
    ``order_inversion`` / ``prune_rate_collapse`` and ``severity`` one
    of ``regression`` / ``improvement`` / ``info``.  A report diffed
    against itself classifies nothing.
    """

    base_algorithm: str
    current_algorithm: str
    entries: list = field(default_factory=list)
    totals_delta: dict = field(default_factory=dict)

    @property
    def regressions(self) -> list:
        return [e for e in self.entries if e["severity"] == "regression"]

    def to_dict(self) -> dict:
        return {
            "base_algorithm": self.base_algorithm,
            "current_algorithm": self.current_algorithm,
            "entries": [dict(e) for e in self.entries],
            "regressions": len(self.regressions),
            "totals_delta": {k: list(v) for k, v in self.totals_delta.items()},
        }

    def render(self) -> str:
        lines = [
            f"explain diff: {self.base_algorithm} -> {self.current_algorithm}",
            f"  {len(self.entries)} per-vertex difference(s), "
            f"{len(self.regressions)} regression(s)",
        ]
        for entry in self.entries:
            lines.append(
                f"  [{entry['severity']:>11}] u{entry['vertex']} "
                f"{entry['kind']}: {entry['detail']}"
            )
        changed = {
            name: (base, current)
            for name, (base, current) in sorted(self.totals_delta.items())
            if base != current
        }
        if changed:
            lines.append("  counter deltas:")
            for name, (base, current) in changed.items():
                lines.append(f"    {name}: {base} -> {current}")
        return "\n".join(lines)


def _as_document(report) -> dict:
    return report.to_dict() if hasattr(report, "to_dict") else dict(report)


def diff_reports(
    base,
    current,
    *,
    ratio: float = 2.0,
    min_delta: int = 16,
    share_drop: float = 0.5,
) -> ExplainDiff:
    """Classify per-vertex differences between two reports (dicts or
    :class:`ExplainReport` instances) over the same query shape.

    - *candidate blowup*: a vertex's ``entered`` count grew by at least
      ``ratio``× and by at least ``min_delta`` absolute (regression; the
      mirror-image shrink is reported as an improvement);
    - *order inversion*: the vertex moved in the observed effort ranking
      (a regression when it got hotter by ``min_delta+`` calls);
    - *prune-rate collapse*: the vertex's failing-set prunes per entry
      dropped by more than ``share_drop`` relative (regression).
    """
    base_doc = _as_document(base)
    current_doc = _as_document(current)
    diff = ExplainDiff(
        base_algorithm=base_doc.get("algorithm", "?"),
        current_algorithm=current_doc.get("algorithm", "?"),
    )
    base_totals = base_doc.get("totals", {})
    current_totals = current_doc.get("totals", {})
    for name in sorted(set(base_totals) | set(current_totals)):
        diff.totals_delta[name] = (
            base_totals.get(name, 0),
            current_totals.get(name, 0),
        )
    base_rows = {row["vertex"]: row for row in base_doc.get("vertices", [])}
    current_rows = {row["vertex"]: row for row in current_doc.get("vertices", [])}
    for u in sorted(set(base_rows) & set(current_rows)):
        before, after = base_rows[u], current_rows[u]
        b_entered = before.get("entered", 0)
        c_entered = after.get("entered", 0)
        delta = c_entered - b_entered
        if delta >= min_delta and c_entered >= ratio * max(b_entered, 1):
            diff.entries.append(
                {
                    "vertex": u,
                    "kind": "candidate_blowup",
                    "severity": "regression",
                    "base": b_entered,
                    "current": c_entered,
                    "detail": f"entered {b_entered} -> {c_entered} "
                    f"(x{c_entered / max(b_entered, 1):.1f})",
                }
            )
        elif -delta >= min_delta and b_entered >= ratio * max(c_entered, 1):
            diff.entries.append(
                {
                    "vertex": u,
                    "kind": "candidate_blowup",
                    "severity": "improvement",
                    "base": b_entered,
                    "current": c_entered,
                    "detail": f"entered {b_entered} -> {c_entered}",
                }
            )
        b_rank = before.get("effort_rank")
        c_rank = after.get("effort_rank")
        if b_rank is not None and c_rank is not None and b_rank != c_rank:
            hotter = c_rank < b_rank and delta >= min_delta
            diff.entries.append(
                {
                    "vertex": u,
                    "kind": "order_inversion",
                    "severity": "regression" if hotter else "info",
                    "base": b_rank,
                    "current": c_rank,
                    "detail": f"effort rank {b_rank} -> {c_rank}",
                }
            )
        b_share = before.get("fs_pruned", 0) / max(b_entered, 1)
        c_share = after.get("fs_pruned", 0) / max(c_entered, 1)
        if b_share > 0 and c_share < b_share * (1.0 - share_drop):
            diff.entries.append(
                {
                    "vertex": u,
                    "kind": "prune_rate_collapse",
                    "severity": "regression",
                    "base": before.get("fs_pruned", 0),
                    "current": after.get("fs_pruned", 0),
                    "detail": f"fs_pruned/entered {b_share:.3f} -> {c_share:.3f}",
                }
            )
    return diff
