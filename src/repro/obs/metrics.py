"""The metrics registry: cheap counters, phase spans, candidate histograms.

Design rules, in order of importance:

1. **Disabled means absent.**  Engines hold ``observer = None`` when
   metrics are off and guard every touch with ``if obs is not None`` —
   there is no no-op object, no dynamic dispatch, and therefore no
   attribute lookups on the hot path of an un-instrumented search
   (tested by ``tests/test_obs.py::TestZeroOverhead``).
2. **Enabled means plain int adds.**  Counters are slot-backed ints on
   the registry, incremented directly (``obs.prune_conflict += 1``).
   No locks: a registry belongs to one search at a time; the parallel
   dispatcher gives every worker its own registry and merges snapshots
   through :meth:`repro.interfaces.SearchStats.merge`.
3. **Events are rare.**  Only phase boundaries, heartbeats and sampled
   trace nodes reach the sink; counters travel once, in the final
   ``counters`` event / ``SearchStats.metrics`` snapshot.

The counter catalogue (why did a candidate or subtree die?):

=====================  ==========================================================
counter                 meaning
=====================  ==========================================================
prune_label_degree      candidates rejected by label/degree filters — C_ini and
                        the local MND/NLF filters (paper §4.1); for baselines,
                        their own candidate-pool filters at search time
prune_cs_edge           candidates rejected for lacking a required edge: DP
                        refinement removals during CS construction (Recurrence
                        (1)), including candidates outside N(C(u*)) that a
                        pass drops untested (u* the child with the smallest
                        candidate set); for baselines, backward-edge probes of
                        the data graph that failed (DAF never pays these at
                        search time — Theorem 4.1)
prune_conflict          conflict-class leaves: the candidate was already used by
                        another query vertex (injectivity), incl. induced-mode
                        non-edge violations
prune_empty             emptyset-class leaves: an extendable vertex with no
                        usable candidate
prune_failing_set       sibling candidates skipped by failing-set pruning
                        (Lemma 6.1) — subtrees never entered
fs_cuts                 number of Lemma 6.1 cut events (each skips >= 0 siblings)
candidates_examined     candidate slots the search loop actually inspected
children_entered        recursive descents (candidates that survived all checks)
cache_hit               serving layer: prepared-query cache hits (preprocessing
                        skipped entirely)
cache_miss              serving layer: cache misses (full BuildDAG + BuildCS run)
cache_eviction          serving layer: LRU evictions from the prepared cache
cache_invalidation      serving layer: cached prepared queries dropped because a
                        data-graph update batch made them unrefreshable (the
                        delta re-oriented the query's DAG) — churn-driven loss,
                        as opposed to the capacity-driven ``cache_eviction``
resumes                 searches continued from a ``SearchCheckpoint`` (mirrors
                        the ``checkpoint.resume`` event into snapshots, so resume
                        frequency is visible without replaying the event stream)
=====================  ==========================================================

Per-run consistency invariants (asserted in the test suite)::

    candidates_examined == prune_conflict + children_entered      (FS engine)
    recursive_calls     == children_entered + number of run() roots

**Per-vertex attribution** (PR 3): four of the counters are additionally
attributed to the query vertex that burned them — ``entered`` (recursive
descents made while expanding ``u``), ``conflict``, ``empty`` and
``fs_pruned``.  Engines size the arrays via :meth:`ensure_vertices` and
increment ``obs.vertex_entered[u]`` etc. inside the same
``if obs is not None`` guards, so the zero-overhead-when-off contract is
untouched and the per-vertex sums always equal the corresponding global
counters::

    sum(vertex_entered)   == children_entered
    sum(vertex_conflict)  == prune_conflict
    sum(vertex_empty)     == prune_empty
    sum(vertex_fs_pruned) == prune_failing_set

(The leaf-combinatorics path attributes a failing label group's
``empty`` to the group's first leaf.)  Snapshots carry the attribution
as sparse ``{"vertex": count}`` maps so parallel-worker snapshots merge
by summation; :func:`hotspot_rows` / :func:`render_hotspots` turn a
snapshot into the "which vertex burns the search" report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Optional

from .progress import ProgressReporter
from .sinks import EventSink

#: Counter slot names, in reporting order.  Adding a counter here is all
#: that is needed for it to appear in snapshots, events and the docs'
#: catalogue check.
COUNTERS: tuple[str, ...] = (
    "prune_label_degree",
    "prune_cs_edge",
    "prune_conflict",
    "prune_empty",
    "prune_failing_set",
    "fs_cuts",
    "candidates_examined",
    "children_entered",
    # Serving layer (repro.service): prepared-query cache traffic.
    "cache_hit",
    "cache_miss",
    "cache_eviction",
    "cache_invalidation",
    # Checkpointable search (repro.resilience.checkpoint): searches
    # continued from a suspended checkpoint.
    "resumes",
)

#: Phase-span names used by the DAF pipeline (baselines reuse the
#: applicable subset).  ``cs_refine`` nests inside ``cs_construct``;
#: ``cache_lookup`` is the serving layer's prepared-query probe.
PHASES: tuple[str, ...] = (
    "dag_build",
    "cs_construct",
    "cs_refine",
    "order",
    "search",
    "cache_lookup",
)

#: Per-query-vertex attribution dimensions; ``vertex_<name>`` is the
#: registry's int array for each, and snapshots carry them as sparse
#: ``{"vertex": count}`` maps under ``"vertex_counters"``.
VERTEX_COUNTERS: tuple[str, ...] = ("entered", "conflict", "empty", "fs_pruned")


class MetricsRegistry:
    """Per-search observability state: counters, spans, histograms.

    A registry is cheap to construct and single-owner by design.  Attach
    one to any :class:`repro.interfaces.Matcher` via the ``observer``
    attribute (or the ``observer=`` constructor/keyword arguments of the
    DAF stack) and read :meth:`snapshot` — or the same payload from
    ``result.stats.metrics`` — afterwards.

    Parameters
    ----------
    sink:
        Optional :class:`~repro.obs.EventSink` receiving span, counters,
        histogram, progress and trace events as they happen.
    progress:
        Optional :class:`~repro.obs.ProgressReporter` the engines drive
        from their hot loops (heartbeats).
    """

    __slots__ = (
        COUNTERS
        + tuple(f"vertex_{name}" for name in VERTEX_COUNTERS)
        + ("spans", "candidate_sizes", "sink", "progress", "_trace")
    )

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        for name in VERTEX_COUNTERS:
            setattr(self, f"vertex_{name}", [])
        self.spans: dict[str, float] = {}
        self.candidate_sizes: list[int] = []
        self.sink = sink
        self.progress = progress
        self._trace = None
        if progress is not None and progress.sink is None:
            progress.sink = sink

    # -- tracing --------------------------------------------------------
    @property
    def trace(self):
        """The active :class:`~repro.obs.telemetry.TraceContext` (or
        ``None``).  While set, every event this registry emits — spans,
        counters, histograms, progress heartbeats, arbitrary
        :meth:`emit` payloads — is stamped with the correlation triple."""
        return self._trace

    @trace.setter
    def trace(self, context) -> None:
        self._trace = context
        if self.progress is not None:
            self.progress.trace = context

    def adopt_trace(self, payload: Optional[dict], name: str = "resume") -> None:
        """Adopt the trace a checkpoint was captured under (resume
        lineage): same ``trace_id``, a ``.resume`` child span.  No-op for
        ``None``/empty payloads or when a trace is already active (the
        caller — session, worker, CLI — then owns the context)."""
        if not payload or self._trace is not None:
            return
        from .telemetry import resumed_context

        self.trace = resumed_context(payload, name)

    # -- counters -------------------------------------------------------
    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTERS}

    def ensure_vertices(self, n: int) -> None:
        """Grow the per-vertex attribution arrays to cover ``n`` query
        vertices.  Engines call this once at setup (inside their
        ``observer is not None`` branch) so the hot loop can use plain
        ``obs.vertex_entered[u] += 1`` list indexing."""
        for name in VERTEX_COUNTERS:
            array = getattr(self, f"vertex_{name}")
            if len(array) < n:
                array.extend([0] * (n - len(array)))

    def vertex_counters(self) -> dict[str, dict[str, int]]:
        """Sparse per-vertex attribution: ``{dim: {str(vertex): count}}``.

        String keys + numeric leaves are what
        :func:`repro.interfaces._merge_metrics` sums element-wise when
        parallel-worker snapshots merge (lists would concatenate).
        """
        out: dict[str, dict[str, int]] = {}
        for name in VERTEX_COUNTERS:
            array = getattr(self, f"vertex_{name}")
            sparse = {str(u): c for u, c in enumerate(array) if c}
            if sparse:
                out[name] = sparse
        return out

    def reset(self) -> None:
        """Zero all counters, spans and histograms (sink stays attached)."""
        for name in COUNTERS:
            setattr(self, name, 0)
        for name in VERTEX_COUNTERS:
            setattr(self, f"vertex_{name}", [])
        self.spans = {}
        self.candidate_sizes = []
        if self.progress is not None:
            self.progress.reset()

    # -- spans ----------------------------------------------------------
    def record_span(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into phase ``name`` and emit the event."""
        self.spans[name] = self.spans.get(name, 0.0) + seconds
        if self.sink is not None:
            event = {"event": "span", "name": name, "seconds": round(seconds, 6)}
            if self._trace is not None:
                self._trace.stamp(event)
            self.sink.emit(event)

    @contextmanager
    def span(self, name: str):
        """``with registry.span("cs_construct"): ...`` — timed phase."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record_span(name, time.perf_counter() - start)

    # -- histograms -----------------------------------------------------
    def observe_candidate_sizes(self, sizes: Iterable[int]) -> None:
        """Record the per-query-vertex candidate-set sizes |C(u)|."""
        self.candidate_sizes = list(sizes)
        if self.sink is not None:
            event = {
                "event": "histogram",
                "name": "candidates_per_vertex",
                "values": self.candidate_sizes,
            }
            if self._trace is not None:
                self._trace.stamp(event)
            self.sink.emit(event)

    # -- events / snapshots ---------------------------------------------
    def emit(self, event: dict) -> None:
        """Forward an arbitrary event to the sink (no-op without one),
        stamping the active trace context (existing stamps win, so a
        worker-stamped event re-emitted by the supervisor keeps the
        worker's span)."""
        if self.sink is not None:
            if self._trace is not None:
                self._trace.stamp(event)
            self.sink.emit(event)

    def snapshot(self) -> dict:
        """The JSON-serializable payload stored in ``SearchStats.metrics``."""
        payload = {
            "counters": self.counters(),
            "spans": {k: round(v, 6) for k, v in self.spans.items()},
            "candidate_sizes": list(self.candidate_sizes),
        }
        vertex = self.vertex_counters()
        if vertex:
            payload["vertex_counters"] = vertex
        return payload

    def hotspots(self, top: Optional[int] = None) -> list[dict]:
        """Per-vertex attribution rows, hottest first (see
        :func:`hotspot_rows`)."""
        return hotspot_rows(self.snapshot(), top=top)

    def emit_counters(self) -> None:
        """Emit the final ``counters`` event (end of a search)."""
        if self.sink is not None:
            event = {"event": "counters", "counters": self.counters()}
            if self._trace is not None:
                self._trace.stamp(event)
            self.sink.emit(event)

    def render_summary(self) -> str:
        """Human-readable profile block (the CLI's ``--profile`` output)."""
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: dict) -> str:
    """Render any :meth:`MetricsRegistry.snapshot` payload (including one
    merged across parallel workers) as the ``--profile`` text block."""
    spans = snapshot.get("spans", {})
    counters = snapshot.get("counters", {})
    sizes = snapshot.get("candidate_sizes", [])
    lines = ["phase timings:"]
    for name in PHASES:
        if name in spans:
            lines.append(f"  {name:<12s} {spans[name] * 1000.0:10.2f} ms")
    for name, seconds in spans.items():
        if name not in PHASES:
            lines.append(f"  {name:<12s} {seconds * 1000.0:10.2f} ms")
    lines.append("prune accounting:")
    for name in COUNTERS:
        lines.append(f"  {name:<20s} {counters.get(name, 0):>12d}")
    if sizes:
        lines.append(
            "candidates/vertex:    "
            f"min={min(sizes)} max={max(sizes)} "
            f"total={sum(sizes)} n={len(sizes)}"
        )
    if snapshot.get("vertex_counters"):
        lines.append("search-effort hotspots:")
        for line in render_hotspots(snapshot, top=3).splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines)


def hotspot_rows(snapshot: dict, top: Optional[int] = None) -> list[dict]:
    """Per-query-vertex search-effort attribution from any snapshot.

    One row per vertex that burned anything, sorted by descending
    recursive-descent count (``entered``), each with the vertex's share
    of every attribution dimension — the Arai-et-al-style "where does
    the search effort concentrate" view.  Works on merged parallel
    snapshots too (the sparse maps sum across workers).
    """
    vertex = snapshot.get("vertex_counters", {})
    if not vertex:
        return []
    vertices: set[int] = set()
    for sparse in vertex.values():
        vertices.update(int(u) for u in sparse)
    totals = {name: sum(vertex.get(name, {}).values()) for name in VERTEX_COUNTERS}
    rows = []
    for u in sorted(vertices):
        row: dict = {"vertex": u}
        for name in VERTEX_COUNTERS:
            count = vertex.get(name, {}).get(str(u), 0)
            row[name] = count
            row[f"{name}_%"] = round(100.0 * count / totals[name], 1) if totals[name] else 0.0
        rows.append(row)
    rows.sort(key=lambda r: (-r["entered"], r["vertex"]))
    return rows[:top] if top is not None else rows


def render_hotspots(snapshot: dict, top: int = 5) -> str:
    """Human-readable hotspot lines ("u3 accounts for 78% of emptyset
    failures") for the CLI and the ``--profile`` block."""
    rows = hotspot_rows(snapshot, top=top)
    if not rows:
        return "(no per-vertex attribution recorded)"
    lines = []
    for row in rows:
        parts = [f"{row['entered_%']:.1f}% of recursive descents ({row['entered']})"]
        for name, label in (
            ("empty", "emptyset failures"),
            ("conflict", "conflicts"),
            ("fs_pruned", "failing-set prunes"),
        ):
            if row[name]:
                parts.append(f"{row[f'{name}_%']:.1f}% of {label} ({row[name]})")
        lines.append(f"u{row['vertex']}: " + ", ".join(parts))
    return "\n".join(lines)
