"""repro.obs — engine-wide observability: metrics, spans, tracing, progress.

The paper argues from internal counters (recursive calls, candidate-space
sizes, pruned subtrees — Figs. 6–12); this package makes those counters a
first-class, always-available layer across every matcher in the repo:

- :class:`MetricsRegistry` — slot-based prune-reason counters, phase
  spans (``dag_build`` / ``cs_construct`` / ``cs_refine`` / ``order`` /
  ``search``) and per-query-vertex candidate histograms.  Attach to any
  matcher via its ``observer`` attribute; read ``result.stats.metrics``.
- :class:`EventSink` / :class:`JsonlSink` / :class:`MemorySink` —
  structured JSONL event output (schema in :mod:`repro.obs.schema`,
  documented in ``docs/observability.md``).
- :class:`ProgressReporter` — throttled heartbeats (calls/sec, depth,
  and for parallel search per-slice liveness + completion ETA).
- :mod:`repro.obs.telemetry` — request-scoped tracing
  (:class:`TraceContext` / :class:`TraceIdAllocator`), surfaced by
  ``repro trace show``.

The search-tree tracer (Figs. 6 and 8, plus folded-stack export) is
:class:`repro.core.SearchTracer`.

The zero-overhead contract: with no observer attached the engines hold
``None`` and perform no observability work at all — results are
bit-identical with metrics on and off.
"""

from .metrics import (
    COUNTERS,
    PHASES,
    VERTEX_COUNTERS,
    MetricsRegistry,
    hotspot_rows,
    render_hotspots,
    render_snapshot,
)
from .progress import ProgressReporter, slice_eta
from .schema import (
    EVENT_SCHEMAS,
    TRACE_FIELDS,
    validate_event,
    validate_jsonl,
    validate_lines,
)
from .sinks import EventSink, JsonlSink, MemorySink
from .telemetry import (
    TraceContext,
    TraceIdAllocator,
    render_trace_list,
    render_trace_tree,
)

# The EXPLAIN / EXPLAIN ANALYZE layer (repro.obs.explain) imports the
# core matcher, which is still initializing when this package loads
# during `import repro`; expose its surface lazily instead of eagerly.
_EXPLAIN_NAMES = (
    "ExplainDiff",
    "ExplainReport",
    "QueryPlan",
    "diff_reports",
    "explain_analyze",
    "load_report",
)


def __getattr__(name: str):
    if name in _EXPLAIN_NAMES or name == "explain":
        import importlib

        module = importlib.import_module("repro.obs.explain")
        return module if name == "explain" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "COUNTERS",
    "EVENT_SCHEMAS",
    "EventSink",
    "ExplainDiff",
    "ExplainReport",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "PHASES",
    "ProgressReporter",
    "QueryPlan",
    "TRACE_FIELDS",
    "TraceContext",
    "TraceIdAllocator",
    "VERTEX_COUNTERS",
    "diff_reports",
    "explain_analyze",
    "hotspot_rows",
    "load_report",
    "render_hotspots",
    "render_snapshot",
    "render_trace_list",
    "render_trace_tree",
    "slice_eta",
    "validate_event",
    "validate_jsonl",
    "validate_lines",
]
