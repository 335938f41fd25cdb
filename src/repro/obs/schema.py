"""The JSONL event schema, as data, plus the validator CI runs.

One place defines what a metrics stream may contain; everything else
(docs/observability.md, ``scripts/check_metrics_schema.py``, the tests)
derives from it.  The schema language is deliberately tiny — per event
type, required and optional fields each mapped to an allowed type tuple —
because the events themselves are flat by design.

``int`` fields accept Python ints (bools are rejected), ``float`` fields
accept ints too (JSON does not distinguish), and nested objects/arrays
use callables.
"""

from __future__ import annotations

import json
from typing import Callable, Union

FieldSpec = Union[type, tuple, Callable[[object], bool]]


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _str(value: object) -> bool:
    return isinstance(value, str)


def _bool(value: object) -> bool:
    return isinstance(value, bool)


def _int_array(value: object) -> bool:
    return isinstance(value, list) and all(_int(v) for v in value)


def _str_array(value: object) -> bool:
    return isinstance(value, list) and all(_str(v) for v in value)


def _counter_map(value: object) -> bool:
    return isinstance(value, dict) and all(
        _str(k) and _int(v) for k, v in value.items()
    )


def _span_map(value: object) -> bool:
    return isinstance(value, dict) and all(
        _str(k) and _number(v) for k, v in value.items()
    )


#: Correlation fields stamped by :class:`repro.obs.telemetry.TraceContext`.
#: Like ``ts``, they are implicit: any event may carry them (as strings),
#: so they are validated once in :func:`validate_event` rather than
#: repeated in every schema entry below.
TRACE_FIELDS: tuple[str, ...] = ("trace_id", "span_id", "parent_span_id")

#: event type -> (required fields, optional fields).  Every event also
#: carries ``ts`` (epoch seconds, added by the sink) and may carry the
#: :data:`TRACE_FIELDS` correlation triple, listed once here.
EVENT_SCHEMAS: dict[str, tuple[dict[str, Callable], dict[str, Callable]]] = {
    "run_start": (
        {"algorithm": _str, "query_vertices": _int, "data_vertices": _int},
        {"limit": _int, "time_limit": _number, "workers": _int},
    ),
    "span": (
        {"name": _str, "seconds": _number},
        {"scope": _str},
    ),
    "counters": (
        {"counters": _counter_map},
        {"scope": _str},
    ),
    "histogram": (
        {"name": _str, "values": _int_array},
        {"scope": _str},
    ),
    "progress": (
        {"scope": _str},
        {
            "calls": _int,
            "depth": _int,
            "calls_per_sec": _number,
            "elapsed_seconds": _number,
            "slice": _int,
            "slices_done": _int,
            "slices_total": _int,
            "eta_seconds": _number,
            "embeddings": _int,
        },
    ),
    "worker": (
        {"slice": _int, "status": _str, "attempts": _int},
        {
            "recursive_calls": _int,
            "embeddings_found": _int,
            "timed_out": _bool,
            "resumed_from_calls": _int,
            "error": _str,
        },
    ),
    "degrade": (
        {"attempt": _int, "stage": _str, "message": _str},
        {},
    ),
    "run_end": (
        {"recursive_calls": _int, "embeddings": _int, "solved": _bool},
        {
            "spans": _span_map,
            "counters": _counter_map,
            "limit_reached": _bool,
            "timed_out": _bool,
        },
    ),
    # Benchmark-session events (repro.bench.manifest): one bench.run per
    # written manifest, one bench.summary per recorded figure.
    "bench.run": (
        {"manifest": _str, "profile": _str, "git_sha": _str, "figures": _int},
        {"index": _int, "python": _str, "platform": _str, "cpu_count": _int},
    ),
    "bench.summary": (
        {"figure": _str, "rows": _int},
        {"title": _str, "has_metrics": _bool},
    ),
    # Serving-layer events (repro.service): one batch.request per request
    # as it completes, one batch.run per finished batch.
    "batch.request": (
        {"index": _int, "status": _str, "cache": _str},
        {
            "tag": _str,
            "embeddings": _int,
            "recursive_calls": _int,
            "elapsed_seconds": _number,
            "preprocess_seconds": _number,
            "error": _str,
        },
    ),
    "batch.run": (
        {"requests": _int, "completed": _int, "failed": _int},
        {
            "cache_hits": _int,
            "cache_misses": _int,
            "cache_evictions": _int,
            "unique_queries": _int,
            "workers": _int,
            "elapsed_seconds": _number,
            "graph_version": _int,
        },
    ),
    # Dynamic-graph events (repro.service.dynamic): one update.batch per
    # applied delta batch; one embedding.appeared / embedding.disappeared
    # per standing-query embedding-set change the batch caused.
    "update.batch": (
        {"graph_version": _int, "deltas": _int},
        {
            "edges_inserted": _int,
            "edges_deleted": _int,
            "vertices_added": _int,
            "vertices_removed": _int,
            "cache_refreshed": _int,
            "cache_invalidated": _int,
            "appeared": _int,
            "disappeared": _int,
            "seconds": _number,
        },
    ),
    "embedding.appeared": (
        {"subscription": _str, "graph_version": _int, "embedding": _int_array},
        {},
    ),
    "embedding.disappeared": (
        {"subscription": _str, "graph_version": _int, "embedding": _int_array},
        {},
    ),
    # Suspend/resume events (repro.resilience.checkpoint): one
    # checkpoint.save per checkpoint attached to an interrupted result,
    # one checkpoint.resume per search continued from one.
    "checkpoint.save": (
        {
            "reason": _str,
            "phase": _str,
            "depth": _int,
            "recursive_calls": _int,
            "embeddings_found": _int,
        },
        {"scope": _str, "slice": _int},
    ),
    "checkpoint.resume": (
        {
            "phase": _str,
            "depth": _int,
            "recursive_calls": _int,
            "embeddings_found": _int,
        },
        {"scope": _str, "slice": _int},
    ),
    # Chaos-harness events (repro.resilience.chaos): one chaos.run per
    # scenario swept, reporting whether the faulted run's final answer
    # matched the fault-free baseline exactly.
    "chaos.run": (
        {"scenario": _str, "site": _str, "kind": _str, "status": _str},
        {
            "matched": _bool,
            "fired": _int,
            "resumed": _bool,
            "elapsed_seconds": _number,
        },
    ),
    # Lint-run events (repro.lint via the CLI): one lint.run per
    # ``repro lint --metrics-out`` invocation, so CI dashboards can trend
    # finding counts and lint wall time alongside search metrics.
    "lint.run": (
        {"files": _int, "findings": _int, "elapsed_seconds": _number},
        {
            "checkers": _str_array,
            "by_check": _counter_map,
            "baseline_suppressed": _int,
            "stale_baseline": _int,
            "jobs": _int,
        },
    ),
    # EXPLAIN ANALYZE events (repro.obs.explain): the flat summary of one
    # per-request forensics report, mirrored into the JSONL stream so
    # `repro trace show` can cross-link the full document via trace_id.
    "explain.report": (
        {
            "algorithm": _str,
            "query_vertices": _int,
            "recursive_calls": _int,
            "embeddings": _int,
        },
        {
            "data_vertices": _int,
            "cs_size": _int,
            "cs_edges": _int,
            "filtering_rate": _number,
            "fs_cuts": _int,
            "fs_skipped": _int,
            "solved": _bool,
            "negative": _bool,
        },
    ),
}

#: Tag identifying a saved EXPLAIN ANALYZE report document (the
#: ``"schema"`` key of the JSON object `ExplainReport.save` writes);
#: ``scripts/check_metrics_schema.py`` dispatches on it.
EXPLAIN_SCHEMA = "repro.obs.explain"


def validate_event(event: object) -> list[str]:
    """Validate one parsed event object; returns human-readable errors."""
    errors: list[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {event!r}"]
    event_type = event.get("event")
    if not isinstance(event_type, str):
        return [f"missing/non-string 'event' tag: {event!r}"]
    if event_type not in EVENT_SCHEMAS:
        return [f"unknown event type {event_type!r}"]
    required, optional = EVENT_SCHEMAS[event_type]
    for name, check in required.items():
        if name not in event:
            errors.append(f"{event_type}: missing required field {name!r}")
        elif not check(event[name]):
            errors.append(
                f"{event_type}: field {name!r} has invalid value {event[name]!r}"
            )
    for name, value in event.items():
        if name in ("event", "ts") or name in TRACE_FIELDS:
            continue
        if name in required:
            continue
        if name not in optional:
            errors.append(f"{event_type}: unexpected field {name!r}")
        elif not optional[name](value):
            errors.append(f"{event_type}: field {name!r} has invalid value {value!r}")
    if "ts" in event and not _number(event["ts"]):
        errors.append(f"{event_type}: 'ts' must be numeric, got {event['ts']!r}")
    for name in TRACE_FIELDS:
        if name in event and not _str(event[name]):
            errors.append(
                f"{event_type}: trace field {name!r} must be a string, "
                f"got {event[name]!r}"
            )
    return errors


def validate_lines(lines) -> list[str]:
    """Validate an iterable of JSONL lines; blank lines are skipped.

    A non-JSON *final* line is tolerated (a killed writer may leave a
    torn tail); non-JSON interior lines are errors.
    """
    errors: list[str] = []
    pending_parse_error: str = ""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if pending_parse_error:
            errors.append(pending_parse_error)
            pending_parse_error = ""
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            pending_parse_error = f"line {lineno}: not valid JSON ({exc.msg})"
            continue
        for error in validate_event(event):
            errors.append(f"line {lineno}: {error}")
    return errors


def validate_jsonl(path) -> list[str]:
    """Validate a metrics JSONL file; returns a list of errors (empty = ok)."""
    with open(path, "r", encoding="utf-8") as stream:
        return validate_lines(stream)


#: Per-vertex fields an explain-report row may carry beyond ``vertex``
#: and ``label`` (the VERTEX_COUNTERS dims plus the planned/rank joins).
_EXPLAIN_ROW_FIELDS: dict[str, Callable] = {
    "entered": _int,
    "conflict": _int,
    "empty": _int,
    "fs_pruned": _int,
    "planned_initial": _int,
    "planned_candidates": _int,
    "planned_rank": _int,
    "effort_rank": _int,
    "effort_share": _number,
}


def validate_explain_report(source) -> list[str]:
    """Validate a saved EXPLAIN ANALYZE report document.

    ``source`` is a path to a ``.explain.json`` file or an already-parsed
    dict.  The flat summary is re-validated as an ``explain.report``
    event; the structured parts (per-vertex rows, totals, spans) are
    checked against the shapes ``repro.obs.explain.ExplainReport``
    writes.  Returns human-readable errors (empty = valid).
    """
    if isinstance(source, dict):
        document = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as stream:
                document = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable explain report: {exc}"]
    if not isinstance(document, dict):
        return [f"explain report is not an object: {type(document).__name__}"]
    errors: list[str] = []
    if document.get("schema") != EXPLAIN_SCHEMA:
        errors.append(
            f"explain report: 'schema' must be {EXPLAIN_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    required, optional = EVENT_SCHEMAS["explain.report"]
    event = {"event": "explain.report"}
    for name in list(required) + list(optional):
        if name in document:
            event[name] = document[name]
    errors.extend(validate_event(event))
    if not _counter_map(document.get("totals", {})):
        errors.append("explain report: 'totals' must map counter -> int")
    if not _span_map(document.get("spans", {})):
        errors.append("explain report: 'spans' must map phase -> seconds")
    rows = document.get("vertices")
    if not isinstance(rows, list):
        errors.append("explain report: 'vertices' must be a list of rows")
        rows = []
    for position, row in enumerate(rows):
        if not isinstance(row, dict) or not _int(row.get("vertex")):
            errors.append(
                f"explain report: vertices[{position}] needs an int 'vertex'"
            )
            continue
        for name, value in row.items():
            if name in ("vertex", "label"):
                continue
            check = _EXPLAIN_ROW_FIELDS.get(name)
            if check is None:
                errors.append(
                    f"explain report: vertices[{position}] has unknown "
                    f"field {name!r}"
                )
            elif not check(value):
                errors.append(
                    f"explain report: vertices[{position}].{name} has "
                    f"invalid value {value!r}"
                )
    features = document.get("features", {})
    if not isinstance(features, dict) or not all(
        _str(k) and _number(v) for k, v in features.items()
    ):
        errors.append("explain report: 'features' must map name -> number")
    return errors
