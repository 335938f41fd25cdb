"""Request-scoped tracing and the ``repro trace show`` helpers.

:class:`TraceContext` carries a ``trace_id`` plus hierarchical
``span_id`` / ``parent_span_id`` strings and stamps them onto every
event a :class:`~repro.obs.MetricsRegistry` emits.  Ids are
deterministic: trace ids come from a session-scoped
:class:`TraceIdAllocator` counter and span ids are derived purely from
the request *structure* (``s0`` → ``s0.w2a1`` for worker slice 2,
attempt 1; ``.resume`` for a checkpoint continuation; ``.dup<i>`` for a
batch-dedup follower) — never from wall clock or randomness, so
same-seed reruns produce bit-identical ids and forked workers can stamp
their own spans without coordination (the DET001 invariant).  The
context travels the parallel result pipe inside ``_shared["observe"]``
and rides :class:`SearchCheckpoint.trace` payloads, so one ``trace_id``
reconstructs the full request tree including crash-retry and resume
lineage.

``repro trace show`` reads a recorded JSONL stream back
(:func:`read_events`, :func:`collect_traces`) and renders either one
line per trace (:func:`render_trace_list`) or one trace's span tree
(:func:`render_trace_tree`).
"""

from __future__ import annotations

import json
from typing import Iterable, Optional


# ----------------------------------------------------------------------
# Correlated tracing
# ----------------------------------------------------------------------
class TraceContext:
    """One span of one request: ``trace_id`` + hierarchical span ids.

    Contexts are cheap immutable-by-convention triples.  :meth:`child`
    derives a sub-span by appending a *structural* name segment to the
    span id (worker slice, attempt, resume, dedup follower), which keeps
    ids deterministic and fork-safe; :meth:`stamp` writes the three
    correlation fields onto an event with ``setdefault`` semantics so a
    supervisor re-emitting a worker's already-stamped event never
    overwrites the worker's span.
    """

    __slots__ = ("trace_id", "span_id", "parent_span_id")

    def __init__(
        self,
        trace_id: str,
        span_id: str = "s0",
        parent_span_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id

    def child(self, name: str) -> "TraceContext":
        """A sub-span named by request structure (e.g. ``w0a1``)."""
        return TraceContext(self.trace_id, f"{self.span_id}.{name}", self.span_id)

    def stamp(self, event: dict) -> dict:
        """Add the correlation fields to ``event`` (existing ones win)."""
        event.setdefault("trace_id", self.trace_id)
        event.setdefault("span_id", self.span_id)
        if self.parent_span_id is not None:
            event.setdefault("parent_span_id", self.parent_span_id)
        return event

    # -- serialization (worker pipes, checkpoint payloads) --------------
    def to_dict(self) -> dict:
        payload = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload.get("span_id", "s0")),
            parent_span_id=(
                str(payload["parent_span_id"])
                if payload.get("parent_span_id") is not None
                else None
            ),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_span_id == other.parent_span_id
        )

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, {self.span_id!r})"


class TraceIdAllocator:
    """Session-scoped deterministic trace-id source (``t000001``, ...).

    A plain counter — never wall clock, never randomness — so the same
    request sequence against the same session yields the same ids on
    every rerun (DET001).
    """

    __slots__ = ("prefix", "_next")

    def __init__(self, prefix: str = "t") -> None:
        self.prefix = prefix
        self._next = 0

    def allocate(self) -> TraceContext:
        """The next request's root context (span ``s0``)."""
        self._next += 1
        return TraceContext(f"{self.prefix}{self._next:06d}")


def resumed_context(payload: Optional[dict], name: str = "resume") -> Optional[TraceContext]:
    """The context a resumed run should adopt from a checkpoint's stored
    trace payload: same ``trace_id``, a ``.resume`` child of the span the
    checkpoint was captured under — which is how retry/resume lineage
    stays inside one trace.  ``None`` in, ``None`` out."""
    if not payload:
        return None
    return TraceContext.from_dict(payload).child(name)


# ----------------------------------------------------------------------
# Offline tooling: `repro trace show`
# ----------------------------------------------------------------------
def read_events(path) -> list[dict]:
    """Parse a metrics JSONL file tolerantly (torn tail lines skipped)."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


def collect_traces(events: Iterable[dict]) -> dict[str, list[dict]]:
    """Group events by ``trace_id`` (insertion order preserved; events
    without a trace id — pre-tracing streams, batch-level events — are
    left out)."""
    traces: dict[str, list[dict]] = {}
    for event in events:
        trace_id = event.get("trace_id")
        if isinstance(trace_id, str):
            traces.setdefault(trace_id, []).append(event)
    return traces


def _span_parent(span_id: str, explicit: Optional[str]) -> Optional[str]:
    if explicit:
        return explicit
    if "." in span_id:
        return span_id.rsplit(".", 1)[0]
    return None


def _describe_span(events: list[dict]) -> list[str]:
    """Per-span attribution lines: what ran here, phase timings, prunes."""
    lines: list[str] = []
    spans: dict[str, float] = {}
    counters: dict[str, int] = {}
    progress_beats = 0
    for event in events:
        kind = event.get("event")
        if kind == "run_start":
            lines.append(
                f"run_start algorithm={event.get('algorithm')} "
                f"|Vq|={event.get('query_vertices')} |Vd|={event.get('data_vertices')}"
            )
        elif kind == "batch.request":
            parts = [
                f"request[{event.get('index')}]",
                f"status={event.get('status')}",
                f"cache={event.get('cache')}",
            ]
            if event.get("tag") is not None:
                parts.insert(1, f"tag={event['tag']}")
            if event.get("elapsed_seconds") is not None:
                parts.append(f"elapsed={event['elapsed_seconds']:.4f}s")
            if event.get("embeddings") is not None:
                parts.append(f"embeddings={event['embeddings']}")
            if event.get("error"):
                parts.append(f"error={event['error']}")
            lines.append(" ".join(parts))
        elif kind == "worker":
            parts = [
                f"worker slice={event.get('slice')}",
                f"status={event.get('status')}",
                f"attempts={event.get('attempts')}",
            ]
            if event.get("resumed_from_calls"):
                parts.append(f"resumed_from_calls={event['resumed_from_calls']}")
            if event.get("error"):
                parts.append(f"error={event['error']}")
            lines.append(" ".join(parts))
        elif kind == "checkpoint.save":
            lines.append(
                f"checkpoint.save reason={event.get('reason')} "
                f"calls={event.get('recursive_calls')} depth={event.get('depth')}"
            )
        elif kind == "checkpoint.resume":
            lines.append(
                f"checkpoint.resume calls={event.get('recursive_calls')} "
                f"depth={event.get('depth')} (continuing a suspended search)"
            )
        elif kind == "degrade":
            lines.append(
                f"degrade stage={event.get('stage')}: {event.get('message')}"
            )
        elif kind == "run_end":
            lines.append(
                f"run_end embeddings={event.get('embeddings')} "
                f"calls={event.get('recursive_calls')} solved={event.get('solved')}"
            )
        elif kind == "span":
            name = event.get("name")
            if isinstance(name, str):
                spans[name] = spans.get(name, 0.0) + float(event.get("seconds", 0.0))
        elif kind == "counters":
            payload = event.get("counters")
            if isinstance(payload, dict):
                for key, value in payload.items():
                    if isinstance(value, int):
                        counters[key] = counters.get(key, 0) + value
        elif kind == "progress":
            progress_beats += 1
    if spans:
        rendered = ", ".join(
            f"{name} {seconds * 1000.0:.2f}ms" for name, seconds in spans.items()
        )
        lines.append(f"phases: {rendered}")
    pruned = {k: v for k, v in counters.items() if v and k.startswith("prune_")}
    examined = counters.get("candidates_examined", 0)
    if pruned or examined:
        rendered = " ".join(f"{k[len('prune_'):]}={v}" for k, v in sorted(pruned.items()))
        lines.append(f"prunes: examined={examined} {rendered}".rstrip())
    extras = {
        k: v
        for k, v in counters.items()
        if v and k in ("cache_hit", "cache_miss", "resumes", "fs_cuts")
    }
    if extras:
        lines.append("counters: " + " ".join(f"{k}={v}" for k, v in sorted(extras.items())))
    if progress_beats:
        lines.append(f"progress: {progress_beats} heartbeat(s)")
    return lines


def render_trace_tree(events: Iterable[dict], trace_id: str) -> str:
    """Tree-rendered timeline of one trace (``repro trace show --trace``)."""
    mine = [e for e in events if e.get("trace_id") == trace_id]
    if not mine:
        return f"trace {trace_id}: no events"
    by_span: dict[str, list[dict]] = {}
    parents: dict[str, Optional[str]] = {}
    for event in mine:
        span_id = event.get("span_id")
        if not isinstance(span_id, str):
            span_id = "(unstamped)"
        by_span.setdefault(span_id, []).append(event)
        parents.setdefault(span_id, _span_parent(span_id, event.get("parent_span_id")))
    children: dict[Optional[str], list[str]] = {}
    for span_id in by_span:
        parent = parents.get(span_id)
        if parent is not None and parent not in by_span:
            parent = None  # orphan (parent emitted nothing): promote to root
        children.setdefault(parent, []).append(span_id)
    for sibling_list in children.values():
        sibling_list.sort()
    lines = [f"trace {trace_id} ({len(mine)} events)"]

    def walk(span_id: str, prefix: str, is_last: bool) -> None:
        connector = "└─ " if is_last else "├─ "
        lines.append(f"{prefix}{connector}{span_id}")
        detail_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span_id, [])
        for detail in _describe_span(by_span[span_id]):
            lines.append(f"{detail_prefix}   {detail}")
        for position, kid in enumerate(kids):
            walk(kid, detail_prefix, position == len(kids) - 1)

    roots = children.get(None, [])
    for position, root in enumerate(roots):
        walk(root, "", position == len(roots) - 1)
    return "\n".join(lines)


def render_trace_list(traces: dict[str, list[dict]]) -> str:
    """One summary line per trace (``repro trace show`` without --trace)."""
    if not traces:
        return "no traced events (was the stream recorded with an observer attached?)"
    lines = [f"{'trace':<10s} {'events':>6s} {'spans':>5s}  summary"]
    for trace_id, events in traces.items():
        spans = {e.get("span_id") for e in events if e.get("span_id")}
        summary = ""
        for event in events:
            if event.get("event") == "batch.request":
                summary = (
                    f"request[{event.get('index')}]"
                    + (f" tag={event['tag']}" if event.get("tag") is not None else "")
                    + f" status={event.get('status')} cache={event.get('cache')}"
                )
                break
            if event.get("event") == "run_start":
                summary = f"match algorithm={event.get('algorithm')}"
        retries = sum(
            1 for e in events if e.get("event") == "worker" and e.get("attempts", 1) > 1
        )
        resumes = sum(1 for e in events if e.get("event") == "checkpoint.resume")
        if retries:
            summary += f" retries={retries}"
        if resumes:
            summary += f" resumes={resumes}"
        lines.append(f"{trace_id:<10s} {len(events):>6d} {len(spans):>5d}  {summary}")
    return "\n".join(lines)
