"""Spans around the library's layer entry points, and the per-layer
metrics computed from them.

The traced run replaces each entry point in :data:`SITES` at the site its
callers look it up (a module global or a class attribute) with a wrapper
that records a :class:`Span`: name, start, end, enclosing span and the
request being served.  Spans stay in memory until the run ends.  Nothing
is wrapped in an untraced run, so end-to-end numbers carry no tracing
cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.filters import initial_candidate_count

from .stats import nearest_rank


@dataclass(frozen=True)
class Site:
    """One wrapped entry point: ``owner`` is a module path, or
    ``module:Class`` for a method."""

    span: str
    owner: str
    attribute: str


SITES = (
    Site("dag.build", "repro.core.matcher", "build_dag"),
    Site("cs.build", "repro.core.matcher", "build_candidate_space"),
    Site("prepare", "repro.core.matcher:DAFMatcher", "prepare"),
    Site("search", "repro.core.matcher:DAFMatcher", "search"),
    Site("cache.lookup", "repro.service.cache:PreparedQueryCache", "lookup"),
    Site("cache.insert", "repro.service.cache:PreparedQueryCache", "insert"),
    Site("cache.hash", "repro.service.cache", "canonical_hash"),
    Site("cache.iso", "repro.service.cache", "find_isomorphism"),
    Site("index.ensure", "repro.graph.graph:Graph", "ensure_index"),
    Site("mutate.apply", "repro.service.dynamic", "apply_update"),
    Site("index.refresh", "repro.service.dynamic", "refresh_index"),
    Site("cs_delta.refresh", "repro.service.dynamic", "refresh_candidate_space"),
    Site("dynamic.dag_check", "repro.service.dynamic", "build_dag"),
    Site("session.apply", "repro.service.session:DataGraphSession", "apply"),
)

#: What a span keeps of its call's result, taken after the span closed.
#: Only counts are kept, so a traced run pins no candidate space or graph.
NOTES: dict[str, Callable[[object], object]] = {
    "cs.build": lambda cs: (
        cs.size,
        cs.num_edges,
        sum(initial_candidate_count(cs.query, cs.data, u) for u in cs.query.vertices()),
    ),
    "search": lambda result: (result.stats.recursive_calls, result.stats.embeddings_found),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    request: Optional[int]  # timed operation index, None during set-up
    note: object = None


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Recorder:
    """Collects the spans of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: Optional[int] = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Wrap every site in :data:`SITES` for the duration of the block."""
        saved = []
        try:
            for site in SITES:
                owner = _owner(site.owner)
                original = getattr(owner, site.attribute)
                saved.append((owner, site.attribute, original))
                setattr(owner, site.attribute, self.wrap(site.span, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def fired(self) -> set[str]:
        return {span.name for span in self.spans}

    def write(self, path: Path) -> None:
        """Dump the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "request": span.request,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a
    span cover disjoint parts of its interval."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


def totals_within(spans: list[Span], name: str, enclosing: str) -> list[float]:
    """For each ``enclosing`` span, the summed duration of the ``name``
    spans below it."""
    totals = {i: 0.0 for i, span in enumerate(spans) if span.name == enclosing}
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != enclosing:
            parent = spans[parent].parent
        if parent >= 0:
            totals[parent] += span.end - span.start
    return list(totals.values())


def layer_metrics(spans: list[Span], records, cache_delta: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (set-up and timed phase).

    ``records`` are the timed operations (``perf.run.Record``) and
    ``cache_delta`` the prepared-query cache's hit/miss/eviction counts
    over the timed phase.  A layer the workload never enters reads 0.
    """
    own = self_times(spans)

    def ms(values) -> float:
        return nearest_rank(values, 50) * 1000

    def durations(name: str) -> list[float]:
        return [span.end - span.start for span in spans if span.name == name]

    def selfs(name: str) -> list[float]:
        return [own[i] for i, span in enumerate(spans) if span.name == name]

    builds = [span.note for span in spans if span.name == "cs.build"]
    initial = sum(i for _, _, i in builds)
    searches = [span.note for span in spans if span.name == "search"]
    calls = sum(c for c, _ in searches)
    reads = [r for r in records if r.op.kind == "query" and r.error is None]
    updates = [r.result for r in records if r.op.kind == "update" and r.error is None]
    lookups = cache_delta.get("hits", 0) + cache_delta.get("misses", 0)
    applies = durations("session.apply")
    return {
        "cs.build_ms": ms(selfs("cs.build")),
        "cs.size": nearest_rank([size for size, _, _ in builds], 50),
        "cs.edges": nearest_rank([edges for _, edges, _ in builds], 50),
        "cs.kept_ratio": sum(size for size, _, _ in builds) / initial if initial else 0.0,
        "dag.build_ms": ms(durations("dag.build")),
        "prepare.ms": ms(durations("prepare")),
        "search.ms": ms(selfs("search")),
        "search.calls": nearest_rank([c for c, _ in searches], 50),
        "search.emb_per_call": sum(e for _, e in searches) / calls if calls else 0.0,
        "cache.lookup_ms": ms(durations("cache.lookup")),
        "cache.hash_ms": ms(durations("cache.hash")),
        "cache.iso_ms": ms(durations("cache.iso")),
        "cache.insert_ms": ms(selfs("cache.insert")),
        "cache.hit_rate": cache_delta.get("hits", 0) / lookups if lookups else 0.0,
        "cache.evictions": cache_delta.get("evictions", 0),
        "session.hit_ms": ms([r.latency for r in reads if r.hit]),
        "session.miss_ms": ms([r.latency for r in reads if r.hit is False]),
        "index.build_ms": sum(durations("index.ensure")) * 1000,
        "index.refresh_ms": ms(durations("index.refresh")),
        "mutate.apply_ms": ms(durations("mutate.apply")),
        "cs_delta.refresh_ms": ms(totals_within(spans, "cs_delta.refresh", "session.apply")),
        "cs_delta.refreshed": sum(u.cache_refreshed for u in updates),
        "cs_delta.invalidated": sum(u.cache_invalidated for u in updates),
        "dynamic.dag_check_ms": ms(totals_within(spans, "dynamic.dag_check", "session.apply")),
        "dynamic.standing_ms": ms(selfs("session.apply")),
        "dynamic.events": sum(u.appeared + u.disappeared for u in updates),
        "dynamic.apply_p50_ms": nearest_rank(applies, 50) * 1000,
        "dynamic.apply_p90_ms": nearest_rank(applies, 90) * 1000,
    }
