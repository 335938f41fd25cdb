"""Request-scoped tracing (docs/observability.md).

Three contracts under test:

- **trace substrate** — deterministic ids (DET001: counter-derived, never
  wall-clock/random), structural span names, setdefault stamping so a
  supervisor re-emission never overwrites a worker-stamped span;
- **propagation** — one trace id survives the session -> batch -> worker
  pipe -> checkpoint -> resume pipeline, and untraced checkpoints keep
  the exact payload bytes of prior versions;
- **zero interference** — tracing on vs. off changes no search result,
  and the JSONL stream stays line-atomic and schema-valid under
  fork-based parallel dispatch.
"""

import json
import random

import pytest

from repro import Budget, DAFMatcher
from repro.extensions import ParallelDAFMatcher
from repro.graph import Graph, ensure_connected, gnm_random_graph
from repro.interfaces import MatchOptions, MatchRequest
from repro.obs import JsonlSink, MetricsRegistry
from repro.obs.schema import TRACE_FIELDS, validate_event, validate_jsonl
from repro.obs.telemetry import (
    TraceContext,
    TraceIdAllocator,
    collect_traces,
    read_events,
    render_trace_list,
    render_trace_tree,
    resumed_context,
)
from repro.resilience import SearchCheckpoint
from repro.resilience.faults import FaultSpec, inject
from repro.service import BatchEngine, DataGraphSession

LIMIT = 10**9


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(99)
    data = ensure_connected(gnm_random_graph(24, 80, ["A"] * 24, rng), rng)
    query = ensure_connected(gnm_random_graph(4, 4, ["A"] * 4, rng), rng)
    return query, data


def session_events(query, data, runs=1, sink_events=None):
    """Run ``query`` through an observed session ``runs`` times; return
    the emitted events and the results."""
    events = [] if sink_events is None else sink_events
    observer = MetricsRegistry(sink=_ListSink(events))
    session = DataGraphSession(data, observer=observer)
    results = [
        session.run(MatchRequest(query, options=MatchOptions(limit=LIMIT)))
        for _ in range(runs)
    ]
    return events, results


class _ListSink:
    def __init__(self, events):
        self.events = events

    def emit(self, event):
        self.events.append(dict(event))

    def close(self):
        pass


# ----------------------------------------------------------------------
# Trace substrate
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_child_spans_are_structural(self):
        root = TraceContext("t000001")
        assert (root.trace_id, root.span_id, root.parent_span_id) == ("t000001", "s0", None)
        worker = root.child("w2a0")
        assert worker.trace_id == "t000001"
        assert worker.span_id == "s0.w2a0"
        assert worker.parent_span_id == "s0"
        assert worker.child("resume").span_id == "s0.w2a0.resume"

    def test_stamp_uses_setdefault_semantics(self):
        # A supervisor re-emitting a worker-stamped event must not
        # overwrite the worker's span with its own.
        worker = TraceContext("t1", "s0.w0a0", "s0")
        supervisor = TraceContext("t1")
        event = worker.stamp({"event": "worker"})
        supervisor.stamp(event)
        assert event["span_id"] == "s0.w0a0"
        assert event["parent_span_id"] == "s0"

    def test_dict_round_trip(self):
        ctx = TraceContext("t000007", "s0.dup1", "s0")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_allocator_is_deterministic(self):
        a, b = TraceIdAllocator(), TraceIdAllocator()
        ids = [a.allocate().trace_id for _ in range(3)]
        assert ids == [b.allocate().trace_id for _ in range(3)]
        assert ids == sorted(ids)  # monotone => stable sort order in listings

    def test_resumed_context_none_in_none_out(self):
        assert resumed_context(None) is None
        resumed = resumed_context({"trace_id": "t1", "span_id": "s0"})
        assert resumed.span_id == "s0.resume"
        assert resumed.parent_span_id == "s0"


class TestSessionTracing:
    def test_every_event_is_stamped_with_deterministic_ids(self, instance):
        query, data = instance
        events, _results = session_events(query, data, runs=2)
        assert events
        assert {e["trace_id"] for e in events} == {"t000001", "t000002"}
        for event in events:
            assert event["span_id"] == "s0"
        assert validate_event(events[0]) == []

    def test_trace_ids_bit_identical_across_reruns(self, instance):
        query, data = instance
        first, _ = session_events(query, data, runs=3)
        second, _ = session_events(query, data, runs=3)

        def projection(events):
            # Everything but the wall-clock measurements must replay
            # bit-identically: same events, same order, same ids.
            timings = ("ts", "seconds", "elapsed_seconds", "eta_seconds", "spans")
            return [
                {k: v for k, v in e.items() if k not in timings} for e in events
            ]

        assert projection(first) == projection(second)

    def test_tracing_changes_no_results(self, instance):
        query, data = instance
        plain = DataGraphSession(data).run(MatchRequest(query, options=MatchOptions(limit=LIMIT)))
        _events, traced = session_events(query, data)
        assert traced[0].embeddings == plain.embeddings
        assert traced[0].stats.recursive_calls == plain.stats.recursive_calls

    def test_unobserved_sessions_emit_nothing(self, instance):
        query, data = instance
        session = DataGraphSession(data)
        result = session.run(MatchRequest(query, options=MatchOptions(limit=LIMIT)))
        assert result.solved  # and no sink ever existed to receive events


class TestBatchTracing:
    def test_duplicate_requests_share_a_trace_with_dup_spans(self, instance):
        query, data = instance
        events = []
        observer = MetricsRegistry(sink=_ListSink(events))
        session = DataGraphSession(data, observer=observer)
        engine = BatchEngine(session)
        results = list(
            engine.run_iter([MatchRequest(query, options=MatchOptions(limit=LIMIT))] * 3)
        )
        assert len(results) == 3
        requests = [e for e in events if e["event"] == "batch.request"]
        assert len(requests) == 3
        # Deduped followers ride the leader's trace as dup children.
        assert {e["trace_id"] for e in requests} == {"t000001"}
        assert sorted(e["span_id"] for e in requests) == ["s0", "s0.dup1", "s0.dup2"]

    def test_distinct_queries_get_distinct_traces(self, instance):
        query, data = instance
        other = Graph(labels=["A", "A"], edges=[(0, 1)])
        events = []
        observer = MetricsRegistry(sink=_ListSink(events))
        session = DataGraphSession(data, observer=observer)
        engine = BatchEngine(session)
        list(engine.run_iter([
            MatchRequest(query, options=MatchOptions(limit=LIMIT)),
            MatchRequest(other, options=MatchOptions(limit=LIMIT)),
        ]))
        requests = [e for e in events if e["event"] == "batch.request"]
        assert [e["trace_id"] for e in requests] == ["t000001", "t000002"]

    def test_trace_listing_reconstructs_the_batch(self, instance):
        query, data = instance
        events = []
        observer = MetricsRegistry(sink=_ListSink(events))
        session = DataGraphSession(data, observer=observer)
        engine = BatchEngine(session)
        list(engine.run_iter([MatchRequest(query, options=MatchOptions(limit=LIMIT))] * 2))
        traces = collect_traces(events)
        assert set(traces) == {"t000001"}
        tree = render_trace_tree(events, "t000001")
        assert "s0.dup1" in tree
        assert "t000001" in render_trace_list(traces)


class TestParallelTracing:
    def test_worker_spans_survive_the_pipe(self, instance):
        query, data = instance
        events = []
        observer = MetricsRegistry(sink=_ListSink(events))
        observer.trace = TraceIdAllocator().allocate()
        matcher = ParallelDAFMatcher(num_workers=2).with_observer(observer)
        result = matcher.match(MatchRequest(query, options=MatchOptions(limit=LIMIT), data=data))
        assert result.solved
        workers = [e for e in events if e["event"] == "worker"]
        assert sorted(e["span_id"] for e in workers) == ["s0.w0a0", "s0.w1a0"]
        assert {e["trace_id"] for e in workers} == {"t000001"}
        assert all(e["parent_span_id"] == "s0" for e in workers)

    @pytest.mark.faults
    def test_crash_retry_lineage_is_visible_in_spans(self, instance):
        query, data = instance
        events = []
        observer = MetricsRegistry(sink=_ListSink(events))
        observer.trace = TraceIdAllocator().allocate()
        matcher = ParallelDAFMatcher(
            num_workers=2, max_retries=2, backoff_base=0.01
        ).with_observer(observer)
        spec = FaultSpec(
            site="worker.start", kind="exit", match={"slice_index": 0, "attempt": 0}
        )
        with inject(spec):
            result = matcher.match(
                MatchRequest(query, options=MatchOptions(limit=LIMIT), data=data)
            )
        assert result.solved and not result.partial_failure
        spans = {e["span_id"] for e in events if e["event"] == "worker"}
        # The retried slice appears under a new attempt span; the crash
        # and the recovery are distinguishable from the ids alone.
        assert "s0.w0a1" in spans
        assert "s0.w1a0" in spans


class TestCheckpointTracing:
    def test_untraced_checkpoints_keep_prior_payload_bytes(self, instance):
        query, data = instance
        matcher = DAFMatcher()
        options = MatchOptions(limit=LIMIT, budget=Budget(max_calls=10))
        result = matcher.match(MatchRequest(query, options=options, data=data))
        ckpt = result.checkpoint
        assert ckpt is not None and ckpt.trace is None
        payload = ckpt.to_dict()
        assert "trace" not in payload  # bit-compatible with pre-trace payloads
        assert SearchCheckpoint.from_dict(payload).to_dict() == payload

    def test_traced_checkpoints_round_trip_bit_identically(self, instance):
        query, data = instance
        events, observer = [], None
        observer = MetricsRegistry(sink=_ListSink(events))
        observer.trace = TraceIdAllocator().allocate()
        matcher = DAFMatcher()
        matcher.observer = observer
        options = MatchOptions(limit=LIMIT, budget=Budget(max_calls=10))
        result = matcher.match(MatchRequest(query, options=options, data=data))
        ckpt = result.checkpoint
        assert ckpt.trace == {"trace_id": "t000001", "span_id": "s0"}
        encoded = json.dumps(ckpt.to_dict(), sort_keys=True)
        rebuilt = SearchCheckpoint.from_dict(json.loads(encoded))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == encoded

    def test_resume_adopts_the_lineage_and_counts(self, instance):
        query, data = instance
        matcher = DAFMatcher()
        observer = MetricsRegistry(sink=_ListSink([]))
        observer.trace = TraceIdAllocator().allocate()
        matcher.observer = observer
        options = MatchOptions(limit=LIMIT, budget=Budget(max_calls=10))
        suspended = matcher.match(MatchRequest(query, options=options, data=data))
        assert suspended.checkpoint is not None

        events = []
        resumed_matcher = DAFMatcher()
        resumed_obs = MetricsRegistry(sink=_ListSink(events))
        resumed_matcher.observer = resumed_obs
        resume_options = MatchOptions(limit=LIMIT, resume_from=suspended.checkpoint)
        result = resumed_matcher.match(
            MatchRequest(query, options=resume_options, data=data)
        )
        assert result.solved
        assert resumed_obs.resumes == 1
        resume_events = [e for e in events if e["event"] == "checkpoint.resume"]
        assert resume_events and resume_events[0]["trace_id"] == "t000001"
        assert resume_events[0]["span_id"] == "s0.resume"
        # Everything from the resume on stays inside the original trace
        # (the prepare spans before it ran before the lineage was known).
        start = events.index(resume_events[0])
        assert all(e.get("trace_id") == "t000001" for e in events[start:])

    def test_session_resume_reuses_the_original_trace(self, instance):
        query, data = instance
        events = []
        observer = MetricsRegistry(sink=_ListSink(events))
        session = DataGraphSession(data, observer=observer)
        options = MatchOptions(limit=LIMIT, budget=Budget(max_calls=10))
        suspended = session.run(MatchRequest(query, options=options))
        assert suspended.checkpoint is not None
        session.run(
            MatchRequest(
                query,
                options=MatchOptions(limit=LIMIT, resume_from=suspended.checkpoint),
            )
        )
        # The continuation did NOT burn a fresh trace id: it rejoined
        # t000001 under a .resume span.
        spans = {(e["trace_id"], e["span_id"]) for e in events}
        assert ("t000001", "s0.resume") in spans
        assert not any(trace == "t000002" for trace, _span in spans)


# ----------------------------------------------------------------------
# JSONL integrity under parallel dispatch
# ----------------------------------------------------------------------
class TestJsonlUnderParallelDispatch:
    def test_stream_is_line_atomic_and_schema_valid(self, instance, tmp_path):
        query, data = instance
        path = tmp_path / "parallel.jsonl"
        sink = JsonlSink(path)
        observer = MetricsRegistry(sink=sink)
        observer.trace = TraceIdAllocator().allocate()
        matcher = ParallelDAFMatcher(num_workers=3).with_observer(observer)
        result = matcher.match(
            MatchRequest(query, options=MatchOptions(limit=LIMIT), data=data)
        )
        sink.close()
        assert result.solved
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:  # every line parses alone => no interleaving
            json.loads(line)
        assert validate_jsonl(path) == []
        events = read_events(path)
        assert {e["trace_id"] for e in events if "trace_id" in e} == {"t000001"}

# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def recorded(self, instance, tmp_path):
        query, data = instance
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        session = DataGraphSession(data, observer=MetricsRegistry(sink=sink))
        engine = BatchEngine(session)
        list(engine.run_iter([MatchRequest(query, options=MatchOptions(limit=LIMIT))] * 2))
        sink.close()
        return path

    def test_trace_show_lists_and_renders(self, recorded, capsys):
        from repro.cli import main

        assert main(["trace", "show", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "t000001" in out
        assert main(["trace", "show", str(recorded), "--trace", "t000001"]) == 0
        tree = capsys.readouterr().out
        assert "s0" in tree and "t000001" in tree

    def test_trace_show_unknown_id_fails(self, recorded, capsys):
        from repro.cli import main

        assert main(["trace", "show", str(recorded), "--trace", "t999999"]) == 1
        capsys.readouterr()
