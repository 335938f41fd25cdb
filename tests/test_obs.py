"""Tests for repro.obs: the metrics/spans/progress observability layer.

The two contracts that matter most, in order:

1. **Zero overhead when off.**  A matcher without an observer holds the
   *class attribute* ``Matcher.observer = None`` (never a no-op object),
   and an un-instrumented run returns results bit-identical to an
   instrumented one with ``stats.metrics is None``.
2. **Counters mean something.**  The prune-reason catalogue satisfies
   per-engine consistency invariants, and the same invariant holds
   across all eight baselines so their accounting is comparable.
"""

import json
import random

import pytest

from repro import (
    DAFMatcher,
    Graph,
    JsonlSink,
    MatchConfig,
    MatchOptions,
    MatchRequest,
    MemorySink,
    MetricsRegistry,
    ProgressReporter,
    ResilientMatcher,
)
from repro.baselines import ALL_BASELINES
from repro.core import SearchTracer
from repro.extensions import ParallelDAFMatcher
from repro.graph import ensure_connected, gnm_random_graph
from repro.interfaces import Matcher
from repro.obs import render_snapshot
from repro.obs.metrics import COUNTERS
from repro.obs.progress import slice_eta
from repro.obs.schema import validate_event, validate_jsonl, validate_lines

from .conftest import random_graph_case

pytestmark = pytest.mark.obs


def _cases(count=6, seed=7):
    rng = random.Random(seed)
    return [random_graph_case(rng) for _ in range(count)]


class TestZeroOverhead:
    """Observer off must mean *absent*, not stubbed."""

    def test_observer_is_class_level_none(self):
        # The contract is None-or-registry: engines guard with
        # ``if obs is not None`` and there is no no-op observer object.
        assert Matcher.observer is None
        assert DAFMatcher().observer is None
        for name, cls in ALL_BASELINES.items():
            assert cls().observer is None, name

    def test_with_observer_is_fluent_and_reversible(self):
        matcher = DAFMatcher()
        registry = MetricsRegistry()
        assert matcher.with_observer(registry) is matcher
        assert matcher.observer is registry
        matcher.with_observer(None)
        assert matcher.observer is None

    @pytest.mark.parametrize("use_fs", [True, False])
    def test_daf_results_bit_identical_with_and_without(self, use_fs):
        for query, data in _cases():
            config = MatchConfig(use_failing_sets=use_fs)
            plain = DAFMatcher(config).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**9))
            )
            observed = (
                DAFMatcher(config)
                .with_observer(MetricsRegistry())
                .match(
                    MatchRequest(query, data, options=MatchOptions(limit=10**9))
                )
            )
            assert sorted(plain.embeddings) == sorted(observed.embeddings)
            assert plain.stats.recursive_calls == observed.stats.recursive_calls
            assert plain.stats.metrics is None
            assert observed.stats.metrics is not None

    def test_baseline_results_bit_identical_with_and_without(self):
        query, data = _cases(1, seed=11)[0]
        for name, cls in ALL_BASELINES.items():
            plain = cls().match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
            observed = (
                cls().with_observer(MetricsRegistry()).match(
                    MatchRequest(query, data, options=MatchOptions(limit=10**9))
                )
            )
            assert sorted(plain.embeddings) == sorted(observed.embeddings), name
            assert plain.stats.recursive_calls == observed.stats.recursive_calls, name
            assert plain.stats.metrics is None, name
            assert observed.stats.metrics is not None, name


class TestCounterConsistency:
    """The catalogue's invariants (docstring of repro.obs.metrics)."""

    def test_daf_fs_examined_decomposes(self):
        # DAF's CS guarantees no label/degree or edge probe fails at
        # search time (Theorem 4.1): every examined candidate either
        # conflicts or is entered.  (prune_label_degree / prune_cs_edge
        # still accumulate, but only from the CS-construction phase.)
        for query, data in _cases():
            registry = MetricsRegistry()
            matcher = DAFMatcher(MatchConfig(use_failing_sets=True))
            matcher.with_observer(registry).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**9))
            )
            c = registry.counters()
            assert (
                c["candidates_examined"]
                == c["prune_conflict"] + c["children_entered"]
            )

    def test_daf_calls_equal_entries_plus_root(self):
        # Without leaf decomposition every recursive call is either the
        # root run() or a child entry, so the two accountings must agree.
        for query, data in _cases(4, seed=3):
            registry = MetricsRegistry()
            matcher = DAFMatcher(MatchConfig(leaf_decomposition=False))
            result = matcher.with_observer(registry).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**9))
            )
            assert (
                result.stats.recursive_calls
                == registry.children_entered + 1
            )

    def test_all_baselines_examined_decomposes(self):
        # Baselines pay label/degree and edge probes at search time; the
        # shared ledger must still balance: every examined candidate is
        # pruned for exactly one reason or entered.
        query, data = _cases(1, seed=5)[0]
        for name, cls in ALL_BASELINES.items():
            registry = MetricsRegistry()
            cls().with_observer(registry).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**9))
            )
            c = registry.counters()
            assert c["candidates_examined"] == (
                c["children_entered"]
                + c["prune_conflict"]
                + c["prune_label_degree"]
                + c["prune_cs_edge"]
            ), name
            assert c["candidates_examined"] > 0, name

    def test_failing_set_counters_move_on_cartesian_trap(self, cartesian_trap):
        query, data = cartesian_trap
        registry = MetricsRegistry()
        DAFMatcher(MatchConfig(use_failing_sets=True)).with_observer(
            registry
        ).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert registry.fs_cuts >= 0  # trap is small; cuts may be zero
        # but the search must at least account for the trap's candidates
        assert registry.candidates_examined > 0

    def test_snapshot_lists_every_catalogued_counter(self):
        snapshot = MetricsRegistry().snapshot()
        assert set(snapshot["counters"]) == set(COUNTERS)


class TestRegistry:
    def test_spans_accumulate_and_round(self):
        registry = MetricsRegistry()
        registry.record_span("search", 0.25)
        registry.record_span("search", 0.5)
        assert registry.snapshot()["spans"]["search"] == pytest.approx(0.75)

    def test_span_context_manager_measures_time(self):
        registry = MetricsRegistry()
        with registry.span("order"):
            pass
        assert registry.spans["order"] >= 0.0

    def test_reset_zeroes_everything_but_keeps_sink(self):
        sink = MemorySink()
        registry = MetricsRegistry(sink=sink)
        registry.prune_conflict += 3
        registry.record_span("search", 1.0)
        registry.observe_candidate_sizes([4, 5])
        registry.reset()
        assert registry.prune_conflict == 0
        assert registry.spans == {}
        assert registry.candidate_sizes == []
        assert registry.sink is sink

    def test_daf_run_records_pipeline_spans(self):
        query, data = _cases(1, seed=9)[0]
        registry = MetricsRegistry()
        DAFMatcher().with_observer(registry).match(MatchRequest(query, data))
        for phase in ("dag_build", "cs_construct", "order", "search"):
            assert phase in registry.spans, phase

    def test_render_snapshot_handles_any_payload(self):
        text = render_snapshot(
            {
                "counters": {"prune_conflict": 7},
                "spans": {"search": 0.001, "exotic": 0.002},
                "candidate_sizes": [3, 9],
            }
        )
        assert "prune_conflict" in text
        assert "exotic" in text
        assert "min=3 max=9" in text
        # Rendering an empty payload (e.g. a matcher that never ran)
        # must not raise either.
        assert "prune accounting" in render_snapshot({})


class TestSinksAndSchema:
    def test_memory_sink_stamps_and_filters(self):
        sink = MemorySink()
        sink.emit({"event": "span", "name": "search", "seconds": 0.1})
        sink.emit({"event": "counters", "counters": {}})
        assert len(sink.of_type("span")) == 1
        assert all("ts" in e for e in sink.events)

    def test_jsonl_sink_round_trips_validator(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonlSink(path) as sink:
            registry = MetricsRegistry(sink=sink)
            query, data = _cases(1, seed=13)[0]
            DAFMatcher().with_observer(registry).match(MatchRequest(query, data))
            registry.emit_counters()
        assert validate_jsonl(path) == []
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert {"span", "counters", "histogram"} <= {e["event"] for e in events}

    def test_validator_rejects_bad_events(self):
        assert validate_event({"event": "mystery"})  # unknown type
        assert validate_event({"event": "span", "name": "x"})  # missing field
        assert validate_event(
            {"event": "span", "name": "x", "seconds": 0.1, "color": "red"}
        )  # unexpected field
        assert validate_event(
            {"event": "span", "name": "x", "seconds": True}
        )  # bool is not a number
        assert validate_event("not an object")
        assert validate_event({"event": "span", "name": "x", "seconds": 1}) == []

    def test_validator_tolerates_torn_final_line_only(self):
        good = json.dumps({"event": "counters", "counters": {"fs_cuts": 1}})
        assert validate_lines([good, '{"event": "coun']) == []
        errors = validate_lines(['{"event": "coun', good])
        assert errors and "not valid JSON" in errors[0]


class TestProgressReporter:
    def test_countdown_throttles_clock_checks(self):
        sink = MemorySink()
        reporter = ProgressReporter(
            every_calls=5, min_interval_seconds=0.0, sink=sink
        )
        for calls in range(1, 5):
            reporter.tick(calls, 1)
        assert sink.events == []  # countdown not yet exhausted
        reporter.tick(5, 1)
        assert len(sink.of_type("progress")) == 1

    def test_min_interval_rate_limits(self):
        sink = MemorySink()
        reporter = ProgressReporter(
            every_calls=1, min_interval_seconds=3600.0, sink=sink
        )
        for calls in range(1, 50):
            reporter.tick(calls, 1)
        assert sink.events == []  # an hour has not passed

    def test_stream_line_is_human_readable(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(
            every_calls=1, min_interval_seconds=0.0, stream=stream
        )
        reporter.tick(4096, 3)
        line = stream.getvalue()
        assert "[search]" in line and "depth=3" in line

    def test_rejects_bad_every_calls(self):
        with pytest.raises(ValueError):
            ProgressReporter(every_calls=0)

    def test_slice_eta(self):
        assert slice_eta(0, 8, 1.0) is None
        assert slice_eta(2, 8, 10.0) == pytest.approx(30.0)
        assert slice_eta(8, 8, 10.0) == pytest.approx(0.0)


class TestSearchTracerWithoutTree:
    def test_pruned_and_leaves_are_not_materialized(self):
        tracer = SearchTracer(keep_tree=False)
        tracer.enter(0, 1)
        for _ in range(5):
            tracer.pruned(1, 2)
        tracer.conflict(1, 5, contribution_mask=0b11)
        tracer.emptyset(2)
        tracer.leave(None, False)
        assert tracer.roots == []
        assert tracer.folded == {(0,): 1}

    def test_attaches_to_engine_tracer_hook(self):
        query = Graph(labels=["A", "B"], edges=[(0, 1)])
        data = Graph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2), (1, 2)])
        tracer = SearchTracer(keep_tree=False)
        matcher = DAFMatcher()
        prepared = matcher.prepare(query.freeze(), data.freeze())
        result = matcher.search(prepared, tracer=tracer)
        assert result.count == 2
        assert sum(tracer.folded.values()) > 0
        assert tracer.roots == []


class TestParallelObserved:
    @pytest.fixture(scope="class")
    def instance(self):
        rng = random.Random(99)
        n = 24
        data = ensure_connected(gnm_random_graph(n, 80, ["A"] * n, rng), rng)
        query = ensure_connected(gnm_random_graph(4, 4, ["A"] * 4, rng), rng)
        return query, data

    def test_worker_metrics_merge_and_events_validate(self, instance):
        query, data = instance
        sink = MemorySink()
        registry = MetricsRegistry(sink=sink)
        matcher = ParallelDAFMatcher(num_workers=3).with_observer(registry)
        result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        expected = DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        assert sorted(result.embeddings) == sorted(expected.embeddings)
        # Merged payload: the parent contributes the filter-phase spans,
        # the workers contribute search counters.
        metrics = result.stats.metrics
        assert metrics is not None
        assert metrics["counters"]["children_entered"] > 0
        assert "cs_construct" in metrics["spans"]
        # One worker event per slice, all schema-valid.
        worker_events = sink.of_type("worker")
        assert len(worker_events) == 3
        assert all(e["status"] == "ok" for e in worker_events)
        for event in sink.events:
            assert validate_event(event) == [], event

    def test_parallel_without_observer_has_no_metrics(self, instance):
        query, data = instance
        result = ParallelDAFMatcher(num_workers=2).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert result.stats.metrics is None


class TestResilientObserved:
    def test_degrade_events_mirror_log(self):
        rng = random.Random(4)
        n = 30
        data = ensure_connected(gnm_random_graph(n, 90, ["A"] * n, rng), rng)
        query = ensure_connected(gnm_random_graph(4, 5, ["A"] * 4, rng), rng)
        sink = MemorySink()
        matcher = ResilientMatcher(max_memory=1).with_observer(
            MetricsRegistry(sink=sink)
        )
        result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        assert result.degradations  # the 1-byte budget forced the chain
        degrade_events = sink.of_type("degrade")
        assert len(degrade_events) == len(result.degradations)
        assert [e["message"] for e in degrade_events] == result.degradations
        assert result.stats.metrics is not None
        for event in sink.events:
            assert validate_event(event) == [], event


class TestCLI:
    @pytest.fixture
    def graph_files(self, tmp_path, triangle_data, edge_query):
        from repro.graph import graph_to_string

        data_path = tmp_path / "data.graph"
        query_path = tmp_path / "query.graph"
        data_path.write_text(graph_to_string(triangle_data))
        query_path.write_text(graph_to_string(edge_query))
        return str(query_path), str(data_path)

    def test_metrics_out_round_trips_schema(self, graph_files, tmp_path, capsys):
        from repro.cli import main

        query, data = graph_files
        out = tmp_path / "metrics.jsonl"
        assert main(["match", query, data, "--metrics-out", str(out)]) == 0
        assert validate_jsonl(out) == []
        events = [json.loads(line) for line in out.read_text().splitlines()]
        types = [e["event"] for e in events]
        assert types[0] == "run_start"
        assert types[-1] == "run_end"
        end = events[-1]
        assert end["embeddings"] == 2
        assert end["solved"] is True

    def test_profile_prints_summary_to_stderr(self, graph_files, capsys):
        from repro.cli import main

        query, data = graph_files
        assert main(["match", query, data, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "prune accounting" in captured.err
        assert json.loads(captured.out)["count"] == 2

    def test_no_flags_means_no_observer_payload(self, graph_files, capsys):
        from repro.cli import main

        query, data = graph_files
        assert main(["match", query, data]) == 0
        captured = capsys.readouterr()
        assert "prune accounting" not in captured.err
