"""Tests for the performance-trajectory subsystem: run manifests
(repro.bench.manifest), the regression gate (repro.bench.compare),
per-vertex search-effort attribution, and the ``repro bench`` CLI
subcommand family."""

import json

import pytest

from repro import DAFMatcher, MatchConfig, MatchRequest
from repro.baselines import ALL_BASELINES
from repro.bench import (
    SMOKE,
    ManifestWriter,
    compare_manifests,
    history_rows,
    list_manifests,
    load_manifest,
    next_manifest_index,
    paper_worked_example,
    render_hotspot_report,
    render_sparkline,
    run_hotspots,
    validate_manifest,
    validate_manifest_file,
)
from repro.bench.compare import cell_key, classify
from repro.bench.manifest import manifest_index
from repro.bench.report import format_number, render_bar_chart, render_table
from repro.cli import main
from repro.core import SearchTracer
from repro.interfaces import SearchStats
from repro.obs import (
    VERTEX_COUNTERS,
    MemorySink,
    MetricsRegistry,
    hotspot_rows,
    render_hotspots,
)
from repro.obs.schema import validate_event

ROWS = [
    {"dataset": "yeast", "algorithm": "DAF", "avg_calls": 100.0, "avg_time_ms": 5.0},
    {"dataset": "yeast", "algorithm": "CFL", "avg_calls": 400.0, "avg_time_ms": 9.0},
]


def write_manifest(root, rows, **profile_overrides):
    writer = ManifestWriter(root=root, profile={"name": "smoke", **profile_overrides})
    writer.add_figure("fig10", rows, title="demo")
    return writer.write()


class TestManifest:
    def test_round_trip_serialize_validate(self, tmp_path):
        writer = ManifestWriter(root=tmp_path, profile=SMOKE)
        writer.add_figure("fig10", ROWS, metrics={"counters": {"fs_cuts": 3}})
        path = writer.write()
        assert path.name == "BENCH_0.json"
        manifest = load_manifest(path)
        assert validate_manifest(manifest) == []
        assert validate_manifest_file(path) == []
        assert manifest["profile"]["name"] == "smoke"
        assert manifest["figures"]["fig10"]["rows"] == ROWS
        assert manifest["figures"]["fig10"]["metrics"]["counters"]["fs_cuts"] == 3
        assert isinstance(manifest["git_sha"], str)
        assert manifest["environment"]["cpu_count"] >= 1

    def test_index_auto_assignment_and_listing(self, tmp_path):
        assert next_manifest_index(tmp_path) == 0
        first = write_manifest(tmp_path, ROWS)
        second = write_manifest(tmp_path, ROWS)
        assert (first.name, second.name) == ("BENCH_0.json", "BENCH_1.json")
        (tmp_path / "BENCH_x.json").write_text("{}")  # not a manifest name
        assert [p.name for p in list_manifests(tmp_path)] == ["BENCH_0.json", "BENCH_1.json"]
        assert manifest_index("BENCH_12.json") == 12
        assert manifest_index("bench_1.json") is None

    def test_rerecording_a_figure_overwrites(self, tmp_path):
        writer = ManifestWriter(root=tmp_path, profile=SMOKE)
        writer.add_figure("fig10", ROWS)
        writer.add_figure("fig10", ROWS[:1])
        assert len(writer.figures["fig10"]["rows"]) == 1

    def test_sidecar_written_from_manifest_payload(self, tmp_path):
        writer = ManifestWriter(root=tmp_path, profile=SMOKE, results_dir=tmp_path / "res")
        writer.add_figure("fig9", ROWS, metrics={"counters": {"fs_cuts": 1}})
        sidecar = json.loads((tmp_path / "res" / "fig9.metrics.json").read_text())
        assert sidecar == writer.figures["fig9"]["metrics"]

    def test_mirrored_events_validate_against_schema(self, tmp_path):
        sink = MemorySink()
        writer = ManifestWriter(root=tmp_path, profile=SMOKE, sink=sink)
        writer.add_figure("fig10", ROWS)
        writer.write()
        events = {e["event"]: e for e in sink.events}
        assert set(events) == {"bench.summary", "bench.run"}
        for event in sink.events:
            assert validate_event(event) == [], event
        assert events["bench.run"]["index"] == 0
        assert events["bench.summary"]["rows"] == len(ROWS)

    def test_validation_catches_malformed_documents(self, tmp_path):
        good = ManifestWriter(root=tmp_path, profile=SMOKE).build()
        assert validate_manifest(good) == []
        assert validate_manifest([]) != []
        for mutation, fragment in [
            ({"schema": "other"}, "schema tag"),
            ({"schema_version": good["schema_version"] + 1}, "newer than supported"),
            ({"schema_version": "1"}, "must be an int"),
            ({"created": None}, "timestamp"),
            ({"git_sha": 7}, "git_sha"),
            ({"environment": {"python": "3"}}, "environment."),
            ({"profile": {}}, "profile"),
            ({"figures": [1]}, "figures"),
            ({"figures": {"f": {"rows": [1]}}}, "rows"),
            ({"figures": {"f": {"rows": [], "metrics": 3}}}, "metrics"),
        ]:
            errors = validate_manifest({**good, **mutation})
            assert errors and any(fragment in e for e in errors), mutation

    def test_validate_file_rejects_non_json(self, tmp_path):
        bad = tmp_path / "BENCH_0.json"
        bad.write_text("not json")
        assert validate_manifest_file(bad)


class TestCompare:
    def manifests(self, base_rows, new_rows):
        return (
            {"figures": {"fig10": {"rows": base_rows}}},
            {"figures": {"fig10": {"rows": new_rows}}},
        )

    def test_classify_counter_thresholds(self):
        assert classify("avg_calls", 100, 101).classification == "neutral"
        assert classify("avg_calls", 100, 110).classification == "regressed"
        assert classify("avg_calls", 100, 90).classification == "improved"
        assert classify("avg_calls", 100, 110).kind == "counter"

    def test_classify_higher_is_better_flips_direction(self):
        assert classify("solved_%", 100, 50).classification == "regressed"
        assert classify("solved_%", 50, 100).classification == "improved"

    def test_classify_time_is_noise_tolerant(self):
        delta = classify("avg_time_ms", 100, 120)
        assert delta.kind == "time"
        assert delta.classification == "neutral"  # within the wide threshold
        assert classify("avg_time_ms", 100, 200).classification == "regressed"

    def test_classify_added_removed_and_zero_baseline(self):
        assert classify("avg_calls", None, 5).classification == "added"
        assert classify("avg_calls", 5, None).classification == "removed"
        assert classify("avg_calls", 0, 0).classification == "neutral"
        assert classify("avg_calls", 0, 5).classification == "regressed"
        assert classify("avg_calls", 0, 5).delta_percent == float("inf")

    def test_cell_key_uses_identity_columns(self):
        row = {"dataset": "yeast", "algorithm": "DAF", "avg_calls": 1.0, "note": "x"}
        key = cell_key(row)
        assert "dataset=yeast" in key and "algorithm=DAF" in key
        assert "note=x" in key  # stray string columns identify too
        assert "avg_calls" not in key

    def test_compare_gates_only_on_counters(self):
        base, new = self.manifests(
            [{"algorithm": "DAF", "avg_calls": 100.0, "avg_time_ms": 5.0}],
            [{"algorithm": "DAF", "avg_calls": 150.0, "avg_time_ms": 50.0}],
        )
        comparison = compare_manifests(base, new)
        regressed = comparison.of_class("regressed")
        assert {d.metric for d in regressed} == {"avg_calls", "avg_time_ms"}
        assert [d.metric for d in comparison.counter_regressions] == ["avg_calls"]
        text = comparison.render()
        assert "GATE FAIL: 1 deterministic-counter regression(s)" in text

    def test_compare_neutral_run_passes_gate(self):
        base, new = self.manifests(ROWS, [dict(r) for r in ROWS])
        comparison = compare_manifests(base, new)
        assert not comparison.counter_regressions
        assert comparison.summary_counts() == {"neutral": 4}
        assert "gate ok" in comparison.render()

    def test_compare_improvement_on_negative_delta(self):
        base, new = self.manifests(
            [{"algorithm": "DAF", "avg_calls": 400.0}],
            [{"algorithm": "DAF", "avg_calls": 100.0}],
        )
        (delta,) = compare_manifests(base, new).cells
        assert delta.classification == "improved"
        assert delta.delta == -300.0
        assert delta.delta_percent == pytest.approx(-75.0)
        assert "-75.00" in compare_manifests(base, new).render()

    def test_compare_disjoint_cells_are_added_and_removed(self):
        base, new = self.manifests(
            [{"algorithm": "DAF", "avg_calls": 1.0}],
            [{"algorithm": "CFL", "avg_calls": 2.0}],
        )
        comparison = compare_manifests(base, new)
        assert len(comparison.of_class("removed")) == 1
        assert len(comparison.of_class("added")) == 1

    def test_only_changed_hides_neutral_rows(self):
        base, new = self.manifests(ROWS, [dict(r) for r in ROWS])
        text = compare_manifests(base, new).render(only_changed=True)
        assert "avg_calls" not in text

    def test_history_rows_trend_over_manifests(self):
        manifests = [
            {"figures": {"fig10": {"rows": [{"algorithm": "DAF", "avg_calls": float(v)}]}}}
            for v in (100, 200, 400)
        ]
        manifests.insert(1, {"figures": {}})  # a run that skipped fig10
        (row,) = history_rows(manifests, metric="avg_calls")
        assert row["first"] == 100.0 and row["last"] == 400.0
        assert row["runs"] == 3
        assert len(row["trend"]) == 4 and row["trend"][1] == " "
        from repro.bench.report import SPARK_RAMP

        assert SPARK_RAMP.index(row["trend"][0]) < SPARK_RAMP.index(row["trend"][-1])
        assert history_rows(manifests, figure="fig9") == []


class TestReportEdgeCases:
    def test_format_number_precise_keeps_decimals(self):
        assert format_number(1200.4) == "1,200"  # default mode unchanged
        assert format_number(1200.4, precise=True) == "1,200.4"
        assert format_number(1203.9, precise=True) == "1,203.9"
        assert format_number(12.3, precise=True) == "12.30"
        assert format_number(-1234.5, precise=True) == "-1,234.5"
        assert format_number(0.0, precise=True) == "0"

    def test_render_sparkline_shapes(self):
        assert render_sparkline([]) == ""
        assert render_sparkline([None, None]) == ""
        assert len(render_sparkline([1.0])) == 1
        flat = render_sparkline([5.0, 5.0, 5.0])
        assert len(set(flat)) == 1
        from repro.bench.report import SPARK_RAMP

        ramp = render_sparkline([0, 1, 2, 3])
        indices = [SPARK_RAMP.index(c) for c in ramp]
        assert indices == sorted(indices)  # monotone series -> monotone glyphs
        assert ramp[0] == SPARK_RAMP[0] and ramp[-1] == SPARK_RAMP[-1]
        assert render_sparkline([1.0, None, 2.0])[1] == " "

    def test_render_table_missing_keys_and_negative_deltas(self):
        rows = [{"metric": "calls", "delta": -12.5}, {"metric": "time", "extra": 3}]
        text = render_table(rows, "deltas", precise=True)
        assert "-12.50" in text
        assert "extra" in text  # late column collected
        lines = text.splitlines()
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_render_table_empty_rows(self):
        assert "(no rows)" in render_table([], "t", precise=True)

    def test_render_bar_chart_missing_values_skipped(self):
        rows = [{"g": "a", "s": "X", "v": 10}, {"g": "a", "s": "Y", "v": None}]
        values = [r for r in rows if r.get("v") is not None]
        text = render_bar_chart(values, "g", "s", "v", title="demo")
        assert "X" in text and "(no data)" not in text
        assert "(no data)" in render_bar_chart([{"g": "a", "s": "X", "v": None}], "g", "s", "v")


def attribution_sums(snapshot):
    vertex = snapshot.get("vertex_counters", {})
    return {name: sum(vertex.get(name, {}).values()) for name in VERTEX_COUNTERS}


class TestAttribution:
    def check_invariants(self, snapshot):
        sums = attribution_sums(snapshot)
        counters = snapshot["counters"]
        assert sums["entered"] == counters["children_entered"]
        assert sums["conflict"] == counters["prune_conflict"]
        assert sums["empty"] == counters["prune_empty"]
        assert sums["fs_pruned"] == counters["prune_failing_set"]

    @pytest.mark.parametrize("use_fs", [True, False])
    def test_vertex_sums_match_global_counters(self, use_fs):
        query, data = paper_worked_example()
        payload = run_hotspots(query, data, use_failing_sets=use_fs)
        self.check_invariants(payload["snapshot"])

    def test_leaf_decomposition_attribution_stays_exact(self):
        # A query with two same-label leaves exercises the combinatorial
        # leaf counting path (and its group-failure emptyset attribution).
        from repro.graph import Graph

        query = Graph(labels=["R", "A", "A"], edges=[(0, 1), (0, 2)])
        _, data = paper_worked_example()
        registry = MetricsRegistry()
        result = (
            DAFMatcher(MatchConfig(collect_embeddings=False))
            .with_observer(registry)
            .match(
                MatchRequest(query, data)
            )
        )
        assert result.count > 0
        self.check_invariants(registry.snapshot())

    def test_baseline_attribution_sums(self):
        query, data = paper_worked_example()
        for name, cls in ALL_BASELINES.items():
            registry = MetricsRegistry()
            cls().with_observer(registry).match(MatchRequest(query, data))
            snapshot = registry.snapshot()
            sums = attribution_sums(snapshot)
            assert sums["entered"] == snapshot["counters"]["children_entered"], name
            assert sums["conflict"] == snapshot["counters"]["prune_conflict"], name

    def test_attribution_bit_identical_across_runs(self):
        first = run_hotspots()["snapshot"]["vertex_counters"]
        second = run_hotspots()["snapshot"]["vertex_counters"]
        assert first == second

    def test_results_identical_with_observer_off(self):
        # Zero-overhead contract: attribution must not perturb the search.
        query, data = paper_worked_example()
        plain = DAFMatcher(MatchConfig()).match(MatchRequest(query, data))
        observed = DAFMatcher(MatchConfig()).with_observer(MetricsRegistry()).match(
            MatchRequest(query, data)
        )
        assert sorted(plain.embeddings) == sorted(observed.embeddings)
        assert plain.stats.recursive_calls == observed.stats.recursive_calls
        assert plain.stats.metrics is None

    def test_vertex_counters_merge_by_summing(self):
        # Parallel workers merge metrics dicts; the sparse per-vertex maps
        # must sum element-wise, not concatenate.
        a = SearchStats(metrics={"vertex_counters": {"entered": {"0": 2, "1": 1}}})
        b = SearchStats(metrics={"vertex_counters": {"entered": {"1": 3, "2": 4}}})
        merged = a.merge(b).metrics["vertex_counters"]["entered"]
        assert merged == {"0": 2, "1": 4, "2": 4}

    def test_registry_sparse_snapshot_and_reset(self):
        registry = MetricsRegistry()
        assert "vertex_counters" not in registry.snapshot()
        registry.ensure_vertices(3)
        registry.vertex_entered[2] += 5
        assert registry.snapshot()["vertex_counters"] == {"entered": {"2": 5}}
        registry.reset()
        assert "vertex_counters" not in registry.snapshot()


class TestHotspots:
    def test_worked_example_concentrates_effort(self):
        payload = run_hotspots()
        rows = payload["rows"]
        assert rows[0]["vertex"] == 3  # the conflicting second corner
        assert rows[0]["entered_%"] > 50
        assert payload["result"].count == 2

    def test_hotspot_rows_shares_sum_to_100(self):
        snapshot = run_hotspots()["snapshot"]
        rows = hotspot_rows(snapshot)
        total = sum(row["entered_%"] for row in rows)
        assert total == pytest.approx(100.0, abs=0.5)

    def test_render_hotspots_names_top_vertices(self):
        snapshot = run_hotspots()["snapshot"]
        text = render_hotspots(snapshot, top=2)
        assert text.startswith("u3:")
        assert "recursive descents" in text
        assert len(text.splitlines()) == 2

    def test_report_includes_table_and_counts(self):
        payload = run_hotspots(collect_folded=True)
        text = render_hotspot_report(payload, top=3)
        assert "per-vertex search effort" in text
        assert "embeddings=2" in text
        assert "folded stacks" in text

    def test_folded_stack_export(self, tmp_path):
        payload = run_hotspots(collect_folded=True)
        tracer = payload["tracer"]
        lines = tracer.folded_lines()
        assert lines and all(" " in line for line in lines)
        root_line = next(line for line in lines if line.startswith("u0 "))
        assert root_line == "u0 1"
        # Every stack is rooted at the first matched vertex.
        assert all(line.startswith("u0") for line in lines)
        out = tmp_path / "stacks.folded"
        tracer.write_folded(out)
        assert out.read_text().splitlines() == lines
        assert len(tracer.folded) == len(lines)
        assert tracer.roots == []  # hotspots keeps only the bounded histogram

    def test_folded_stack_cap_counts_drops(self):
        tracer = SearchTracer(keep_tree=False, max_folded_stacks=1)
        query, data = paper_worked_example()
        registry = MetricsRegistry()
        matcher = DAFMatcher(MatchConfig(collect_embeddings=False)).with_observer(registry)
        prepared = matcher.prepare(query, data)
        matcher.search(prepared, tracer=tracer)
        assert len(tracer.folded) == 1
        assert tracer.folded_dropped > 0

    def test_tree_and_histogram_see_the_same_search(self):
        query, data = paper_worked_example()
        matcher = DAFMatcher(MatchConfig(collect_embeddings=False))
        with_tree = SearchTracer(query.num_vertices)
        bounded = SearchTracer(keep_tree=False)
        for tracer in (with_tree, bounded):
            matcher.search(matcher.prepare(query, data), tracer=tracer)
        assert with_tree.folded == bounded.folded
        entered = [n for n in with_tree.all_nodes() if n.outcome not in ("conflict", "pruned")]
        assert sum(with_tree.folded.values()) == len(entered)


class TestBenchCLI:
    def test_compare_cli_gate_exit_codes(self, tmp_path, capsys):
        base = write_manifest(tmp_path, [{"algorithm": "DAF", "avg_calls": 100.0}])
        worse = tmp_path / "sub"
        worse.mkdir()
        new = write_manifest(worse, [{"algorithm": "DAF", "avg_calls": 200.0}])
        assert main(["bench", "compare", str(base), str(new), "--gate"]) == 1
        assert "GATE FAIL" in capsys.readouterr().out
        assert main(["bench", "compare", str(base), str(base), "--gate"]) == 0
        assert "gate ok" in capsys.readouterr().out

    def test_compare_cli_rejects_invalid_manifest(self, tmp_path):
        bad = tmp_path / "BENCH_0.json"
        bad.write_text('{"schema": "other"}')
        with pytest.raises(SystemExit, match="invalid manifest"):
            main(["bench", "compare", str(bad), str(bad)])

    def test_history_cli_renders_trend(self, tmp_path, capsys):
        write_manifest(tmp_path, [{"algorithm": "DAF", "avg_calls": 100.0}])
        write_manifest(tmp_path, [{"algorithm": "DAF", "avg_calls": 300.0}])
        assert main(["bench", "history", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_0.json -> BENCH_1.json" in out
        assert "trend of avg_calls" in out

    def test_history_cli_without_manifests_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no BENCH_"):
            main(["bench", "history", "--root", str(tmp_path)])

    def test_hotspots_cli_writes_folded(self, tmp_path, capsys):
        folded = tmp_path / "stacks.folded"
        assert main(["bench", "hotspots", "--top", "2", "--folded", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "per-vertex search effort" in out
        assert folded.read_text().startswith("u0")

    def test_hotspots_folded_bytes_are_pinned(self, tmp_path, capsys):
        # The default worked example's export, byte for byte.
        folded = tmp_path / "stacks.folded"
        assert main(["bench", "hotspots", "--folded", str(folded)]) == 0
        capsys.readouterr()
        assert folded.read_bytes() == b"u0 1\nu0;u1 12\nu0;u1;u3 132\nu0;u1;u3;u2 2\n"

    def test_hotspots_cli_requires_query_and_data_together(self):
        with pytest.raises(SystemExit, match="together"):
            main(["bench", "hotspots", "--query", "q.graph"])

    def test_run_cli_unknown_figure_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["bench", "run", "--figures", "fig99", "--out", str(tmp_path)])
