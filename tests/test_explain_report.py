"""EXPLAIN ANALYZE forensics: reports, diffs, features, wiring.

The load-bearing invariants:

- a report's per-vertex actuals equal the run's own
  ``MetricsRegistry`` vertex-counter totals *exactly* (the explained
  run is observed by a dedicated fresh registry);
- the §6/Figure 7 failing-set instance shows the Lemma 6.1 backjump at
  the documented vertex, with the skipped-sibling accounting;
- ``hotspots()`` and the report attribute the same effort (both read
  the same counters);
- a report diffed against itself classifies nothing.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.bench.hotspots import paper_worked_example
from repro.core import DAFMatcher
from repro.core.config import MatchConfig
from repro.graph import Graph
from repro.interfaces import MatchOptions, MatchRequest
from repro.obs import VERTEX_COUNTERS, MemorySink, MetricsRegistry, hotspot_rows
from repro.obs.explain import (
    ExplainReport,
    QueryPlan,
    diff_reports,
    explain,
    explain_analyze,
    load_report,
)
from repro.obs.schema import validate_explain_report
from tests.test_failing_sets import make_failing_sibling_case

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def square_report() -> ExplainReport:
    return explain_analyze(*paper_worked_example())


class TestReportActualsMatchRegistry:
    def test_actuals_equal_dedicated_registry_totals(self):
        """The acceptance bound: report rows == vertex-counter totals
        for the same run, dimension by dimension, vertex by vertex."""
        query, data = paper_worked_example()
        registry = MetricsRegistry()
        matcher = DAFMatcher(observer=registry)
        matcher.run_request(MatchRequest(query, data))
        expected = registry.snapshot()["vertex_counters"]

        report = explain_analyze(query, data)
        for row in report.vertices:
            u = str(row["vertex"])
            for dim in VERTEX_COUNTERS:
                assert row[dim] == expected.get(dim, {}).get(u, 0), (u, dim)
        # And the report's own totals are the run's counters, so the
        # per-vertex sums close over them (sum(entered) == children_entered).
        assert sum(r["entered"] for r in report.vertices) == report.totals[
            "children_entered"
        ]

    def test_summary_matches_plain_run(self):
        query, data = paper_worked_example()
        plain = DAFMatcher().run_request(MatchRequest(query, data))
        report = explain_analyze(query, data)
        assert report.embeddings == plain.count
        assert report.recursive_calls == plain.stats.recursive_calls
        assert report.solved and not report.timed_out and not report.negative

    def test_hotspots_agree_with_report(self, square_report):
        """hotspot_rows and the report are two views of one attribution."""
        query, data = paper_worked_example()
        registry = MetricsRegistry()
        DAFMatcher(observer=registry).run_request(MatchRequest(query, data))
        hotspots = {r["vertex"]: r for r in hotspot_rows(registry.snapshot())}
        by_vertex = {r["vertex"]: r for r in square_report.vertices}
        for u, hot in hotspots.items():
            for dim in VERTEX_COUNTERS:
                assert by_vertex[u][dim] == hot[dim]
        # The hottest vertex by entered-count is the report's effort_rank 0.
        hottest = max(hotspots.values(), key=lambda r: r["entered"])["vertex"]
        assert by_vertex[hottest]["effort_rank"] == 0
        assert by_vertex[hottest]["effort_share"] == max(
            r["effort_share"] for r in square_report.vertices
        )


class TestFailingSetForensics:
    def test_figure7_backjump_at_documented_vertex(self):
        """Example 6.1/Figure 7: u3 has no extendable candidate, and the
        failing set excludes u3's siblings' subtrees — the report must
        show the backjump and attribute the skipped siblings to u3."""
        query, data = make_failing_sibling_case(10, 20)
        config = MatchConfig(use_failing_sets=True, leaf_decomposition=False)
        report = explain_analyze(query, data, config)
        assert report.fs_cuts >= 1
        assert report.fs_skipped > 0
        row = next(r for r in report.vertices if r["vertex"] == 3)
        # u3's 10 candidates are irrelevant to the doomed subtree: the
        # first backjump's failing set excludes u3, skipping the other 9.
        assert row["fs_pruned"] == 9
        assert report.fs_skipped == sum(r["fs_pruned"] for r in report.vertices)

    def test_failing_sets_off_shows_no_cuts(self):
        query, data = make_failing_sibling_case(10, 20)
        config = MatchConfig(use_failing_sets=False, leaf_decomposition=False)
        report = explain_analyze(query, data, config)
        assert report.fs_cuts == 0 and report.fs_skipped == 0

    def test_ablation_diff_classifies_the_blowup(self):
        """Diffing with-vs-without failing sets localizes the savings."""
        query, data = make_failing_sibling_case(10, 20)
        with_fs = explain_analyze(
            query, data, MatchConfig(use_failing_sets=True, leaf_decomposition=False)
        )
        without = explain_analyze(
            query, data, MatchConfig(use_failing_sets=False, leaf_decomposition=False)
        )
        diff = diff_reports(with_fs, without, min_delta=1)
        assert diff.entries
        blowups = [e for e in diff.entries if e["kind"] == "candidate_blowup"]
        assert any(e["severity"] == "regression" for e in blowups)


class TestReportSchema:
    def test_round_trip_validates(self, square_report, tmp_path):
        path = tmp_path / "square.explain.json"
        square_report.save(path)
        assert validate_explain_report(path) == []
        loaded = load_report(path)
        assert loaded["fs_cuts"] == square_report.fs_cuts
        assert loaded["vertices"] == square_report.vertices
        assert loaded["plan"]["root"] == square_report.plan.root

    def test_validator_rejects_wrong_tag(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_report(path)

    def test_validator_flags_bad_rows(self, square_report):
        payload = square_report.to_dict()
        payload["vertices"][0]["entered"] = "lots"
        errors = validate_explain_report(payload)
        assert errors and any("entered" in e for e in errors)

    def test_report_event_is_schema_valid(self):
        from repro.obs.schema import validate_event

        query, data = paper_worked_example()
        sink = MemorySink()
        explain_analyze(query, data, sink=sink)
        events = [e for e in sink.events if e.get("event") == "explain.report"]
        assert len(events) == 1
        assert validate_event(events[0]) == []
        assert events[0]["fs_cuts"] == 0


class TestDiff:
    def test_self_diff_is_empty(self, square_report):
        diff = diff_reports(square_report, square_report)
        assert diff.entries == []
        assert diff.regressions == []
        assert all(base == cur for base, cur in diff.totals_delta.values())

    def test_daf_vs_baseline_classifies_differences(self, square_report):
        from repro.baselines import VF2Matcher

        query, data = paper_worked_example()
        baseline = explain_analyze(query, data, matcher=VF2Matcher())
        assert baseline.plan is None  # baselines have no CS plan
        diff = diff_reports(square_report, baseline, min_delta=1)
        assert len(diff.entries) >= 1
        assert diff.base_algorithm != diff.current_algorithm
        rendered = diff.render()
        assert "difference(s)" in rendered

    def test_diff_accepts_dicts_and_reports(self, square_report):
        as_dict = square_report.to_dict()
        assert diff_reports(as_dict, square_report).entries == []


class TestRenderAndPlan:
    def test_render_mentions_key_facts(self, square_report):
        text = square_report.render()
        assert "EXPLAIN ANALYZE" in text
        assert "per-vertex" in text
        assert "failing sets" in text

    def test_trail_elision_caps_render(self):
        """A long refinement trail renders first/last with an elision
        marker instead of an unbounded ``->`` chain."""
        plan = QueryPlan(
            root=0,
            root_scores={0: 1.0},
            dag_edges=[],
            topological_order=(0,),
            candidate_sizes_initial={0: 99},
            candidate_sizes_per_step=[{0: 99 - i} for i in range(9)],
            candidate_sizes_final={0: 91},
            cs_size=91,
            cs_edges=0,
            is_negative=False,
            weight_summary={0: (1, 1)},
        )
        line = next(l for l in plan.render().splitlines() if "C(u0)" in l)
        assert "elided" in line
        assert line.count("->") < 9

    def test_short_trail_not_elided(self):
        query, data = paper_worked_example()
        plan = explain(query, data)
        assert "elided" not in plan.render()


class TestWiring:
    def test_match_options_explain_attaches_report(self):
        query, data = paper_worked_example()
        result = DAFMatcher().run_request(
            MatchRequest(query, data, options=MatchOptions(explain=True))
        )
        assert isinstance(result.explain, ExplainReport)
        assert result.explain.embeddings == result.count
        # The attached report is not serialized state on the result.
        assert result.explain.result is result

    def test_explain_off_leaves_result_bare(self):
        query, data = paper_worked_example()
        result = DAFMatcher().run_request(MatchRequest(query, data))
        assert result.explain is None

    def test_session_explain_remaps_cache_hit(self):
        """A relabeled isomorphic probe hits the prepared cache; its
        report rows must come back in the *probe's* coordinates."""
        from repro.service import DataGraphSession

        data = Graph(labels=["R", "A", "B", "A"], edges=[(0, 1), (1, 2), (2, 3)])
        session = DataGraphSession(data, observer=MetricsRegistry())
        query = Graph(labels=["A", "B"], edges=[(0, 1)])
        probe = Graph(labels=["B", "A"], edges=[(0, 1)])  # same graph, relabeled
        first = session.run(
            MatchRequest(query, options=MatchOptions(explain=True))
        )
        hit = session.run(MatchRequest(probe, options=MatchOptions(explain=True)))
        assert session.cache.stats()["hits"] == 1
        by_vertex = {r["vertex"]: r for r in hit.explain.vertices}
        # probe u0 is the B vertex, u1 the A vertex; entered counts follow
        # the probe's numbering even though the cached query ran.
        first_by_label = {
            query.label(r["vertex"]): r["entered"] for r in first.explain.vertices
        }
        assert by_vertex[0]["entered"] == first_by_label["B"]
        assert by_vertex[1]["entered"] == first_by_label["A"]
        # Same embedding set, in the probe's (swapped) coordinates.
        assert sorted(hit.embeddings) == sorted((b, a) for a, b in first.embeddings)

    def test_batch_explained_request_runs_inline(self):
        from repro.service import BatchEngine, DataGraphSession

        query, data = paper_worked_example()
        session = DataGraphSession(data)
        engine = BatchEngine(session)
        batch = engine.run(
            [
                MatchRequest(query, options=MatchOptions(explain=True), tag="x"),
                MatchRequest(query, tag="y"),
            ]
        )
        by_tag = {item.tag: item for item in batch.items}
        assert by_tag["x"].status == "ok" and by_tag["y"].status == "ok"
        assert isinstance(by_tag["x"].result.explain, ExplainReport)
        assert by_tag["y"].result.explain is None


class TestFeatures:
    def test_rows_are_deterministic_and_valid(self, square_report):
        from repro.analysis import FEATURE_COLUMNS, feature_row, validate_feature_row

        query, data = paper_worked_example()
        row = feature_row(query, data)
        assert row == feature_row(query, data)
        assert validate_feature_row(row) == []
        assert set(row) < set(FEATURE_COLUMNS)
        # The report's embedded row carries all three layers.
        full = square_report.features
        assert validate_feature_row(full) == []
        assert full["q_vertices"] == 4.0
        assert full["plan_cs_size"] == square_report.plan.cs_size
        assert full["effort_calls"] == square_report.recursive_calls

    def test_validator_rejects_unknown_and_bool(self):
        from repro.analysis import validate_feature_row

        assert validate_feature_row({"no_such_feature": 1.0})
        assert validate_feature_row({"q_vertices": True})


class TestCli:
    def _run(self, argv):
        from repro.cli import main

        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    def test_explain_analyze_json(self, tmp_path):
        path = tmp_path / "cli.explain.json"
        code, out = self._run(["explain", "analyze", "--json", str(path)])
        assert code == 0
        assert "EXPLAIN ANALYZE" in out
        assert validate_explain_report(path) == []

    def test_explain_plan_default_example(self):
        code, out = self._run(["explain", "plan"])
        assert code == 0
        assert "root:" in out and "candidate sets" in out

    def test_explain_diff_gate(self, tmp_path):
        report_path = tmp_path / "a.json"
        explain_analyze(*paper_worked_example()).save(report_path)
        code, out = self._run(
            ["explain", "diff", str(report_path), str(report_path), "--gate"]
        )
        assert code == 0
        assert "0 per-vertex difference(s), 0 regression(s)" in out
