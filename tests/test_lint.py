"""Tests for ``repro.lint`` — the static invariant checkers.

Three layers, mirroring docs/static-analysis.md:

- fixture tests: each checker fires at exactly the expected locations of
  its known-bad mini-repo under ``tests/lint_fixtures/`` and stays
  silent on the shared clean tree;
- engine tests: selection, suppression, rendering, error handling;
- the whole-repo gate: ``repro lint`` is clean at HEAD — the same
  invariant ``scripts/ci.sh`` enforces.
"""

import json
from pathlib import Path

import pytest

import repro.lint as lint
from repro.cli import main
from repro.lint import (
    ALL_CHECKERS,
    Finding,
    LintContext,
    UnknownCheckError,
    catalog,
    find_repo_root,
    render_json,
    render_text,
    run_lint,
)

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(lint.__file__).resolve().parents[3]

#: fixture name -> (check id, expected {(path, line)} anchor set).
BAD_FIXTURES = {
    "sch001_bad": (
        "SCH001",
        {
            ("src/repro/core/engine.py", 7),  # unknown field 'bogus'
            ("src/repro/core/engine.py", 8),  # unknown event 'pong'
            ("src/repro/core/engine.py", 10),  # undeclared counter
            ("src/repro/core/engine.py", 12),  # undeclared vertex dimension
            ("src/repro/core/engine.py", 14),  # unknown phase
            ("src/repro/core/engine.py", 15),  # unknown field 'verdict' (trace fields stay implicit)
            ("src/repro/obs/metrics.py", 3),  # dead counter slot
            ("src/repro/obs/schema.py", 5),  # dead schema entry
        },
    ),
    "det001_bad": (
        "DET001",
        {
            ("src/repro/core/engine.py", 12),  # global random.shuffle
            ("src/repro/core/engine.py", 13),  # clock into counter
            ("src/repro/core/engine.py", 14),  # for over set(...)
            ("src/repro/core/engine.py", 16),  # comprehension over set literal
        },
    ),
    "bud001_bad": (
        "BUD002",
        {
            ("src/repro/baselines/demo.py", 16),  # recursive, no tick
            ("src/repro/baselines/demo.py", 23),  # cost-counting loop, no tick
        },
    ),
    "ifc001_bad": (
        "IFC001",
        {
            ("src/repro/baselines/demo.py", 4),  # base / name / stats fields
            ("src/repro/baselines/demo.py", 7),  # match() parameter surface
        },
    ),
    "ifc002_bad": (
        "IFC002",
        {
            ("src/repro/baselines/demo.py", 13),  # dead + ignored declarations
            ("src/repro/baselines/demo.py", 15),  # undeclared option parameter
        },
    ),
    "cli001_bad": (
        "CLI001",
        {
            ("src/repro/cli.py", 5),  # undocumented --mystery-flag
        },
    ),
    "sch002_bad": (
        "SCH002",
        {
            ("src/repro/core/relay.py", 12),  # emit of a non-evident payload
            ("src/repro/core/relay.py", 17),  # post-construction field not in schema
        },
    ),
    "det002_bad": (
        "DET002",
        {
            ("src/repro/core/stamping.py", 10),  # clock -> local -> counter field
            ("src/repro/core/stamping.py", 17),  # clock -> local -> SearchCheckpoint
            ("src/repro/core/stamping.py", 22),  # id() -> local -> canonical hash
            ("src/repro/core/stamping.py", 26),  # entropy -> trace id variable
            ("src/repro/core/stamping.py", 27),  # entropy -> trace id field
        },
    ),
    "bud002_bad": (
        "BUD002",
        {
            ("src/repro/baselines/demo.py", 19),  # conditional tick in cost loop
            ("src/repro/baselines/demo.py", 33),  # tick-free path to recursive call
        },
    ),
    "frk001_bad": (
        "FRK001",
        {
            ("src/repro/core/workers.py", 16),  # lambda over the pipe
            ("src/repro/core/workers.py", 18),  # open() handle over the pipe
            ("src/repro/core/workers.py", 19),  # worker mutates parent global
            ("src/repro/core/workers.py", 27),  # lock in Process args=
            ("src/repro/core/workers.py", 30),  # generator state over the pipe
        },
    ),
}


class TestFixtures:
    @pytest.mark.parametrize("fixture", sorted(BAD_FIXTURES))
    def test_bad_fixture_fires_exactly_where_expected(self, fixture):
        check_id, expected = BAD_FIXTURES[fixture]
        findings = run_lint(root=FIXTURES / fixture, select=[check_id])
        assert findings, f"{check_id} found nothing in {fixture}"
        assert all(f.check_id == check_id for f in findings)
        assert {(f.path, f.line) for f in findings} == expected

    @pytest.mark.parametrize("fixture", sorted(BAD_FIXTURES))
    def test_bad_fixture_is_clean_for_every_other_checker(self, fixture):
        check_id, _expected = BAD_FIXTURES[fixture]
        findings = run_lint(root=FIXTURES / fixture)
        assert {f.check_id for f in findings} == {check_id}

    @pytest.mark.parametrize("check_id", sorted(ALL_CHECKERS))
    def test_every_checker_silent_on_clean_fixture(self, check_id):
        assert run_lint(root=FIXTURES / "clean", select=[check_id]) == []

    def test_every_check_id_has_a_bad_fixture(self):
        covered = {check_id for check_id, _ in BAD_FIXTURES.values()}
        assert covered == set(ALL_CHECKERS)

    def test_ifc001_messages_cover_every_contract_clause(self):
        findings = run_lint(root=FIXTURES / "ifc001_bad", select=["IFC001"])
        text = " ".join(f.message for f in findings)
        assert "does not subclass" in text
        assert "registry key" in text
        assert "missing the shared parameter" in text
        assert "never stores SearchStats" in text

    def test_ifc002_messages_cover_every_drift_direction(self):
        findings = run_lint(root=FIXTURES / "ifc002_bad", select=["IFC002"])
        text = " ".join(f.message for f in findings)
        assert "not a MatchOptions field" in text  # dead declaration
        assert "silently ignored" in text  # declared but not implemented
        assert "capability is unreachable" in text  # implemented but not declared

    def test_sch001_reports_both_drift_directions(self):
        findings = run_lint(root=FIXTURES / "sch001_bad", select=["SCH001"])
        text = " ".join(f.message for f in findings)
        assert "unknown event" in text  # emission without schema
        assert "dead schema entry" in text  # schema without emission


class TestEngine:
    def test_unknown_check_id_raises(self):
        with pytest.raises(UnknownCheckError):
            run_lint(root=FIXTURES / "clean", select=["NOPE99"])
        with pytest.raises(UnknownCheckError):
            run_lint(root=FIXTURES / "clean", ignore=["NOPE99"])

    def test_ignore_drops_the_only_failing_checker(self):
        assert run_lint(root=FIXTURES / "cli001_bad", ignore=["CLI001"]) == []

    def test_select_restricts_to_named_checkers(self):
        findings = run_lint(root=FIXTURES / "det001_bad", select=["CLI001"])
        assert findings == []

    def test_missing_repo_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint(root=tmp_path)

    def test_suppression_comment_silences_the_named_check(self):
        # clean/src/repro/core/engine.py calls random.shuffle under a
        # `# lint: ignore[DET001]` marker; the call is real, the finding
        # must not be.
        ctx = LintContext(FIXTURES / "clean")
        module = ctx.module("src/repro/core/engine.py")
        lines = [i + 1 for i, text in enumerate(module.lines) if "random.shuffle" in text]
        assert lines, "fixture lost its suppressed shuffle call"
        assert ctx.is_suppressed(module, lines[0], "DET001")
        assert not ctx.is_suppressed(module, lines[0], "SCH001")
        assert run_lint(root=FIXTURES / "clean", select=["DET001"]) == []

    def test_unknown_suppression_id_is_reported_on_any_root(self):
        findings = run_lint(root=FIXTURES / "stale_suppression")
        assert [(f.path, f.line, f.check_id) for f in findings] == [
            ("examples/demo.py", 5, "SUPPRESSION"),
            ("src/repro/core/legacy.py", 5, "SUPPRESSION"),
            ("src/repro/core/legacy.py", 9, "SUPPRESSION"),
        ]
        assert "'BUD001'" in findings[0].message
        assert "'IFC003'" in findings[1].message
        assert "'NOPE99'" in findings[2].message
        # The tree, not a checker, is at fault: any selection reports it.
        assert run_lint(root=FIXTURES / "stale_suppression", select=["CLI001"]) == findings

    def test_stale_suppression_fails_the_cli(self, capsys):
        assert main(["lint", "--root", str(FIXTURES / "stale_suppression")]) == 1
        assert "SUPPRESSION" in capsys.readouterr().out

    def test_catalog_lists_all_checkers_in_order(self):
        assert [check_id for check_id, _ in catalog()] == [
            "SCH001",
            "SCH002",
            "DET001",
            "DET002",
            "BUD002",
            "FRK001",
            "IFC001",
            "IFC002",
            "CLI001",
        ]

    def test_find_repo_root_from_package_file(self):
        assert find_repo_root(Path(lint.__file__)) == REPO_ROOT


class TestFindings:
    def test_findings_sort_by_location_then_check(self):
        a = Finding("a.py", 2, "SCH001", "error", "m")
        b = Finding("a.py", 1, "DET001", "error", "m")
        c = Finding("b.py", 1, "BUD002", "error", "m")
        assert sorted([c, a, b]) == [b, a, c]

    def test_render_text_includes_tally(self):
        f = Finding("src/x.py", 3, "DET001", "error", "boom")
        text = render_text([f])
        assert "src/x.py:3: DET001 [error] boom" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "repro lint: no findings"

    def test_render_json_round_trips(self):
        from repro.lint import LintReport, validate_lint_report

        f = Finding("src/x.py", 3, "DET001", "error", "boom")
        report = LintReport(
            findings=[f], files=5, checkers=["DET001"], by_check={"DET001": 1}
        )
        payload = json.loads(render_json(report))
        assert payload["schema"] == "repro.lint"
        assert payload["findings"] == [
            {
                "path": "src/x.py",
                "line": 3,
                "check_id": "DET001",
                "severity": "error",
                "message": "boom",
            }
        ]
        assert payload["summary"]["by_check"] == {"DET001": 1}
        assert validate_lint_report(payload) == []
        payload["summary"]["findings"] = 7  # desync the tally
        assert validate_lint_report(payload) != []


class TestCLI:
    def test_lint_clean_fixture_exits_zero(self, capsys):
        assert main(["lint", "--root", str(FIXTURES / "clean")]) == 0
        assert "no findings" in capsys.readouterr().out

    @pytest.mark.parametrize("fixture", sorted(BAD_FIXTURES))
    def test_lint_bad_fixture_exits_nonzero(self, fixture, capsys):
        check_id, _ = BAD_FIXTURES[fixture]
        assert main(["lint", "--root", str(FIXTURES / fixture)]) == 1
        out = capsys.readouterr().out
        assert check_id in out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "--root", str(FIXTURES / "cli001_bad"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint"
        assert payload["findings"][0]["check_id"] == "CLI001"
        assert payload["summary"]["by_check"] == {"CLI001": 1}

    def test_lint_select_and_ignore(self, capsys):
        bad = str(FIXTURES / "cli001_bad")
        assert main(["lint", "--root", bad, "--select", "DET001"]) == 0
        assert main(["lint", "--root", bad, "--ignore", "CLI001"]) == 0
        capsys.readouterr()

    def test_lint_unknown_id_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["lint", "--root", str(FIXTURES / "clean"), "--select", "NOPE99"])

    def test_lint_list_prints_catalog(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for check_id in ALL_CHECKERS:
            assert check_id in out


class TestWholeRepo:
    def test_repo_is_lint_clean_at_head(self):
        """The CI gate: every invariant holds across src/repro."""
        findings = run_lint(root=REPO_ROOT)
        assert findings == [], "\n" + render_text(findings)

    def test_repo_is_clean_under_strict_flow_select(self):
        """The second CI step: the flow checkers alone, no baseline."""
        findings = run_lint(
            root=REPO_ROOT, select=["FRK001", "SCH002", "DET002", "BUD002"]
        )
        assert findings == [], "\n" + render_text(findings)

    def test_every_suppression_names_a_registered_checker(self):
        """The linter silently accepts unknown ids in ``# lint:
        ignore[...]``, so a deleted or renamed checker would leave dead
        suppressions behind; every one in the swept trees must name a
        checker that exists."""
        unknown = [
            f"{relpath}:{line}: {check_id}"
            for relpath, line, check_id in LintContext(REPO_ROOT).suppression_ids()
            if check_id not in ALL_CHECKERS
        ]
        assert unknown == []

    def test_committed_baseline_is_empty(self):
        """The checked-in baseline grandfathers nothing: new debt must
        either be fixed or added with an explicit reason in review."""
        payload = json.loads((REPO_ROOT / ".lint-baseline.json").read_text())
        assert payload["schema"] == "repro.lint.baseline"
        assert payload["entries"] == []
