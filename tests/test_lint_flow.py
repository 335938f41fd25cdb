"""Tests for ``repro.lint.flow`` — CFG, dataflow solver, call graph —
plus the engine features layered on them: the fingerprint baseline, the
``--jobs`` process pool, the ``lint.run`` event, and mutation smoke
tests proving the flow checkers catch freshly-seeded bugs.
"""

import ast
import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    Baseline,
    BaselineEntry,
    BaselineError,
    Finding,
    LintContext,
    fingerprint,
    run_lint,
    run_lint_report,
)
from repro.lint.flow import (
    Source,
    TaintDomain,
    build_cfg,
    guaranteed_subexprs,
    solve,
)

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _func(code: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(code))
    assert isinstance(tree.body[0], ast.FunctionDef)
    return tree.body[0]


class TestCFG:
    def test_if_else_branches_rejoin(self):
        cfg = build_cfg(
            _func(
                """
                def f(a):
                    if a:
                        x = 1
                    else:
                        x = 2
                    return x
                """
            )
        )
        # The test block has two successors and the return block two
        # predecessors — a diamond, not a chain.
        test_blocks = [
            b for b in cfg.blocks if any(e.role == "test" for e in b.elements)
        ]
        assert len(test_blocks) == 1
        assert len(test_blocks[0].succs) == 2
        returns = [
            b
            for b in cfg.blocks
            if any(isinstance(e.node, ast.Return) for e in b.elements)
        ]
        assert len(returns) == 1
        assert len(returns[0].preds) == 2

    def test_while_loop_records_back_edge(self):
        cfg = build_cfg(
            _func(
                """
                def f(n):
                    while n:
                        n -= 1
                    return n
                """
            )
        )
        assert len(cfg.loops) == 1
        loop = cfg.loops[0]
        assert loop.back_sources, "loop lost its back edge"
        for source in loop.back_sources:
            assert loop.header in cfg.blocks[source].succs
        assert loop.body, "loop body not recorded"

    def test_break_skips_loop_and_continue_returns_to_header(self):
        cfg = build_cfg(
            _func(
                """
                def f(xs):
                    for x in xs:
                        if x < 0:
                            break
                        if x == 0:
                            continue
                        use(x)
                    return xs
                """
            )
        )
        loop = cfg.loops[0]
        # `continue` is a back source; `break` is not.
        continue_blocks = {
            b.index
            for b in cfg.blocks
            if any(isinstance(e.node, ast.Continue) for e in b.elements)
        }
        break_blocks = {
            b.index
            for b in cfg.blocks
            if any(isinstance(e.node, ast.Break) for e in b.elements)
        }
        assert continue_blocks <= set(loop.back_sources)
        assert not break_blocks & set(loop.back_sources)

    def test_try_finally_reaches_exit_even_on_raise(self):
        cfg = build_cfg(
            _func(
                """
                def f():
                    try:
                        risky()
                    finally:
                        cleanup()
                """
            )
        )
        # Every block (all are reachable here) can reach the exit.
        reachable = cfg.reachable()
        for index in reachable:
            seen = set()
            stack = [index]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(cfg.blocks[current].succs)
            assert cfg.exit in seen, f"block {index} cannot reach exit"

    def test_except_handler_is_reachable_from_try_body(self):
        cfg = build_cfg(
            _func(
                """
                def f():
                    try:
                        risky()
                    except ValueError:
                        recover()
                    return 1
                """
            )
        )
        handler_blocks = [
            b for b in cfg.blocks if any(e.role == "except" for e in b.elements)
        ]
        assert handler_blocks and handler_blocks[0].preds

    def test_guaranteed_subexprs_skip_short_circuit_tails(self):
        node = ast.parse("a() and b()", mode="eval").body
        names = {
            n.func.id
            for n in guaranteed_subexprs(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        assert names == {"a"}  # b() only runs when a() is truthy


class _ToyTaint(TaintDomain):
    def call_source(self, call, env):
        if isinstance(call.func, ast.Name) and call.func.id == "source":
            return Source("toy", call.lineno, "source()")
        return None


def _taint_at_return(code: str):
    func = _func(code)
    domain = _ToyTaint()
    solution = solve(build_cfg(func), domain)
    for _block, element, env in solution.iter_elements():
        if isinstance(element.node, ast.Return):
            return domain.eval(element.node.value, env)
    raise AssertionError("no return element")


class TestSolver:
    def test_taint_survives_a_clean_branch(self):
        fact = _taint_at_return(
            """
            def f(a):
                x = source()
                if a:
                    x = 0
                return x
            """
        )
        assert fact and any(s.label == "toy" for s in fact)

    def test_strong_update_kills_taint(self):
        fact = _taint_at_return(
            """
            def f(a):
                x = source()
                x = 0
                return x
            """
        )
        assert not fact

    def test_taint_flows_through_loop_carried_variable(self):
        fact = _taint_at_return(
            """
            def f(xs):
                acc = 0
                for x in xs:
                    acc = acc + source()
                return acc
            """
        )
        assert fact and any(s.label == "toy" for s in fact)


class TestCallGraph:
    def test_clean_fixture_graph_resolves_nested_recursion(self):
        ctx = LintContext(FIXTURES / "clean")
        graph = ctx.call_graph()
        recursive = {
            key for key in graph.recursive_components() if key[1].endswith("extend")
        }
        assert recursive, "nested self-recursive extend() not detected"

    def test_method_call_through_self_resolves(self):
        ctx = LintContext(FIXTURES / "bud002_bad")
        graph = ctx.call_graph()
        cycles = graph.recursive_components()
        assert any(key[1].endswith("_explore") for key in cycles)


class TestBaseline:
    def test_fingerprint_is_line_independent(self):
        a = Finding("src/x.py", 10, "DET002", "error", "taint from line 9")
        b = Finding("src/x.py", 99, "DET002", "error", "taint from line 98")
        assert fingerprint(a) == fingerprint(b)
        c = Finding("src/y.py", 10, "DET002", "error", "taint from line 9")
        assert fingerprint(a) != fingerprint(c)

    def test_apply_suppresses_and_flags_stale(self):
        f = Finding("src/x.py", 3, "DET001", "error", "boom")
        baseline = Baseline(
            [
                BaselineEntry("DET001", "src/x.py", fingerprint(f), "known"),
                BaselineEntry("BUD002", "src/y.py", "deadbeefdeadbeef", "gone"),
            ]
        )
        result = baseline.apply([f], ran_ids={"DET001", "BUD002"}, baseline_relpath=".lint-baseline.json")
        assert result.suppressed == 1
        assert result.stale == 1
        assert [x.check_id for x in result.active] == ["BASELINE"]
        # A select run that never ran BUD002 must not call its entry stale.
        result = baseline.apply([f], ran_ids={"DET001"}, baseline_relpath=".lint-baseline.json")
        assert result.stale == 0 and result.active == []

    def test_update_baseline_round_trip(self, tmp_path):
        path = tmp_path / "bl.json"
        report = run_lint_report(
            root=FIXTURES / "cli001_bad", baseline=path, update_baseline=True
        )
        assert report.findings == [] and report.baseline_suppressed == 1
        # Second run: suppressed by the file just written.
        report = run_lint_report(root=FIXTURES / "cli001_bad", baseline=path)
        assert report.findings == [] and report.baseline_suppressed == 1
        # Against a tree where the finding is fixed, the entry is stale.
        report = run_lint_report(root=FIXTURES / "clean", baseline=path)
        assert report.stale_baseline == 1
        assert [f.check_id for f in report.findings] == ["BASELINE"]

    def test_missing_baseline_file_is_an_error(self, tmp_path):
        with pytest.raises(BaselineError):
            run_lint_report(root=FIXTURES / "clean", baseline=tmp_path / "nope.json")

    def test_malformed_baseline_is_an_error(self, tmp_path):
        path = tmp_path / "bl.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(BaselineError):
            run_lint_report(root=FIXTURES / "clean", baseline=path)


class TestJobs:
    @pytest.mark.parametrize("fixture", ["det002_bad", "frk001_bad", "sch001_bad"])
    def test_parallel_run_matches_serial(self, fixture):
        serial = run_lint(root=FIXTURES / fixture)
        parallel = run_lint(root=FIXTURES / fixture, jobs=2)
        assert parallel == serial

    def test_report_counts_files_and_checkers(self):
        report = run_lint_report(root=FIXTURES / "clean", jobs=2)
        assert report.jobs == 2
        assert report.files > 0
        assert "SCH002" in report.checkers and "FRK001" in report.checkers


class TestLintRunEvent:
    def test_metrics_out_event_validates_against_schema(self, tmp_path, capsys):
        from repro.obs.schema import validate_jsonl

        out = tmp_path / "lint.jsonl"
        assert (
            main(["lint", "--root", str(FIXTURES / "clean"), "--metrics-out", str(out)])
            == 0
        )
        capsys.readouterr()
        assert validate_jsonl(out) == []
        event = json.loads(out.read_text().splitlines()[0])
        assert event["event"] == "lint.run"
        assert event["findings"] == 0 and event["files"] > 0


def _mutate_tree(tmp_path, relpath: str, old: str, new: str) -> Path:
    root = tmp_path / "repo"
    shutil.copytree(FIXTURES / "clean", root)
    target = root / relpath
    text = target.read_text()
    assert old in text, f"mutation anchor missing from {relpath}"
    target.write_text(text.replace(old, new))
    return root


class TestMutationSmoke:
    """Seed one real bug into a copy of the clean tree; the matching
    flow checker must catch it (the paper-reproduction failure modes the
    tentpole exists for)."""

    def test_deleting_validate_event_is_caught_by_sch002(self, tmp_path):
        root = _mutate_tree(
            tmp_path,
            "src/repro/core/engine.py",
            "    validate_event(payload)  # noqa: F821 — stand-in for repro.obs.schema\n",
            "",
        )
        findings = run_lint(root=root, select=["SCH002"])
        assert [f.check_id for f in findings] == ["SCH002"]
        assert "no schema evidence" in findings[0].message

    def test_payload_drawn_from_a_list_is_caught_by_sch002(self, tmp_path):
        # A container carries no evidence, even when every element was a
        # vetted literal: the element must be re-vouched before emit.
        root = _mutate_tree(
            tmp_path,
            "src/repro/core/engine.py",
            "    # Forwarded parameters are the caller's responsibility (SCH002).\n"
            "    sink.emit(dict(payload))\n",
            "    fired = []\n"
            '    fired.append({"event": "ping", "x": 1})\n'
            "    for alert in fired:\n"
            "        sink.emit(dict(alert))\n",
        )
        findings = run_lint(root=root, select=["SCH002"])
        assert [f.check_id for f in findings] == ["SCH002"]
        assert "relay" in findings[0].message

    def test_conditional_tick_is_caught_by_bud002(self, tmp_path):
        root = _mutate_tree(
            tmp_path,
            "src/repro/baselines/demo.py",
            "            deadline.tick()\n            frontier.pop()",
            "            if not frontier:\n                deadline.tick()\n            frontier.pop()",
        )
        findings = run_lint(root=root, select=["BUD002"])
        assert [f.check_id for f in findings] == ["BUD002"]
        assert "tick-free iteration path" in findings[0].message

    def test_deleting_tick_entirely_is_caught_by_bud002(self, tmp_path):
        root = _mutate_tree(
            tmp_path,
            "src/repro/baselines/demo.py",
            "            deadline.tick()\n            frontier.pop()",
            "            frontier.pop()",
        )
        findings = run_lint(root=root, select=["BUD002"])
        assert [f.check_id for f in findings] == ["BUD002"]
        assert "_drain" in findings[0].message

    def test_bound_tick_never_called_is_caught_by_bud002(self, tmp_path):
        # ``tick = deadline.tick`` polls nothing by itself: the loop that
        # only names the bound method, without calling it, is unmetered.
        root = _mutate_tree(
            tmp_path,
            "src/repro/baselines/demo.py",
            "            tick()\n",
            "            tick\n",
        )
        findings = run_lint(root=root, select=["BUD002"])
        assert [f.check_id for f in findings] == ["BUD002"]
        assert "_drain_hot" in findings[0].message
        assert "tick-free iteration path" in findings[0].message

    def test_untolled_step_helper_is_caught_by_bud002(self, tmp_path):
        # A loop-free step helper driven from elsewhere: no loop or
        # recursion path to check, but it counts a search step unmetered.
        root = _mutate_tree(
            tmp_path,
            "src/repro/baselines/demo.py",
            "        while frontier:\n"
            "            stats.recursive_calls += 1\n"
            "            deadline.tick()\n"
            "            frontier.pop()",
            "        stats.recursive_calls += 1\n        frontier.pop()",
        )
        findings = run_lint(root=root, select=["BUD002"])
        assert [(f.check_id, f.line) for f in findings] == [("BUD002", 32)]
        assert "never polls a budget" in findings[0].message

    def test_pickling_a_lambda_is_caught_by_frk001(self, tmp_path):
        root = _mutate_tree(
            tmp_path,
            "src/repro/core/workers.py",
            'conn.send(("ok", total))',
            "conn.send(lambda: total)",
        )
        findings = run_lint(root=root, select=["FRK001"])
        assert [f.check_id for f in findings] == ["FRK001"]
        assert "lambda" in findings[0].message
