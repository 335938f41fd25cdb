"""Tiny instances of every workload, end to end, in both modes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import perf.run
from perf import ROOT, benchmark
from perf.check import Expected
from perf.run import measure
from perf.workloads import HprdServe, HumanEnum, YagoRefine, YeastChurn

TINY = {
    "yago_refine": lambda: YagoRefine(per_class=1),
    "human_enum": lambda: HumanEnum(pool=4),
    "hprd_serve": lambda: HprdServe(per_size=2, sizes=(6, 8), cache_size=2, warmup=10,
                                    pass_requests=30),
    "yeast_churn": lambda: YeastChurn(shape_classes=((5, 2),), standing=1,
                                      rounds_per_pass=4, check_every=2),
}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(perf.run, "SETUP_REPS", 1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_checked_in_both_modes(name, tmp_path):
    workload = TINY[name]()
    # An empty store: every count is recomputed with CFL-Match.
    expected = Expected(name, directory=tmp_path)
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result = measure(workload, seed=7, seconds=0, trace=trace, expected=expected)
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in benchmark()[declared]}
    assert expected.computed > 0


def test_injected_wrong_count_is_a_failure(tmp_path):
    expected = Expected("human_enum", directory=tmp_path)
    true_count = expected.count
    expected.count = lambda query, data, limit: true_count(query, data, limit) + 1
    result = measure(HumanEnum(pool=2), seed=7, seconds=0, expected=expected)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert "expected" in result["problems"][0]


def test_coverage_guard_reports_a_silent_layer(tmp_path):
    workload = HumanEnum(pool=2)
    workload.spans = workload.spans | {"session.apply"}  # human_enum never applies updates
    result = measure(workload, seed=7, seconds=0, trace=True,
                     expected=Expected("human_enum", directory=tmp_path))
    assert not result["correct"]
    assert result["problems"] == ["span coverage: session.apply never fired"]


def test_failed_run_exits_nonzero_with_a_result_line(monkeypatch, capsys):
    failing = {"correct": False, "attempted": 3, "failed": 1, "metrics": {}, "problems": ["x"]}
    monkeypatch.setattr(perf.run, "measure", lambda *args: failing)
    assert perf.run.main(["--workload", "human_enum"]) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last == {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}


def test_expected_store_saves_only_the_counts_used(tmp_path):
    (tmp_path / "w.json").write_text(json.dumps({"stale/key/1": 5}))
    expected = Expected("w", directory=tmp_path)
    workload = HumanEnum(pool=1)
    state = workload.setup(0)
    count = expected.count(state.pool[0], state.data, 10)
    expected.save()
    saved = json.loads((tmp_path / "w.json").read_text())
    assert list(saved.values()) == [count] and "stale/key/1" not in saved


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", "yeast_churn"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
