"""BENCHMARK.json is well formed and matches the code."""

from __future__ import annotations

import re

from perf import benchmark
from perf.workloads import WORKLOADS

BENCHMARK = benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_names_and_units_are_well_formed_and_unique():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
