"""Run the benchmark: ``python3 -m perf.run`` from the repository root.

    python3 -m perf.run [--workload NAME[,NAME...]] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE] [--update-expected]

Without ``--workload`` all four workloads run, one after another, each in
its own fresh interpreter.  Every metric is printed as
``workload metric value unit``; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` (the default) the metrics are the end-to-end ones; with
``--trace 1`` the workload runs once untraced and once traced with the
same seed, and the metrics are the per-layer ones.  The exit code is 0
when every answer was correct and non-zero otherwise, or when the run
could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import ROOT, SRC, benchmark

if not (SRC / "repro").is_dir():
    sys.exit(f"perf: no repro source tree at {SRC}; run from a checkout of the repository")

from repro import MatchResult  # noqa: E402

from .check import Expected  # noqa: E402
from .stats import nearest_rank  # noqa: E402
from .trace import Recorder, layer_metrics  # noqa: E402
from .workloads import WORKLOADS, Op, State, Workload  # noqa: E402

DEFAULT_SEED = 2019
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
SPAN_DIR = ROOT / "perf" / ".out"


@dataclass
class Record:
    """One executed timed operation."""

    op: Op
    result: object
    latency: float
    error: Optional[str]
    hit: Optional[bool]  # prepared-query cache hit; None outside a session


@dataclass
class Phase:
    records: list[Record]
    wall: float
    cache_delta: dict  # hits/misses/evictions during the phase


def timed_phase(workload: Workload, state: State, seed: int, passes: int,
                recorder: Optional[Recorder] = None) -> Phase:
    """Run the workload's operations back to back (closed loop)."""
    session = state.session
    before = session.cache.stats() if session is not None else {}
    records = []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(workload.ops(state, seed, passes)):
        if recorder is not None:
            recorder.request = i
        hits = session.cache.hits if session is not None else 0
        t0 = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
        if isinstance(result, MatchResult) and not result.solved:
            error = f"unsolved: {result!r}"
        hit = session.cache.hits > hits if session is not None and op.kind == "query" else None
        records.append(Record(op, result, latency, error, hit))
    wall = clock() - start
    delta = {}
    if session is not None:
        after = session.cache.stats()
        delta = {key: after[key] - before[key] for key in ("hits", "misses", "evictions")}
    return Phase(records, wall, delta)


def check_phase(workload: Workload, state: State, phase: Phase, expected: Expected) -> list[str]:
    """Record a wrong count as its operation's error; return the problems
    the workload finds beyond single answers."""
    for record in phase.records:
        op = record.op
        if record.error is None and op.data is not None:
            want = expected.count(op.query, op.data, op.limit)
            if record.result.count != want:
                record.error = f"count {record.result.count}, expected {want}"
    return workload.check(state, expected)


def _setup(workload: Workload, seed: int) -> tuple[State, float]:
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - t0


def measure(workload: Workload, seed: int, seconds: float, trace: bool = False,
            expected: Optional[Expected] = None, span_file: Optional[Path] = None) -> dict:
    """Run one workload; return ``correct``/``attempted``/``failed``/
    ``metrics`` plus the ``problems`` found."""
    expected = expected if expected is not None else Expected(workload.name)
    passes = workload.passes(seconds)
    if not trace:
        setup_times = []
        for _ in range(SETUP_REPS):
            state = None  # release the previous set-up before building the next
            state, elapsed = _setup(workload, seed)
            setup_times.append(elapsed)
        phase = timed_phase(workload, state, seed, passes)
        # Read before the output check, whose reference engines are not
        # part of the system under test.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = check_phase(workload, state, phase, expected)
        latencies = [r.latency for r in phase.records]
        values = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": nearest_rank(latencies, 50) * 1000,
            "op_p90_ms": nearest_rank(latencies, 90) * 1000,
            "throughput_ops_s": len(phase.records) / phase.wall,
            "peak_rss_mb": peak_rss_mb,
        }
        phases = [phase]
    else:
        state, _ = _setup(workload, seed)
        plain = timed_phase(workload, state, seed, passes)
        extra = check_phase(workload, state, plain, expected)
        state = None
        gc.collect()
        recorder = Recorder()
        with recorder.installed():
            state = workload.setup(seed)
            traced = timed_phase(workload, state, seed, passes, recorder)
        extra += check_phase(workload, state, traced, expected)
        missing = sorted(workload.spans - recorder.fired())
        if missing:
            extra.append(f"span coverage: {', '.join(missing)} never fired")
        values = layer_metrics(recorder.spans, traced.records, traced.cache_delta)
        values["trace.overhead"] = traced.wall / plain.wall - 1
        if span_file is not None:
            recorder.write(span_file)
        phases = [plain, traced]
    wrong = [f"op {i} ({r.op.kind}): {r.error}"
             for p in phases for i, r in enumerate(p.records) if r.error is not None]
    problems = wrong + extra
    declared = benchmark()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    return {
        "correct": not problems,
        "attempted": sum(len(p.records) for p in phases),
        # A problem not tied to one operation (a standing query's set, a
        # layer that never fired) counts as one failure.
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "problems": problems,
    }


def _print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} attempted {result['attempted']} failed {result['failed']}")
    for problem in result["problems"][:20]:
        print(f"{name} problem: {problem}", file=sys.stderr)


def _run_child(name: str, args) -> dict:
    """Run one workload in a fresh interpreter and return its result."""
    command = [sys.executable, "-m", "perf.run", "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.update_expected:
        command.append("--update-expected")
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m perf.run",
                                     description="Run the repro system benchmark.")
    parser.add_argument("--workload", dest="workloads", action="append",
                        help="workload name(s), comma-separated; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark()["run_seconds"],
                        help="nominal timed length, converted to whole passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="also write the final JSON object here")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite perf/expected/ with the CFL counts this run used")
    args = parser.parse_args(argv)
    groups = args.workloads or [",".join(WORKLOADS)]
    args.names = [name for group in groups for name in group.split(",") if name]
    unknown = sorted(set(args.names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choices: {sorted(WORKLOADS)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if len(args.names) == 1:
        name = args.names[0]
        expected = Expected(name)
        span_file = SPAN_DIR / f"{name}-seed{args.seed}.spans.jsonl" if args.trace else None
        result = measure(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace),
                         expected, span_file)
        if args.update_expected:
            expected.save()
        _print_result(name, result)
        final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        results = {name: _run_child(name, args) for name in args.names}
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    line = json.dumps(final)
    if args.out is not None:
        args.out.write_text(line + "\n")
    print(line)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
