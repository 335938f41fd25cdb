"""Run-to-run spread of every metric, the evidence for the bounds in
``BENCHMARK.json``.

    python3 -m perf.spread [--runs K] [--workload NAME[,NAME...]]
                           [--seed N] [--seconds S] [--trace [0|1]]

Runs the benchmark command K times per workload, each run with another
seed (1..K) unless ``--seed`` fixes one, and prints for each metric the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
interquartile spread and the max-min spread as shares of the median, and
the bound.  ``halves`` compares the median of the last K/2 runs with that
of the first K/2, signed so that positive is worse.  A metric whose
values all agree is marked ``=``.  A bound should be widened only on this
tool's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from . import ROOT, benchmark


def run_once(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    if completed.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed ({completed.returncode})")
    return result


def spread_rows(runs: list[dict], declared: list[dict]) -> list[dict]:
    """One row per declared metric over the ``runs`` results."""
    rows = []
    for metric in declared:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        half = len(values) // 2
        first, second = statistics.median(values[:half] or values), statistics.median(values[half:])
        sign = 1 if metric["better"] == "lower" else -1
        rows.append({
            "name": metric["name"],
            "median": mid,
            "q1": q1,
            "q3": q3,
            "iqr": (q3 - q1) / mid if mid else 0.0,
            "range": (max(values) - min(values)) / mid if mid else 0.0,
            "halves": sign * (second - first) / first if first else 0.0,
            "bound": metric.get("bound"),
            "same": len(set(values)) == 1,
        })
    return rows


def main(argv=None) -> int:
    declared = benchmark()
    parser = argparse.ArgumentParser(prog="python3 -m perf.spread",
                                     description="Run-to-run spread of every metric.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", dest="workloads",
                        default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seed", type=int, help="use this seed for every run")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    wide = False
    for workload in args.workloads.split(","):
        seeds = [args.seed if args.seed is not None else i + 1 for i in range(args.runs)]
        runs = [run_once(declared["command"], workload, seed, args.seconds, args.trace)
                for seed in seeds]
        print(f"{workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, trace {args.trace}")
        print(f"  {'metric':24} {'median':>11} {'q1':>11} {'q3':>11} {'iqr%':>6} "
              f"{'range%':>7} {'halves%':>8} {'bound%':>6}")
        for row in spread_rows(runs, metrics):
            bound = row["bound"]
            flag = "=" if row["same"] else ""
            # The acceptance rule: the IQR within the bound (setup_s exempt),
            # and the later runs' median not worse by more than the bound.
            if bound is not None and (
                row["halves"] > bound or (row["name"] != "setup_s" and row["iqr"] > bound)
            ):
                flag, wide = "WIDE", True
            print(f"  {row['name']:24} {row['median']:11.5g} {row['q1']:11.5g} {row['q3']:11.5g} "
                  f"{100 * row['iqr']:6.2f} {100 * row['range']:7.2f} {100 * row['halves']:8.2f} "
                  f"{'' if bound is None else f'{100 * bound:.0f}':>6} {flag}")
        sys.stdout.flush()
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
