"""A well-behaved emission site: every schema entry is exercised."""

import random


def run(obs, sink, xs):
    sink.emit({"event": "ping", "x": 1, "y": 2})
    sink.emit({"event": "stats.window", "index": 0, "resumes": 1, "trace_id": "t1", "span_id": "s0"})
    sink.emit({"event": "explain.report", "algorithm": "demo", "fs_cuts": 0})
    obs.prune_demo += 1
    obs.resumes += 1
    obs.vertex_entered[0] += 1
    obs.record_span("search", 0.0)
    rng = random.Random(7)
    for v in sorted(xs):
        rng.random()


def shuffled(xs):
    # The suppression below is itself under test: without it, DET001
    # would flag this line.
    random.shuffle(xs)  # lint: ignore[DET001]
    return xs
