"""Emission sites that drift from the schema in every checked way."""

import random


def run(obs, sink, xs):
    sink.emit({"event": "ping", "x": 1, "bogus": 2})
    sink.emit({"event": "pong"})
    obs.prune_demo += 1
    obs.prune_unregistered += 1
    obs.vertex_entered[0] += 1
    obs.vertex_ghost[0] += 1
    obs.record_span("search", 0.0)
    obs.record_span("cooldown", 0.0)
    sink.emit({"event": "stats.alert", "rule": "p95", "verdict": 1})
    sink.emit({"event": "stats.window", "index": 0, "trace_id": "t1"})
    rng = random.Random(7)
    for v in sorted(xs):
        rng.random()
