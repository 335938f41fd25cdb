#!/usr/bin/env sh
# CI entry point: tier-1 suite + the fault-injection suite, each under a
# global wall-clock cap (coreutils `timeout`, so a wedged supervisor or a
# leaked worker process fails the build instead of hanging it).
#
# Usage: scripts/ci.sh            (from the repository root)
#   TIER1_TIMEOUT / FAULTS_TIMEOUT / OBS_TIMEOUT / BENCH_TIMEOUT /
#   LINT_TIMEOUT / CHAOS_TIMEOUT / PERF_TESTS_TIMEOUT / YAGO_REFINE_TIMEOUT /
#   HUMAN_ENUM_TIMEOUT / EXAMPLES_TIMEOUT override the caps (seconds).

set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

TIER1_TIMEOUT="${TIER1_TIMEOUT:-900}"
FAULTS_TIMEOUT="${FAULTS_TIMEOUT:-300}"
OBS_TIMEOUT="${OBS_TIMEOUT:-120}"
BENCH_TIMEOUT="${BENCH_TIMEOUT:-600}"
LINT_TIMEOUT="${LINT_TIMEOUT:-120}"
CHAOS_TIMEOUT="${CHAOS_TIMEOUT:-300}"
PERF_TESTS_TIMEOUT="${PERF_TESTS_TIMEOUT:-180}"
YAGO_REFINE_TIMEOUT="${YAGO_REFINE_TIMEOUT:-300}"
HUMAN_ENUM_TIMEOUT="${HUMAN_ENUM_TIMEOUT:-300}"
EXAMPLES_TIMEOUT="${EXAMPLES_TIMEOUT:-120}"

echo "==> static analysis (cap: ${LINT_TIMEOUT}s)"
# AST invariant checkers (docs/static-analysis.md): schema drift,
# unseeded randomness, budget polls, Matcher protocol, CLI docs, plus
# the flow-aware checks.  Baseline-aware: findings grandfathered in
# .lint-baseline.json are suppressed, stale entries fail the build.
timeout --kill-after=30 "$LINT_TIMEOUT" \
    python -m repro lint --format text --jobs 2 \
    --baseline .lint-baseline.json

echo "==> static analysis, strict flow checks (cap: ${LINT_TIMEOUT}s)"
# The flow checkers guard the bug classes that silently corrupt a
# reproduction's numbers (unmetered search, nondeterministic
# comparisons, fork corruption, schema drift at emit sites); they run
# again with no baseline so they can never be grandfathered away.
timeout --kill-after=30 "$LINT_TIMEOUT" \
    python -m repro lint --format text \
    --select FRK001,SCH002,DET002,BUD002

echo "==> tier-1 suite (cap: ${TIER1_TIMEOUT}s)"
timeout --kill-after=30 "$TIER1_TIMEOUT" \
    python -m pytest -x -q -m "not faults"

echo "==> fault-injection suite (cap: ${FAULTS_TIMEOUT}s)"
timeout --kill-after=30 "$FAULTS_TIMEOUT" \
    python -m pytest -x -q -m faults

echo "==> examples (cap: ${EXAMPLES_TIMEOUT}s each)"
# Every script under examples/ must run to completion against the
# current API; a DeprecationWarning is an error, so an example still on a
# deprecated spelling fails here rather than in a user's terminal.
for example in examples/*.py; do
    echo "--> $example"
    timeout --kill-after=30 "$EXAMPLES_TIMEOUT" \
        python -W error::DeprecationWarning "$example" >/dev/null
done

echo "==> system benchmark self-tests (cap: ${PERF_TESTS_TIMEOUT}s)"
# The perf/ benchmark's own guards: workload definitions, statistics,
# the traced-run plumbing, and metric names matching BENCHMARK.json.
timeout --kill-after=30 "$PERF_TESTS_TIMEOUT" \
    python -m pytest -x -q perf/tests

echo "==> chaos smoke (cap: ${CHAOS_TIMEOUT}s)"
# Seeded end-to-end fault sweep (docs/robustness.md#the-chaos-harness):
# every site x kind scenario must recover to the exact fault-free
# answer. Exit code is the gate; the payload goes to stdout for triage.
timeout --kill-after=30 "$CHAOS_TIMEOUT" \
    python -m repro chaos --seed 0 --workers 2

echo "==> metrics schema round-trip (cap: ${OBS_TIMEOUT}s)"
# Emit a real metrics stream through the CLI, then validate it against
# the repro.obs event schema (docs/observability.md).
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro generate dataset yeast '$OBS_TMP/yeast.graph' >/dev/null
    python -m repro generate queries '$OBS_TMP/yeast.graph' '$OBS_TMP/q' \
        --size 8 --count 2 --seed 7 >/dev/null
    python -m repro match \"\$(ls '$OBS_TMP'/q/*.graph | head -1)\" \
        '$OBS_TMP/yeast.graph' --limit 1000 --count-only \
        --metrics-out '$OBS_TMP/metrics.jsonl' >/dev/null
    python scripts/check_metrics_schema.py '$OBS_TMP/metrics.jsonl'
"

echo "==> batch serving smoke (cap: ${OBS_TIMEOUT}s)"
# Round-trip the serving layer (docs/serving.md): two rounds of the same
# tiny batch through `repro serve-batch` must produce warm-cache hits
# (hit-rate > 0), no failures, no misses in the last round, and a
# schema-valid metrics sidecar.
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro serve-batch '$OBS_TMP/yeast.graph' '$OBS_TMP/q' \
        --limit 1000 --count-only --rounds 2 \
        --metrics-out '$OBS_TMP/serve_metrics.jsonl' > '$OBS_TMP/serve.json'
    python scripts/check_metrics_schema.py '$OBS_TMP/serve_metrics.jsonl'
    python - '$OBS_TMP/serve.json' <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload[\"failed\"] == 0, payload
assert payload[\"cache\"][\"hit_rate\"] > 0, payload[\"cache\"]
assert payload[\"per_round\"][-1][\"cache_misses\"] == 0, payload[\"per_round\"]
EOF
"

echo "==> dynamic smoke (cap: ${OBS_TIMEOUT}s)"
# Dynamic graphs and continuous queries (docs/serving.md): a scripted
# delta sequence through `repro update` must stream the exact
# appeared/disappeared embedding sets, pass --cross-validate (the
# incremental candidate space is compared bit-for-bit against a cold
# rebuild after every batch), and emit a schema-valid metrics sidecar.
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python - '$OBS_TMP' <<'EOF'
import json, sys
from pathlib import Path
from repro.graph import Graph
from repro.graph.io import write_cfl
tmp = Path(sys.argv[1])
write_cfl(Graph(labels=['A', 'B', 'B'], edges=[(0, 1)]), tmp / 'dyn_data.graph')
write_cfl(Graph(labels=['A', 'B'], edges=[(0, 1)]), tmp / 'dyn_query.graph')
lines = [
    json.dumps({'op': 'insert-edge', 'u': 0, 'v': 2}),
    json.dumps([{'op': 'delete-edge', 'u': 0, 'v': 1}]),
]
(tmp / 'dyn_updates.jsonl').write_text('\n'.join(lines) + '\n')
EOF
    python -m repro update '$OBS_TMP/dyn_data.graph' '$OBS_TMP/dyn_updates.jsonl' \
        --queries '$OBS_TMP/dyn_query.graph' --cross-validate \
        --metrics-out '$OBS_TMP/dyn_metrics.jsonl' > '$OBS_TMP/dyn.json'
    python scripts/check_metrics_schema.py '$OBS_TMP/dyn_metrics.jsonl'
    python - '$OBS_TMP/dyn.json' <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload[\"graph_version\"] == 2, payload
assert payload[\"cross_validated\"], payload
batches = payload[\"batches\"]
first = [(e[\"kind\"], tuple(e[\"embedding\"])) for e in batches[0][\"events\"]]
second = [(e[\"kind\"], tuple(e[\"embedding\"])) for e in batches[1][\"events\"]]
assert first == [('appeared', (0, 2))], first
assert second == [('disappeared', (0, 1))], second
assert payload[\"standing\"][\"dyn_query.graph\"] == [[0, 2]], payload[\"standing\"]
assert all(b[\"cache_invalidated\"] == 0 for b in batches), batches
# A refresh that cached nothing would cross-validate nothing.
assert all(b[\"cache_refreshed\"] == 1 for b in batches), batches
EOF
"

echo "==> dynamic smoke on yeast (cap: ${OBS_TIMEOUT}s)"
# The same cross-validated update path at a realistic size: seeded
# random edge insert/delete batches against the generated yeast graph,
# with two standing queries.  After every batch the refreshed GraphIndex
# and both cached candidate spaces must equal cold rebuilds.
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python - '$OBS_TMP' <<'EOF'
import json, random, sys
from pathlib import Path
from repro.graph.io import read_cfl
tmp = Path(sys.argv[1])
graph = read_cfl(tmp / 'yeast.graph')
rng = random.Random(2019)
present = set(graph.edges())
lines = []
for _ in range(4):
    batch, touched = [], set()
    for u, v in rng.sample(sorted(present), 3):
        present.discard((u, v))
        touched.add((u, v))
        batch.append({'op': 'delete-edge', 'u': u, 'v': v})
    while len(batch) < 6:
        u, v = sorted(rng.sample(range(graph.num_vertices), 2))
        if (u, v) not in present and (u, v) not in touched:
            present.add((u, v))
            touched.add((u, v))
            batch.append({'op': 'insert-edge', 'u': u, 'v': v})
    lines.append(json.dumps(batch))
(tmp / 'yeast_updates.jsonl').write_text('\n'.join(lines) + '\n')
EOF
    python -m repro update '$OBS_TMP/yeast.graph' '$OBS_TMP/yeast_updates.jsonl' \
        --queries \$(ls '$OBS_TMP'/q/*.graph | head -2) --cross-validate \
        > '$OBS_TMP/yeast_dyn.json'
    python - '$OBS_TMP/yeast_dyn.json' <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload[\"cross_validated\"], payload
assert payload[\"graph_version\"] == 4, payload
assert len(payload[\"standing\"]) == 2, payload[\"standing\"]
assert sum(b[\"cache_refreshed\"] for b in payload[\"batches\"]) > 0, payload
EOF
"

echo "==> trace smoke (cap: ${OBS_TIMEOUT}s)"
# End-to-end observability round-trip (docs/observability.md): a traced
# batch run must yield a trace listing and a renderable span tree via
# `repro trace show`, and metrics disabled must cost nothing
# (zero-overhead invariance).
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro serve-batch '$OBS_TMP/yeast.graph' '$OBS_TMP/q' \
        --limit 1000 --count-only --rounds 2 \
        --metrics-out '$OBS_TMP/trace_events.jsonl' >/dev/null
    python -m repro trace show '$OBS_TMP/trace_events.jsonl' \
        | grep -q 't000001'
    python -m repro trace show '$OBS_TMP/trace_events.jsonl' \
        --trace t000001 | grep -q 'status=ok'
    python -m pytest -q tests/test_obs.py -k ZeroOverhead
"

echo "==> explain smoke (cap: ${OBS_TIMEOUT}s)"
# Post-run forensics round-trip (docs/explain.md): EXPLAIN ANALYZE a
# seed query, validate the JSON report as the third schema-checked
# file kind, and self-diff it — a report diffed against itself must
# classify zero differences, so the --gate exit code is the assertion.
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro explain analyze \"\$(ls '$OBS_TMP'/q/*.graph | head -1)\" \
        '$OBS_TMP/yeast.graph' --limit 1000 \
        --json '$OBS_TMP/explain.json' >/dev/null
    python scripts/check_metrics_schema.py '$OBS_TMP/explain.json'
    python -m repro explain diff '$OBS_TMP/explain.json' \
        '$OBS_TMP/explain.json' --gate \
        | grep -q '0 per-vertex difference(s), 0 regression(s)'
"

echo "==> refinement on yago vs an independent engine (cap: ${YAGO_REFINE_TIMEOUT}s)"
# The perf self-tests check refinement only on tiny instances.  One short
# yago_refine run builds a candidate space for each of its 64 queries on
# the largest benchmark graph and checks every count against CFL-Match's
# (perf/expected/); the last stdout line must report no wrong answer and
# no failed operation.
timeout --kill-after=30 "$YAGO_REFINE_TIMEOUT" \
    python3 -m perf.run --workload yago_refine --seconds 1 > "$OBS_TMP/yago.txt"
tail -n 1 "$OBS_TMP/yago.txt" | python -c '
import json, sys
result = json.loads(sys.stdin.read())
assert result["correct"] is True, result
assert result["failed"] == 0, result
'

echo "==> leaf-counted enumeration on human vs an independent engine (cap: ${HUMAN_ENUM_TIMEOUT}s)"
# One short human_enum run answers each of its 100 queries from a warmed
# session with the paper's k = 10^5 in counting mode, where deferred
# leaves are counted combinatorially, and checks every count against
# CFL-Match's (perf/expected/); the last stdout line must report no
# wrong answer and no failed operation.
timeout --kill-after=30 "$HUMAN_ENUM_TIMEOUT" \
    python3 -m perf.run --workload human_enum --seconds 1 > "$OBS_TMP/human.txt"
tail -n 1 "$OBS_TMP/human.txt" | python -c '
import json, sys
result = json.loads(sys.stdin.read())
assert result["correct"] is True, result
assert result["failed"] == 0, result
'

echo "==> perf gate: smoke bench vs BENCH_0.json (cap: ${BENCH_TIMEOUT}s)"
# Re-run the smoke-profile benchmark, write a fresh manifest, validate
# both against the manifest schema, then diff: deterministic counters
# (recursive calls, candidate sizes, solved counts) must not regress
# beyond threshold vs the committed baseline; wall clock never gates
# (docs/benchmarks.md).
timeout --kill-after=30 "$BENCH_TIMEOUT" sh -ec "
    python -m repro bench run --profile smoke --figures fig10 \
        --out '$OBS_TMP' --metrics-out '$OBS_TMP/bench_events.jsonl' --quiet
    python scripts/check_metrics_schema.py BENCH_0.json \
        '$OBS_TMP/BENCH_0.json' '$OBS_TMP/bench_events.jsonl'
    python -m repro bench compare BENCH_0.json '$OBS_TMP/BENCH_0.json' --gate
"

echo "==> CI green"
