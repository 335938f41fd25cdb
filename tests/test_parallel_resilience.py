"""Supervised parallel dispatch: crash salvage, retries, reaping, budgets.

These tests arm the process-global fault injector in the parent; forked
workers inherit the armed state, which is how exactly one worker out of N
is killed deterministically (``match={"slice_index": ...}``).
"""

import random
import time

import pytest

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.extensions import ParallelDAFMatcher
from repro.graph import ensure_connected, gnm_random_graph
from repro.interfaces import is_embedding
from repro.resilience.faults import FaultSpec, inject


@pytest.fixture(scope="module")
def instance():
    """Medium single-label instance: enough root candidates for 3 slices,
    enough embeddings that a lost slice visibly shrinks the answer."""
    rng = random.Random(99)
    n = 24
    data = ensure_connected(gnm_random_graph(n, 80, ["A"] * n, rng), rng)
    query = ensure_connected(gnm_random_graph(4, 4, ["A"] * 4, rng), rng)
    return query, data


@pytest.fixture(scope="module")
def expected(instance):
    query, data = instance
    return DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))


def test_clean_parallel_run_records_outcomes(instance, expected):
    query, data = instance
    result = ParallelDAFMatcher(num_workers=3).match(
        MatchRequest(query, data, options=MatchOptions(limit=10**9))
    )
    assert sorted(result.embeddings) == sorted(expected.embeddings)
    assert not result.partial_failure
    outcomes = result.stats.worker_outcomes
    assert [o.status for o in outcomes] == ["ok"] * len(outcomes)
    assert sum(o.embeddings_found for o in outcomes) == result.count
    assert sum(o.recursive_calls for o in outcomes) == result.stats.recursive_calls


@pytest.mark.faults
def test_worker_crash_salvages_partial_results(instance, expected):
    """Regression (data-loss bug): one slice failing permanently must not
    discard the surviving workers' embeddings."""
    query, data = instance
    matcher = ParallelDAFMatcher(num_workers=3, max_retries=1, backoff_base=0.01)
    with inject(FaultSpec(site="worker.start", match={"slice_index": 0})):
        result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
    assert result.partial_failure
    assert not result.solved
    # Survivors' embeddings are present, valid, and a strict subset.
    assert 0 < result.count < expected.count
    assert set(result.embeddings) < set(expected.embeddings)
    for embedding in result.embeddings:
        assert is_embedding(embedding, query, data)
    outcomes = {o.slice_index: o for o in result.stats.worker_outcomes}
    assert outcomes[0].status == "error"
    assert outcomes[0].attempts == 2  # initial dispatch + one retry
    assert "InjectedFault" in outcomes[0].error
    assert all(outcomes[i].status == "ok" for i in outcomes if i != 0)
    assert result.stats.worker_retries == 1
    # Merged stats cover exactly the surviving slices.
    assert result.count == sum(o.embeddings_found for o in outcomes.values())
    assert len(result.embeddings) == result.count


@pytest.mark.faults
def test_hard_killed_worker_detected_via_pipe_eof(instance, expected):
    """Acceptance: kill 1 of N workers (os._exit — no exception, no
    envelope, like an OOM kill); the rest of the answer survives."""
    query, data = instance
    matcher = ParallelDAFMatcher(num_workers=3, max_retries=0)
    with inject(FaultSpec(site="worker.start", kind="exit", match={"slice_index": 1})):
        result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
    assert result.partial_failure
    assert 0 < result.count < expected.count
    assert set(result.embeddings) < set(expected.embeddings)
    outcomes = {o.slice_index: o for o in result.stats.worker_outcomes}
    assert outcomes[1].status == "crashed"
    assert all(outcomes[i].status == "ok" for i in outcomes if i != 1)


@pytest.mark.faults
def test_crashed_slice_retry_recovers_full_answer(instance, expected):
    """A transient crash (first attempt only) is retried and the final
    answer equals the sequential one."""
    query, data = instance
    matcher = ParallelDAFMatcher(num_workers=3, max_retries=2, backoff_base=0.01)
    spec = FaultSpec(
        site="worker.start", kind="exit", match={"slice_index": 1, "attempt": 0}
    )
    with inject(spec):
        result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
    assert not result.partial_failure
    assert result.solved
    assert sorted(result.embeddings) == sorted(expected.embeddings)
    assert result.stats.worker_retries >= 1
    outcomes = {o.slice_index: o for o in result.stats.worker_outcomes}
    assert outcomes[1].status == "ok"
    assert outcomes[1].attempts == 2


@pytest.mark.faults
def test_hung_worker_is_reaped_at_deadline(instance):
    """A stuck worker cannot wedge the supervisor: it is terminated a
    grace period past the deadline and survivors' envelopes are kept."""
    query, data = instance
    matcher = ParallelDAFMatcher(num_workers=3, max_retries=0, kill_grace=0.2)
    start = time.perf_counter()
    with inject(
        FaultSpec(site="worker.start", kind="hang", hang_seconds=60.0, match={"slice_index": 0})
    ):
        result = matcher.match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=1.0))
        )
    wall = time.perf_counter() - start
    assert wall < 10.0  # nowhere near the 60 s hang
    assert result.timed_out
    outcomes = {o.slice_index: o for o in result.stats.worker_outcomes}
    assert outcomes[0].status == "killed"
    assert all(outcomes[i].status == "ok" for i in outcomes if i != 0)
    assert result.count == sum(o.embeddings_found for o in outcomes.values())


def test_global_limit_cancels_remaining_slices(instance):
    query, data = instance
    matcher = ParallelDAFMatcher(num_workers=3)
    result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=5)))
    assert result.limit_reached
    assert result.count == 5
    assert len(result.embeddings) == 5
    statuses = {o.status for o in result.stats.worker_outcomes}
    assert statuses <= {"ok", "cancelled"}
    assert "cancelled" in statuses  # at least one slice was spared the work


def test_time_budget_deducts_preprocess(monkeypatch, instance):
    """Regression (time-budget leak): workers must receive
    ``time_limit - preprocess_seconds``, and when preprocessing already
    exhausted the budget no worker may be dispatched at all."""
    query, data = instance
    matcher = ParallelDAFMatcher(num_workers=2)
    real_prepare = matcher._matcher.prepare

    def slow_prepare(q, d, budget=None):
        prepared = real_prepare(q, d, budget=budget)
        prepared.preprocess_seconds = 120.0  # pretend CS build ate 2 minutes
        return prepared

    monkeypatch.setattr(matcher._matcher, "prepare", slow_prepare)
    start = time.perf_counter()
    result = matcher.match(
        MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=60.0))
    )
    assert time.perf_counter() - start < 5.0  # returned immediately
    assert result.timed_out
    assert result.count == 0
    assert result.stats.worker_outcomes == []  # nothing was dispatched


def test_remaining_time_passed_to_workers(monkeypatch, instance):
    """With most of the budget charged to preprocessing, the dispatched
    search must stop within the remainder, not the full limit."""
    query, data = instance
    rng = random.Random(5)
    n = 40
    big_data = ensure_connected(gnm_random_graph(n, 400, ["A"] * n, rng), rng)
    big_query = ensure_connected(gnm_random_graph(8, 16, ["A"] * 8, rng), rng)
    matcher = ParallelDAFMatcher(
        num_workers=2, config=MatchConfig(collect_embeddings=False)
    )
    real_prepare = matcher._matcher.prepare

    def slow_prepare(q, d, budget=None):
        prepared = real_prepare(q, d, budget=budget)
        prepared.preprocess_seconds = 59.5  # 0.5 s left of the 60 s limit
        return prepared

    monkeypatch.setattr(matcher._matcher, "prepare", slow_prepare)
    start = time.perf_counter()
    result = matcher.match(
        MatchRequest(big_query, big_data, options=MatchOptions(limit=10**9, time_limit=60.0))
    )
    wall = time.perf_counter() - start
    assert result.timed_out
    assert wall < 10.0  # held to the ~0.5 s remainder, not the full minute
