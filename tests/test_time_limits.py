"""Every matcher must honor the wall-clock limit (paper §7 protocol)."""

import random
import time

import pytest

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.baselines import ALL_BASELINES, CFLMatcher
from repro.core.backtrack import _count_injective
from repro.datasets import SPECS, generate
from repro.extensions import BoostedDAFMatcher
from repro.graph import ensure_connected, gnm_random_graph
from repro.interfaces import Deadline, TimeoutSignal
from repro.workloads import generate_query_set


def hard_instance():
    """A single-label dense blob: astronomically many partial matches."""
    rng = random.Random(13)
    n = 50
    data = ensure_connected(gnm_random_graph(n, 700, ["A"] * n, rng), rng)
    query = ensure_connected(gnm_random_graph(11, 30, ["A"] * 11, rng), rng)
    return query, data


@pytest.fixture(scope="module")
def instance():
    return hard_instance()


@pytest.mark.parametrize("name", sorted(ALL_BASELINES))
def test_baseline_respects_time_limit(name, instance):
    query, data = instance
    matcher = ALL_BASELINES[name]()
    result = matcher.match(
        MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=0.3))
    )
    # Either it timed out, or it genuinely exhausted the space fast.
    assert result.timed_out or result.stats.elapsed_seconds < 2.0


@pytest.mark.parametrize("name", sorted(ALL_BASELINES))
def test_baseline_timeout_semantics(name, instance):
    """The full contract, uniformly: the flag is set, the partial
    embeddings found so far are kept (count == list length), and control
    returns within a small tolerance of the limit."""
    query, data = instance
    matcher = ALL_BASELINES[name]()
    start = time.perf_counter()
    result = matcher.match(
        MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=0.3))
    )
    wall = time.perf_counter() - start
    assert result.timed_out
    assert not result.solved
    assert result.count == len(result.embeddings) > 0
    assert result.stats.recursive_calls > 0
    assert wall < 0.3 + 1.5  # deadline poll interval + scheduling slack


def test_daf_respects_time_limit(instance):
    query, data = instance
    result = DAFMatcher(MatchConfig(collect_embeddings=False)).match(
        MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=0.3))
    )
    assert result.timed_out
    assert result.stats.search_seconds < 2.0


def test_boost_respects_time_limit(instance):
    query, data = instance
    result = BoostedDAFMatcher(MatchConfig(collect_embeddings=False)).match(
        MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=0.3))
    )
    assert result.timed_out or result.stats.elapsed_seconds < 2.0


def test_timeout_result_contains_partial_progress(instance):
    query, data = instance
    result = DAFMatcher(MatchConfig(collect_embeddings=False)).match(
        MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=0.3))
    )
    # Progress was made and is reported faithfully alongside the flag.
    assert result.stats.recursive_calls > 0
    assert result.count >= 0
    assert not result.solved


def test_leaf_group_count_polls_the_deadline():
    # Ten leaves sharing 40 candidates: far more injective assignments
    # than one poll interval, so an already-expired deadline must stop it.
    lists = [list(range(40))] * 10
    with pytest.raises(TimeoutSignal):
        _count_injective(lists, cap=10**12, injective=True, deadline=Deadline(0.0))


def test_cfl_leaf_counting_respects_time_limit():
    # A 200-vertex yeast query whose leaf groups hold hundreds of
    # millions of injective assignments: CFL-Match reaches the leaf
    # count within a few recursive calls and must stop there on time.
    yeast = generate(SPECS["yeast"])
    query = generate_query_set(yeast, 200, "sparse", 16, random.Random(7)).queries[0]
    start = time.perf_counter()
    result = CFLMatcher().match(
        MatchRequest(
            query,
            yeast,
            options=MatchOptions(limit=100_000, count_only=True, time_limit=1),
        )
    )
    wall = time.perf_counter() - start
    assert result.timed_out
    assert wall < 1 + 0.5
