"""Integration: every matcher in the library agrees with brute force.

This is the library's master correctness net: DAF (all variants), the
seven baselines, and the two extensions, over a seeded corpus of random
(query, data) pairs plus targeted structures (stars, cycles, cliques).
"""

import random

import pytest

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.baselines import (
    ALL_BASELINES,
    BruteForceMatcher,
    CFLMatcher,
    TurboIsoMatcher,
    VF2Matcher,
)
from repro.extensions import BoostedDAFMatcher, ParallelDAFMatcher
from repro.graph import Graph, complete_graph, cycle_graph, star_graph
from tests.conftest import random_graph_case


def all_matchers():
    matchers = {"DAF": DAFMatcher(), "DAF-cand": DAFMatcher(MatchConfig(order="candidate"))}
    for name, cls in ALL_BASELINES.items():
        matchers[name] = cls()
    matchers["DAF-Boost"] = BoostedDAFMatcher()
    return matchers


CORPUS_SEEDS = [3, 17, 99, 2019]


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_all_matchers_agree_on_random_corpus(seed):
    rng = random.Random(seed)
    matchers = all_matchers()
    for _ in range(6):
        query, data = random_graph_case(rng, max_vertices=14, max_query=6)
        expected = sorted(BruteForceMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).embeddings)
        for name, matcher in matchers.items():
            got = sorted(matcher.match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).embeddings)
            assert got == expected, (name, len(got), len(expected))


@pytest.mark.parametrize(
    "query,data,expected_count",
    [
        # Triangle query into K4 (all same label): 4*3*2 ordered triangles.
        (complete_graph(["A"] * 3), complete_graph(["A"] * 4), 24),
        # C4 query into K4: cycles that use all 4 vertices, 4! minus the
        # orderings that are not 4-cycles; count = 4!*3/... = 24 ordered
        # C4 embeddings in K4 (each of the 3 undirected 4-cycles has 8
        # automorphic images).
        (cycle_graph(["A"] * 4), complete_graph(["A"] * 4), 24),
        # Star S3 into S5 (same labels): 5*4*3 leaf arrangements.
        (star_graph("H", ["L"] * 3), star_graph("H", ["L"] * 5), 60),
        # Asymmetric labels: single embedding.
        (
            Graph(labels=["A", "B", "C"], edges=[(0, 1), (1, 2)]),
            Graph(labels=["A", "B", "C"], edges=[(0, 1), (1, 2)]),
            1,
        ),
    ],
)
def test_known_counts(query, data, expected_count):
    for name, matcher in all_matchers().items():
        assert matcher.match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).count == expected_count, name


def test_limit_respected_by_all_matchers(rng):
    query, data = random_graph_case(rng)
    full = BruteForceMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**6))
    ).count
    if full < 3:
        pytest.skip("instance too small to exercise limits")
    for name, matcher in all_matchers().items():
        result = matcher.match(query, data, limit=2)
        assert result.count == 2, name
        assert result.limit_reached, name


def test_matchers_handle_negative_queries(triangle_data):
    query = Graph(labels=["A", "Z"], edges=[(0, 1)])
    for name, matcher in all_matchers().items():
        assert matcher.match(MatchRequest(query, triangle_data)).count == 0, name


def test_matchers_handle_single_vertex(triangle_data):
    query = Graph(labels=["B"], edges=[])
    for name, matcher in all_matchers().items():
        if name in ("TurboISO", "CFL-Match"):
            # Tree/region algorithms accept single-vertex queries too.
            pass
        assert sorted(matcher.match(
            MatchRequest(query, triangle_data)
        ).embeddings) == [(1,), (2,)], name


def test_parallel_matcher_agrees(rng):
    for _ in range(4):
        query, data = random_graph_case(rng)
        expected = sorted(BruteForceMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).embeddings)
        got = sorted(
            ParallelDAFMatcher(num_workers=2).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).embeddings
        )
        assert got == expected


def test_recursion_counts_ordering_on_trap(cartesian_trap):
    """On the Figure 2 Cartesian-product trap, spanning-tree-guided
    matchers must examine more nodes than DAF (whose CS kills the trap in
    preprocessing)."""
    query, data = cartesian_trap
    daf = DAFMatcher(MatchConfig(collect_embeddings=False)).match(MatchRequest(query, data))
    vf2 = VF2Matcher().match(MatchRequest(query, data))
    assert daf.count == vf2.count
    assert daf.stats.recursive_calls <= vf2.stats.recursive_calls
