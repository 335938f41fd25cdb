"""Unit tests for parallel DAF and DAF-Boost."""

import random

import pytest

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.baselines import BruteForceMatcher
from repro.extensions import (
    BoostedDAFMatcher,
    ParallelDAFMatcher,
    capacity_aware_candidates,
    compress,
    compression_ratio,
    se_equivalence_classes,
    split_round_robin,
)
from repro.graph import Graph, complete_graph, star_graph
from tests.conftest import random_graph_case


class TestSEClasses:
    def test_star_leaves_collapse(self):
        g = star_graph("H", ["L"] * 5)
        classes = se_equivalence_classes(g)
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 5]

    def test_different_labels_do_not_collapse(self):
        g = star_graph("H", ["L", "M"])
        assert len(se_equivalence_classes(g)) == 3

    def test_different_neighborhoods_do_not_collapse(self):
        g = Graph(labels=["L", "L", "H", "H"], edges=[(0, 2), (1, 3)])
        assert len(se_equivalence_classes(g)) == 4

    def test_compression_ratio(self):
        g = star_graph("H", ["L"] * 9)
        assert compression_ratio(g) == pytest.approx(0.8)

    def test_compression_ratio_empty_graph(self):
        assert compression_ratio(Graph().freeze()) == 0.0


class TestCompress:
    def test_hypergraph_structure(self):
        g = star_graph("H", ["L"] * 4)
        hyper, capacities, members = compress(g)
        assert hyper.num_vertices == 2
        assert hyper.num_edges == 1
        assert sorted(capacities) == [1, 4]
        assert sorted(len(m) for m in members) == [1, 4]

    def test_capacity_aware_degree(self):
        # Query hub of degree 3; hypervertex of structural degree 1 but
        # neighbor capacity 4 must remain a candidate.
        g = star_graph("H", ["L"] * 4)
        hyper, capacities, _ = compress(g)
        query = star_graph("H", ["L"] * 3)
        hub_class = next(h for h in hyper.vertices() if hyper.label(h) == "H")
        candidates = capacity_aware_candidates(query, hyper, capacities, 0)
        assert hub_class in candidates

    def test_capacity_aware_rejects_insufficient(self):
        g = star_graph("H", ["L"] * 2)
        hyper, capacities, _ = compress(g)
        query = star_graph("H", ["L"] * 3)
        assert capacity_aware_candidates(query, hyper, capacities, 0) == set()


class TestBoostedMatcher:
    def test_agrees_with_bruteforce_random(self, rng):
        for _ in range(10):
            query, data = random_graph_case(rng)
            expected = sorted(BruteForceMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).embeddings)
            got = sorted(BoostedDAFMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).embeddings)
            assert got == expected

    def test_counting_mode_expansion(self):
        data = star_graph("H", ["L"] * 7)
        query = star_graph("H", ["L"] * 2)
        matcher = BoostedDAFMatcher(MatchConfig(collect_embeddings=False))
        assert matcher.match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).count == 7 * 6

    def test_limit_respected_mid_expansion(self):
        data = star_graph("H", ["L"] * 10)
        query = star_graph("H", ["L"] * 2)
        result = BoostedDAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=5))
        )
        assert result.count == 5
        assert result.limit_reached
        assert len(result.embeddings) == 5

    def test_time_limit_bounds_one_large_expansion(self):
        """One compressed embedding that expands into 120 * 119 * 118
        real ones still honours time_limit: each expansion polls the
        deadline, and the timeout returns what was streamed so far."""
        data = star_graph("H", ["L"] * 120)
        query = star_graph("H", ["L"] * 3)
        streamed = []

        def on_embedding(embedding):
            if not streamed:
                streamed.append(embedding)

        options = MatchOptions(limit=10**9, time_limit=0.05, on_embedding=on_embedding)
        result = BoostedDAFMatcher(MatchConfig(collect_embeddings=False)).match(
            MatchRequest(query, data, options=options)
        )
        assert result.timed_out
        assert streamed
        assert not result.limit_reached
        assert result.stats.embeddings_found < 120 * 119 * 118

    def test_fewer_calls_on_compressible_graph(self):
        """On a highly SE-compressible graph the boosted search examines
        far fewer nodes."""
        data = star_graph("H", ["L"] * 60)
        query = star_graph("H", ["L"] * 3)
        cfg = MatchConfig(collect_embeddings=False, leaf_decomposition=False)
        plain = DAFMatcher(cfg).match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        boosted = BoostedDAFMatcher(cfg).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert boosted.count == plain.count
        assert boosted.stats.recursive_calls < plain.stats.recursive_calls / 5

    def test_cache_isolated_per_graph_identity(self):
        matcher = BoostedDAFMatcher()
        q = star_graph("H", ["L"])
        for _ in range(5):
            data = star_graph("H", ["L"] * 3)
            assert matcher.match(MatchRequest(q, data)).count == 3

    def test_negative_query(self, triangle_data):
        query = Graph(labels=["Z", "A"], edges=[(0, 1)])
        assert BoostedDAFMatcher().match(MatchRequest(query, triangle_data)).count == 0

    def test_capacity_leaf_counting_matches_enumeration(self):
        """Counting mode's slot-based leaf counter equals enumeration."""
        data = star_graph("H", ["L"] * 25 + ["M"] * 4)
        query = star_graph("H", ["L", "L", "M"])
        counted = BoostedDAFMatcher(MatchConfig(collect_embeddings=False)).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        enumerated = BoostedDAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert counted.count == enumerated.count == 25 * 24 * 4
        # The slot counter skips per-leaf enumeration entirely.
        assert counted.stats.recursive_calls < enumerated.stats.recursive_calls

    def test_capacity_leaf_counting_random(self, rng):
        from repro import count_embeddings

        for _ in range(12):
            query, data = random_graph_case(rng)
            expected = count_embeddings(query, data, limit=10**6)
            got = BoostedDAFMatcher(MatchConfig(collect_embeddings=False)).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).count
            assert got == expected


class TestParallel:
    def test_split_round_robin(self):
        slices = split_round_robin(7, 3)
        assert sorted(sum(slices, [])) == list(range(7))
        assert len(slices) == 3

    def test_split_drops_empty(self):
        assert split_round_robin(2, 4) == [[0], [1]]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelDAFMatcher(num_workers=0)

    def test_single_worker_inline(self, rng):
        query, data = random_graph_case(rng)
        expected = sorted(DAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).embeddings)
        got = sorted(ParallelDAFMatcher(num_workers=1).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).embeddings)
        assert got == expected

    def test_two_workers_agree(self, rng):
        for _ in range(5):
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

    def test_limit_truncated_on_merge(self):
        data = complete_graph(["A"] * 6)
        query = complete_graph(["A"] * 3)
        result = ParallelDAFMatcher(num_workers=2).match(
            MatchRequest(query, data, options=MatchOptions(limit=7))
        )
        assert result.count == 7
        assert len(result.embeddings) == 7
        assert result.limit_reached

    def test_callback_invoked_after_merge(self, rng):
        query, data = random_graph_case(rng)
        seen = []
        result = ParallelDAFMatcher(num_workers=2).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6, on_embedding=seen.append))
        )
        assert sorted(seen) == sorted(result.embeddings)

    def test_negative_query_short_circuits(self, triangle_data):
        query = Graph(labels=["Z", "A"], edges=[(0, 1)])
        result = ParallelDAFMatcher(num_workers=2).match(MatchRequest(query, triangle_data))
        assert result.count == 0

    def test_name_reflects_configuration(self):
        assert ParallelDAFMatcher(num_workers=3).name == "DAF-path-p3"
