"""Unit tests for the DAFMatcher API (Algorithm 1 orchestration)."""

import pytest

from repro import (
    DAFMatcher,
    MatchConfig,
    MatchOptions,
    MatchRequest,
    count_embeddings,
    find_embeddings,
    has_embedding,
)
from repro.graph import Graph, star_graph
from tests.conftest import random_graph_case


class TestBasicMatching:
    def test_single_edge(self, edge_query, triangle_data):
        result = DAFMatcher().match(MatchRequest(edge_query, triangle_data))
        assert sorted(result.embeddings) == [(0, 1), (0, 2)]
        assert result.count == 2
        assert not result.limit_reached
        assert not result.timed_out
        assert result.solved

    def test_single_vertex_query(self, triangle_data):
        query = Graph(labels=["B"], edges=[])
        result = DAFMatcher().match(MatchRequest(query, triangle_data))
        assert sorted(result.embeddings) == [(1,), (2,)]

    def test_no_embeddings(self, triangle_data):
        query = Graph(labels=["Z"], edges=[])
        result = DAFMatcher().match(MatchRequest(query, triangle_data))
        assert result.count == 0
        # Negativity proven by preprocessing: zero search calls (A.3).
        assert result.stats.recursive_calls == 0

    def test_path_in_square(self, path_query, square_data):
        result = DAFMatcher().match(MatchRequest(path_query, square_data))
        # A-B-A paths in C4 (A at 0,2; B at 1,3): 2 choices of B x ordered
        # (A, A) pairs = 4.
        assert result.count == 4

    def test_embeddings_are_valid(self, rng):
        from repro import is_embedding

        for _ in range(10):
            query, data = random_graph_case(rng)
            result = DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=50)))
            assert result.embeddings  # extracted queries always embed
            for embedding in result.embeddings:
                assert is_embedding(embedding, query, data)


class TestLimits:
    def test_limit_respected(self, edge_query, triangle_data):
        result = DAFMatcher().match(
            MatchRequest(edge_query, triangle_data, options=MatchOptions(limit=1))
        )
        assert result.count == 1
        assert result.limit_reached

    def test_invalid_limit_rejected(self, edge_query, triangle_data):
        with pytest.raises(ValueError, match="limit"):
            prepared = DAFMatcher().prepare(edge_query, triangle_data)
            DAFMatcher().search(prepared, limit=0)

    def test_time_limit_times_out_on_hard_instance(self):
        # A labeled clique-ish instance with astronomically many partial
        # embeddings: K-by-K biclique query into a large co-labeled blob.
        import random

        from repro.graph import gnm_random_graph

        rng = random.Random(5)
        n = 60
        data = gnm_random_graph(n, 900, ["A"] * n, rng)
        query = gnm_random_graph(12, 40, ["A"] * 12, rng)
        from repro.graph import ensure_connected, is_connected

        data = ensure_connected(data, rng)
        query = ensure_connected(query, rng)
        assert is_connected(query)
        result = DAFMatcher(MatchConfig(collect_embeddings=False)).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=0.2))
        )
        assert result.timed_out
        assert not result.solved

    def test_callback_streams_embeddings(self, edge_query, triangle_data):
        seen = []
        DAFMatcher().match(
            MatchRequest(
                edge_query, triangle_data, options=MatchOptions(on_embedding=seen.append)
            )
        )
        assert sorted(seen) == [(0, 1), (0, 2)]

    def test_counting_mode_returns_no_embeddings(self, edge_query, triangle_data):
        result = DAFMatcher(MatchConfig(collect_embeddings=False)).match(
            MatchRequest(edge_query, triangle_data)
        )
        assert result.count == 2
        assert result.embeddings == []


class TestValidation:
    def test_disconnected_query_rejected(self, triangle_data):
        query = Graph(labels=["A", "B"], edges=[])
        with pytest.raises(ValueError, match="connected"):
            DAFMatcher().match(MatchRequest(query, triangle_data))

    def test_empty_query_rejected(self, triangle_data):
        with pytest.raises(ValueError, match="at least one vertex"):
            DAFMatcher().match(MatchRequest(Graph().freeze(), triangle_data))

    def test_unfrozen_graph_rejected(self, triangle_data):
        query = Graph()
        query.add_vertex("A")
        with pytest.raises(Exception):
            DAFMatcher().match(MatchRequest(query, triangle_data))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MatchConfig(order="bogus")
        with pytest.raises(ValueError):
            MatchConfig(refinement_steps=0)

    def test_variant_names(self):
        assert MatchConfig().variant_name == "DAF-path"
        assert MatchConfig(use_failing_sets=False, order="candidate").variant_name == "DA-cand"


class TestPreparedQueries:
    def test_prepare_then_search_repeatedly(self, edge_query, triangle_data):
        matcher = DAFMatcher()
        prepared = matcher.prepare(edge_query, triangle_data)
        assert not prepared.is_negative
        first = matcher.search(prepared, limit=1)
        second = matcher.search(prepared, limit=10)
        assert first.count == 1
        assert second.count == 2

    def test_root_candidate_partition_covers_search(self, rng):
        """Searching disjoint root-candidate slices partitions the result."""
        matcher = DAFMatcher()
        for _ in range(8):
            query, data = random_graph_case(rng)
            prepared = matcher.prepare(query, data)
            full = sorted(matcher.search(prepared, limit=10**6).embeddings)
            root_count = len(prepared.cs.candidates[prepared.dag.root])
            evens = matcher.search(
                prepared, limit=10**6, root_candidate_indices=list(range(0, root_count, 2))
            ).embeddings
            odds = matcher.search(
                prepared, limit=10**6, root_candidate_indices=list(range(1, root_count, 2))
            ).embeddings
            assert sorted(evens + odds) == full

    def test_negative_prepared_query(self, triangle_data):
        query = Graph(labels=["Z", "A"], edges=[(0, 1)])
        prepared = DAFMatcher().prepare(query, triangle_data)
        assert prepared.is_negative


class TestConvenienceFunctions:
    def test_find_embeddings(self, edge_query, triangle_data):
        assert sorted(find_embeddings(edge_query, triangle_data)) == [(0, 1), (0, 2)]

    def test_count_embeddings_uses_counting_mode(self, edge_query, triangle_data):
        assert count_embeddings(edge_query, triangle_data) == 2

    def test_has_embedding(self, edge_query, triangle_data):
        assert has_embedding(edge_query, triangle_data)
        no_query = Graph(labels=["Z"], edges=[])
        assert not has_embedding(no_query, triangle_data)

    def test_count_with_custom_config(self, edge_query, triangle_data):
        assert (
            count_embeddings(
                edge_query, triangle_data, config=MatchConfig(order="candidate")
            )
            == 2
        )


class TestLeafDecomposition:
    def test_star_counts_match_without_decomposition(self):
        data = star_graph("H", ["L"] * 6)
        query = star_graph("H", ["L"] * 3)
        with_leaves = DAFMatcher(MatchConfig(leaf_decomposition=True)).match(
            MatchRequest(query, data)
        )
        without = DAFMatcher(MatchConfig(leaf_decomposition=False)).match(
            MatchRequest(query, data)
        )
        assert sorted(with_leaves.embeddings) == sorted(without.embeddings)
        assert with_leaves.count == 6 * 5 * 4

    def test_counting_mode_uses_combinatorics(self):
        """In counting mode the leaf matcher multiplies instead of
        enumerating: recursion count must not grow with leaf candidates."""
        small = star_graph("H", ["L"] * 10)
        large = star_graph("H", ["L"] * 200)
        query = star_graph("H", ["L"] * 3)
        cfg = MatchConfig(collect_embeddings=False)
        calls_small = DAFMatcher(cfg).match(
            MatchRequest(query, small, options=MatchOptions(limit=10**9))
        ).stats.recursive_calls
        calls_large = DAFMatcher(cfg).match(
            MatchRequest(query, large, options=MatchOptions(limit=10**9))
        ).stats.recursive_calls
        assert calls_large <= calls_small + 1

    def test_counts_correct_with_mixed_labels(self):
        data = star_graph("H", ["L"] * 4 + ["M"] * 3)
        query = star_graph("H", ["L", "L", "M"])
        expected = 4 * 3 * 3  # ordered L-pairs x M choices
        assert count_embeddings(query, data, limit=10**9) == expected

    def test_k2_query_handled(self):
        """Both K2 vertices have degree one; decomposition must not defer
        everything."""
        data = Graph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2)])
        query = Graph(labels=["A", "B"], edges=[(0, 1)])
        assert count_embeddings(query, data) == 2
