"""Unit tests for local candidate filters (C_ini, MND, NLF)."""

from repro import MatchOptions, MatchRequest
from repro.core import (
    initial_candidate_count,
    initial_candidates,
    passes_local_filters,
    passes_max_neighbor_degree,
    passes_neighborhood_label_frequency,
)
from repro.graph import Graph, star_graph


class TestInitialCandidates:
    def test_label_must_match(self, edge_query, triangle_data):
        assert initial_candidates(edge_query, triangle_data, 0) == [0]
        assert initial_candidates(edge_query, triangle_data, 1) == [1, 2]

    def test_degree_filter(self):
        # Query vertex of degree 2 cannot map to a data vertex of degree 1.
        query = Graph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2)])
        data = star_graph("B", ["A", "A"])  # A-vertices have degree 1
        assert initial_candidates(query, data, 0) == []

    def test_count_matches_list(self, path_query, square_data):
        for u in path_query.vertices():
            assert initial_candidate_count(path_query, square_data, u) == len(
                initial_candidates(path_query, square_data, u)
            )

    def test_missing_label_gives_empty(self, square_data):
        query = Graph(labels=["Z"], edges=[])
        assert initial_candidates(query, square_data, 0) == []


class TestMaxNeighborDegree:
    def test_passes_when_data_richer(self):
        query = Graph(labels=["A", "B"], edges=[(0, 1)])
        data = Graph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])
        # Query A's max neighbor degree is 1 (B); data vertex 0's neighbor
        # B has degree 2 >= 1.
        assert passes_max_neighbor_degree(query, data, 0, 0)

    def test_fails_when_neighbor_too_weak(self):
        # Query: A adjacent to a degree-3 hub B.
        query = star_graph("B", ["A", "C", "D"])
        data = Graph(labels=["A", "B"], edges=[(0, 1)])
        # u=1 (the A leaf) has max neighbor degree 3; data A's only
        # neighbor has degree 1.
        assert not passes_max_neighbor_degree(query, data, 1, 0)


class TestNeighborhoodLabelFrequency:
    def test_dominance_required_per_label(self):
        query = star_graph("C", ["L", "L"])  # C needs two L-neighbors
        data_ok = star_graph("C", ["L", "L", "M"])
        data_bad = star_graph("C", ["L", "M", "M"])
        assert passes_neighborhood_label_frequency(query, data_ok, 0, 0)
        assert not passes_neighborhood_label_frequency(query, data_bad, 0, 0)

    def test_isolated_query_vertex_always_passes(self):
        query = Graph(labels=["X"], edges=[])
        data = Graph(labels=["X"], edges=[])
        assert passes_neighborhood_label_frequency(query, data, 0, 0)


class TestCombined:
    def test_combined_requires_both(self):
        query = star_graph("C", ["L", "L"])
        data = star_graph("C", ["L", "M", "M"])
        assert not passes_local_filters(query, data, 0, 0)

    def test_filters_are_sound_on_real_embeddings(self, rng):
        """No filter may reject (u, M(u)) for a true embedding M."""
        from repro.baselines import BruteForceMatcher
        from tests.conftest import random_graph_case

        for _ in range(10):
            query, data = random_graph_case(rng)
            result = BruteForceMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=20))
            )
            for embedding in result.embeddings:
                for u in query.vertices():
                    v = embedding[u]
                    assert v in initial_candidates(query, data, u)
                    assert passes_local_filters(query, data, u, v)
