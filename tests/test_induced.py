"""Tests for induced subgraph isomorphism mode (MatchConfig(induced=True)).

An extension beyond the paper: query non-edges must also map to data
non-edges.  Verified against a brute-force induced oracle.
"""

import pytest

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.baselines import BruteForceMatcher
from repro.graph import Graph, complete_graph, cycle_graph, path_graph
from repro.interfaces import is_induced_embedding
from tests.conftest import random_graph_case


def induced_oracle(query, data, limit=10**6):
    """Brute force + non-edge filtering."""
    return sorted(
        e
        for e in BruteForceMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=limit))
        ).embeddings
        if is_induced_embedding(e, query, data)
    )


class TestSemantics:
    def test_path_not_induced_in_triangle(self):
        # P3 (A-A-A) maps into K3 as a plain subgraph but never as an
        # induced one (the endpoints are always adjacent in K3).
        data = complete_graph(["A"] * 3)
        query = path_graph(["A"] * 3)
        plain = DAFMatcher().match(MatchRequest(query, data))
        induced = DAFMatcher(MatchConfig(induced=True)).match(MatchRequest(query, data))
        assert plain.count == 6
        assert induced.count == 0

    def test_path_induced_in_path(self):
        data = path_graph(["A"] * 4)
        query = path_graph(["A"] * 3)
        induced = DAFMatcher(MatchConfig(induced=True)).match(MatchRequest(query, data))
        # Two placements x two directions.
        assert induced.count == 4

    def test_cycle_induced_in_wheel_misses_chords(self):
        # C4 in K4: every C4 image has chords -> zero induced embeddings.
        data = complete_graph(["A"] * 4)
        query = cycle_graph(["A"] * 4)
        assert DAFMatcher(MatchConfig(induced=True)).match(MatchRequest(query, data)).count == 0
        assert DAFMatcher().match(MatchRequest(query, data)).count == 24

    def test_single_vertex_unaffected(self, triangle_data):
        query = Graph(labels=["B"], edges=[])
        result = DAFMatcher(MatchConfig(induced=True)).match(MatchRequest(query, triangle_data))
        assert result.count == 2

    def test_clique_queries_unchanged(self, rng):
        """For complete queries, induced == plain (no non-edges)."""
        data = complete_graph(["A"] * 6)
        query = complete_graph(["A"] * 3)
        plain = DAFMatcher().match(MatchRequest(query, data)).count
        induced = DAFMatcher(MatchConfig(induced=True)).match(MatchRequest(query, data)).count
        assert plain == induced == 6 * 5 * 4


class TestAgreement:
    def test_matches_oracle_on_random_corpus(self, rng):
        for _ in range(20):
            query, data = random_graph_case(rng)
            expected = induced_oracle(query, data)
            got = sorted(
                DAFMatcher(MatchConfig(induced=True)).match(
                    MatchRequest(query, data, options=MatchOptions(limit=10**6))
                ).embeddings
            )
            assert got == expected

    def test_failing_sets_preserve_induced_results(self, rng):
        for _ in range(15):
            query, data = random_graph_case(rng)
            with_fs = DAFMatcher(MatchConfig(induced=True, use_failing_sets=True)).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            )
            without_fs = DAFMatcher(MatchConfig(induced=True, use_failing_sets=False)).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            )
            assert sorted(with_fs.embeddings) == sorted(without_fs.embeddings)
            assert with_fs.stats.recursive_calls <= without_fs.stats.recursive_calls

    def test_every_result_is_induced(self, rng):
        for _ in range(10):
            query, data = random_graph_case(rng)
            result = DAFMatcher(MatchConfig(induced=True)).match(
                MatchRequest(query, data, options=MatchOptions(limit=200))
            )
            for embedding in result.embeddings:
                assert is_induced_embedding(embedding, query, data)

    def test_counting_mode_matches(self, rng):
        for _ in range(10):
            query, data = random_graph_case(rng)
            expected = len(induced_oracle(query, data))
            cfg = MatchConfig(induced=True, collect_embeddings=False)
            assert DAFMatcher(cfg).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).count == expected


class TestValidation:
    def test_induced_requires_injective(self):
        with pytest.raises(ValueError, match="injective"):
            MatchConfig(induced=True, injective=False)

    def test_boost_rejects_induced(self):
        from repro.extensions import BoostedDAFMatcher

        with pytest.raises(ValueError, match="injective matching only"):
            BoostedDAFMatcher(MatchConfig(induced=True))
