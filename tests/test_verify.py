"""Tests for the result-certification module."""

import pytest

from repro import DAFMatcher, MatchRequest
from repro.baselines import QuickSIMatcher, VF2Matcher
from repro.graph import Graph, complete_graph
from repro.verify import (
    CrossValidationReport,
    VerificationError,
    certify_negative,
    cross_validate,
    verify_embeddings,
)
from tests.conftest import random_graph_case


class TestVerifyEmbeddings:
    def test_valid_result_passes(self, edge_query, triangle_data):
        result = DAFMatcher().match(MatchRequest(edge_query, triangle_data))
        verify_embeddings(result.embeddings, edge_query, triangle_data)

    def test_duplicate_rejected(self, edge_query, triangle_data):
        with pytest.raises(VerificationError, match="duplicate"):
            verify_embeddings([(0, 1), (0, 1)], edge_query, triangle_data)

    def test_invalid_mapping_rejected(self, edge_query, triangle_data):
        with pytest.raises(VerificationError, match="invalid"):
            verify_embeddings([(1, 0)], edge_query, triangle_data)

    def test_induced_check(self):
        data = complete_graph(["A"] * 3)
        from repro.graph import path_graph

        p3 = path_graph(["A"] * 3)
        # Valid as plain embedding, invalid as induced.
        verify_embeddings([(0, 1, 2)], p3, data)
        with pytest.raises(VerificationError, match="induced"):
            verify_embeddings([(0, 1, 2)], p3, data, induced=True)


class TestCrossValidate:
    def test_consistent_matchers(self, rng):
        query, data = random_graph_case(rng)
        report = cross_validate(
            query, data, {"DAF": DAFMatcher(), "VF2": VF2Matcher(), "QuickSI": QuickSIMatcher()}
        )
        assert report.consistent
        assert len(set(report.counts.values())) == 1
        assert not report.disagreements

    def test_needs_two_matchers(self, edge_query, triangle_data):
        with pytest.raises(ValueError, match="at least two"):
            cross_validate(edge_query, triangle_data, {"DAF": DAFMatcher()})

    def test_detects_disagreement(self, edge_query, triangle_data):
        class BrokenMatcher(DAFMatcher):
            def _match_impl(self, *args, **kwargs):
                result = super()._match_impl(*args, **kwargs)
                result.embeddings = result.embeddings[:-1]  # drop one
                result.stats.embeddings_found -= 1
                return result

        report = cross_validate(
            edge_query, triangle_data, {"good": DAFMatcher(), "broken": BrokenMatcher()}
        )
        assert not report.consistent
        assert "broken" in report.disagreements

    def test_capped_runs_compare_counts_only(self):
        data = complete_graph(["A"] * 5)
        query = complete_graph(["A"] * 3)
        report = cross_validate(
            query, data, {"DAF": DAFMatcher(), "VF2": VF2Matcher()}, limit=5
        )
        assert all(report.capped.values())
        assert report.consistent  # both found exactly 5
        assert not report.disagreements  # sets not compared when capped


class TestCertifyNegative:
    def test_true_negative(self, triangle_data):
        query = Graph(labels=["A", "Z"], edges=[(0, 1)])
        assert certify_negative(query, triangle_data) is True

    def test_positive_instance(self, edge_query, triangle_data):
        assert certify_negative(edge_query, triangle_data) is False

    def test_disagreement_raises(self, edge_query, triangle_data):
        class LyingMatcher(DAFMatcher):
            def _match_impl(self, *args, **kwargs):
                result = super()._match_impl(*args, **kwargs)
                result.embeddings = []
                result.stats.embeddings_found = 0
                return result

        with pytest.raises(VerificationError, match="disagree"):
            certify_negative(edge_query, triangle_data, primary=LyingMatcher())

    def test_report_dataclass(self):
        report = CrossValidationReport(counts={"a": 1, "b": 1}, capped={"a": False, "b": False})
        assert report.consistent
