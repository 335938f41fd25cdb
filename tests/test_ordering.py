"""Unit tests for the weight array and adaptive matching orders (§5.2)."""

import pytest

from repro.core import (
    build_candidate_space,
    build_dag,
    compute_weight_array,
    count_paths_from,
    make_order,
)
from repro.core.ordering import CandidateSizeOrder, PathSizeOrder
from repro.graph import Graph
from tests.conftest import random_graph_case


def prepared(query, data):
    dag = build_dag(query, data)
    return build_candidate_space(query, data, dag)


class TestWeightArray:
    def test_leaf_weights_are_one(self, rng):
        for _ in range(8):
            query, data = random_graph_case(rng)
            cs = prepared(query, data)
            weights = compute_weight_array(cs)
            for u in query.vertices():
                if not cs.dag.single_parent_children(u):
                    assert all(w == 1 for w in weights[u])

    def test_weight_equals_min_over_tree_like_paths(self, rng):
        """W_u(v) == min over maximal tree-like paths p of n(p, v)."""
        for _ in range(12):
            query, data = random_graph_case(rng, max_vertices=12, max_query=5)
            cs = prepared(query, data)
            weights = compute_weight_array(cs)
            for u in query.vertices():
                paths = cs.dag.maximal_tree_like_paths(u)
                for i, v in enumerate(cs.candidates[u]):
                    expected = min(count_paths_from(cs, p, v) for p in paths)
                    assert weights[u][i] == expected, (u, v, paths)

    def test_weight_upper_bounds_path_embeddings(self):
        """n(p, v) counts CS paths, which may exceed true (injective)
        embeddings; the weight is the min over paths, still an upper
        bound for the most infrequent path."""
        # Chain query A-B-A; data where both B-neighbors of the A
        # candidate are the same vertex as the start (overlap).
        data = Graph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])
        query = Graph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])
        cs = prepared(query, data)
        weights = compute_weight_array(cs)
        root = cs.dag.root
        for i, v in enumerate(cs.candidates[root]):
            paths = cs.dag.maximal_tree_like_paths(root)
            n_min = min(count_paths_from(cs, p, v) for p in paths)
            assert weights[root][i] == n_min


class TestOrders:
    def test_factory(self, triangle_data, edge_query):
        cs = prepared(edge_query, triangle_data)
        assert isinstance(make_order("path", cs), PathSizeOrder)
        assert isinstance(make_order("candidate", cs), CandidateSizeOrder)
        with pytest.raises(ValueError, match="unknown matching order"):
            make_order("alphabetical", cs)

    def test_candidate_size_weight_is_count(self, triangle_data, edge_query):
        cs = prepared(edge_query, triangle_data)
        order = CandidateSizeOrder(cs)
        assert order.vertex_weight(0, [0, 1, 2]) == 3
        assert order.vertex_weight(1, []) == 0

    def test_path_size_weight_sums_weight_array(self, rng):
        for _ in range(5):
            query, data = random_graph_case(rng)
            cs = prepared(query, data)
            order = PathSizeOrder(cs)
            weights = compute_weight_array(cs)
            for u in query.vertices():
                indices = list(range(len(cs.candidates[u])))
                assert order.vertex_weight(u, indices) == sum(weights[u])


class TestWeightCache:
    """``CandidateSpace.weights`` builds the weight array once per CS."""

    def test_cached_weights_equal_fresh_computation(self, rng):
        for _ in range(8):
            query, data = random_graph_case(rng)
            cs = prepared(query, data)
            assert [list(row) for row in cs.weights] == compute_weight_array(cs)
            assert cs.weights is cs.weights

    def test_orders_on_one_cs_compute_it_once(self, rng, monkeypatch):
        from repro.core import candidate_space

        calls = []
        real = candidate_space.compute_weight_array

        def counting(cs):
            calls.append(cs)
            return real(cs)

        monkeypatch.setattr(candidate_space, "compute_weight_array", counting)
        query, data = random_graph_case(rng)
        cs = prepared(query, data)
        first, second = PathSizeOrder(cs), PathSizeOrder(cs)
        assert calls == [cs]
        indices = list(range(len(cs.candidates[0])))
        assert first.vertex_weight(0, indices) == second.vertex_weight(0, indices)

    def test_overflowing_row_keeps_python_ints(self):
        from repro.core.candidate_space import _compact

        assert list(_compact([1, 2**40])) == [1, 2**40]
        assert list(_compact([2**70, 1])) == [2**70, 1]

    def test_explain_reports_the_weight_bounds(self, rng):
        from repro.obs.explain import explain

        for _ in range(5):
            query, data = random_graph_case(rng)
            plan = explain(query, data)
            cs = prepared(query, data)
            if cs.is_empty():
                continue
            weights = compute_weight_array(cs)
            assert plan.weight_summary == {
                u: (min(weights[u]), max(weights[u]))
                for u in query.vertices()
                if weights[u]
            }
