"""Unit tests for the Graph substrate."""

import pytest

from repro.graph import Graph, GraphError


class TestConstruction:
    def test_empty_graph(self):
        g = Graph().freeze()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []
        assert g.average_degree() == 0.0

    def test_add_vertex_returns_consecutive_ids(self):
        g = Graph()
        assert g.add_vertex("A") == 0
        assert g.add_vertex("B") == 1
        assert g.add_vertex("A") == 2

    def test_constructor_with_labels_and_edges_freezes(self):
        g = Graph(labels=["A", "B"], edges=[(0, 1)])
        assert g.frozen
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        g.add_vertex("A")
        with pytest.raises(GraphError, match="self-loop"):
            g.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        g = Graph()
        g.add_vertex("A")
        g.add_vertex("B")
        g.add_edge(0, 1)
        with pytest.raises(GraphError, match="duplicate"):
            g.add_edge(1, 0)

    def test_edge_to_unknown_vertex_rejected(self):
        g = Graph()
        g.add_vertex("A")
        with pytest.raises(GraphError, match="unknown vertex"):
            g.add_edge(0, 5)

    def test_mutation_after_freeze_rejected(self):
        g = Graph(labels=["A"], edges=[])
        with pytest.raises(GraphError):
            g.add_vertex("B")
        with pytest.raises(GraphError):
            g.add_edge(0, 0)

    def test_freeze_is_idempotent(self):
        g = Graph(labels=["A", "B"], edges=[(0, 1)])
        assert g.freeze() is g

    def test_accessors_require_freeze(self):
        g = Graph()
        g.add_vertex("A")
        with pytest.raises(GraphError, match="frozen"):
            g.neighbors(0)
        with pytest.raises(GraphError, match="frozen"):
            g.degree(0)


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph(labels=list("ABCD"), edges=[(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_degree_and_average_degree(self, triangle_data):
        assert triangle_data.degrees == (2, 2, 2)
        assert triangle_data.average_degree() == pytest.approx(2.0)

    def test_has_edge_symmetric(self, triangle_data):
        assert triangle_data.has_edge(0, 1)
        assert triangle_data.has_edge(1, 0)
        g = Graph(labels=["A", "B", "C"], edges=[(0, 1)])
        assert not g.has_edge(0, 2)

    def test_edges_yield_each_once_ordered(self, square_data):
        edges = list(square_data.edges())
        assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert all(u < v for u, v in edges)

    def test_neighbor_set(self, square_data):
        assert square_data.neighbor_set(0) == frozenset({1, 3})

    def test_labels_tuple(self, triangle_data):
        assert triangle_data.labels == ("A", "B", "B")

    def test_len_matches_vertices(self, square_data):
        assert len(square_data) == 4

    def test_repr_mentions_counts(self, triangle_data):
        text = repr(triangle_data)
        assert "|V|=3" in text and "|E|=3" in text


class TestLabelIndex:
    def test_vertices_with_label(self, triangle_data):
        assert triangle_data.vertices_with_label("B") == (1, 2)
        assert triangle_data.vertices_with_label("Z") == ()

    def test_label_frequency(self, triangle_data):
        assert triangle_data.label_frequency("B") == 2
        assert triangle_data.label_frequency("missing") == 0

    def test_distinct_labels_and_num_labels(self, triangle_data):
        assert triangle_data.distinct_labels() == frozenset({"A", "B"})
        assert triangle_data.num_labels == 2

    def test_neighbor_label_counts(self, square_data):
        assert square_data.neighbor_label_counts(0) == {"B": 2}

    def test_max_neighbor_degree(self):
        g = Graph(labels=list("ABC"), edges=[(0, 1), (1, 2)])
        assert g.max_neighbor_degree(0) == 2
        assert g.max_neighbor_degree(1) == 1
        isolated = Graph(labels=["X"], edges=[])
        assert isolated.max_neighbor_degree(0) == 0

    def test_index_is_built_once_on_first_read(self, monkeypatch, square_data):
        builds = []
        real_ensure = Graph.ensure_index

        def counting_ensure(graph):
            builds.append(graph)
            return real_ensure(graph)

        monkeypatch.setattr(Graph, "ensure_index", counting_ensure)
        first = square_data.index
        assert square_data.index is first
        assert len(builds) == 1 and builds[0] is square_data

    def test_index_requires_freeze(self):
        g = Graph()
        g.add_vertex("A")
        with pytest.raises(GraphError):
            g.index


class TestDerivedGraphs:
    def test_induced_subgraph_keeps_internal_edges(self, square_data):
        sub, mapping = square_data.induced_subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # (0,1) and (1,2); (0,3)/(2,3) dropped
        assert mapping == {0: 0, 1: 1, 2: 2}
        assert sub.labels == ("A", "B", "A")

    def test_induced_subgraph_respects_iteration_order(self, square_data):
        sub, mapping = square_data.induced_subgraph([2, 0])
        assert mapping == {2: 0, 0: 1}
        assert sub.labels == ("A", "A")
        assert sub.num_edges == 0

    def test_induced_subgraph_deduplicates(self, square_data):
        sub, _ = square_data.induced_subgraph([1, 1, 2])
        assert sub.num_vertices == 2

    def test_relabeled_with_mapping(self, triangle_data):
        g = triangle_data.relabeled({0: "Z"})
        assert g.labels == ("Z", "B", "B")
        assert g.num_edges == triangle_data.num_edges

    def test_relabeled_with_list(self, triangle_data):
        g = triangle_data.relabeled(["X", "Y", "Z"])
        assert g.labels == ("X", "Y", "Z")

    def test_relabeled_with_wrong_length_rejected(self, triangle_data):
        with pytest.raises(GraphError):
            triangle_data.relabeled(["X"])

    def test_copy_is_independent_and_unfrozen(self, triangle_data):
        c = triangle_data.copy()
        assert not c.frozen
        c.add_vertex("C")
        c.freeze()
        assert c.num_vertices == 4
        assert triangle_data.num_vertices == 3

    def test_copy_of_unfrozen_graph(self):
        g = Graph()
        g.add_vertex("A")
        g.add_vertex("B")
        g.add_edge(0, 1)
        c = g.copy()
        c.freeze()
        assert c.num_edges == 1


class TestEquality:
    def test_structural_equality(self):
        a = Graph(labels=["A", "B"], edges=[(0, 1)])
        b = Graph(labels=["A", "B"], edges=[(1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_graphs_hash(self):
        assert hash(Graph(labels=[])) == hash(Graph().freeze())

    def test_label_difference_breaks_equality(self):
        a = Graph(labels=["A", "B"], edges=[(0, 1)])
        b = Graph(labels=["A", "C"], edges=[(0, 1)])
        assert a != b

    def test_edge_difference_breaks_equality(self):
        a = Graph(labels=["A", "B", "C"], edges=[(0, 1)])
        b = Graph(labels=["A", "B", "C"], edges=[(0, 2)])
        assert a != b

    def test_comparison_with_other_types(self):
        a = Graph(labels=["A"], edges=[])
        assert a != "not a graph"
