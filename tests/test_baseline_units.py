"""Per-baseline unit tests: the algorithm-specific machinery of each
comparison matcher (filters, orders, index structures)."""

import pytest

from repro.baselines.cfl import (
    CFLMatcher,
    build_cpi,
    cfl_matching_order,
    core_forest_leaf_classes,
    select_cfl_root,
)
from repro.baselines.gaddi import triangle_counts, wedge_counts
from repro.baselines.generic import (
    connectivity_refine_order,
    greedy_candidate_order,
    ordered_backtrack,
)
from repro.baselines.graphql import _has_semi_perfect_matching, pseudo_iso_refine
from repro.baselines.quicksi import edge_label_frequencies, qi_sequence
from repro.baselines.spath import distance_label_signature, signature_dominates
from repro.baselines.turboiso import (
    choose_start_vertex,
    explore_candidate_region,
    path_order,
)
from repro.baselines.ullmann import ullmann_refine
from repro.core.filters import passes_neighborhood_label_frequency
from repro.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from repro.interfaces import Deadline, MatchOptions, MatchRequest


class TestGenericBacktracker:
    def test_connectivity_refine_order(self):
        q = path_graph(list("ABCD"))
        order = connectivity_refine_order(q, [0, 3, 1, 2])
        # Every non-first vertex must touch an earlier one.
        placed = {order[0]}
        for u in order[1:]:
            assert any(w in placed for w in q.neighbors(u))
            placed.add(u)

    def test_greedy_candidate_order_prefers_small_sets(self):
        q = path_graph(list("ABC"))
        sets = [set(range(10)), {5}, set(range(4))]
        order = greedy_candidate_order(q, sets)
        assert order[0] == 1  # smallest candidate set first

    def test_ordered_backtrack_counts_and_finds(self, triangle_data, edge_query):
        sets = [{0}, {1, 2}]
        result = ordered_backtrack(
            edge_query, triangle_data, [0, 1], sets, limit=10, deadline=Deadline(None)
        )
        assert sorted(result.embeddings) == [(0, 1), (0, 2)]
        assert result.stats.recursive_calls >= 3

    def test_ordered_backtrack_empty_candidates_shortcircuit(self, triangle_data, edge_query):
        result = ordered_backtrack(
            edge_query, triangle_data, [0, 1], [set(), {1}], limit=10, deadline=Deadline(None)
        )
        assert result.count == 0
        assert result.stats.recursive_calls == 0


class TestUllmann:
    def test_refine_removes_unsupported(self):
        # B candidate with no A neighbor must fall.
        data = Graph(labels=["A", "B", "B"], edges=[(0, 1)])
        query = Graph(labels=["A", "B"], edges=[(0, 1)])
        sets = [{0}, {1, 2}]
        ullmann_refine(query, data, sets)
        assert sets[1] == {1}

    def test_refine_reaches_fixpoint_chain(self):
        # Chain where pruning cascades: A-B-C query, data missing the C.
        data = Graph(labels=["A", "B", "C"], edges=[(0, 1)])
        query = Graph(labels=["A", "B", "C"], edges=[(0, 1), (1, 2)])
        sets = [{0}, {1}, {2}]
        ullmann_refine(query, data, sets)
        assert sets[1] == set()  # B lost C-support
        assert sets[0] == set()  # then A lost B-support


class TestQuickSI:
    def test_edge_label_frequencies(self, triangle_data):
        freq = edge_label_frequencies(triangle_data)
        assert freq[("A", "B")] == 2
        assert freq[("B", "B")] == 1

    def test_qi_sequence_is_connected_order(self, rng):
        from tests.conftest import random_graph_case

        for _ in range(10):
            query, data = random_graph_case(rng)
            order = qi_sequence(query, data)
            assert sorted(order) == list(query.vertices())
            placed = {order[0]}
            for u in order[1:]:
                assert any(w in placed for w in query.neighbors(u))
                placed.add(u)

    def test_qi_sequence_starts_with_rare_edge(self):
        # Data: many A-A edges, one A-B edge.  Query has both kinds; the
        # sequence must start at the A-B edge.
        data = Graph(
            labels=["A", "A", "A", "B"],
            edges=[(0, 1), (0, 2), (1, 2), (0, 3)],
        )
        query = Graph(labels=["A", "A", "B"], edges=[(0, 1), (0, 2)])
        order = qi_sequence(query, data)
        assert set(order[:2]) == {0, 2}  # the A-B query edge endpoints


class TestGraphQL:
    def test_profile_dominates(self):
        # GraphQL's profile filter is the NLF dominance check.
        query = star_graph("C", ["L", "L"])
        data = star_graph("C", ["L", "L", "L"])
        assert passes_neighborhood_label_frequency(query, data, 0, 0)
        assert not passes_neighborhood_label_frequency(data, query, 0, 0)

    def test_semi_perfect_matching(self):
        assert _has_semi_perfect_matching([1, 2], {1: [10, 11], 2: [10]})
        assert not _has_semi_perfect_matching([1, 2], {1: [10], 2: [10]})

    def test_pseudo_iso_refine_prunes(self):
        # Query hub needs two distinct L neighbors; data vertex 0's two
        # L neighbors collapse onto one data vertex option each.
        query = star_graph("C", ["L", "L"])
        data = star_graph("C", ["L"])  # only one L: must prune hub
        sets = [
            {v for v in data.vertices() if data.label(v) == query.label(u)}
            for u in query.vertices()
        ]
        pseudo_iso_refine(query, data, sets)
        assert sets[0] == set()


class TestSPath:
    def test_distance_signature_levels(self):
        g = path_graph(list("ABCD"))
        sig = distance_label_signature(g, 0, radius=2)
        assert sig[0] == {"B": 1}
        assert sig[1] == {"C": 1}

    def test_signature_dominates_cumulative(self):
        # Data has the vertex one hop closer than the query expects: the
        # cumulative rule must accept it.
        query_sig = ({"B": 1}, {"C": 1})
        data_sig = ({"B": 1, "C": 1}, {})
        assert signature_dominates(data_sig, query_sig)

    def test_signature_rejects_missing_label(self):
        query_sig = ({"B": 1}, {"Z": 1})
        data_sig = ({"B": 1}, {"C": 5})
        assert not signature_dominates(data_sig, query_sig)

    def test_invalid_radius_rejected(self):
        from repro.baselines import SPathMatcher

        with pytest.raises(ValueError):
            SPathMatcher(radius=0)


class TestGADDI:
    def test_wedge_counts_triangle(self, triangle_data):
        counts = wedge_counts(triangle_data, 0)
        # v0(A): wedges 0-1-2 and 0-2-1 (both middle B, end B).
        assert counts[("B", "B")] == 2

    def test_triangle_counts(self, triangle_data):
        counts = triangle_counts(triangle_data, 0)
        assert counts[("B", "B")] == 1

    def test_triangle_counts_no_triangle(self):
        g = path_graph(list("ABC"))
        assert triangle_counts(g, 1) == {}


class TestTurboIso:
    def test_choose_start_vertex_prefers_selective(self):
        query = star_graph("H", ["L", "L"])
        data = star_graph("H", ["L"] * 10)
        assert choose_start_vertex(query, data) == 0

    def test_region_exploration_prunes_dead_regions(self):
        # Data hub with no L children cannot host the star query.
        query = star_graph("H", ["L"])
        data = Graph(labels=["H", "M"], edges=[(0, 1)])
        children = {0: [1], 1: []}
        base = [{0}, set()]
        region = explore_candidate_region(query, data, 0, 0, children, base)
        assert region is None

    def test_region_exploration_finds_region(self, triangle_data, edge_query):
        children = {0: [1], 1: []}
        base = [{0}, {1, 2}]
        region = explore_candidate_region(edge_query, triangle_data, 0, 0, children, base)
        assert region is not None
        assert region[0] == {0}
        assert region[1] == {1, 2}

    def test_path_order_infrequent_first(self):
        # Star query: two leaves with different region sizes; the smaller
        # one's path must come first.
        query = star_graph("H", ["L", "M"])
        children = {0: [1, 2], 1: [], 2: []}
        region = [{0}, {1, 2, 3}, {4}]
        order = path_order(query, 0, children, region)
        assert order == [0, 2, 1]


class TestCFL:
    def test_core_forest_leaf_classes(self):
        # Triangle core with a pendant path and a leaf.
        g = Graph(
            labels=list("ABCDE"),
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
        )
        classes = core_forest_leaf_classes(g)
        assert classes[0] == classes[1] == classes[2] == 0  # core
        assert classes[3] == 1  # forest
        assert classes[4] == 2  # leaf

    def test_k2_query_all_core(self):
        g = Graph(labels=["A", "B"], edges=[(0, 1)])
        assert core_forest_leaf_classes(g) == [0, 0]

    def test_root_selected_from_core(self):
        g = Graph(
            labels=list("ABCDE"),
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
        )
        data = g  # query == data
        root = select_cfl_root(g, data)
        assert root in {0, 1, 2}

    def test_cpi_candidates_sound(self, rng):
        from repro.baselines import BruteForceMatcher
        from tests.conftest import random_graph_case

        for _ in range(10):
            query, data = random_graph_case(rng)
            cpi = build_cpi(query, data)
            for embedding in BruteForceMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=50))
            ).embeddings:
                for u in query.vertices():
                    assert embedding[u] in cpi.candidates[u]

    def test_cpi_adjacency_only_tree_edges(self, rng):
        from tests.conftest import random_graph_case

        query, data = random_graph_case(rng)
        cpi = build_cpi(query, data)
        tree_edges = {(p, c) for c, p in cpi.parent.items()}
        assert set(cpi.adjacency) == {(p, c) for p, c in tree_edges}

    def test_matching_order_core_first(self):
        g = Graph(
            labels=list("ABCDE"),
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
        )
        cpi = build_cpi(g, g)
        order = cfl_matching_order(cpi)
        classes = core_forest_leaf_classes(g)
        classes[cpi.root] = 0
        ranks = [classes[u] for u in order]
        assert ranks == sorted(ranks)  # non-decreasing class rank

    def test_cpi_size_helper(self, triangle_data, edge_query):
        assert CFLMatcher().cpi_size(edge_query, triangle_data) == 3
