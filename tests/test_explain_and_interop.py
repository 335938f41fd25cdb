"""Tests for the explain API and the networkx interop helpers."""

import pytest

from repro import MatchOptions, MatchRequest
from repro.graph import Graph, star_graph
from repro.graph.nx_interop import from_networkx, match_networkx, to_networkx
from repro.obs.explain import explain
from tests.conftest import random_graph_case


class TestExplain:
    def test_plan_fields(self, edge_query, triangle_data):
        plan = explain(edge_query, triangle_data)
        assert plan.root in edge_query.vertices()
        assert len(plan.dag_edges) == edge_query.num_edges
        assert not plan.is_negative
        assert plan.cs_size == 3

    def test_root_has_minimal_score(self, rng):
        for _ in range(8):
            query, data = random_graph_case(rng)
            plan = explain(query, data)
            assert plan.root_scores[plan.root] == min(plan.root_scores.values())

    def test_per_step_sizes_shrink(self, rng):
        for _ in range(5):
            query, data = random_graph_case(rng)
            plan = explain(query, data)
            for earlier, later in zip(plan.candidate_sizes_per_step, plan.candidate_sizes_per_step[1:]):
                for u in earlier:
                    assert later[u] <= earlier[u]

    def test_filtering_rate_on_blindspot(self):
        from tests.test_paper_scenarios import make_nontree_blindspot

        query, data = make_nontree_blindspot(decoys=10)
        plan = explain(query, data)
        # The decoy C candidates survive C_ini but fall to DAG-graph DP.
        assert plan.filtering_rate > 0.5
        final = plan.candidate_sizes_per_step[-1]
        assert all(size == 1 for size in final.values())

    def test_negative_plan(self, triangle_data):
        query = Graph(labels=["A", "ghost"], edges=[(0, 1)])
        plan = explain(query, triangle_data)
        assert plan.is_negative
        assert "NEGATIVE" in plan.render()

    def test_render_mentions_every_vertex(self, edge_query, triangle_data):
        text = explain(edge_query, triangle_data).render()
        assert "root: u" in text
        assert "C(u0)" in text and "C(u1)" in text
        assert "CS:" in text


class TestNetworkxInterop:
    def test_round_trip(self, triangle_data):
        nx_graph = to_networkx(triangle_data)
        back, mapping = from_networkx(nx_graph)
        assert back == triangle_data
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_from_networkx_arbitrary_node_names(self):
        import networkx as nx

        g = nx.Graph()
        g.add_node("alice", label="person")
        g.add_node("acme", label="company")
        g.add_edge("alice", "acme")
        graph, mapping = from_networkx(g)
        assert graph.num_vertices == 2
        assert graph.label(mapping["alice"]) == "person"

    def test_from_networkx_default_label(self):
        import networkx as nx

        g = nx.path_graph(3)
        graph, _ = from_networkx(g, default_label="X")
        assert graph.labels == ("X", "X", "X")

    def test_directed_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError, match="directed"):
            from_networkx(nx.DiGraph([(0, 1)]))

    def test_multigraph_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError, match="multigraph"):
            from_networkx(nx.MultiGraph([(0, 1), (0, 1)]))

    def test_self_loop_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 0)
        with pytest.raises(ValueError, match="self-loop"):
            from_networkx(g)

    def test_match_networkx_end_to_end(self):
        import networkx as nx

        data = nx.Graph()
        for name, label in [("a", "P"), ("b", "P"), ("c", "C")]:
            data.add_node(name, label=label)
        data.add_edges_from([("a", "b"), ("a", "c"), ("b", "c")])
        query = nx.Graph()
        query.add_node("x", label="P")
        query.add_node("y", label="C")
        query.add_edge("x", "y")
        matches = match_networkx(query, data)
        assert {frozenset(m.items()) for m in matches} == {
            frozenset({("x", "a"), ("y", "c")}),
            frozenset({("x", "b"), ("y", "c")}),
        }

    def test_match_networkx_agrees_with_direct(self, rng):
        query, data = random_graph_case(rng)
        from repro import DAFMatcher

        direct = DAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).count
        via_nx = len(match_networkx(to_networkx(query), to_networkx(data), limit=10**6))
        assert via_nx == direct
