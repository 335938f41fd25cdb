"""Tests for search-tree tracing — exact failing-set verification.

These pin down the §6 semantics precisely: on hand-built instances we
assert the *specific* failing sets the paper's computation rules produce,
not just their pruning side-effects.
"""

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.core import SearchTracer
from repro.graph import Graph
from tests.conftest import random_graph_case
from tests.test_failing_sets import make_failing_sibling_case


def run_traced(query, data, config=None):
    matcher = DAFMatcher(config if config is not None else MatchConfig())
    prepared = matcher.prepare(query, data)
    tracer = SearchTracer(query.num_vertices)
    result = matcher.search(prepared, tracer=tracer)
    return result, tracer


class TestTraceStructure:
    def test_roots_are_root_candidates(self, edge_query, triangle_data):
        result, tracer = run_traced(edge_query, triangle_data)
        assert result.count == 2
        # One trace root per tried root candidate.
        assert len(tracer.roots) >= 1
        for root in tracer.roots:
            assert root.outcome in ("embedding", "internal", "emptyset")

    def test_node_count_matches_recursive_calls_shape(self, rng):
        """Explored trace nodes (enter/leave pairs) are within one of
        recursive calls minus the leaf-stage invocations."""
        for _ in range(5):
            query, data = random_graph_case(rng)
            result, tracer = run_traced(query, data)
            explored = sum(root.count_nodes() for root in tracer.roots)
            assert explored <= result.stats.recursive_calls
            assert explored >= 1 or result.count == 0

    def test_render_is_textual_tree(self, edge_query, triangle_data):
        _, tracer = run_traced(edge_query, triangle_data)
        text = tracer.render()
        assert "(u" in text and ", v" in text

    def test_plain_engine_traces_without_failing_sets(self, edge_query, triangle_data):
        _, tracer = run_traced(
            edge_query, triangle_data, MatchConfig(use_failing_sets=False)
        )
        assert tracer.roots
        nodes = tracer.all_nodes()
        # DA shares DAF's driver, so it marks embeddings the same way...
        assert any(node.outcome == "embedding" for node in nodes)
        assert tracer.render().splitlines()[0] == "(u0, v0) *"
        # ...but computes no failing sets.
        assert all(node.failing_set is None for node in nodes)

    def test_plain_engine_conflicts_carry_no_failing_set(self, rng):
        conflicts_seen = 0
        for _ in range(30):
            query, data = random_graph_case(rng)
            _, tracer = run_traced(
                query, data, MatchConfig(use_failing_sets=False, leaf_decomposition=False)
            )
            for node in tracer.all_nodes():
                assert node.failing_set is None
                conflicts_seen += node.outcome == "conflict"
        assert conflicts_seen > 0


class TestExactFailingSets:
    def test_conflict_leaf_failing_set(self, rng):
        """Every traced conflict carries F = anc(u) ∪ anc(u') — so F must
        contain the conflicting vertex, include all its DAG ancestors, and
        be ancestor-closed.  Checked across a random corpus (constructing
        a *minimal* conflict by hand is impossible: the NLF/degree filters
        disprove any instance whose conflict is 1-hop-visible)."""
        from repro.core import build_dag

        conflicts_seen = 0
        for _ in range(30):
            query, data = random_graph_case(rng)
            result, tracer = run_traced(
                query, data, MatchConfig(leaf_decomposition=False)
            )
            dag = build_dag(query, data)
            for node in tracer.all_nodes():
                if node.outcome != "conflict":
                    continue
                conflicts_seen += 1
                fs = node.failing_set
                assert fs is not None
                assert dag.ancestors(node.query_vertex) <= fs
                # Ancestor-closed: every member's ancestors are members.
                for u in fs:
                    assert dag.ancestors(u) <= fs
        assert conflicts_seen > 0, "corpus produced no conflicts; widen it"

    def test_emptyset_leaf_failing_set(self):
        """When C_M(u) is empty, the node's failing set is anc(u)."""
        query, data = make_failing_sibling_case(irrelevant_candidates=2, doomed_candidates=3)
        result, tracer = run_traced(query, data, MatchConfig(leaf_decomposition=False))
        assert result.count == 0
        empties = [n for n in tracer.all_nodes() if n.outcome == "emptyset"]
        assert empties, tracer.render()
        # In this construction the emptyset vertex is u4 (label X) with
        # ancestors {u0, u1, u2, u4}.
        for node in empties:
            assert node.failing_set == frozenset({0, 1, 2, 4})

    def test_pruned_siblings_recorded(self):
        """Lemma 6.1 pruning shows up as 'pruned' nodes for u3 siblings.

        The irrelevant C branch (5 candidates) must be cheaper than the
        doomed A branch (8) so the adaptive order maps u3 first.
        """
        query, data = make_failing_sibling_case(irrelevant_candidates=5, doomed_candidates=8)
        result, tracer = run_traced(query, data, MatchConfig(leaf_decomposition=False))
        assert result.count == 0
        pruned = [n for n in tracer.all_nodes() if n.outcome == "pruned"]
        assert len(pruned) == 4  # 5 C-candidates, first explored, rest pruned
        assert all(n.query_vertex == 3 for n in pruned)

    def test_internal_union_case(self):
        """Case 2.2: an internal node's failing set is the union of its
        children's (here: the C-branch node inherits the doomed region's
        failing set, which excludes u3)."""
        query, data = make_failing_sibling_case(irrelevant_candidates=2, doomed_candidates=3)
        _, tracer = run_traced(query, data, MatchConfig(leaf_decomposition=False))
        c_nodes = [
            n
            for n in tracer.all_nodes()
            if n.query_vertex == 3 and n.outcome == "internal" and n.failing_set is not None
        ]
        assert c_nodes, tracer.render()
        for node in c_nodes:
            assert 3 not in node.failing_set
            assert node.failing_set == frozenset({0, 1, 2, 4})

    def test_embedding_nodes_have_no_failing_set(self, edge_query, triangle_data):
        _, tracer = run_traced(edge_query, triangle_data)
        embedding_nodes = [n for n in tracer.all_nodes() if n.outcome == "embedding"]
        assert embedding_nodes
        for node in embedding_nodes:
            assert node.failing_set is None


class TestTraceConsistency:
    def test_tracing_does_not_change_results(self, rng):
        for _ in range(8):
            query, data = random_graph_case(rng)
            plain = DAFMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            )
            traced, _ = run_traced(query, data)
            assert sorted(traced.embeddings) == sorted(plain.embeddings)
            assert traced.stats.recursive_calls == plain.stats.recursive_calls
