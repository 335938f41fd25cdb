"""Scenario tests reconstructing the paper's worked discussions.

These instantiate the situations of §1 (Figure 2), §4 (refinement), §5
(running example mechanics) and Appendix A.3 (negative queries) on
fully-specified graphs and check the behaviour the paper describes.
"""

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.baselines import CFLMatcher, build_cpi
from repro.core import build_candidate_space, build_dag
from repro.graph import Graph
from tests.conftest import make_cartesian_trap


def make_nontree_blindspot(decoys: int = 10) -> tuple[Graph, Graph]:
    """A case exposing CPI's backward non-tree-edge blind spot (§1/§4).

    Query: u0=R, u1=A, u2=B, u3=C with edges (0,1), (1,2), (0,3), (2,3).
    The BFS tree from R puts A and C on level 1 and B on level 2, making
    (2, 3) a non-tree edge.  CPI checks it only *forward* (when B is
    generated, against already-processed C); C is never re-checked
    against B.  Data: one genuine R-A-B-C square plus ``decoys`` fake C
    vertices whose B neighbor is not a B-candidate — each fake C passes
    C_ini/NLF and survives in the CPI, while DAF's alternating DP removes
    them all.
    """
    data = Graph()
    hub = data.add_vertex("R")
    a1 = data.add_vertex("A")
    b1 = data.add_vertex("B")
    c_good = data.add_vertex("C")
    data.add_edge(hub, a1)
    data.add_edge(a1, b1)
    data.add_edge(hub, c_good)
    data.add_edge(c_good, b1)
    for _ in range(decoys):
        c_bad = data.add_vertex("C")
        b_decoy = data.add_vertex("B")
        a_decoy = data.add_vertex("A")
        data.add_edge(hub, c_bad)
        data.add_edge(c_bad, b_decoy)  # a B, but never a B-candidate
        data.add_edge(b_decoy, a_decoy)  # lets the decoy B pass NLF
    data.freeze()
    query = Graph(labels=["R", "A", "B", "C"], edges=[(0, 1), (1, 2), (0, 3), (2, 3)])
    return query, data


class TestFigure2CartesianProducts:
    """§1 challenge 1/2: spanning trees admit false positives that full
    query edges eliminate."""

    def test_cs_beats_cpi_on_blindspot(self):
        query, data = make_nontree_blindspot(decoys=10)
        cs = build_candidate_space(query, data, build_dag(query, data, root=0))
        cpi = build_cpi(query, data, root=0)
        # DAF keeps exactly the genuine square; the CPI retains every
        # decoy C (its non-tree check never runs backward).
        assert cs.size == 4
        assert cpi.size == 4 + 10

    def test_triangle_trap_killed_by_both_structures(self):
        """When the non-tree edge is 1-hop-visible (triangle query), both
        structures prune it — the blind spot needs distance."""
        query, data = make_cartesian_trap(branch_a=10, branch_b=15)
        cs = build_candidate_space(query, data, build_dag(query, data))
        cpi = build_cpi(query, data)
        assert cs.size == 3
        assert cs.size <= cpi.size

    def test_search_tree_shrinks_accordingly(self):
        query, data = make_nontree_blindspot(decoys=10)
        daf = DAFMatcher(MatchConfig(collect_embeddings=False)).match(MatchRequest(query, data))
        cfl = CFLMatcher().match(MatchRequest(query, data, options=MatchOptions(count_only=True)))
        assert daf.count == cfl.count == 1
        assert daf.stats.recursive_calls <= cfl.stats.recursive_calls


class TestSection4Refinement:
    """§4: alternating refinement only shrinks and reaches a sound
    fixpoint; the paper's 3-step default is near the fixpoint."""

    def make_chain_case(self):
        # A 4-chain query whose data graph has a long decoy path that only
        # multi-step alternation can fully prune.
        data = Graph()
        labels = ["A", "B", "C", "D"]
        # True chain.
        chain = [data.add_vertex(lab) for lab in labels]
        for a, b in zip(chain, chain[1:]):
            data.add_edge(a, b)
        # Decoy: A-B-C with no D continuation.
        decoy = [data.add_vertex(lab) for lab in ["A", "B", "C"]]
        for a, b in zip(decoy, decoy[1:]):
            data.add_edge(a, b)
        # Connect decoy to the true chain so the graph is one piece.
        data.add_edge(decoy[0], chain[1])
        data.freeze()
        query = Graph(labels=labels, edges=[(0, 1), (1, 2), (2, 3)])
        return query, data

    def test_alternation_prunes_decoy(self):
        query, data = self.make_chain_case()
        cs = build_candidate_space(
            query, data, build_dag(query, data), refine_to_fixpoint=True
        )
        # At the fixpoint only the true chain survives: C(u) = 1 each...
        # except the decoy's A which also touches the true B.  The decoy
        # C (no D neighbor) must be gone.
        decoy_c = 6  # vertex id of the decoy C
        assert all(decoy_c not in c for c in cs.candidates)

    def test_three_steps_close_to_fixpoint(self):
        query, data = self.make_chain_case()
        dag = build_dag(query, data)
        three = build_candidate_space(query, data, dag, refinement_steps=3)
        fix = build_candidate_space(query, data, dag, refine_to_fixpoint=True)
        # The paper observed < 1% additional filtering after 3 steps; on
        # this small case they coincide exactly.
        assert three.size == fix.size


class TestSection3LeafDecomposition:
    """§3: degree-one vertices are matched last by the leaf matcher; the
    search over q[V'] is independent of the number of leaf candidates."""

    def test_core_search_independent_of_leaf_candidates(self):
        def instance(num_leaf_candidates: int):
            data = Graph()
            hub1 = data.add_vertex("P")
            hub2 = data.add_vertex("Q")
            data.add_edge(hub1, hub2)
            for _ in range(num_leaf_candidates):
                leaf = data.add_vertex("L")
                data.add_edge(hub1, leaf)
            data.freeze()
            query = Graph(labels=["P", "Q", "L"], edges=[(0, 1), (0, 2)])
            return query, data

        cfg = MatchConfig(collect_embeddings=False)
        calls = []
        for k in (5, 100):
            query, data = instance(k)
            result = DAFMatcher(cfg).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**9))
            )
            assert result.count == k
            calls.append(result.stats.recursive_calls)
        assert calls[0] == calls[1]


class TestAppendixA3NegativeQueries:
    """A.3: negativity proven by an empty CS costs zero search."""

    def test_empty_cs_means_zero_search(self, triangle_data):
        query = Graph(labels=["A", "missing"], edges=[(0, 1)])
        result = DAFMatcher().match(MatchRequest(query, triangle_data))
        assert result.count == 0
        assert result.stats.recursive_calls == 0
        assert result.stats.search_seconds < 0.1

    def test_structurally_negative_query_searches(self):
        """A negative query the CS cannot disprove explores the space."""
        from tests.test_failing_sets import make_failing_sibling_case

        query, data = make_failing_sibling_case(
            irrelevant_candidates=2, doomed_candidates=4
        )
        result = DAFMatcher().match(MatchRequest(query, data))
        assert result.count == 0
        # The CS is pairwise-consistent (non-empty), so the search must
        # actually run before concluding negativity.
        assert result.stats.candidates_total > 0
        assert result.stats.recursive_calls > 0


class TestSection5AdaptiveOrder:
    """§5.2: the adaptive order prefers the currently cheapest extendable
    vertex, so a huge irrelevant branch is postponed."""

    def test_small_branch_explored_first(self):
        # Root R with two branches: X (1 candidate), Y (many candidates).
        # If Y were matched first, the search would enumerate all Ys; the
        # path-size order matches X first and fails fast when X conflicts.
        data = Graph()
        hub = data.add_vertex("R")
        x = data.add_vertex("X")
        data.add_edge(hub, x)
        for _ in range(50):
            y = data.add_vertex("Y")
            data.add_edge(hub, y)
        data.freeze()
        # Query: R with two X neighbors -> injectively impossible, plus a
        # Y neighbor.  (leaf decomposition off so the order is visible.)
        query = Graph(labels=["R", "X", "X", "Y"], edges=[(0, 1), (0, 2), (0, 3)])
        result = DAFMatcher(
            MatchConfig(leaf_decomposition=False, collect_embeddings=False)
        ).match(
            MatchRequest(query, data)
        )
        assert result.count == 0
        # Fails on the X conflict before ever iterating the 50 Ys.
        assert result.stats.recursive_calls < 10
