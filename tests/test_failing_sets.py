"""Tests for failing-set pruning (paper §6).

The key correctness property is that pruning never changes the result
set; the key effectiveness property is the Figure 7 scenario — siblings
irrelevant to a failure must be skipped.
"""

import random

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.baselines import BruteForceMatcher
from repro.graph import Graph
from tests.conftest import random_graph_case


def make_failing_sibling_case(
    irrelevant_candidates: int = 10, doomed_candidates: int = 20
) -> tuple[Graph, Graph]:
    """The paper's Figure 7 / Example 6.1 shape, CS-proof.

    Query (vertex, label): u0=R, u1=A, u2=B, u3=C, u4=X with edges
    u0-u1, u0-u2, u0-u3, u1-u2, u1-u4, u2-u4.  u3 is the "irrelevant"
    vertex (u4 in the paper's example).

    Data: hub vR adjacent to m A-vertices, m B-vertices and k C-vertices.
    A_i-B_i edges form a diagonal; X_i is adjacent to A_i and B_{i+1}
    (anti-diagonal).  Every candidate is *pairwise* consistent — each
    A_i has an adjacent B and an adjacent X, so DAG-graph DP keeps the
    full CS — but the only adjacency-valid (A_i, B_i) pairs have
    ``N(A_i) ∩ N(B_i)`` empty on X, so every search branch dies at u4.

    The path-size order maps u3 first (k < m candidates), so without
    failing sets every one of the k C-candidates replays the doomed
    O(m) sub-search; with failing sets the first replay yields
    F = {u0, u1, u2, u4}, u3 is not in F, and Lemma 6.1 prunes the other
    k - 1 siblings.
    """
    m = doomed_candidates
    k = irrelevant_candidates
    data = Graph()
    hub = data.add_vertex("R")
    a = [data.add_vertex("A") for _ in range(m)]
    b = [data.add_vertex("B") for _ in range(m)]
    x = [data.add_vertex("X") for _ in range(m)]
    c = [data.add_vertex("C") for _ in range(k)]
    for i in range(m):
        data.add_edge(hub, a[i])
        data.add_edge(hub, b[i])
        data.add_edge(a[i], b[i])  # diagonal: the only valid (u1, u2) pairs
        data.add_edge(x[i], a[i])  # anti-diagonal X support
        data.add_edge(x[i], b[(i + 1) % m])
    for v in c:
        data.add_edge(hub, v)
    data.freeze()
    query = Graph(
        labels=["R", "A", "B", "C", "X"],
        edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4)],
    )
    return query, data


class TestCorrectness:
    def test_pruning_never_changes_results(self, rng):
        for _ in range(25):
            query, data = random_graph_case(rng)
            with_fs = DAFMatcher(MatchConfig(use_failing_sets=True)).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            )
            without_fs = DAFMatcher(MatchConfig(use_failing_sets=False)).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            )
            assert sorted(with_fs.embeddings) == sorted(without_fs.embeddings)

    def test_pruning_never_increases_calls(self, rng):
        for _ in range(25):
            query, data = random_graph_case(rng)
            with_fs = DAFMatcher(MatchConfig(use_failing_sets=True)).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            )
            without_fs = DAFMatcher(MatchConfig(use_failing_sets=False)).match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            )
            assert with_fs.stats.recursive_calls <= without_fs.stats.recursive_calls

    def test_correct_under_both_orders(self, rng):
        for _ in range(10):
            query, data = random_graph_case(rng)
            expected = sorted(BruteForceMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).embeddings)
            for order in ("path", "candidate"):
                result = DAFMatcher(MatchConfig(order=order)).match(
                    MatchRequest(query, data, options=MatchOptions(limit=10**6))
                )
                assert sorted(result.embeddings) == expected


class TestEffectiveness:
    def test_figure7_redundant_siblings_pruned(self):
        query, data = make_failing_sibling_case(
            irrelevant_candidates=10, doomed_candidates=20
        )
        da = DAFMatcher(
            MatchConfig(use_failing_sets=False, leaf_decomposition=False)
        ).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        )
        daf = DAFMatcher(
            MatchConfig(use_failing_sets=True, leaf_decomposition=False)
        ).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        )
        assert da.count == daf.count == 0
        # Without pruning, every C candidate replays the doomed (A, B)
        # sub-search (~k*m nodes); with failing sets only the first one
        # runs before Lemma 6.1 cuts the remaining k-1 siblings.
        assert daf.stats.recursive_calls < da.stats.recursive_calls / 4, (
            daf.stats.recursive_calls,
            da.stats.recursive_calls,
        )

    def test_pruning_scales_with_irrelevant_branch(self):
        """DAF's call count must stay flat as the irrelevant branch grows;
        DA's must grow linearly with it."""
        sizes = (5, 15)
        daf_calls = []
        da_calls = []
        for size in sizes:
            query, data = make_failing_sibling_case(
                irrelevant_candidates=size, doomed_candidates=20
            )
            cfg = dict(leaf_decomposition=False)
            daf_calls.append(
                DAFMatcher(MatchConfig(use_failing_sets=True, **cfg))
                .match(
                    MatchRequest(query, data)
                )
                .stats.recursive_calls
            )
            da_calls.append(
                DAFMatcher(MatchConfig(use_failing_sets=False, **cfg))
                .match(
                    MatchRequest(query, data)
                )
                .stats.recursive_calls
            )
        # DA replays the doomed O(m) sub-search per extra C-candidate.
        assert da_calls[1] >= da_calls[0] + (sizes[1] - sizes[0]) * 10
        assert daf_calls[1] <= daf_calls[0] + 3


class TestLeafClasses:
    def test_emptyset_class_zero_results(self):
        """A query vertex with an empty extendable-candidate set ends the
        branch immediately (no embeddings, few calls)."""
        data = Graph(labels=["R", "A"], edges=[(0, 1)])
        query = Graph(labels=["R", "A", "A"], edges=[(0, 1), (0, 2)])
        result = DAFMatcher().match(MatchRequest(query, data))
        assert result.count == 0

    def test_conflict_class_with_injectivity(self):
        """Two query vertices forced onto one data vertex -> conflict."""
        data = Graph(labels=["R", "A"], edges=[(0, 1)])
        # Query: R with two A neighbors that are also adjacent -> both As
        # must map to the single data A: impossible injectively.
        query = Graph(labels=["R", "A", "A"], edges=[(0, 1), (0, 2), (1, 2)])
        result = DAFMatcher().match(MatchRequest(query, data))
        assert result.count == 0

    def test_homomorphism_mode_allows_conflicts(self):
        data = Graph(labels=["R", "A"], edges=[(0, 1)])
        query = Graph(labels=["R", "A", "A"], edges=[(0, 1), (0, 2)])
        injective = DAFMatcher(MatchConfig(injective=True)).match(MatchRequest(query, data))
        homomorphic = DAFMatcher(MatchConfig(injective=False)).match(MatchRequest(query, data))
        assert injective.count == 0
        assert homomorphic.count == 1  # both As land on the same data A

    def test_seeded_stress_all_variants_agree(self):
        rng = random.Random(987)
        for _ in range(15):
            query, data = random_graph_case(rng, max_vertices=14, max_query=7)
            reference = None
            for use_fs in (True, False):
                for order in ("path", "candidate"):
                    for leaf in (True, False):
                        result = DAFMatcher(
                            MatchConfig(
                                use_failing_sets=use_fs,
                                order=order,
                                leaf_decomposition=leaf,
                            )
                        ).match(
                            MatchRequest(query, data, options=MatchOptions(limit=10**6))
                        )
                        key = sorted(result.embeddings)
                        if reference is None:
                            reference = key
                        else:
                            assert key == reference
