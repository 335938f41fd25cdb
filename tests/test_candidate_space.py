"""Unit tests for the CS structure and DAG-graph DP (paper §4)."""

import hashlib
import itertools
import random

import pytest

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.baselines import BruteForceMatcher
from repro.core import build_candidate_space, build_dag, has_weak_embedding
from repro.core.candidate_space import config_build_options
from repro.graph import Graph
from repro.obs import MetricsRegistry
from repro.obs.explain import explain
from tests.conftest import make_cartesian_trap, random_graph_case


def build_cs(query, data, **kwargs):
    dag = build_dag(query, data)
    return build_candidate_space(query, data, dag, **kwargs)


class TestSoundness:
    """Definition 4.2: every true embedding survives in the CS."""

    def test_sound_on_random_cases(self, rng):
        for _ in range(20):
            query, data = random_graph_case(rng)
            cs = build_cs(query, data)
            embeddings = BruteForceMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=200))
            ).embeddings
            for embedding in embeddings:
                for u in query.vertices():
                    assert embedding[u] in cs.candidate_index[u], (
                        f"vertex {embedding[u]} pruned from C({u}) despite embedding"
                    )

    def test_sound_with_fixpoint_refinement(self, rng):
        for _ in range(10):
            query, data = random_graph_case(rng)
            cs = build_cs(query, data, refine_to_fixpoint=True)
            embeddings = BruteForceMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=100))
            ).embeddings
            for embedding in embeddings:
                for u in query.vertices():
                    assert embedding[u] in cs.candidate_index[u]

    def test_cs_edges_match_definition(self, rng):
        """Condition 2: CS edge iff query edge and data edge."""
        for _ in range(10):
            query, data = random_graph_case(rng)
            cs = build_cs(query, data)
            for u in query.vertices():
                for u_c in cs.dag.children(u):
                    for i, v in enumerate(cs.candidates[u]):
                        listed = {cs.candidates[u_c][j] for j in cs.down[u][u_c][i]}
                        expected = {
                            w for w in cs.candidates[u_c] if data.has_edge(v, w)
                        }
                        assert listed == expected


class TestEquivalence:
    """Theorem 4.1: embeddings of q in G == embeddings of q in the CS."""

    def test_search_in_cs_equals_search_in_g(self, rng):
        from repro import DAFMatcher

        for _ in range(15):
            query, data = random_graph_case(rng)
            via_cs = sorted(DAFMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).embeddings)
            via_g = sorted(BruteForceMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=10**6))
            ).embeddings)
            assert via_cs == via_g


class TestRefinement:
    def test_refinement_only_shrinks(self, rng):
        for _ in range(10):
            query, data = random_graph_case(rng)
            one = build_cs(query, data, refinement_steps=1, use_local_filters=False)
            three = build_cs(query, data, refinement_steps=3, use_local_filters=False)
            for u in query.vertices():
                assert set(three.candidates[u]) <= set(one.candidates[u])

    def test_fixpoint_no_larger_than_three_steps(self, rng):
        for _ in range(10):
            query, data = random_graph_case(rng)
            three = build_cs(query, data, refinement_steps=3)
            fix = build_cs(query, data, refine_to_fixpoint=True)
            assert fix.size <= three.size

    def test_homomorphism_fixpoint_skips_local_filters(self):
        # MND/NLF assume injectivity: A-B-A folds onto the one data edge
        # only if the fixpoint loop leaves them off like the fixed one.
        data = Graph(labels=["A", "B"], edges=[(0, 1)])
        query = Graph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])
        oracle = [
            image
            for image in itertools.product(data.vertices(), repeat=query.num_vertices)
            if all(data.label(image[u]) == query.label(u) for u in query.vertices())
            and all(data.has_edge(image[a], image[b]) for a, b in query.edges())
        ]
        config = MatchConfig(injective=False, refine_to_fixpoint=True)
        result = DAFMatcher(config).match(MatchRequest(query, data))
        assert oracle == [(0, 1, 0)]
        assert sorted(result.embeddings) == oracle

    def test_refinement_steps_recorded(self, triangle_data, edge_query):
        cs = build_cs(edge_query, triangle_data, refinement_steps=5)
        assert cs.refinement_steps == 5

    def test_invalid_dag_rejected(self, triangle_data, edge_query, square_data):
        dag = build_dag(edge_query, triangle_data)
        other_query = Graph(labels=["A", "B"], edges=[(0, 1)])
        with pytest.raises(ValueError, match="orient"):
            build_candidate_space(other_query, triangle_data, dag)

    def test_initial_sets_override(self, triangle_data, edge_query):
        dag = build_dag(edge_query, triangle_data)
        cs = build_candidate_space(
            edge_query,
            triangle_data,
            dag,
            initial_sets=[{0}, {1}],
            use_local_filters=False,
        )
        assert cs.candidates[0] == [0]
        assert cs.candidates[1] == [1]

    def test_initial_sets_wrong_length_rejected(self, triangle_data, edge_query):
        dag = build_dag(edge_query, triangle_data)
        with pytest.raises(ValueError, match="one candidate set per"):
            build_candidate_space(edge_query, triangle_data, dag, initial_sets=[{0}])


class TestCartesianTrap:
    """The Figure 2 scenario: non-tree edges must prune candidates."""

    def test_full_edge_filtering_prunes_trap(self):
        query, data = make_cartesian_trap(branch_a=5, branch_b=8)
        cs = build_cs(query, data)
        # Only the connected (X, Y) pair survives: sizes 1 + 1 + 1.
        assert cs.size == 3

    def test_weak_embedding_reference_agrees_with_dp(self, rng):
        for _ in range(8):
            query, data = random_graph_case(rng, max_vertices=10, max_query=4)
            dag = build_dag(query, data)
            cs = build_candidate_space(query, data, dag, refine_to_fixpoint=True)
            # At the fixpoint every surviving candidate has weak embeddings
            # in both directions (the DP's invariant).
            for u in query.vertices():
                for v in cs.candidates[u]:
                    assert has_weak_embedding(cs, dag, u, v)
                    assert has_weak_embedding(cs, dag.reverse(), u, v)


def star_with_one_gate():
    """Star query A(B, C) on data where the only B vertex borders three of
    forty A vertices: B is the DAG root with one candidate, and A's label
    bucket is large."""
    query = Graph(labels=["A", "B", "C"], edges=[(0, 1), (0, 2)])
    # 0 = the B vertex, 1..40 = A vertices, 41..81 = C vertices.
    labels = ["B"] + ["A"] * 40 + ["C"] * 41
    edges = [(0, 1), (0, 2), (0, 3)]
    edges += [(a, 40 + a) for a in range(1, 41)]
    edges += [(a, 41 + a) for a in range(1, 41)]
    return query, Graph(labels=labels, edges=edges), 0


def path_with_equal_pools():
    """Path query X-Y-Z where C(Y) after the first pass is as large as
    Z's bucket, so generation declines, and one Z vertex (9) lies outside
    N(C(Y))."""
    query = Graph(labels=["X", "Y", "Z"], edges=[(0, 1), (1, 2)])
    # 0 = x, 1..6 = Y vertices, 7..9 = Z vertices.
    labels = ["X"] + ["Y"] * 6 + ["Z"] * 3
    edges = [(0, 1), (0, 2), (0, 3), (1, 7), (2, 7), (3, 8)]
    edges += [(4, 9), (5, 9), (6, 9), (4, 5), (5, 6)]
    return query, Graph(labels=labels, edges=edges)


def assert_matches_oracle(query, data):
    request = MatchRequest(query, data, MatchOptions(limit=10**6))
    expected = sorted(BruteForceMatcher().match(request).embeddings)
    assert expected
    assert sorted(DAFMatcher().match(request).embeddings) == expected


class TestCandidateGeneration:
    """A pass tests only ``C(u) & N(C(u*))`` for the smallest child set
    ``u*``, and only when ``|C(u*)|`` is below the set it narrows."""

    def test_generation_tests_only_the_gate_neighbourhood(self, local_filter_calls):
        query, data, gate = star_with_one_gate()
        cs = build_cs(query, data)
        tested_a = [v for v in local_filter_calls if data.label(v) == "A"]
        assert len(tested_a) <= data.degree(gate) < len(data.vertices_with_label("A"))
        assert cs.candidates[0] == [1, 2, 3]
        assert_matches_oracle(query, data)

    def test_cost_rule_declines_when_child_set_is_not_smaller(self, local_filter_calls):
        query, data = path_with_equal_pools()
        cs = build_cs(query, data)
        assert cs.dag.root == 0
        tested_z = [v for v in local_filter_calls if data.label(v) == "Z"]
        # |C(Y)| == |C_ini(Z)| == 3: Z's whole bucket is tested, including
        # vertex 9, which generation would have dropped untested.
        assert sorted(tested_z) == [7, 8, 9]
        assert cs.candidates[2] == [7, 8]
        assert_matches_oracle(query, data)

    def test_dropped_candidates_count_as_cs_edge_prunes(self):
        query, data, _ = star_with_one_gate()
        observer = MetricsRegistry()
        build_cs(query, data, observer=observer)
        # Pass 1 drops the 37 A vertices and 37 C vertices outside the
        # generated pools; the DP and MND/NLF reject nothing else.
        assert observer.prune_cs_edge == 37 + 37
        assert observer.prune_label_degree == 0


class TestStructure:
    def test_size_is_total_candidates(self, triangle_data, edge_query):
        cs = build_cs(edge_query, triangle_data)
        assert cs.size == sum(len(c) for c in cs.candidates)
        assert cs.size == 3  # A -> {0}, B -> {1, 2}

    def test_num_edges_counts_cs_edges(self, triangle_data, edge_query):
        cs = build_cs(edge_query, triangle_data)
        assert cs.num_edges == 2  # v0 adjacent to both B candidates

    def test_is_empty_detects_negative_query(self, triangle_data):
        query = Graph(labels=["A", "Z"], edges=[(0, 1)])
        cs = build_cs(query, triangle_data)
        assert cs.is_empty()

    def test_neighbors_down_uses_data_vertices(self, triangle_data, edge_query):
        cs = build_cs(edge_query, triangle_data)
        root = cs.dag.root
        (child,) = cs.dag.children(root)
        v = cs.candidates[root][0]
        assert set(cs.neighbors_down(root, child, v)) <= set(cs.candidates[child])


# ----------------------------------------------------------------------
# Golden candidate spaces
# ----------------------------------------------------------------------
# A seeded corpus (every other data graph indexed) is prepared under each
# config and pinned on a digest of the candidate lists, the ``down``
# adjacency, the pass count, and the two refinement prune counters.  The
# values were recorded before incremental refresh was folded into
# BuildCS's pass loop, so any drift in refinement, edge materialization or
# prune accounting fails here.  The split of the three configs that run
# local filters was re-recorded when the DP pass began testing only the
# smallest child's neighbourhood: a candidate outside it now counts as
# ``prune_cs_edge`` before MND/NLF can reject it (``GOLDEN_CS_INVARIANT``
# holds the totals fixed).

GOLDEN_CS_CONFIGS = {
    "default": MatchConfig(),
    "fixpoint": MatchConfig(refine_to_fixpoint=True),
    "homomorphism": MatchConfig(injective=False),
    "no-local-filters": MatchConfig(use_local_filters=False),
    "one-step": MatchConfig(refinement_steps=1),
}

GOLDEN_CS = {
    "default": "f7b0e32273eac4d5",
    "fixpoint": "3bc9dec367bcde28",
    "homomorphism": "8ee1a8800e7599f4",
    "no-local-filters": "e033b6428903099f",
    "one-step": "51830c1599c0a8a5",
}


#: The same corpus pinned on what refinement must never change: the
#: candidate lists, ``down``, the pass count and the *total* of the two
#: prune counters.  A change that only moves rejections from one reason
#: to the other (say, a pass that generates its tested set instead of
#: filtering the whole bucket) keeps these digests and re-records only
#: ``GOLDEN_CS``.
GOLDEN_CS_INVARIANT = {
    "default": "8d18c28b790f8410",
    "fixpoint": "def71ca191d7bd83",
    "homomorphism": "5a98e783af0ff7a4",
    "no-local-filters": "5afe309fdf0c6a24",
    "one-step": "71b3b9250a3bb75d",
}


def _golden_cs_digest(config, split_prunes=True):
    rng = random.Random(20190630)
    digest = hashlib.sha256()
    for case in range(60):
        query, data = random_graph_case(rng, max_vertices=50, max_query=8)
        if case % 2:
            data.ensure_index()
        observer = MetricsRegistry()
        cs = DAFMatcher(config).prepare(query, data, observer=observer).cs
        if split_prunes:
            prunes = (observer.prune_label_degree, observer.prune_cs_edge)
        else:
            prunes = (observer.prune_label_degree + observer.prune_cs_edge,)
        pinned = (cs.candidates, cs.down, cs.refinement_steps, *prunes)
        digest.update(repr(pinned).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("key", list(GOLDEN_CS_CONFIGS))
def test_golden_candidate_space(key):
    assert _golden_cs_digest(GOLDEN_CS_CONFIGS[key]) == GOLDEN_CS[key]


@pytest.mark.parametrize("key", list(GOLDEN_CS_CONFIGS))
def test_golden_candidate_space_invariant(key):
    digest = _golden_cs_digest(GOLDEN_CS_CONFIGS[key], split_prunes=False)
    assert digest == GOLDEN_CS_INVARIANT[key]


# ----------------------------------------------------------------------
# Refinement trail: per-pass removals
# ----------------------------------------------------------------------
# ``trail[k][u]`` holds what pass k + 1 removed from C(u); the set after
# pass k is the final C(u) plus every later removal.

TRAIL_CONFIGS = {
    "default": MatchConfig(),
    "fixpoint": MatchConfig(refine_to_fixpoint=True),
    "homomorphism": MatchConfig(injective=False),
    "no-local-filters": MatchConfig(use_local_filters=False),
    "one-step": MatchConfig(refinement_steps=1),
    "homomorphism-fixpoint": MatchConfig(injective=False, refine_to_fixpoint=True),
}


def _trail_cases(config, count=12):
    rng = random.Random(20190630)
    for _ in range(count):
        query, data = random_graph_case(rng, max_vertices=30, max_query=7)
        dag = build_dag(query, data)
        options = config_build_options(config, query, data)
        cs = build_candidate_space(query, data, dag, **options, keep_trail=True)

        def cold(steps):
            fixed = dict(options, refinement_steps=steps, refine_to_fixpoint=False)
            return build_candidate_space(query, data, dag, **fixed)

        yield cs, cold


def _pass_set(cs, k, u):
    """C(u) after pass ``k`` of ``cs`` (``k = 0``: C_ini), from the trail."""
    return set(cs.candidates[u]).union(*(removed[u] for removed in cs.trail[k:]))


@pytest.mark.parametrize("key", list(TRAIL_CONFIGS))
class TestRefinementTrail:
    def test_pass_set_equals_cold_build_with_that_many_steps(self, key):
        for cs, cold in _trail_cases(TRAIL_CONFIGS[key]):
            assert len(cs.trail) == cs.refinement_steps
            for k in range(min(3, cs.refinement_steps) + 1):
                expected = cold(k).candidates
                for u in cs.query.vertices():
                    assert sorted(_pass_set(cs, k, u)) == expected[u], (k, u)

    def test_trail_holds_exactly_the_removed_candidates(self, key):
        for cs, cold in _trail_cases(TRAIL_CONFIGS[key]):
            removed = [v for step in cs.trail for row in step for v in row]
            assert len(removed) == cold(0).size - cs.size
            # A C(u) a pass left alone shares one empty entry.
            assert len({id(row) for step in cs.trail for row in step if not row}) <= 1
            for step in cs.trail:
                for u, row in enumerate(step):
                    assert len(set(row)) == len(row)
                    assert not set(row) & set(cs.candidates[u])


def test_explain_sizes_per_step_are_pinned():
    """A seeded case whose sizes move in every pass; under fixpoint the
    run stops after pass 4 and the later steps repeat its sizes."""
    query, data = random_graph_case(random.Random(5), max_vertices=30, max_query=7)
    after = [
        {0: 2, 1: 2, 2: 1, 3: 1, 4: 2},
        {0: 1, 1: 2, 2: 1, 3: 1, 4: 2},
        {0: 1, 1: 1, 2: 1, 3: 1, 4: 2},
    ]
    assert explain(query, data).candidate_sizes_per_step == after
    plan = explain(query, data, MatchConfig(refine_to_fixpoint=True, refinement_steps=6))
    assert plan.candidate_sizes_per_step == after + [after[-1]] * 3
