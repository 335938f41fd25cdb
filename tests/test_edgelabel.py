"""Tests for edge-labeled matching."""

import itertools
import random

import pytest

from repro import MatchConfig, MatchOptions, MatchRequest
from repro.core.candidate_space import MAX_FIXPOINT_STEPS
from repro.general import (
    EdgeLabeledDAFMatcher,
    EdgeLabeledGraph,
    edge_labeled_candidates,
    is_edge_labeled_embedding,
)


def _request(query, data, **options) -> MatchRequest:
    return MatchRequest(query, data, options=MatchOptions(**options))


def random_edge_labeled_case(rng: random.Random):
    """A data graph plus a planted connected subquery, both edge-labeled."""
    n = rng.randint(6, 12)
    data = EdgeLabeledGraph()
    for _ in range(n):
        data.add_vertex(rng.randrange(3))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                label = rng.choice(["r", "s"])
                data.add_edge(u, v, label)
                edges.append((u, v, label))
    data.freeze()
    # Plant: a connected induced sub-structure grown from a random seed.
    if not edges:
        return random_edge_labeled_case(rng)
    start = edges[rng.randrange(len(edges))][0]
    chosen = [start]
    chosen_set = {start}
    target = rng.randint(2, min(5, n))
    guard = 0
    while len(chosen) < target and guard < 200:
        guard += 1
        anchor = chosen[rng.randrange(len(chosen))]
        neighbors = data.skeleton.neighbors(anchor)
        if not neighbors:
            break
        nxt = neighbors[rng.randrange(len(neighbors))]
        if nxt not in chosen_set:
            chosen_set.add(nxt)
            chosen.append(nxt)
    mapping = {old: i for i, old in enumerate(chosen)}
    query = EdgeLabeledGraph()
    for old in chosen:
        query.add_vertex(data.label(old))
    for u, v, label in data.edges():
        if u in chosen_set and v in chosen_set:
            query.add_edge(mapping[u], mapping[v], label)
    query.freeze()
    return query, data


def oracle(query: EdgeLabeledGraph, data: EdgeLabeledGraph):
    results = []
    for perm in itertools.permutations(range(data.num_vertices), query.num_vertices):
        if is_edge_labeled_embedding(perm, query, data):
            results.append(perm)
    return sorted(results)


class TestEdgeLabeledGraph:
    def test_build_and_access(self):
        g = EdgeLabeledGraph.build(["A", "B", "C"], [(0, 1, "r"), (1, 2, "s")])
        assert g.edge_label(0, 1) == "r"
        assert g.edge_label(1, 0) == "r"  # undirected
        assert g.edge_label_counts(1) == {("A", "r"): 1, ("C", "s"): 1}

    def test_edges_iteration_with_labels(self):
        g = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "r")])
        assert list(g.edges()) == [(0, 1, "r")]


class TestCandidates:
    def test_edge_label_nlf(self):
        # Query A needs an "r"-edge to a B; the second data A only has "s".
        data = EdgeLabeledGraph.build(
            ["A", "A", "B", "B"], [(0, 2, "r"), (1, 3, "s")]
        )
        query = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "r")])
        assert edge_labeled_candidates(query, data, 0) == {0}


class TestMatching:
    def test_edge_label_must_match(self):
        query = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "knows")])
        data_r = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "knows")])
        data_s = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "employs")])
        matcher = EdgeLabeledDAFMatcher()
        assert matcher.count(query, data_r) == 1
        assert matcher.count(query, data_s) == 0

    def test_mixed_labels_on_triangle(self):
        # Triangle with edge labels r, r, s; query path over two r-edges.
        data = EdgeLabeledGraph.build(
            ["X", "X", "X"], [(0, 1, "r"), (1, 2, "r"), (0, 2, "s")]
        )
        query = EdgeLabeledGraph.build(["X", "X", "X"], [(0, 1, "r"), (1, 2, "r")])
        # Center must be vertex 1; the two ends swap: 2 embeddings.
        result = EdgeLabeledDAFMatcher().match(_request(query, data))
        assert sorted(result.embeddings) == [(0, 1, 2), (2, 1, 0)]

    def test_agrees_with_oracle_random(self, rng):
        for _ in range(20):
            query, data = random_edge_labeled_case(rng)
            expected = oracle(query, data)
            got = sorted(
                EdgeLabeledDAFMatcher().match(_request(query, data, limit=10**6)).embeddings
            )
            assert got == expected
            assert expected, "planted instance must embed"

    def test_variants_agree(self, rng):
        for _ in range(6):
            query, data = random_edge_labeled_case(rng)
            reference = None
            for order in ("path", "candidate"):
                for fs in (True, False):
                    for leaf in (True, False):
                        cfg = MatchConfig(
                            order=order, use_failing_sets=fs, leaf_decomposition=leaf
                        )
                        got = sorted(
                            EdgeLabeledDAFMatcher(cfg)
                            .match(_request(query, data, limit=10**6))
                            .embeddings
                        )
                        if reference is None:
                            reference = got
                        else:
                            assert got == reference

    def test_counting_mode(self, rng):
        import dataclasses

        for _ in range(6):
            query, data = random_edge_labeled_case(rng)
            full = EdgeLabeledDAFMatcher().match(_request(query, data, limit=10**6)).count
            cfg = dataclasses.replace(MatchConfig(), collect_embeddings=False)
            assert EdgeLabeledDAFMatcher(cfg).match(_request(query, data, limit=10**6)).count == full

    def test_homomorphism_mode(self):
        query = EdgeLabeledGraph.build(
            ["A", "B", "A"], [(0, 1, "r"), (1, 2, "r")]
        )
        data = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "r")])
        injective = EdgeLabeledDAFMatcher().match(_request(query, data))
        folded = EdgeLabeledDAFMatcher(MatchConfig(injective=False)).match(_request(query, data))
        assert injective.count == 0
        assert folded.count == 1

    def test_induced_rejected(self):
        with pytest.raises(ValueError, match="induced"):
            EdgeLabeledDAFMatcher(MatchConfig(induced=True))

    def test_negative_by_preprocessing(self):
        query = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "ghost")])
        data = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "r")])
        result = EdgeLabeledDAFMatcher().match(_request(query, data))
        assert result.count == 0
        assert result.stats.recursive_calls == 0


class TestRefineToFixpoint:
    def test_flag_stops_after_an_unchanged_pass(self):
        query = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "r")])
        data = EdgeLabeledGraph.build(["A", "B"], [(0, 1, "r")])
        plain = EdgeLabeledDAFMatcher().match(_request(query, data))
        fixpoint = EdgeLabeledDAFMatcher(MatchConfig(refine_to_fixpoint=True)).match(
            _request(query, data)
        )
        assert plain.stats.filter_iterations == 3
        assert fixpoint.stats.filter_iterations == 2
        assert fixpoint.embeddings == plain.embeddings == [(0, 1)]

    def test_fixpoint_is_stable_and_keeps_every_embedding(self, rng):
        for _ in range(10):
            query, data = random_edge_labeled_case(rng)
            config = MatchConfig(refine_to_fixpoint=True)
            fixed = EdgeLabeledDAFMatcher(config).prepare(query, data).cs
            longer = EdgeLabeledDAFMatcher(
                MatchConfig(refinement_steps=fixed.refinement_steps + 2)
            ).prepare(query, data).cs
            assert 2 <= fixed.refinement_steps <= MAX_FIXPOINT_STEPS
            assert fixed.candidates == longer.candidates
            got = EdgeLabeledDAFMatcher(config).match(_request(query, data, limit=10**6))
            assert sorted(got.embeddings) == oracle(query, data)


class TestLeafCountingOnFilteredRows:
    """Counting mode's leaf counter tests occupancy against the leaf's CS
    row.  Here a mapped core vertex's image is a data neighbour of the
    leaf parent's image and a candidate of the leaf, but over the wrong
    edge label, so it is not in the leaf's row and takes no slot."""

    # Query: A0 -r- B1 (the leaf), A0 -s- B2, B2 -r- C3, A0 -r- C3.
    QUERY = EdgeLabeledGraph.build(
        ["A", "B", "B", "C"], [(0, 1, "r"), (0, 2, "s"), (2, 3, "r"), (0, 3, "r")]
    )
    # Data: a=0, b1=1, b2=2, c=3 embed the core with a -s- b2; a second
    # copy a2=4, b3=5, c2=6 gives b2 an r-edge to an A (a2 -r- b2), so
    # b2 is a candidate of the leaf.
    DATA = EdgeLabeledGraph.build(
        ["A", "B", "B", "C", "A", "B", "C"],
        [
            (0, 1, "r"), (0, 2, "s"), (2, 3, "r"), (0, 3, "r"),
            (4, 2, "r"), (4, 5, "s"), (5, 6, "r"), (4, 6, "r"),
        ],
    )

    def test_instance_has_adjacent_occupier_outside_row(self):
        prepared = EdgeLabeledDAFMatcher().prepare(self.QUERY, self.DATA)
        cs, dag = prepared.cs, prepared.dag
        assert dag.parents(1) == (0,)
        leaf_index = cs.candidate_index[1]
        assert 2 in leaf_index  # b2 can host the leaf ...
        row = cs.down[0][1][cs.candidate_index[0][0]]
        assert leaf_index[2] not in row  # ... but not next to a
        assert self.DATA.skeleton.has_edge(0, 2)

    def test_count_only_equals_collect_and_oracle(self):
        expected = len(oracle(self.QUERY, self.DATA))
        assert expected == 2
        for fs in (True, False):
            collected = EdgeLabeledDAFMatcher(MatchConfig(use_failing_sets=fs)).match(
                _request(self.QUERY, self.DATA, limit=10**6)
            )
            counted = EdgeLabeledDAFMatcher(
                MatchConfig(use_failing_sets=fs, collect_embeddings=False)
            ).match(_request(self.QUERY, self.DATA, limit=10**6))
            assert collected.count == counted.count == expected
