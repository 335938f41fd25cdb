"""Tests for directed subgraph matching."""

import random

import pytest

from repro import MatchConfig
from repro.directed import (
    DirectedBruteForce,
    DirectedDAFMatcher,
    DirectedGraph,
    DirectedGraphError,
    build_directed_candidate_space,
    directed_initial_candidates,
    is_directed_embedding,
    passes_directed_nlf,
)


def random_digraph(rng: random.Random, n: int, m: int, labels: int) -> DirectedGraph:
    g = DirectedGraph()
    for _ in range(n):
        g.add_vertex(rng.randrange(labels))
    added = set()
    attempts = 0
    while len(added) < m and attempts < 50 * m:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in added:
            added.add((u, v))
            g.add_edge(u, v)
    return g.freeze()


def random_directed_case(rng: random.Random):
    """A directed data graph plus a weakly-connected sub-digraph query
    guaranteed to embed."""
    n = rng.randint(6, 14)
    data = random_digraph(rng, n, rng.randint(n, 3 * n), rng.randint(1, 3))
    # Grow a weakly-connected vertex set by walking und-adjacency.
    start = rng.randrange(n)
    chosen = [start]
    chosen_set = {start}
    target = rng.randint(2, min(6, n))
    guard = 0
    while len(chosen) < target and guard < 300:
        guard += 1
        anchor = chosen[rng.randrange(len(chosen))]
        neighbors = list(data.out_neighbors(anchor)) + list(data.in_neighbors(anchor))
        if not neighbors:
            anchor = rng.randrange(n)
            continue
        nxt = neighbors[rng.randrange(len(neighbors))]
        if nxt not in chosen_set:
            chosen_set.add(nxt)
            chosen.append(nxt)
    mapping = {old: i for i, old in enumerate(chosen)}
    query = DirectedGraph()
    for old in chosen:
        query.add_vertex(data.label(old))
    for u, v in data.edges():
        if u in chosen_set and v in chosen_set:
            query.add_edge(mapping[u], mapping[v])
    query.freeze()
    # The query may be weakly disconnected if the walk picked islands;
    # retry via recursion in that case.
    from repro.graph.properties import is_connected

    und, _ = query.to_undirected()
    if query.num_vertices > 1 and not is_connected(und):
        return random_directed_case(rng)
    return query, data


class TestDirectedGraph:
    def test_basic_structure(self):
        g = DirectedGraph(labels=["A", "B", "C"], edges=[(0, 1), (1, 2), (2, 0)])
        assert g.out_neighbors(0) == (1,)
        assert g.in_neighbors(0) == (2,)
        assert g.out_degree(1) == g.in_degree(1) == 1
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_antiparallel_pair_allowed(self):
        g = DirectedGraph(labels=["A", "B"], edges=[(0, 1), (1, 0)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.num_edges == 2

    def test_duplicate_and_self_loop_rejected(self):
        g = DirectedGraph()
        g.add_vertex("A")
        g.add_vertex("B")
        g.add_edge(0, 1)
        with pytest.raises(DirectedGraphError, match="duplicate"):
            g.add_edge(0, 1)
        with pytest.raises(DirectedGraphError, match="self-loop"):
            g.add_edge(0, 0)

    def test_label_counts(self):
        g = DirectedGraph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2), (1, 0)])
        assert g.out_label_counts(0) == {"B": 2}
        assert g.in_label_counts(0) == {"B": 1}

    def test_to_undirected_merges_antiparallel(self):
        g = DirectedGraph(labels=["A", "B", "C"], edges=[(0, 1), (1, 0), (1, 2)])
        und, directions = g.to_undirected()
        assert und.num_edges == 2
        assert directions[(0, 1)] == "both"
        assert directions[(1, 2)] == "fwd"

    def test_to_undirected_bwd_code(self):
        g = DirectedGraph(labels=["A", "B"], edges=[(1, 0)])
        _, directions = g.to_undirected()
        assert directions[(0, 1)] == "bwd"


class TestDirectedFilters:
    def test_initial_candidates_degree_split(self):
        # Query vertex with out-degree 1: a data vertex with only an
        # incoming edge must be rejected.
        query = DirectedGraph(labels=["A", "B"], edges=[(0, 1)])
        data = DirectedGraph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])
        assert directed_initial_candidates(query, data, 0) == {0}

    def test_directed_nlf(self):
        query = DirectedGraph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2)])
        data_good = DirectedGraph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2)])
        data_bad = DirectedGraph(labels=["A", "B", "B"], edges=[(0, 1), (2, 0)])
        assert passes_directed_nlf(query, data_good, 0, 0)
        assert not passes_directed_nlf(query, data_bad, 0, 0)


class TestDirectedMatching:
    def test_orientation_matters(self):
        query = DirectedGraph(labels=["A", "B"], edges=[(0, 1)])
        forward = DirectedGraph(labels=["A", "B"], edges=[(0, 1)])
        backward = DirectedGraph(labels=["A", "B"], edges=[(1, 0)])
        matcher = DirectedDAFMatcher()
        assert matcher.count(query, forward) == 1
        assert matcher.count(query, backward) == 0

    def test_antiparallel_query_needs_antiparallel_data(self):
        query = DirectedGraph(labels=["A", "B"], edges=[(0, 1), (1, 0)])
        single = DirectedGraph(labels=["A", "B"], edges=[(0, 1)])
        double = DirectedGraph(labels=["A", "B"], edges=[(0, 1), (1, 0)])
        matcher = DirectedDAFMatcher()
        assert matcher.count(query, single) == 0
        assert matcher.count(query, double) == 1

    def test_directed_cycle_in_bidirected_triangle(self):
        cycle = DirectedGraph(labels=["A"] * 3, edges=[(0, 1), (1, 2), (2, 0)])
        bidirected = DirectedGraph(
            labels=["A"] * 3,
            edges=[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)],
        )
        matcher = DirectedDAFMatcher()
        # Every cyclic ordering of the 3 vertices works: 3! = 6 mappings.
        assert matcher.count(cycle, bidirected) == 6
        # In a single directed triangle only the 3 rotations match.
        assert matcher.count(cycle, cycle) == 3

    def test_agrees_with_bruteforce_random(self, rng):
        for _ in range(25):
            query, data = random_directed_case(rng)
            expected = sorted(DirectedBruteForce().match(query, data, limit=10**6).embeddings)
            got = sorted(DirectedDAFMatcher().match(query, data, limit=10**6).embeddings)
            assert got == expected
            assert expected, "planted sub-digraph must embed"
            for e in got[:5]:
                assert is_directed_embedding(e, query, data)

    def test_all_config_variants_agree(self, rng):
        for _ in range(8):
            query, data = random_directed_case(rng)
            reference = None
            for order in ("path", "candidate"):
                for fs in (True, False):
                    for leaf in (True, False):
                        cfg = MatchConfig(order=order, use_failing_sets=fs, leaf_decomposition=leaf)
                        got = sorted(
                            DirectedDAFMatcher(cfg).match(query, data, limit=10**6).embeddings
                        )
                        if reference is None:
                            reference = got
                        else:
                            assert got == reference

    def test_counting_mode(self, rng):
        import dataclasses

        for _ in range(8):
            query, data = random_directed_case(rng)
            full = DirectedDAFMatcher().match(query, data, limit=10**6).count
            cfg = dataclasses.replace(MatchConfig(), collect_embeddings=False)
            assert DirectedDAFMatcher(cfg).match(query, data, limit=10**6).count == full

    def test_homomorphism_mode(self):
        # A -> B -> A chain can fold its endpoints onto one data A.
        query = DirectedGraph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])
        data = DirectedGraph(labels=["A", "B"], edges=[(0, 1), (1, 0)])
        injective = DirectedDAFMatcher().match(query, data)
        folded = DirectedDAFMatcher(MatchConfig(injective=False)).match(query, data)
        assert injective.count == 0
        assert folded.count == 1

    def test_limit_and_flags(self):
        query = DirectedGraph(labels=["A", "B"], edges=[(0, 1)])
        data = DirectedGraph(
            labels=["A", "B", "B", "B"], edges=[(0, 1), (0, 2), (0, 3)]
        )
        result = DirectedDAFMatcher().match(query, data, limit=2)
        assert result.count == 2
        assert result.limit_reached

    def test_induced_rejected(self):
        with pytest.raises(ValueError, match="induced"):
            DirectedDAFMatcher(MatchConfig(induced=True))

    def test_negative_query_empty_cs(self):
        query = DirectedGraph(labels=["A", "Z"], edges=[(0, 1)])
        data = DirectedGraph(labels=["A", "B"], edges=[(0, 1)])
        result = DirectedDAFMatcher().match(query, data)
        assert result.count == 0
        assert result.stats.recursive_calls == 0


class TestDirectedCS:
    def test_cs_sound_for_directed_embeddings(self, rng):
        for _ in range(10):
            query, data = random_directed_case(rng)
            cs, _ = build_directed_candidate_space(query, data)
            for e in DirectedBruteForce().match(query, data, limit=100).embeddings:
                for u in query.vertices():
                    assert e[u] in cs.candidate_index[u]

    def test_cs_direction_aware_edges(self):
        """The CS must NOT contain edges in the wrong orientation."""
        query = DirectedGraph(labels=["A", "B"], edges=[(0, 1)])
        # Data: A0 -> B1 (good), B2 -> A0 (wrong direction for the query).
        data = DirectedGraph(labels=["A", "B", "B"], edges=[(0, 1), (2, 0)])
        cs, dag = build_directed_candidate_space(query, data)
        # B2 must not be a candidate of the query B (in-degree mismatch
        # catches it at C_ini already: query B has in-degree 1, B2 has 0).
        assert 2 not in cs.candidate_index[1]


def _filtered_row_instance(reverse: bool):
    """Query A0 -> B1 (the leaf), B2 -> A0, B2 -> C3, C3 -> A0, and data
    in which a=0, b1=1, b2=2, c=3 embed the core with b2 -> a; a second
    copy a2=4, b3=5, c2=6 gives b2 an in-edge from an A (a2 -> b2), so
    b2 is a candidate of the leaf.  ``reverse`` flips every edge of both
    graphs, which makes the leaf's row the parent's in-neighbours."""
    query_edges = [(0, 1), (2, 0), (2, 3), (3, 0)]
    data_edges = [(0, 1), (2, 0), (2, 3), (3, 0), (4, 2), (5, 4), (5, 6), (6, 4)]
    if reverse:
        query_edges = [(v, u) for u, v in query_edges]
        data_edges = [(v, u) for u, v in data_edges]
    query = DirectedGraph(labels=["A", "B", "B", "C"], edges=query_edges)
    data = DirectedGraph(labels=["A", "B", "B", "C", "A", "B", "C"], edges=data_edges)
    return query, data


class TestLeafCountingOnFilteredRows:
    """Counting mode's leaf counter tests occupancy against the leaf's CS
    row.  Here a mapped core vertex's image (b2) is a data neighbour of
    the leaf parent's image (a) and a candidate of the leaf, but the edge
    between them runs the wrong way, so b2 is not in the leaf's row and
    takes no slot."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_instance_has_adjacent_occupier_outside_row(self, reverse):
        query, data = _filtered_row_instance(reverse)
        cs, dag = build_directed_candidate_space(query, data)
        assert dag.parents(1) == (0,)
        leaf_index = cs.candidate_index[1]
        assert 2 in leaf_index  # b2 can host the leaf ...
        row = cs.down[0][1][cs.candidate_index[0][0]]
        assert leaf_index[2] not in row  # ... but not next to a
        assert data.has_edge(0, 2) if reverse else data.has_edge(2, 0)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_count_only_equals_collect_and_bruteforce(self, reverse):
        query, data = _filtered_row_instance(reverse)
        expected = DirectedBruteForce().match(query, data, limit=10**6).count
        assert expected == 2
        for fs in (True, False):
            collected = DirectedDAFMatcher(MatchConfig(use_failing_sets=fs)).match(
                query, data, limit=10**6
            )
            counted = DirectedDAFMatcher(
                MatchConfig(use_failing_sets=fs, collect_embeddings=False)
            ).match(query, data, limit=10**6)
            assert collected.count == counted.count == expected
