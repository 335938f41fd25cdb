"""Tests for the §2 generalizations: disconnected queries, multi-label."""

import itertools
import random

import pytest

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.general import (
    BRIDGE_LABEL,
    DisconnectedDAFMatcher,
    MultiLabelDAFMatcher,
    bridge_graphs,
    is_multilabel_embedding,
    multilabel_candidates,
    multilabel_graph,
    passes_multilabel_nlf,
)
from repro.graph import Graph, complete_graph, path_graph
from tests.conftest import random_graph_case


def disconnected_oracle(query: Graph, data: Graph) -> list[tuple[int, ...]]:
    """Brute-force: all injective label/edge-preserving assignments."""
    n = query.num_vertices
    results = []
    candidates = [
        [v for v in data.vertices() if data.label(v) == query.label(u)]
        for u in query.vertices()
    ]

    def extend(u: int, mapping: list[int], used: set[int]) -> None:
        if u == n:
            results.append(tuple(mapping))
            return
        for v in candidates[u]:
            if v in used:
                continue
            if any(
                w < u and query.has_edge(u, w) and not data.has_edge(v, mapping[w])
                for w in range(u)
            ):
                continue
            mapping.append(v)
            used.add(v)
            extend(u + 1, mapping, used)
            used.discard(v)
            mapping.pop()

    extend(0, [], set())
    return sorted(results)


class TestBridge:
    def test_bridge_structures(self):
        query = Graph(labels=["A", "B"], edges=[])  # two components
        data = Graph(labels=["A", "B", "B"], edges=[(0, 1)])
        bq, bd = bridge_graphs(query, data)
        assert bq.num_vertices == 3
        assert bq.num_edges == 2  # bridge to each component
        assert bd.num_vertices == 4
        assert bd.num_edges == data.num_edges + data.num_vertices
        from repro.graph import is_connected

        assert is_connected(bq)

    def test_reserved_label_rejected(self):
        query = Graph(labels=[BRIDGE_LABEL], edges=[])
        data = Graph(labels=["A"], edges=[])
        with pytest.raises(ValueError, match="reserved"):
            bridge_graphs(query, data)


class TestDisconnectedMatcher:
    def test_two_isolated_vertices(self):
        query = Graph(labels=["A", "B"], edges=[])
        data = Graph(labels=["A", "B", "B"], edges=[(0, 1)])
        result = DisconnectedDAFMatcher().match(MatchRequest(query, data))
        assert sorted(result.embeddings) == [(0, 1), (0, 2)]

    def test_injectivity_across_components(self):
        """Two same-label isolated query vertices must use distinct data
        vertices: ordered pairs, not the Cartesian square."""
        query = Graph(labels=["A", "A"], edges=[])
        data = Graph(labels=["A", "A", "A"], edges=[(0, 1), (1, 2)])
        result = DisconnectedDAFMatcher().match(MatchRequest(query, data))
        assert result.count == 3 * 2  # ordered injective pairs

    def test_two_edge_components(self):
        query = Graph(labels=["A", "B", "A", "B"], edges=[(0, 1), (2, 3)])
        data = complete_graph(["A", "B", "A", "B"])
        expected = disconnected_oracle(query, data)
        got = sorted(DisconnectedDAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**6))
        ).embeddings)
        assert got == expected

    def test_random_two_component_queries(self, rng):
        for _ in range(10):
            q1, data = random_graph_case(rng, max_vertices=10, max_query=3)
            q2, _ = random_graph_case(rng, max_vertices=10, max_query=3)
            # Combine q1 with a second component sampled from *the same*
            # data graph (relabel q2's vertices from data's labels).
            query = Graph()
            for u in q1.vertices():
                query.add_vertex(q1.label(u))
            offset = q1.num_vertices
            import random as _r

            picks = _r.Random(rng.random()).sample(range(data.num_vertices), 2)
            for v in picks:
                query.add_vertex(data.label(v))
            for u, w in q1.edges():
                query.add_edge(u, w)
            query.freeze()
            expected = disconnected_oracle(query, data)
            got = sorted(
                DisconnectedDAFMatcher().match(
                    MatchRequest(query, data, options=MatchOptions(limit=10**6))
                ).embeddings
            )
            assert got == expected

    def test_connected_query_delegates(self, edge_query, triangle_data):
        result = DisconnectedDAFMatcher().match(MatchRequest(edge_query, triangle_data))
        assert result.count == 2

    def test_callback_strips_bridge(self):
        query = Graph(labels=["A", "B"], edges=[])
        data = Graph(labels=["A", "B"], edges=[(0, 1)])
        seen = []
        DisconnectedDAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(on_embedding=seen.append))
        )
        assert seen == [(0, 1)]

    def test_limit_respected(self):
        query = Graph(labels=["A", "A"], edges=[])
        data = Graph(labels=["A"] * 5, edges=[(i, i + 1) for i in range(4)])
        result = DisconnectedDAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=3))
        )
        assert result.count == 3
        assert result.limit_reached

    def test_induced_rejected(self):
        with pytest.raises(ValueError, match="induced"):
            DisconnectedDAFMatcher(MatchConfig(induced=True))


def multilabel_oracle(query: Graph, data: Graph) -> list[tuple[int, ...]]:
    results = []
    n = query.num_vertices
    for perm in itertools.permutations(range(data.num_vertices), n):
        if is_multilabel_embedding(perm, query, data):
            results.append(perm)
    return sorted(results)


class TestMultiLabelHelpers:
    def test_candidates_subset_semantics(self):
        data = multilabel_graph([{"A", "B"}, {"A"}, {"B"}], edges=[(0, 1), (0, 2)])
        query = multilabel_graph([{"A"}], edges=[])
        assert multilabel_candidates(query, data, 0) == {0, 1}

    def test_empty_label_set_matches_all(self):
        data = multilabel_graph([{"A"}, {"B"}], edges=[(0, 1)])
        query = multilabel_graph([set()], edges=[])
        assert multilabel_candidates(query, data, 0) == {0, 1}

    def test_nlf_counts_per_atom(self):
        # Query hub needs two A-requiring neighbors.
        query = multilabel_graph([set(), {"A"}, {"A"}], edges=[(0, 1), (0, 2)])
        data_ok = multilabel_graph([set(), {"A"}, {"A", "B"}], edges=[(0, 1), (0, 2)])
        data_bad = multilabel_graph([set(), {"A"}, {"B"}], edges=[(0, 1), (0, 2)])
        assert passes_multilabel_nlf(query, data_ok, 0, 0)
        assert not passes_multilabel_nlf(query, data_bad, 0, 0)


class TestMultiLabelMatcher:
    def test_subset_matching_basic(self):
        data = multilabel_graph(
            [{"person", "admin"}, {"person"}, {"doc"}],
            edges=[(0, 2), (1, 2)],
        )
        query = multilabel_graph([{"person"}, {"doc"}], edges=[(0, 1)])
        result = MultiLabelDAFMatcher().match(query, data)
        assert sorted(result.embeddings) == [(0, 2), (1, 2)]
        # A more specific query only matches the admin.
        admin_query = multilabel_graph([{"person", "admin"}, {"doc"}], edges=[(0, 1)])
        assert MultiLabelDAFMatcher().count(admin_query, data) == 1

    def test_matches_oracle_random(self, rng):
        atoms = ["A", "B", "C"]
        for _ in range(15):
            n = rng.randint(4, 8)
            data = Graph()
            for _ in range(n):
                data.add_vertex(frozenset(rng.sample(atoms, rng.randint(1, 3))))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            for u, v in edges:
                data.add_edge(u, v)
            data.freeze()
            # Query: sub-structure of data with *shrunken* label sets.
            size = rng.randint(1, 3)
            verts = rng.sample(range(n), size)
            query = Graph()
            for v in verts:
                atoms_v = sorted(data.label(v))
                keep = rng.randint(1, len(atoms_v))
                query.add_vertex(frozenset(rng.sample(atoms_v, keep)))
            vmap = {v: i for i, v in enumerate(verts)}
            for u, v in edges:
                if u in vmap and v in vmap:
                    query.add_edge(vmap[u], vmap[v])
            query.freeze()
            from repro.graph import is_connected

            if query.num_vertices > 1 and not is_connected(query):
                continue
            expected = multilabel_oracle(query, data)
            got = sorted(MultiLabelDAFMatcher().match(query, data, limit=10**6).embeddings)
            assert got == expected

    def test_variants_agree(self, rng):
        data = multilabel_graph(
            [{"A", "B"}, {"A"}, {"B"}, {"A", "B"}],
            edges=[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        query = multilabel_graph([{"A"}, {"B"}], edges=[(0, 1)])
        reference = None
        for order in ("path", "candidate"):
            for fs in (True, False):
                got = sorted(
                    MultiLabelDAFMatcher(MatchConfig(order=order, use_failing_sets=fs))
                    .match(query, data, limit=10**6)
                    .embeddings
                )
                if reference is None:
                    reference = got
                else:
                    assert got == reference
        assert reference  # the cycle hosts several A-B pairs

    def test_homomorphism_mode(self):
        data = multilabel_graph([{"A", "B"}], edges=[])
        # Query: A - B edge cannot embed in a single vertex... no edges in
        # data, so use a fold case: path A-B-A onto data A-B edge.
        data = multilabel_graph([{"A"}, {"B"}], edges=[(0, 1)])
        query = multilabel_graph([{"A"}, {"B"}, {"A"}], edges=[(0, 1), (1, 2)])
        injective = MultiLabelDAFMatcher().match(query, data)
        folded = MultiLabelDAFMatcher(MatchConfig(injective=False)).match(query, data)
        assert injective.count == 0
        assert folded.count == 1

    def test_disconnected_rejected_with_hint(self):
        query = multilabel_graph([{"A"}, {"B"}], edges=[])
        data = multilabel_graph([{"A"}, {"B"}], edges=[(0, 1)])
        with pytest.raises(ValueError, match="disconnected-query"):
            MultiLabelDAFMatcher().match(query, data)

    def test_induced_rejected(self):
        with pytest.raises(ValueError, match="induced"):
            MultiLabelDAFMatcher(MatchConfig(induced=True))
