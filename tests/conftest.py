"""Shared fixtures: small graphs with known ground truth.

``triangle_*`` and ``paper_like_*`` fixtures are hand-constructed cases
where embedding sets are known by inspection; ``random_case`` produces a
seeded stream of (query, data) pairs for agreement tests.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import Graph, ensure_connected, extract_query, gnm_random_graph, random_labels


@pytest.fixture
def triangle_data() -> Graph:
    """K3 with labels A, B, B (two embeddings of an A-B edge)."""
    return Graph(labels=["A", "B", "B"], edges=[(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def edge_query() -> Graph:
    """A single A-B edge."""
    return Graph(labels=["A", "B"], edges=[(0, 1)])


@pytest.fixture
def square_data() -> Graph:
    """C4 with labels A, B, A, B."""
    return Graph(labels=["A", "B", "A", "B"], edges=[(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def path_query() -> Graph:
    """Path A - B - A."""
    return Graph(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)])


def make_cartesian_trap(branch_a: int = 5, branch_b: int = 8) -> tuple[Graph, Graph]:
    """The paper's Figure 2 situation, parameterized.

    Query: u0(R) - u1(X), u0 - u2(Y), u1 - u2  (a triangle, so the
    non-tree edge (u1, u2) exists for any spanning tree).

    Data: one R hub v0; ``branch_a`` X vertices adjacent to the hub;
    ``branch_b`` Y vertices adjacent to the hub; but only ONE (X, Y) pair
    is actually connected.  Spanning-tree filtering keeps all X x Y
    combinations; full-edge filtering (DAF's CS) keeps one of each.
    """
    data = Graph()
    hub = data.add_vertex("R")
    xs = [data.add_vertex("X") for _ in range(branch_a)]
    ys = [data.add_vertex("Y") for _ in range(branch_b)]
    for x in xs:
        data.add_edge(hub, x)
    for y in ys:
        data.add_edge(hub, y)
    data.add_edge(xs[0], ys[0])  # the single satisfying pair
    data.freeze()
    query = Graph(labels=["R", "X", "Y"], edges=[(0, 1), (0, 2), (1, 2)])
    return query, data


@pytest.fixture
def cartesian_trap() -> tuple[Graph, Graph]:
    return make_cartesian_trap()


def random_graph_case(rng: random.Random, max_vertices: int = 16, max_query: int = 6):
    """One random (query, data) pair where the query is a connected
    subgraph of the data graph (so it has at least one embedding)."""
    n = rng.randint(5, max_vertices)
    m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
    labels = random_labels(n, rng.randint(1, 4), rng)
    data = ensure_connected(gnm_random_graph(n, m, labels, rng), rng)
    query, _ = extract_query(data, rng.randint(2, min(max_query, n)), rng)
    return query, data


@pytest.fixture
def local_filter_calls(monkeypatch) -> list[int]:
    """The data vertex of every MND/NLF test a refinement pass runs, in
    call order."""
    from repro.core import candidate_space

    calls: list[int] = []
    real = candidate_space.passes_local_filters_hoisted

    def counting(index, v, query_mnd, query_nlf):
        calls.append(v)
        return real(index, v, query_mnd, query_nlf)

    monkeypatch.setattr(candidate_space, "passes_local_filters_hoisted", counting)
    return calls


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20190630)  # SIGMOD'19 started June 30
