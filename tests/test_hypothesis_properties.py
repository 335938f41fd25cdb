"""Property-based tests (hypothesis) for the library's core invariants.

Strategies build small random labeled graphs and query subgraphs; the
properties are the paper's theorems and the library's contracts:

- CS soundness (Def. 4.2) and equivalence (Thm 4.1);
- failing-set pruning preserves the result set and never adds work;
- the weight array equals the min over maximal tree-like paths (§5.2);
- query DAGs are acyclic, single-rooted, and edge-complete;
- the C_ini, MND and NLF filters equal their §3/§4 definitions;
- file I/O round-trips; induced subgraphs keep exactly internal edges;
- SE compression round-trips embeddings.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest, is_embedding
from repro.baselines import BruteForceMatcher
from repro.core import (
    build_candidate_space,
    build_dag,
    compute_weight_array,
    count_paths_from,
    initial_candidate_count,
    initial_candidates,
    passes_local_filters,
    passes_max_neighbor_degree,
    passes_neighborhood_label_frequency,
)
from repro.graph import Graph, graph_from_string, graph_to_string, is_connected

# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------


@st.composite
def labeled_graphs(draw, min_vertices=1, max_vertices=10, max_labels=3, connected=False):
    n = draw(st.integers(min_vertices, max_vertices))
    labels = [draw(st.integers(0, max_labels - 1)) for _ in range(n)]
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in possible if draw(st.booleans())]
    g = Graph(labels=[f"L{x}" for x in labels], edges=edges)
    if connected and n > 1 and not is_connected(g):
        # Patch with a deterministic spine.
        g = g.copy()
        for u in range(n - 1):
            if not g._adj_sets[u] or u + 1 not in g._adj_sets[u]:
                try:
                    g.add_edge(u, u + 1)
                except Exception:
                    pass
        g.freeze()
    return g


@st.composite
def matching_instances(draw):
    """A connected query plus a data graph guaranteed to contain it."""
    query = draw(labeled_graphs(min_vertices=1, max_vertices=5, connected=True))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    data = query.copy()
    # Grow the data graph around the planted query copy.
    extra = draw(st.integers(0, 6))
    for _ in range(extra):
        v = data.add_vertex(f"L{rng.randrange(3)}")
        anchor = rng.randrange(v)
        data.add_edge(anchor, v)
        if v >= 2 and rng.random() < 0.5:
            other = rng.randrange(v)
            if other != anchor:
                try:
                    data.add_edge(other, v)
                except Exception:
                    pass
    data.freeze()
    return query, data


COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------


@COMMON
@given(labeled_graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degrees) == 2 * g.num_edges


@COMMON
@given(labeled_graphs())
def test_label_index_partitions_vertices(g):
    total = sum(g.label_frequency(label) for label in g.distinct_labels())
    assert total == g.num_vertices


@COMMON
@given(labeled_graphs(max_vertices=5), labeled_graphs(min_vertices=0))
def test_filters_match_definitions(query, data):
    """Every data-side filter equals its definition computed straight
    from ``label()``, ``degree()`` and ``neighbors()``."""

    def mnd(g, x):
        return max((g.degree(w) for w in g.neighbors(x)), default=0)

    def nlf(g, x):
        return Counter(g.label(w) for w in g.neighbors(x))

    for u in query.vertices():
        c_ini = [
            v
            for v in data.vertices()
            if data.label(v) == query.label(u) and data.degree(v) >= query.degree(u)
        ]
        assert initial_candidates(query, data, u) == c_ini
        assert initial_candidate_count(query, data, u) == len(c_ini)
        for v in data.vertices():
            mnd_ok = mnd(data, v) >= mnd(query, u)
            data_nlf = nlf(data, v)
            nlf_ok = all(data_nlf[lab] >= k for lab, k in nlf(query, u).items())
            assert passes_max_neighbor_degree(query, data, u, v) == mnd_ok
            assert passes_neighborhood_label_frequency(query, data, u, v) == nlf_ok
            assert passes_local_filters(query, data, u, v) == (mnd_ok and nlf_ok)


@COMMON
@given(labeled_graphs())
def test_io_round_trip(g):
    assert graph_from_string(graph_to_string(g)) == g


@COMMON
@given(labeled_graphs(min_vertices=2), st.data())
def test_induced_subgraph_edges_internal(g, data):
    subset = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, unique=True)
    )
    sub, mapping = g.induced_subgraph(subset)
    inverse = {new: old for old, new in mapping.items()}
    for a, b in sub.edges():
        assert g.has_edge(inverse[a], inverse[b])
    chosen = set(subset)
    expected_edges = sum(1 for u, v in g.edges() if u in chosen and v in chosen)
    assert sub.num_edges == expected_edges


# ---------------------------------------------------------------------
# Query DAG invariants
# ---------------------------------------------------------------------


@COMMON
@given(matching_instances())
def test_query_dag_invariants(instance):
    query, data = instance
    dag = build_dag(query, data)
    order = dag.topological_order()
    rank = {v: i for i, v in enumerate(order)}
    assert rank[dag.root] == 0
    for parent, child in dag.edges():
        assert rank[parent] < rank[child]
    oriented = {tuple(sorted(e)) for e in dag.edges()}
    assert oriented == {tuple(sorted(e)) for e in query.edges()}
    for v in query.vertices():
        mask = dag.ancestor_mask(v)
        assert mask >> v & 1
        for p in dag.parents(v):
            assert mask & dag.ancestor_mask(p) == dag.ancestor_mask(p)


# ---------------------------------------------------------------------
# CS soundness and equivalence (Thm 4.1)
# ---------------------------------------------------------------------


@COMMON
@given(matching_instances())
def test_cs_soundness(instance):
    query, data = instance
    dag = build_dag(query, data)
    cs = build_candidate_space(query, data, dag, refine_to_fixpoint=True)
    embeddings = BruteForceMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=500))
    ).embeddings
    for embedding in embeddings:
        for u in query.vertices():
            assert embedding[u] in cs.candidate_index[u]


@COMMON
@given(matching_instances())
def test_daf_equals_bruteforce(instance):
    query, data = instance
    expected = sorted(BruteForceMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).embeddings)
    assert expected, "planted instance must embed"
    got = sorted(DAFMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).embeddings)
    assert got == expected
    for embedding in got:
        assert is_embedding(embedding, query, data)


@COMMON
@given(matching_instances())
def test_failing_sets_preserve_results_and_never_add_work(instance):
    query, data = instance
    with_fs = DAFMatcher(MatchConfig(use_failing_sets=True)).match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    )
    without_fs = DAFMatcher(MatchConfig(use_failing_sets=False)).match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    )
    assert sorted(with_fs.embeddings) == sorted(without_fs.embeddings)
    assert with_fs.stats.recursive_calls <= without_fs.stats.recursive_calls


@COMMON
@given(matching_instances())
def test_homomorphisms_superset_of_embeddings(instance):
    query, data = instance
    embeddings = DAFMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).count
    homomorphisms = DAFMatcher(MatchConfig(injective=False)).match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).count
    assert homomorphisms >= embeddings


# ---------------------------------------------------------------------
# Weight array (§5.2)
# ---------------------------------------------------------------------


@COMMON
@given(matching_instances())
def test_weight_array_is_min_over_tree_like_paths(instance):
    query, data = instance
    dag = build_dag(query, data)
    cs = build_candidate_space(query, data, dag)
    weights = compute_weight_array(cs)
    for u in query.vertices():
        paths = dag.maximal_tree_like_paths(u)
        for i, v in enumerate(cs.candidates[u]):
            assert weights[u][i] == min(count_paths_from(cs, p, v) for p in paths)


# ---------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------


@COMMON
@given(matching_instances())
def test_boost_round_trips_embeddings(instance):
    from repro.extensions import BoostedDAFMatcher

    query, data = instance
    expected = sorted(DAFMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).embeddings)
    got = sorted(BoostedDAFMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).embeddings)
    assert got == expected


@COMMON
@given(matching_instances(), st.integers(1, 5))
def test_limit_is_exact(instance, limit):
    query, data = instance
    total = DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=10**5))).count
    result = DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=limit)))
    assert result.count == min(limit, total)


# ---------------------------------------------------------------------
# Section 2 generalizations
# ---------------------------------------------------------------------


@st.composite
def directed_instances(draw):
    """A directed data graph plus a planted weakly-connected sub-digraph."""
    from repro.directed import DirectedGraph

    base_query, base_data = draw(matching_instances())
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    dq = DirectedGraph()
    for u in base_query.vertices():
        dq.add_vertex(base_query.label(u))
    dd = DirectedGraph()
    for v in base_data.vertices():
        dd.add_vertex(base_data.label(v))
    # Orient each undirected edge; the query copies the data orientation
    # on its planted prefix, so the plant survives as a directed embedding.
    orientation = {}
    for u, v in base_data.edges():
        flip = rng.random() < 0.5
        orientation[(u, v)] = flip
        dd.add_edge(v, u) if flip else dd.add_edge(u, v)
    for u, v in base_query.edges():
        flip = orientation.get((u, v), rng.random() < 0.5)
        dq.add_edge(v, u) if flip else dq.add_edge(u, v)
    return dq.freeze(), dd.freeze()


@COMMON
@given(directed_instances())
def test_directed_daf_equals_directed_bruteforce(instance):
    from repro.directed import DirectedBruteForce, DirectedDAFMatcher

    query, data = instance
    expected = sorted(DirectedBruteForce().match(query, data, limit=10**5).embeddings)
    got = sorted(DirectedDAFMatcher().match(query, data, limit=10**5).embeddings)
    assert got == expected
    assert expected, "planted directed instance must embed"


@COMMON
@given(matching_instances())
def test_disconnected_wrapper_matches_direct_on_connected(instance):
    from repro.general import DisconnectedDAFMatcher

    query, data = instance
    direct = sorted(DAFMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).embeddings)
    wrapped = sorted(DisconnectedDAFMatcher().match(
        MatchRequest(query, data, options=MatchOptions(limit=10**5))
    ).embeddings)
    assert wrapped == direct
