"""White-box tests for the backtracking engine internals (§5-6)."""

import hashlib
import itertools
import random

import pytest

from repro import DAFMatcher, MatchConfig
from repro.core.backtrack import BacktrackEngine, _count_injective
from repro.core.candidate_space import build_candidate_space
from repro.core.dag import build_dag
from repro.extensions.boost import BoostedDAFMatcher
from repro.interfaces import Deadline, MatchOptions, MatchRequest, SearchStats
from repro.graph import (
    Graph,
    ensure_connected,
    extract_query,
    gnm_random_graph,
    random_labels,
    star_graph,
)
from repro.obs import MetricsRegistry
from tests.conftest import random_graph_case


def make_engine(query, data, config=None, **kwargs):
    cfg = config if config is not None else MatchConfig()
    dag = build_dag(query, data)
    cs = build_candidate_space(query, data, dag)
    return BacktrackEngine(
        cs,
        cfg,
        limit=kwargs.pop("limit", 10**6),
        deadline=Deadline(None),
        stats=SearchStats(),
        **kwargs,
    )


class TestCountInjective:
    def test_single_list(self):
        assert _count_injective([[1, 2, 3]], cap=10, injective=True) == 3

    def test_cap_applied(self):
        assert _count_injective([[1, 2, 3]], cap=2, injective=True) == 2

    def test_two_disjoint_lists(self):
        assert _count_injective([[1, 2], [3, 4]], cap=100, injective=True) == 4

    def test_two_overlapping_lists(self):
        # Ordered injective pairs from {1,2} x {1,2}: (1,2) and (2,1).
        assert _count_injective([[1, 2], [1, 2]], cap=100, injective=True) == 2

    def test_hall_violation_gives_zero(self):
        assert _count_injective([[1], [1]], cap=100, injective=True) == 0

    def test_non_injective_is_product(self):
        assert _count_injective([[1, 2], [1, 2]], cap=100, injective=False) == 4

    def test_non_injective_cap(self):
        assert _count_injective([[1, 2, 3]] * 5, cap=7, injective=False) == 7

    def test_zero_cap_clamped(self):
        assert _count_injective([[1]], cap=0, injective=True) == 1

    def test_three_way_permanent(self):
        # Permanent of the all-ones 3x3 matrix = 3! = 6.
        lists = [[1, 2, 3]] * 3
        assert _count_injective(lists, cap=100, injective=True) == 6


class TestEngineSetup:
    def test_root_initially_extendable(self, triangle_data, edge_query):
        engine = make_engine(edge_query, triangle_data)
        assert engine.extendable == {engine.dag.root}
        assert engine.cmu[engine.dag.root] is not None

    def test_root_candidate_slice(self, triangle_data, edge_query):
        engine = make_engine(edge_query, triangle_data, root_candidate_indices=[0])
        assert engine.cmu[engine.dag.root] == [0]

    def test_leaf_deferral_marks_degree_one(self):
        data = star_graph("H", ["L"] * 4)
        query = star_graph("H", ["L", "L"])
        engine = make_engine(query, data)
        assert engine.deferred == (False, True, True)
        assert engine.num_core == 1

    def test_no_deferral_for_two_vertex_query(self, triangle_data, edge_query):
        engine = make_engine(edge_query, triangle_data)
        assert not any(engine.deferred)

    def test_no_deferral_when_disabled(self):
        data = star_graph("H", ["L"] * 4)
        query = star_graph("H", ["L", "L"])
        engine = make_engine(query, data, config=MatchConfig(leaf_decomposition=False))
        assert not any(engine.deferred)

    def test_root_never_deferred(self):
        # Path query: both ends have degree 1; if the root lands on one it
        # must stay in the core.
        data = Graph(labels=["X", "Y", "Z"], edges=[(0, 1), (1, 2)])
        query = Graph(labels=["X", "Y", "Z"], edges=[(0, 1), (1, 2)])
        engine = make_engine(query, data)
        assert not engine.deferred[engine.dag.root]


class TestStateRestoration:
    def test_search_restores_all_state(self, rng):
        """After run() completes, the engine's mutable state is back to
        its initial configuration (every map has a matching unmap)."""
        for _ in range(10):
            query, data = random_graph_case(rng)
            engine = make_engine(query, data)
            initial_extendable = set(engine.extendable)
            initial_pending = list(engine.pending)
            engine.run()
            assert engine.mapping == [-1] * query.num_vertices
            assert engine.visited_by == {}
            assert engine.extendable == initial_extendable
            assert engine.pending == initial_pending
            assert engine.mapped_core == 0


class TestAdaptivity:
    def test_next_vertex_differs_per_partial_embedding(self):
        """Example 5.4's phenomenon: the selected vertex depends on the
        current partial embedding, not on a precomputed global order.

        Construction: root R with children X and Y.  Data region 1 gives
        X one candidate and Y many; region 2 swaps the sizes.  Record the
        order in which vertices are first mapped under each root
        candidate — they must differ.
        """
        data = Graph()
        r1 = data.add_vertex("R")
        r2 = data.add_vertex("R")
        # Region 1: r1 has 1 X, 3 Y.
        x = data.add_vertex("X")
        data.add_edge(r1, x)
        for _ in range(3):
            y = data.add_vertex("Y")
            data.add_edge(r1, y)
        # Region 2: r2 has 3 X, 1 Y.
        for _ in range(3):
            x = data.add_vertex("X")
            data.add_edge(r2, x)
        y = data.add_vertex("Y")
        data.add_edge(r2, y)
        data.freeze()
        query = Graph(labels=["R", "X", "Y"], edges=[(0, 1), (0, 2)])

        # Trace mapping order via the embedding tuples' construction: use
        # the streaming callback and leaf_decomposition off so both X and
        # Y go through the adaptive selector.
        matcher = DAFMatcher(MatchConfig(leaf_decomposition=False))
        result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=10**6)))
        by_root: dict[int, set[int]] = {}
        for embedding in result.embeddings:
            by_root.setdefault(embedding[0], set()).add(embedding)
        assert len(by_root[0]) == 3  # r1: 1 X x 3 Y
        assert len(by_root[1]) == 3  # r2: 3 X x 1 Y

    def test_weights_computed_when_extendable(self, rng):
        """cmu/wmu are populated exactly for extendable vertices."""
        query, data = random_graph_case(rng)
        engine = make_engine(query, data)
        for u in range(engine.n):
            if u in engine.extendable:
                assert engine.cmu[u] is not None
            else:
                assert engine.cmu[u] is None


class TestHomomorphismMode:
    def test_homomorphism_counts_on_fold(self):
        # Query path X-Y-X can fold both X endpoints onto one data X.
        data = Graph(labels=["X", "Y"], edges=[(0, 1)])
        query = Graph(labels=["X", "Y", "X"], edges=[(0, 1), (1, 2)])
        cfg = MatchConfig(injective=False)
        result = DAFMatcher(cfg).match(MatchRequest(query, data))
        assert result.count == 1
        assert result.embeddings == [(0, 1, 0)]

    def test_homomorphism_with_leaves(self):
        data = star_graph("H", ["L", "L"])
        query = star_graph("H", ["L", "L", "L"])
        injective = DAFMatcher().match(MatchRequest(query, data)).count
        folded = DAFMatcher(MatchConfig(injective=False)).match(MatchRequest(query, data)).count
        assert injective == 0  # needs 3 distinct leaves
        assert folded == 8  # 2^3 label-preserving maps

    def test_homomorphism_counting_mode(self):
        data = star_graph("H", ["L", "L"])
        query = star_graph("H", ["L", "L", "L"])
        cfg = MatchConfig(injective=False, collect_embeddings=False)
        assert DAFMatcher(cfg).match(MatchRequest(query, data)).count == 8


# ----------------------------------------------------------------------
# Golden engine equivalence
# ----------------------------------------------------------------------
# Every search variant runs the same seeded corpus and is pinned on its
# recursive calls, its count, a digest of the embedding list in order,
# and its search counters.  The values were recorded before DA and
# DAF-Boost were moved onto the shared failing-set driver, so any drift
# in exploration order, pruning or accounting fails here.

GOLDEN_LIMIT = 400


def _golden_corpus():
    rng = random.Random(2019)
    cases = [random_graph_case(rng, max_vertices=20, max_query=7) for _ in range(10)]
    for n, m, q in ((24, 80, 4), (22, 60, 5), (18, 50, 6), (30, 90, 7), (30, 110, 8), (26, 70, 8)):
        data = ensure_connected(gnm_random_graph(n, m, random_labels(n, 2, rng), rng), rng)
        query, _ = extract_query(data, q, rng)
        cases.append((query, data))
    return cases


def _se_duplicate(data, rng, copies):
    """Add ``copies`` twins: same label, same neighbourhood as a random
    original vertex, so SE compression has classes to merge."""
    labels = [data.label(v) for v in data.vertices()]
    edges = list(data.edges())
    for _ in range(copies):
        original = rng.randrange(data.num_vertices)
        twin = len(labels)
        labels.append(labels[original])
        edges.extend((twin, w) for w in data.neighbors(original))
    return Graph(labels=labels, edges=edges)


def _boost_corpus():
    rng = random.Random(17)
    cases = []
    for _ in range(12):
        n = rng.randint(12, 20)
        data = gnm_random_graph(
            n, rng.randint(n, 3 * n), random_labels(n, rng.choice([1, 2]), rng), rng
        )
        data = ensure_connected(data, rng)
        query, _ = extract_query(data, rng.randint(4, 8), rng)
        cases.append((query, _se_duplicate(data, rng, 6)))
    return cases


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


_SEARCH_COUNTERS = (
    "prune_conflict",
    "prune_empty",
    "prune_failing_set",
    "fs_cuts",
    "candidates_examined",
    "children_entered",
)


def _golden_run(cases, config, boost=False):
    """Recursive calls, count and embedding digest over ``cases``, plus
    the summed search counters and a per-vertex counter digest (DAF
    stack only: the boost matcher takes no observer)."""
    calls = count = 0
    embeddings, vertex = [], []
    counters = dict.fromkeys(_SEARCH_COUNTERS, 0)
    for query, data in cases:
        request = MatchRequest(query, data, options=MatchOptions(limit=GOLDEN_LIMIT))
        if boost:
            result = BoostedDAFMatcher(config).match(request)
        else:
            result = DAFMatcher(config, observer=MetricsRegistry()).match(request)
            snapshot = result.stats.metrics
            for name in _SEARCH_COUNTERS:
                counters[name] += snapshot["counters"][name]
            vertex.append(snapshot.get("vertex_counters"))
        calls += result.stats.recursive_calls
        count += result.count
        embeddings.append(result.embeddings)
    if boost:
        return calls, count, _digest(embeddings)
    pinned = tuple(counters[name] for name in _SEARCH_COUNTERS)
    return calls, count, _digest(embeddings), pinned, _digest(vertex)


def _golden_configs():
    for fs, order, leaf, induced, collect in itertools.product(
        (True, False), ("candidate", "path"), (True, False), (False, True), (True, False)
    ):
        key = "/".join(
            (
                "DAF" if fs else "DA",
                order,
                "leaf" if leaf else "noleaf",
                "induced" if induced else "plain",
                "collect" if collect else "count",
            )
        )
        yield key, MatchConfig(
            order=order,
            use_failing_sets=fs,
            leaf_decomposition=leaf,
            induced=induced,
            collect_embeddings=collect,
        )


def _boost_configs():
    for fs, leaf, collect in itertools.product((True, False), (True, False), (True, False)):
        key = "/".join(
            (
                "Boost" if fs else "Boost-DA",
                "leaf" if leaf else "noleaf",
                "collect" if collect else "count",
            )
        )
        yield key, MatchConfig(
            use_failing_sets=fs, leaf_decomposition=leaf, collect_embeddings=collect
        )


ENGINE_CONFIGS = dict(_golden_configs())
BOOST_CONFIGS = dict(_boost_configs())

GOLDEN = {
    'DAF/candidate/leaf/plain/collect': (2047, 1231, '1ee8b7479d841f10', (1568, 319, 13, 26, 4797, 3229), '35f1fb7ff6da8cd6'),
    'DAF/candidate/leaf/plain/count': (2047, 1231, 'ae520475ee8b72d7', (1460, 343, 13, 26, 4410, 2031), '2620aa062905c6ae'),
    'DAF/candidate/leaf/induced/collect': (1344, 375, '82addc75e51ae20e', (1272, 114, 9, 12, 2600, 1328), 'e92b64b8368ef9b6'),
    'DAF/candidate/leaf/induced/count': (1344, 375, 'ae520475ee8b72d7', (1272, 114, 9, 12, 2600, 1328), 'e92b64b8368ef9b6'),
    'DAF/candidate/noleaf/plain/collect': (3339, 1231, '8750678a7bd63f9a', (1541, 361, 6, 28, 4864, 3323), 'c43887c3392ce95a'),
    'DAF/candidate/noleaf/plain/count': (3339, 1231, 'ae520475ee8b72d7', (1541, 361, 6, 28, 4864, 3323), 'c43887c3392ce95a'),
    'DAF/candidate/noleaf/induced/collect': (1344, 375, '82addc75e51ae20e', (1272, 114, 9, 12, 2600, 1328), 'e92b64b8368ef9b6'),
    'DAF/candidate/noleaf/induced/count': (1344, 375, 'ae520475ee8b72d7', (1272, 114, 9, 12, 2600, 1328), 'e92b64b8368ef9b6'),
    'DAF/path/leaf/plain/collect': (2091, 1231, '63d2356e93665a64', (1643, 322, 10, 24, 4916, 3273), '1e8d3ad85461f949'),
    'DAF/path/leaf/plain/count': (2091, 1231, 'ae520475ee8b72d7', (1535, 352, 10, 24, 4529, 2075), '2cce1af2964dbd01'),
    'DAF/path/leaf/induced/collect': (1408, 375, '75e5b5f3561ecda6', (1319, 129, 6, 11, 2711, 1392), 'd9d1d9ee167e7f46'),
    'DAF/path/leaf/induced/count': (1408, 375, 'ae520475ee8b72d7', (1319, 129, 6, 11, 2711, 1392), 'd9d1d9ee167e7f46'),
    'DAF/path/noleaf/plain/collect': (3277, 1231, '2dc1bed048cfe9b2', (1612, 322, 22, 50, 4873, 3261), '911b9c0bcc484992'),
    'DAF/path/noleaf/plain/count': (3277, 1231, 'ae520475ee8b72d7', (1612, 322, 22, 50, 4873, 3261), '911b9c0bcc484992'),
    'DAF/path/noleaf/induced/collect': (1408, 375, '75e5b5f3561ecda6', (1319, 129, 6, 11, 2711, 1392), 'd9d1d9ee167e7f46'),
    'DAF/path/noleaf/induced/count': (1408, 375, 'ae520475ee8b72d7', (1319, 129, 6, 11, 2711, 1392), 'd9d1d9ee167e7f46'),
    'DA/candidate/leaf/plain/collect': (2058, 1231, '1ee8b7479d841f10', (1589, 321, 0, 0, 4829, 3240), '9738040824bf508c'),
    'DA/candidate/leaf/plain/count': (2058, 1231, 'ae520475ee8b72d7', (1481, 351, 0, 0, 4442, 2042), '9b066b970b380572'),
    'DA/candidate/leaf/induced/collect': (1347, 375, '82addc75e51ae20e', (1290, 114, 0, 0, 2621, 1331), '2ae72bc1f6cfc830'),
    'DA/candidate/leaf/induced/count': (1347, 375, 'ae520475ee8b72d7', (1290, 114, 0, 0, 2621, 1331), '2ae72bc1f6cfc830'),
    'DA/candidate/noleaf/plain/collect': (3353, 1231, '8750678a7bd63f9a', (1566, 362, 0, 0, 4903, 3337), 'b4fe3ebbe0b68a61'),
    'DA/candidate/noleaf/plain/count': (3353, 1231, 'ae520475ee8b72d7', (1566, 362, 0, 0, 4903, 3337), 'b4fe3ebbe0b68a61'),
    'DA/candidate/noleaf/induced/collect': (1347, 375, '82addc75e51ae20e', (1290, 114, 0, 0, 2621, 1331), '2ae72bc1f6cfc830'),
    'DA/candidate/noleaf/induced/count': (1347, 375, 'ae520475ee8b72d7', (1290, 114, 0, 0, 2621, 1331), '2ae72bc1f6cfc830'),
    'DA/path/leaf/plain/collect': (2129, 1231, '63d2356e93665a64', (1648, 341, 0, 0, 4959, 3311), '3bc7449c3f277931'),
    'DA/path/leaf/plain/count': (2129, 1231, 'ae520475ee8b72d7', (1540, 371, 0, 0, 4572, 2113), 'b9e191c2d2c6b676'),
    'DA/path/leaf/induced/collect': (1437, 375, '75e5b5f3561ecda6', (1330, 141, 0, 0, 2751, 1421), 'e2614b3220cfe4f1'),
    'DA/path/leaf/induced/count': (1437, 375, 'ae520475ee8b72d7', (1330, 141, 0, 0, 2751, 1421), 'e2614b3220cfe4f1'),
    'DA/path/noleaf/plain/collect': (3327, 1231, '2dc1bed048cfe9b2', (1643, 341, 0, 0, 4954, 3311), 'f4bcb0f7a9a6e5a5'),
    'DA/path/noleaf/plain/count': (3327, 1231, 'ae520475ee8b72d7', (1643, 341, 0, 0, 4954, 3311), 'f4bcb0f7a9a6e5a5'),
    'DA/path/noleaf/induced/collect': (1437, 375, '75e5b5f3561ecda6', (1330, 141, 0, 0, 2751, 1421), 'e2614b3220cfe4f1'),
    'DA/path/noleaf/induced/count': (1437, 375, 'ae520475ee8b72d7', (1330, 141, 0, 0, 2751, 1421), 'e2614b3220cfe4f1'),
    'Boost/leaf/collect': (5897, 2075, 'e72707abdc7a0810'),
    'Boost/leaf/count': (3883, 2075, '243b03250568a6d2'),
    'Boost/noleaf/collect': (5897, 2075, 'e72707abdc7a0810'),
    'Boost/noleaf/count': (5897, 2075, '243b03250568a6d2'),
    'Boost-DA/leaf/collect': (6036, 2075, 'e72707abdc7a0810'),
    'Boost-DA/leaf/count': (3986, 2075, '243b03250568a6d2'),
    'Boost-DA/noleaf/collect': (6036, 2075, 'e72707abdc7a0810'),
    'Boost-DA/noleaf/count': (6036, 2075, '243b03250568a6d2'),
}


@pytest.fixture(scope="module")
def golden_corpus():
    return _golden_corpus()


@pytest.fixture(scope="module")
def boost_corpus():
    return _boost_corpus()


class TestGoldenEquivalence:
    @pytest.mark.parametrize("key", list(ENGINE_CONFIGS))
    def test_engine_variant(self, golden_corpus, key):
        assert _golden_run(golden_corpus, ENGINE_CONFIGS[key]) == GOLDEN[key]

    @pytest.mark.parametrize("key", list(BOOST_CONFIGS))
    def test_boost_variant(self, boost_corpus, key):
        assert _golden_run(boost_corpus, BOOST_CONFIGS[key], boost=True) == GOLDEN[key]


# ----------------------------------------------------------------------
# Leaf-counting counters
# ----------------------------------------------------------------------
# Counting-mode leaf decomposition is pinned on a corpus whose queries
# carry 1-, 2- and 3-leaf label groups (and a few larger ones), with
# failing sets on and off and with a limit that caps the count.  The
# values were recorded before the one-leaf occupancy shortcut and the
# closed-form pair count replaced per-candidate listing, so both must
# keep every counter, including the per-vertex attribution, unchanged.


def _leaf_group_corpus():
    rng = random.Random(22)
    cases = []
    for _ in range(24):
        n = rng.randint(16, 30)
        labels = random_labels(n, rng.choice((1, 2, 3, 3)), rng)
        data = ensure_connected(gnm_random_graph(n, rng.randint(n, 2 * n), labels, rng), rng)
        core, image = extract_query(data, rng.randint(4, 7), rng)
        query_labels = [core.label(u) for u in core.vertices()]
        edges = list(core.edges())
        for _ in range(rng.randint(2, 6)):
            attach = rng.randrange(core.num_vertices)
            edges.append((attach, len(query_labels)))
            query_labels.append(data.label(rng.choice(data.neighbors(image[attach]))))
        cases.append((Graph(labels=query_labels, edges=edges), data))
    return cases


def _leaf_counter_run(cases, use_failing_sets, limit):
    rows = []
    for query, data in cases:
        config = MatchConfig(use_failing_sets=use_failing_sets, collect_embeddings=False)
        request = MatchRequest(query, data, options=MatchOptions(limit=limit))
        registry = MetricsRegistry()
        result = DAFMatcher(config, observer=registry).match(request)
        rows.append(
            (
                result.stats.recursive_calls,
                result.stats.embeddings_found,
                registry.candidates_examined,
                registry.prune_conflict,
                registry.prune_empty,
                registry.fs_cuts,
                tuple(registry.vertex_conflict),
                tuple(registry.vertex_empty),
            )
        )
    totals = tuple(sum(row[k] for row in rows) for k in range(6))
    return totals, _digest(rows)


LEAF_COUNTER_CONFIGS = {
    "DAF/full": (True, 10**6),
    "DA/full": (False, 10**6),
    "DAF/capped": (True, 500),
}

LEAF_COUNTER_GOLDEN = {
    'DAF/full': ((1764, 58967, 16696, 6883, 254, 23), 'ee39e409918b3094'),
    'DA/full': ((1774, 58967, 16714, 6891, 259, 0), '8d89567da0e8257e'),
    'DAF/capped': ((420, 2838, 2591, 1050, 55, 12), '6edc2248f6e76eb7'),
}


class TestLeafCountingCounters:
    def test_corpus_has_every_group_size(self):
        sizes = set()
        for query, data in _leaf_group_corpus():
            engine = make_engine(query, data)
            sizes.update(len(group) for group in engine.leaf_groups)
        assert {1, 2, 3} <= sizes

    @pytest.mark.parametrize("key", list(LEAF_COUNTER_CONFIGS))
    def test_counters_pinned(self, key):
        fs, limit = LEAF_COUNTER_CONFIGS[key]
        assert _leaf_counter_run(_leaf_group_corpus(), fs, limit) == LEAF_COUNTER_GOLDEN[key]


def _reference_count(lists, cap):
    """Capped injective count by enumerating one position per list."""
    cap = max(cap, 1)
    count = 0
    for choice in itertools.product(*lists):
        if len(set(choice)) == len(choice):
            count += 1
            if count >= cap:
                break
    return count


class TestCountInjectivePairs:
    def test_pair_matches_reference(self):
        rng = random.Random(8)
        for _ in range(400):
            pool = rng.randint(1, 8)
            pair = [
                [rng.randrange(pool) for _ in range(rng.randint(0, 6))] for _ in range(2)
            ]
            if rng.random() < 0.5:  # duplicate-free, as CS rows are
                pair = [sorted(set(lst)) for lst in pair]
            cap = rng.choice((-1, 0, 1, 2, 3, 5, 100))
            assert _count_injective(pair, cap=cap, injective=True) == _reference_count(
                pair, cap
            ), (pair, cap)

    def test_pair_cap_below_true_count(self):
        assert _count_injective([[1, 2, 3], [4, 5, 6]], cap=4, injective=True) == 4

    def test_pair_with_duplicates(self):
        # Positions are distinct choices: (1, 2) from either copy of 1,
        # and (2, 1).
        assert _count_injective([[1, 1, 2], [1, 2]], cap=100, injective=True) == 3
