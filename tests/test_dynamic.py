"""Dynamic graphs and continuous queries (docs/serving.md).

Four layers:

- delta/batch API units: validation, atomicity, tombstone semantics;
- incremental structures: the refreshed :class:`~repro.graph.GraphIndex`
  and candidate space are *identical* to cold rebuilds on the mutated
  graph (``cs_diff`` must be empty — bit-identity, not just equal
  answers);
- the serving surface: ``apply()`` versioning, cache rebase/invalidation
  counters, ``subscribe()`` option validation and event streaming;
- property-style equivalence: random delta batches over seeded random
  graphs, asserting post-batch ``run()`` answers match a fresh session
  (DAF and two baselines) and that every standing query's event stream
  replays to exactly the fresh-run difference.
"""

import random

import pytest

from repro import (
    DAFMatcher,
    Delta,
    MatchConfig,
    MatchOptions,
    MatchRequest,
    UpdateBatch,
    UpdateError,
    UnsupportedOptionError,
)
from repro.baselines import GraphQLMatcher, VF2Matcher
from repro.core import candidate_space
from repro.core.candidate_space import build_candidate_space, config_build_options
from repro.core.cs_delta import cs_diff, refresh_candidate_space
from repro.graph import (
    Graph,
    GraphIndex,
    ensure_connected,
    extract_query,
    gnm_random_graph,
    random_labels,
)
from repro.graph.mutate import TOMBSTONE_LABEL, apply_update
from repro.resilience.faults import FaultSpec, InjectedFault, inject
from repro.service import DataGraphSession, StandingQuery, dynamic

from .conftest import random_graph_case


def simple_session(matcher=None, **kwargs):
    data = Graph(labels=["A", "B", "B"], edges=[(0, 1)])
    return DataGraphSession(data, matcher=matcher, **kwargs)


EDGE_QUERY = Graph(labels=["A", "B"], edges=[(0, 1)])


# ----------------------------------------------------------------------
# Delta / UpdateBatch API
# ----------------------------------------------------------------------
class TestDeltaAPI:
    def test_constructors_round_trip_dicts(self):
        deltas = [
            Delta.insert_edge(0, 2),
            Delta.delete_edge(0, 1),
            Delta.insert_vertex("C"),
            Delta.delete_vertex(1),
        ]
        payloads = [d.to_dict() for d in deltas]
        batch = UpdateBatch.from_dicts(payloads, tag="t")
        assert tuple(batch) == tuple(deltas)
        assert len(batch) == 4
        assert batch.tag == "t"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Delta(op="teleport", u=0)
        with pytest.raises(ValueError):
            Delta(op="insert-edge", u=0)  # missing v
        with pytest.raises(ValueError):
            Delta(op="insert-vertex", u=3)  # takes a label, not ids
        with pytest.raises(ValueError):
            Delta.from_dict({"op": "insert-edge", "u": 0, "v": 1, "w": 2})
        with pytest.raises(ValueError):
            Delta.from_dict(["insert-edge", 0, 1])

    def test_batch_rejects_non_deltas(self):
        with pytest.raises(TypeError):
            UpdateBatch(deltas=({"op": "insert-edge", "u": 0, "v": 1},))


class TestApplyUpdate:
    def test_tombstone_keeps_ids_stable(self):
        graph = Graph(labels=["A", "B", "C"], edges=[(0, 1), (1, 2)])
        new, footprint = apply_update(graph, UpdateBatch((Delta.delete_vertex(1),)))
        assert new.num_vertices == 3  # ids never move
        assert new.label(1) == TOMBSTONE_LABEL
        assert new.num_edges == 0  # incident edges stripped
        assert footprint.tombstoned == {1}
        assert footprint.deleted_edges == {(0, 1), (1, 2)}
        # the original graph is untouched
        assert graph.label(1) == "B" and graph.num_edges == 2

    def test_batches_apply_atomically(self):
        graph = Graph(labels=["A", "B"], edges=[])
        bad = UpdateBatch((Delta.insert_edge(0, 1), Delta.insert_edge(0, 9)))
        with pytest.raises(UpdateError, match=r"deltas\[1\]"):
            apply_update(graph, bad)
        assert graph.num_edges == 0

    def test_structural_validation(self):
        graph = Graph(labels=["A", "B", "B"], edges=[(0, 1)])
        for delta in (
            Delta.insert_edge(0, 1),  # duplicate edge
            Delta.delete_edge(0, 2),  # no such edge
            Delta.delete_vertex(5),  # out of range
            Delta.insert_vertex(TOMBSTONE_LABEL),  # reserved label
        ):
            with pytest.raises(UpdateError):
                apply_update(graph, UpdateBatch((delta,)))

    def test_operations_on_tombstoned_vertices_fail(self):
        graph = Graph(labels=["A", "B", "B"], edges=[(0, 1)])
        gone, _ = apply_update(graph, UpdateBatch((Delta.delete_vertex(2),)))
        for delta in (Delta.insert_edge(0, 2), Delta.delete_vertex(2)):
            with pytest.raises(UpdateError):
                apply_update(gone, UpdateBatch((delta,)))

    # A derived version shares every untouched row with its parent, so
    # the tests below pin both halves of that: the result equals a cold
    # rebuild, and no version ever sees another's changes.
    def test_derived_graphs_equal_cold_rebuilds(self):
        rng = random.Random(21)
        for case in range(12):
            _query, graph = random_graph_case(rng, max_vertices=20)
            labels, edges = list(graph.labels), set(graph.edges())
            for _ in range(6):
                batch = mixed_batch(rng, labels, edges)
                graph, _footprint = apply_update(graph, batch)
                cold = Graph(labels=labels, edges=sorted(edges))
                assert graph == cold
                assert graph_state(graph) == graph_state(cold)

    def test_parent_versions_never_change(self):
        rng = random.Random(5)
        _query, parent = random_graph_case(rng, max_vertices=20)
        labels, edges = list(parent.labels), set(parent.edges())
        before = graph_state(parent)
        child, _ = apply_update(parent, mixed_batch(rng, labels, edges))
        assert graph_state(parent) == before
        child_before = graph_state(child)
        grandchild, _ = apply_update(child, mixed_batch(rng, labels, edges))
        assert graph_state(parent) == before
        assert graph_state(child) == child_before
        # Valid deltas touch rows and labels before the last one fails.
        u, v = next(parent.edges())
        half_done = UpdateBatch(
            (
                Delta.delete_edge(u, v),
                Delta.insert_vertex(parent.label(u)),
                Delta.insert_edge(u, parent.num_vertices),
                Delta.delete_vertex(v),
                Delta.insert_edge(u, v),
            )
        )
        with pytest.raises(UpdateError, match=r"deltas\[4\]"):
            apply_update(parent, half_done)
        assert graph_state(parent) == before
        assert graph_state(child) == child_before
        assert graph_state(grandchild) == graph_state(Graph(labels=labels, edges=sorted(edges)))

    def test_untouched_rows_are_shared(self):
        graph = Graph(labels=["A", "B", "B", "C"], edges=[(0, 1), (1, 2), (2, 3)])
        child, _ = apply_update(graph, UpdateBatch((Delta.insert_edge(0, 2),)))
        for v in (1, 3):
            assert child.neighbors(v) is graph.neighbors(v)
            assert child.neighbor_set(v) is graph.neighbor_set(v)
        assert child.neighbors(0) == (1, 2) and graph.neighbors(0) == (1,)
        # No label moved, so the label index is shared too.
        assert child.vertices_with_label("B") is graph.vertices_with_label("B")
        grown, _ = apply_update(
            child, UpdateBatch((Delta.insert_vertex("C"), Delta.delete_vertex(0)))
        )
        assert grown.vertices_with_label("B") == (1, 2)
        assert grown.vertices_with_label("C") == (3, 4)
        assert "A" not in grown.distinct_labels()
        assert grown.neighbors(3) is graph.neighbors(3)

    def test_cross_validate_catches_diverged_graph(self, monkeypatch):
        real_apply = dynamic.apply_update

        def apply_with_stale_set(graph, batch):
            new, footprint = real_apply(graph, batch)
            new._adj_sets[0] = graph.neighbor_set(0)
            return new, footprint

        monkeypatch.setattr(dynamic, "apply_update", apply_with_stale_set)
        session = simple_session()
        before = session.data
        with pytest.raises(UpdateError, match="derived graph"):
            session.apply(UpdateBatch((Delta.insert_edge(0, 2),)), cross_validate=True)
        assert session.data is before
        assert session.graph_version == 0


def mixed_batch(rng: random.Random, labels: list, edges: set) -> UpdateBatch:
    """A valid 8-delta batch mixing all four delta kinds, including edges
    at vertices inserted, and deletions of vertices inserted, earlier in
    the same batch.  ``labels`` and ``edges`` model the graph and are
    updated to describe the result."""
    deltas = []
    for _ in range(8):
        live = [v for v, lab in enumerate(labels) if lab != TOMBSTONE_LABEL]
        op = rng.random()
        if op < 0.2 or len(live) < 2:
            deltas.append(Delta.insert_vertex(rng.choice("ABC")))
            labels.append(deltas[-1].label)
        elif op < 0.55:
            u, v = sorted(rng.sample(live, 2))
            if (u, v) in edges:
                deltas.append(Delta.delete_edge(u, v))
                edges.discard((u, v))
            else:
                deltas.append(Delta.insert_edge(v, u))
                edges.add((u, v))
        elif op < 0.85 and edges:
            u, v = rng.choice(sorted(edges))
            deltas.append(Delta.delete_edge(u, v))
            edges.discard((u, v))
        else:
            victim = rng.choice(live)
            deltas.append(Delta.delete_vertex(victim))
            labels[victim] = TOMBSTONE_LABEL
            edges.difference_update({e for e in edges if victim in e})
    return UpdateBatch(tuple(deltas))


def graph_state(graph: Graph) -> tuple:
    """Everything a frozen graph answers, as cross-validation compares it,
    plus its hash."""
    return dynamic._graph_state(graph), hash(graph)


# ----------------------------------------------------------------------
# Incremental structures == cold rebuilds
# ----------------------------------------------------------------------
def assert_index_identical(graph: Graph) -> None:
    # Read the attached index without building one: a missing refresh
    # must fail here, not be papered over by a cold build.
    incremental = graph._index
    assert incremental is not None
    assert incremental == GraphIndex(graph)


def random_batch(rng: random.Random, graph: Graph, size: int) -> UpdateBatch:
    """A structurally valid random batch against ``graph``: edge flips
    among live vertices, label-recycling vertex inserts, and occasional
    vertex removals."""
    labels = sorted({graph.label(v) for v in graph.vertices() if graph.label(v) != TOMBSTONE_LABEL})
    live = [v for v in graph.vertices() if graph.label(v) != TOMBSTONE_LABEL]
    edges = set(graph.edges())
    deltas = []
    removed: set[int] = set()
    for _ in range(size):
        op = rng.random()
        candidates = [v for v in live if v not in removed]
        if op < 0.4 and len(candidates) >= 2:
            u, v = rng.sample(candidates, 2)
            key = (min(u, v), max(u, v))
            if key not in edges:
                edges.add(key)
                deltas.append(Delta.insert_edge(u, v))
        elif op < 0.7 and edges:
            u, v = rng.choice(sorted(edges))
            if u not in removed and v not in removed:
                edges.discard((u, v))
                deltas.append(Delta.delete_edge(u, v))
        elif op < 0.85 and labels:
            deltas.append(Delta.insert_vertex(rng.choice(labels)))
        elif candidates:
            victim = rng.choice(candidates)
            removed.add(victim)
            edges = {e for e in edges if victim not in e}
            deltas.append(Delta.delete_vertex(victim))
    if not deltas:
        deltas.append(Delta.insert_vertex(labels[0] if labels else "Z"))
    return UpdateBatch(tuple(deltas))


class TestIncrementalIndex:
    def test_refreshed_index_matches_cold_build(self, rng):
        for case in range(10):
            _query, data = random_graph_case(rng)
            session = DataGraphSession(data)
            for _ in range(3):
                session.apply(random_batch(rng, session.data, rng.randint(1, 5)))
                assert_index_identical(session.data)

    def test_cross_validate_catches_stale_index_entry(self, monkeypatch):
        import repro.service.dynamic as dynamic

        real_refresh = dynamic.refresh_index

        def refresh_with_stale_nlf(*args):
            index = real_refresh(*args)
            nlf = list(index._nlf)
            nlf[1] = {**nlf[1], "B": 7}
            index._nlf = tuple(nlf)
            return index

        monkeypatch.setattr(dynamic, "refresh_index", refresh_with_stale_nlf)
        session = simple_session()
        session.run(MatchRequest(EDGE_QUERY))
        before = session.data
        with pytest.raises(UpdateError, match="GraphIndex"):
            session.apply(UpdateBatch((Delta.insert_edge(0, 2),)), cross_validate=True)
        assert session.data is before
        assert session.graph_version == 0


@pytest.mark.parametrize(
    "config",
    [
        MatchConfig(),
        MatchConfig(refine_to_fixpoint=True),
        MatchConfig(injective=False),
        MatchConfig(use_local_filters=False),
        MatchConfig(refinement_steps=1),
        MatchConfig(injective=False, refine_to_fixpoint=True),
    ],
    ids=[
        "default",
        "fixpoint",
        "homomorphism",
        "no-local-filters",
        "one-step",
        "homomorphism-fixpoint",
    ],
)
class TestIncrementalCandidateSpace:
    def test_refresh_is_bit_identical_to_cold_build(self, rng, config):
        matcher = DAFMatcher(config)
        for case in range(8):
            query, data = random_graph_case(rng, max_vertices=14, max_query=5)
            session = DataGraphSession(data, matcher=matcher)
            session.run(MatchRequest(query))  # warm the cache
            for _ in range(3):
                # cross_validate=True asserts cs_diff(incremental, cold)
                # is empty inside apply(); divergence raises UpdateError.
                session.apply(
                    random_batch(rng, session.data, rng.randint(1, 4)),
                    cross_validate=True,
                )

    def test_direct_refresh_equivalence(self, rng, config):
        matcher = DAFMatcher(config)
        query, data = random_graph_case(rng, max_vertices=12, max_query=4)
        prepared = matcher.prepare(query, data, keep_trail=True)
        new_data, footprint = apply_update(
            data, random_batch(rng, data, 4)
        )
        new_data.ensure_index()
        refreshed = refresh_candidate_space(prepared.cs, new_data, footprint, config)
        cold = matcher.prepare(query, new_data, keep_trail=True)
        assert cs_diff(refreshed, cold.cs) == []

    def test_chained_refreshes_equal_cold_builds(self, config):
        """Each refresh replays the trail the previous one wrote, four
        deep, and every step equals a cold build on the same DAG: a trail
        the replay writes must itself replay exactly."""
        rng = random.Random(7)
        matcher = DAFMatcher(config)
        for _ in range(150):
            query, data = random_graph_case(rng, max_vertices=20, max_query=6)
            cs = matcher.prepare(query, data, keep_trail=True).cs
            for _ in range(4):
                data, footprint = apply_update(data, random_batch(rng, data, rng.randint(1, 5)))
                cs = refresh_candidate_space(cs, data, footprint, config)
                options = config_build_options(config, query, data)
                cold = build_candidate_space(query, data, cs.dag, **options, keep_trail=True)
                assert cs_diff(cs, cold) == []

    def test_batch_off_the_query_labels_shares_the_old_structures(self, config, monkeypatch):
        """A batch that touches no vertex carrying a query label builds no
        C_ini and hands back the old CS's own lists, maps, rows and trail
        arrays."""
        rng = random.Random(11)
        core = ensure_connected(gnm_random_graph(24, 60, random_labels(24, 3, rng), rng), rng)
        query, _ = extract_query(core, 5, rng)
        # Z vertices 24..29: 24 and 25 hang off the core, 26..29 are a
        # path only the batch touches.
        labels = list(core.labels) + ["Z"] * 6
        edges = [*core.edges(), (0, 24), (7, 25), (24, 25), (26, 27), (27, 28), (28, 29)]
        data = Graph(labels=labels, edges=edges)
        options = config_build_options(config, query, data)
        dag = DAFMatcher(config).prepare(query, data).dag
        old = build_candidate_space(query, data, dag, **options, keep_trail=True)
        batch = UpdateBatch((
            Delta.insert_edge(26, 28),
            Delta.delete_edge(27, 28),
            Delta.insert_vertex("Z"),
            Delta.insert_edge(30, 29),
            Delta.delete_vertex(27),
        ))
        new_data, footprint = apply_update(data, batch)
        new_data.ensure_index()
        assert {(data.label(v) if v < 30 else new_data.label(v)) for v in footprint.dirty} == {"Z"}
        options = config_build_options(config, query, new_data)
        cold = build_candidate_space(query, new_data, dag, **options, keep_trail=True)

        def unexpected(*args, **kwargs):
            raise AssertionError("the refresh built C_ini")

        monkeypatch.setattr(candidate_space, "initial_candidate_sets", unexpected)
        monkeypatch.setattr(GraphIndex, "candidates_with_min_degree", unexpected)
        refreshed = refresh_candidate_space(old, new_data, footprint, config)
        monkeypatch.undo()
        assert cs_diff(refreshed, cold) == []
        for u in query.vertices():
            assert refreshed.candidates[u] is old.candidates[u]
            assert refreshed.candidate_index[u] is old.candidate_index[u]
            assert refreshed.down[u].keys() == old.down[u].keys()
            for u_c, rows in refreshed.down[u].items():
                assert rows is old.down[u][u_c]
        assert len(refreshed.trail) == len(old.trail)
        for removed, old_removed in zip(refreshed.trail, old.trail):
            assert all(r is o for r, o in zip(removed, old_removed))


def test_replay_generates_pool_from_smallest_child(local_filter_calls):
    """A batch at a hub makes every A vertex stale, so the replayed first
    pass must re-test all of C(A); the pool is narrowed to N(C(B)) inside
    replay, and the refresh still equals a cold build."""
    query = Graph(labels=["A", "B", "C"], edges=[(0, 1), (0, 2)])
    # 0 = the only B vertex, 1..20 = A vertices, 21 and 22 = C hubs
    # adjacent to every A vertex, 23 = a spare C vertex.
    labels = ["B"] + ["A"] * 20 + ["C"] * 3
    edges = [(0, 1), (0, 2), (0, 3)]
    edges += [(hub, a) for hub in (21, 22) for a in range(1, 21)]
    data = Graph(labels=labels, edges=edges)
    matcher = DAFMatcher()
    prepared = matcher.prepare(query, data, keep_trail=True)
    assert prepared.cs.dag.root == 1
    new_data, footprint = apply_update(
        data, UpdateBatch((Delta.insert_edge(21, 23), Delta.insert_edge(0, 4)))
    )
    stale_a = [v for v in footprint.local_dirty(new_data) if new_data.label(v) == "A"]
    assert len(stale_a) == 20

    local_filter_calls.clear()
    refreshed = refresh_candidate_space(prepared.cs, new_data, footprint, MatchConfig())
    tested_a = [v for v in local_filter_calls if new_data.label(v) == "A"]
    assert len(tested_a) <= new_data.degree(0) < len(stale_a)
    cold = matcher.prepare(query, new_data, keep_trail=True)
    assert cs_diff(refreshed, cold.cs) == []
    assert refreshed.candidates[0] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "config",
    [MatchConfig(), MatchConfig(refine_to_fixpoint=True), MatchConfig(use_local_filters=False)],
    ids=["default", "fixpoint", "no-local-filters"],
)
def test_refresh_equals_cold_build_over_seeded_corpus(config):
    """Hundreds of small refreshes, each against a cold build on the same
    DAG.  A replayed pass must re-test every candidate its recorded input
    lacked (one an earlier pass now keeps), which a few cases rarely hit."""
    rng = random.Random(2019)
    matcher = DAFMatcher(config)
    for _ in range(300):
        query, data = random_graph_case(rng, max_vertices=20, max_query=6)
        cs = matcher.prepare(query, data, keep_trail=True).cs
        new_data, footprint = apply_update(data, random_batch(rng, data, rng.randint(1, 5)))
        refreshed = refresh_candidate_space(cs, new_data, footprint, config)
        options = config_build_options(config, query, new_data)
        cold = build_candidate_space(query, new_data, cs.dag, **options, keep_trail=True)
        assert cs_diff(refreshed, cold) == []


# ----------------------------------------------------------------------
# Session surface: versioning, cache, subscriptions
# ----------------------------------------------------------------------
class TestSessionApply:
    def test_version_bumps_and_stats_carry_it(self):
        session = simple_session()
        assert session.graph_version == 0
        assert session.cache.stats()["graph_version"] == 0
        session.apply(UpdateBatch((Delta.insert_edge(0, 2),)))
        assert session.graph_version == 1
        stats = session.cache.stats()
        assert stats["graph_version"] == 1
        assert stats["invalidations"] == 0

    def test_failed_batch_leaves_session_untouched(self):
        session = simple_session()
        before = session.data
        with pytest.raises(UpdateError):
            session.apply(UpdateBatch((Delta.delete_edge(1, 2),)))
        assert session.data is before
        assert session.graph_version == 0

    def test_cached_answers_track_mutations(self):
        session = simple_session()
        request = MatchRequest(EDGE_QUERY)
        assert {tuple(e) for e in session.run(request).embeddings} == {(0, 1)}
        session.apply(UpdateBatch((Delta.insert_edge(0, 2),)))
        assert {tuple(e) for e in session.run(request).embeddings} == {(0, 1), (0, 2)}
        assert session.cache.stats()["hits"] == 1  # served by the rebased entry

    def _two_entry_session(self):
        # Path A-B-A-B-C with the A-B and B-C shapes cached; inserting the
        # edge (0, 3) adds a fourth A-B embedding.
        data = Graph(
            labels=["A", "B", "A", "B", "C"], edges=[(0, 1), (1, 2), (2, 3), (3, 4)]
        )
        session = DataGraphSession(data)
        requests = [
            MatchRequest(Graph(labels=["A", "B"], edges=[(0, 1)])),
            MatchRequest(Graph(labels=["B", "C"], edges=[(0, 1)])),
        ]
        answers = [embedding_set(session.run(r)) for r in requests]
        return session, requests, answers

    def _assert_unmoved(self, session, before, requests, answers):
        assert session.data is before
        assert session.graph_version == 0
        assert session.cache.stats()["graph_version"] == 0
        assert [embedding_set(session.run(r)) for r in requests] == answers
        fresh = DataGraphSession(session.data)
        assert [embedding_set(fresh.run(r)) for r in requests] == answers

    def test_failed_refresh_leaves_every_entry_on_old_graph(self, monkeypatch):
        import repro.service.dynamic as dynamic

        session, requests, answers = self._two_entry_session()
        before = session.data
        calls = []
        real_refresh = dynamic.refresh_candidate_space

        def refresh_then_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise UpdateError("refresh failed")
            return real_refresh(*args, **kwargs)

        monkeypatch.setattr(dynamic, "refresh_candidate_space", refresh_then_fail)
        with pytest.raises(UpdateError):
            session.apply(UpdateBatch((Delta.insert_edge(0, 3),)))
        assert len(calls) == 2  # the first entry was refreshed, then dropped
        self._assert_unmoved(session, before, requests, answers)

    @pytest.mark.faults
    def test_refine_fault_during_apply_keeps_old_version(self):
        session, requests, answers = self._two_entry_session()
        before = session.data
        # A 3-pass build visits cs.refine four times (C_ini + each pass),
        # so visit 4 is the first pass of the second entry's refresh.
        with inject(FaultSpec("cs.refine", kind="raise", at_visit=4)):
            with pytest.raises(InjectedFault):
                session.apply(UpdateBatch((Delta.insert_edge(0, 3),)))
        self._assert_unmoved(session, before, requests, answers)
        result = session.apply(UpdateBatch((Delta.insert_edge(0, 3),)))
        assert result.graph_version == 1 and result.cache_refreshed == 2
        assert len(embedding_set(session.run(requests[0]))) == 4

    def test_dag_flip_invalidates_entry(self):
        # Initially label A is rare (1 candidate) so BuildDAG roots there;
        # the batch floods the graph with well-connected A vertices, the
        # recomputed DAG re-roots, and the trail replay is meaningless —
        # the entry must be invalidated, not refreshed.
        data = Graph(
            labels=["A", "B", "B", "B"], edges=[(0, 1), (0, 2), (0, 3)]
        )
        session = DataGraphSession(data)
        session.run(MatchRequest(EDGE_QUERY))
        deltas = []
        for k in range(4):
            deltas.append(Delta.insert_vertex("A"))
            for b in (1, 2, 3):
                deltas.append(Delta.insert_edge(4 + k, b))
        result = session.apply(UpdateBatch(tuple(deltas)), cross_validate=True)
        assert result.cache_invalidated == 1
        assert session.cache.stats()["invalidations"] == 1
        # the next run re-prepares against the new graph and is correct
        fresh = DataGraphSession(session.data)
        assert (
            session.run(MatchRequest(EDGE_QUERY)).count
            == fresh.run(MatchRequest(EDGE_QUERY)).count
        )

    def test_cache_invalidation_counter_reaches_observer(self):
        from repro.obs import MetricsRegistry

        observer = MetricsRegistry()
        data = Graph(labels=["A", "B", "B", "B"], edges=[(0, 1), (0, 2), (0, 3)])
        session = DataGraphSession(data, observer=observer)
        session.run(MatchRequest(EDGE_QUERY))
        deltas = []
        for k in range(4):
            deltas.append(Delta.insert_vertex("A"))
            for b in (1, 2, 3):
                deltas.append(Delta.insert_edge(4 + k, b))
        session.apply(UpdateBatch(tuple(deltas)))
        assert observer.cache_invalidation == 1


class TestSubscribe:
    def test_known_scenario_streams_exact_events(self):
        session = simple_session()
        standing = session.subscribe(MatchRequest(EDGE_QUERY))
        assert isinstance(standing, StandingQuery)
        assert standing.embeddings == {(0, 1)}

        session.apply(UpdateBatch((Delta.insert_edge(0, 2),)))
        events = standing.drain()
        assert [(e.kind, e.embedding) for e in events] == [("appeared", (0, 2))]
        assert standing.embeddings == {(0, 1), (0, 2)}

        session.apply(UpdateBatch((Delta.delete_edge(0, 1),)))
        events = standing.drain()
        assert [(e.kind, e.embedding) for e in events] == [("disappeared", (0, 1))]
        assert standing.embeddings == {(0, 2)}
        assert standing.drain() == []  # drained

    def test_unsupported_options_are_rejected(self):
        session = simple_session()
        with pytest.raises(UnsupportedOptionError) as excinfo:
            session.subscribe(
                MatchRequest(EDGE_QUERY, options=MatchOptions(count_only=True))
            )
        assert "count_only" in str(excinfo.value)
        with pytest.raises(UnsupportedOptionError):
            session.subscribe(
                MatchRequest(EDGE_QUERY, options=MatchOptions(limit=5))
            )
        # per-batch governance options are fine
        session.subscribe(
            MatchRequest(EDGE_QUERY, options=MatchOptions(time_limit=30.0))
        )

    def test_budget_is_not_a_subscription_option(self):
        # A Budget is spent by one search and would lapse after the first
        # batch; per-batch governance is the time limit.
        from repro.resilience.budget import Budget

        session = simple_session()
        with pytest.raises(UnsupportedOptionError) as excinfo:
            session.subscribe(
                MatchRequest(EDGE_QUERY, options=MatchOptions(budget=Budget(time_limit=5.0)))
            )
        assert "budget" in str(excinfo.value)

    def test_disconnected_query_rejected(self):
        session = simple_session(matcher=VF2Matcher())
        with pytest.raises(ValueError, match="connected"):
            session.subscribe(MatchRequest(Graph(labels=["A", "B"], edges=[])))

    def test_overrun_subscription_leaves_the_batch_unapplied(self, monkeypatch):
        """One subscription past its time limit fails the whole batch:
        the session's graph, version and cache and every other
        subscription stay on the old version, and a retry applies it."""
        import time as real_time
        from types import SimpleNamespace

        session = simple_session()
        session.run(MatchRequest(EDGE_QUERY))
        ungoverned = session.subscribe(MatchRequest(EDGE_QUERY))
        governed = session.subscribe(
            MatchRequest(EDGE_QUERY, options=MatchOptions(time_limit=0.5))
        )
        old_data = session.data
        # Every clock read inside the update path advances 1000 s, so the
        # governed delta search is always past its limit.
        ticks = iter(range(0, 10**9, 1000))
        monkeypatch.setattr(
            dynamic,
            "time",
            SimpleNamespace(
                monotonic=lambda: float(next(ticks)),
                perf_counter=real_time.perf_counter,
            ),
        )
        batch = UpdateBatch((Delta.insert_edge(0, 2),))
        with pytest.raises(UpdateError, match="time limit"):
            session.apply(batch)
        assert session.graph_version == 0
        assert session.data is old_data
        assert session.cache.graph_version == 0
        for standing in (ungoverned, governed):
            assert standing.embeddings == {(0, 1)}
            assert standing.drain() == []

        monkeypatch.undo()
        session.apply(batch)
        assert session.graph_version == 1
        for standing in (ungoverned, governed):
            assert standing.embeddings == {(0, 1), (0, 2)}
            assert [(e.kind, e.embedding) for e in standing.drain()] == [
                ("appeared", (0, 2))
            ]

    def test_foreign_data_graph_rejected(self):
        session = simple_session()
        other = Graph(labels=["A", "B"], edges=[(0, 1)])
        with pytest.raises(ValueError):
            session.subscribe(MatchRequest(EDGE_QUERY, data=other))

    def test_count_only_session_cannot_subscribe(self):
        session = simple_session(
            matcher=DAFMatcher(MatchConfig(collect_embeddings=False))
        )
        with pytest.raises(ValueError):
            session.subscribe(MatchRequest(EDGE_QUERY))

    def test_cancel_detaches(self):
        session = simple_session()
        standing = session.subscribe(MatchRequest(EDGE_QUERY))
        standing.cancel()
        assert not standing.active
        session.apply(UpdateBatch((Delta.insert_edge(0, 2),)))
        assert standing.drain() == []
        assert standing.embeddings == {(0, 1)}  # frozen at cancellation


# ----------------------------------------------------------------------
# Property-style equivalence: incremental session == fresh session
# ----------------------------------------------------------------------
def embedding_set(result):
    return {tuple(e) for e in result.embeddings}


class TestEquivalence:
    def test_post_batch_answers_match_fresh_session(self, rng):
        """After every batch the warm session (rebased cache) and a cold
        session on the identical graph agree — for DAF and baselines."""
        baselines = [VF2Matcher(), GraphQLMatcher()]
        for case in range(6):
            query, data = random_graph_case(rng, max_vertices=14, max_query=5)
            session = DataGraphSession(data)
            request = MatchRequest(query)
            session.run(request)
            for _ in range(3):
                session.apply(
                    random_batch(rng, session.data, rng.randint(1, 5)),
                    cross_validate=True,
                )
                fresh = DataGraphSession(session.data)
                warm_result = session.run(request)
                fresh_result = fresh.run(request)
                assert embedding_set(warm_result) == embedding_set(fresh_result)
                for baseline in baselines:
                    assert embedding_set(
                        session.run(request, matcher=baseline)
                    ) == embedding_set(warm_result), baseline.name

    @pytest.mark.parametrize(
        "config",
        [MatchConfig(), MatchConfig(induced=True), MatchConfig(injective=False)],
        ids=["default", "induced", "homomorphism"],
    )
    def test_subscription_stream_replays_fresh_run_diff(self, rng, config):
        """The appeared/disappeared stream is exactly the difference of
        consecutive fresh enumerations under the session's config."""

        def fresh_run(data, query):
            session = DataGraphSession(data, matcher=DAFMatcher(config))
            return embedding_set(session.run(MatchRequest(query)))

        for case in range(6):
            query, data = random_graph_case(rng, max_vertices=14, max_query=5)
            session = DataGraphSession(data, matcher=DAFMatcher(config))
            standing = session.subscribe(MatchRequest(query))
            previous = set(standing.embeddings)
            assert previous == fresh_run(data, query)
            for _ in range(4):
                session.apply(random_batch(rng, session.data, rng.randint(1, 5)))
                current = fresh_run(session.data, query)
                events = standing.drain()
                appeared = {e.embedding for e in events if e.kind == "appeared"}
                disappeared = {
                    e.embedding for e in events if e.kind == "disappeared"
                }
                assert appeared == current - previous
                assert disappeared == previous - current
                assert standing.embeddings == current
                previous = current

    def test_homomorphism_session_equivalence(self, rng):
        matcher = DAFMatcher(MatchConfig(injective=False))
        for case in range(3):
            query, data = random_graph_case(rng, max_vertices=10, max_query=4)
            session = DataGraphSession(data, matcher=matcher)
            request = MatchRequest(query)
            session.run(request)
            for _ in range(2):
                session.apply(
                    random_batch(rng, session.data, 3), cross_validate=True
                )
                fresh = DataGraphSession(session.data, matcher=DAFMatcher(MatchConfig(injective=False)))
                assert embedding_set(session.run(request)) == embedding_set(
                    fresh.run(request)
                )


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestWeightArrayCache:
    """Cache hits reuse the cached CS's path-size weight array; a refresh
    builds a new CS whose weights are built once on its first read."""

    def test_hits_build_weights_once_per_candidate_space(self, rng, monkeypatch):
        from repro.core import candidate_space

        calls = []
        real = candidate_space.compute_weight_array

        def counting(cs):
            calls.append(cs)
            return real(cs)

        monkeypatch.setattr(candidate_space, "compute_weight_array", counting)
        for _ in range(4):
            query, data = random_graph_case(rng, max_vertices=14, max_query=5)
            session = DataGraphSession(data)
            request = MatchRequest(query)
            for _ in range(3):
                session.run(request)
                before = len(calls)
                session.run(request)
                assert len(calls) == before  # a second hit computes nothing
                entry, _ = session.cache.lookup(query)
                cs = entry.prepared.cs
                if not cs.is_empty():
                    assert calls[-1] is cs
                    assert [list(row) for row in cs.weights] == real(cs)
                session.apply(
                    random_batch(rng, session.data, rng.randint(1, 5)),
                    cross_validate=True,
                )
        assert calls


class TestEvents:
    def test_update_and_embedding_events_validate(self):
        from repro.obs import MemorySink, MetricsRegistry
        from repro.obs.schema import validate_event

        sink = MemorySink()
        session = DataGraphSession(
            Graph(labels=["A", "B", "B"], edges=[(0, 1)]),
            observer=MetricsRegistry(sink=sink),
        )
        session.subscribe(MatchRequest(EDGE_QUERY))
        session.apply(UpdateBatch((Delta.insert_edge(0, 2),)))
        session.apply(UpdateBatch((Delta.delete_edge(0, 1),)))
        kinds = [event["event"] for event in sink.events]
        assert "update.batch" in kinds
        assert "embedding.appeared" in kinds
        assert "embedding.disappeared" in kinds
        for event in sink.events:
            validate_event(event)
        update = next(e for e in sink.events if e["event"] == "update.batch")
        assert update["graph_version"] == 1
        assert update["appeared"] == 1
