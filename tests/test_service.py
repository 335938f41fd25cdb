"""Tests for ``repro.service`` — sessions, prepared-query cache, batch engine.

Four layers, mirroring docs/serving.md:

- cache mechanics: WL keying, isomorphism verification, LRU eviction,
  counter accounting;
- session equivalence: results bit-identical to the sessionless path for
  every registered matcher, including isomorphic-relabel cache hits;
- batch execution: dedup, completion-order streaming, parallel fan-out,
  shared budgets, per-request/per-batch events;
- the amortization claim the layer exists for: a warm-cache batch spends
  a small fraction of the cold path's preprocessing time.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro import DAFMatcher, MatchConfig
from repro.baselines import ALL_BASELINES
from repro.graph import Graph, canonical_hash
from repro.interfaces import (
    MatchOptions,
    MatchRequest,
    UnsupportedOptionError,
)
from repro.obs import MemorySink, MetricsRegistry, validate_event
from repro.resilience import Budget
from repro.service import (
    BatchEngine,
    DataGraphSession,
    PreparedQueryCache,
    find_isomorphism,
)

from .conftest import random_graph_case


def permuted(graph: Graph, perm: list[int]) -> Graph:
    """An isomorphic copy of ``graph`` with vertex ``v`` renumbered to
    ``perm[v]`` — same shape, different coordinates."""
    labels: list = [None] * graph.num_vertices
    for v in graph.vertices():
        labels[perm[v]] = graph.label(v)
    edges = [(perm[u], perm[w]) for u, w in graph.edges()]
    return Graph(labels=labels, edges=edges)


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


@pytest.fixture
def small_data() -> Graph:
    """A data graph with enough structure for several distinct shapes."""
    rng = random.Random(71)
    _query, data = random_graph_case(rng, max_vertices=14)
    return data


@pytest.fixture
def shapes(small_data) -> list[Graph]:
    """Structurally distinct connected queries of the data graph (so
    every request in the batch tests has at least one embedding)."""
    from repro.graph import extract_query

    rng = random.Random(72)
    found: list[Graph] = []
    digests: set[str] = set()
    attempts = 0
    while len(found) < 4 and attempts < 200:
        attempts += 1
        query, _ = extract_query(small_data, rng.randint(2, 5), rng)
        digest = canonical_hash(query)
        if digest not in digests:
            digests.add(digest)
            found.append(query)
    assert len(found) == 4
    return found


class TestFindIsomorphism:
    def test_identity_on_equal_graphs(self, edge_query):
        assert find_isomorphism(edge_query, edge_query) == (0, 1)

    def test_relabeled_copy_yields_valid_bijection(self, rng):
        query, _ = random_graph_case(rng, max_vertices=12, max_query=6)
        perm = random_permutation(query.num_vertices, rng)
        copy = permuted(query, perm)
        pi = find_isomorphism(copy, query)
        assert pi is not None
        # pi maps copy vertices onto query vertices label/edge-preservingly.
        assert sorted(pi) == list(range(query.num_vertices))
        for v in copy.vertices():
            assert copy.label(v) == query.label(pi[v])
        for u, w in copy.edges():
            assert query.has_edge(pi[u], pi[w])

    def test_size_mismatch_is_not_isomorphic(self, edge_query, path_query):
        assert find_isomorphism(edge_query, path_query) is None

    def test_same_size_different_shape(self):
        triangle = Graph(labels=["A", "A", "A"], edges=[(0, 1), (1, 2), (0, 2)])
        path_plus = Graph(labels=["A", "A", "A"], edges=[(0, 1), (1, 2)])
        assert find_isomorphism(triangle, path_plus) is None

    def test_label_permutation_is_not_isomorphic(self):
        a = Graph(labels=["A", "B"], edges=[(0, 1)])
        b = Graph(labels=["B", "A"], edges=[(0, 1)])
        pi = find_isomorphism(a, b)
        assert pi == (1, 0)  # isomorphic, but only under the swap
        c = Graph(labels=["A", "A"], edges=[(0, 1)])
        assert find_isomorphism(a, c) is None


class TestPreparedQueryCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PreparedQueryCache(0)

    def test_miss_then_hit_same_slot(self, edge_query):
        cache = PreparedQueryCache(4)
        assert cache.lookup(edge_query) is None
        cache.insert(edge_query, "prepared-sentinel")
        entry, pi = cache.lookup(edge_query)
        assert entry.prepared == "prepared-sentinel"
        assert pi == (0, 1)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_isomorphic_relabel_hits_same_slot(self, rng):
        query, _ = random_graph_case(rng, max_vertices=12, max_query=6)
        cache = PreparedQueryCache(4)
        cache.lookup(query)
        cache.insert(query, "prepared")
        relabel = permuted(query, random_permutation(query.num_vertices, rng))
        assert canonical_hash(relabel) == canonical_hash(query)
        found = cache.lookup(relabel)
        assert found is not None
        assert len(cache) == 1  # same slot, no second entry

    def test_lru_eviction_order(self):
        cache = PreparedQueryCache(2)
        graphs = [
            Graph(labels=["A"], edges=[]),
            Graph(labels=["B"], edges=[]),
            Graph(labels=["C"], edges=[]),
        ]
        for g in graphs[:2]:
            cache.lookup(g)
            cache.insert(g, g.label(0))
        cache.lookup(graphs[0])  # touch A: B becomes the LRU entry
        cache.lookup(graphs[2])
        cache.insert(graphs[2], "C")
        assert cache.evictions == 1
        assert cache.lookup(graphs[1]) is None  # B was evicted
        assert cache.lookup(graphs[0]) is not None  # A survived the touch
        assert cache.lookup(graphs[2]) is not None

    def test_observer_counter_mirroring(self, edge_query):
        registry = MetricsRegistry()
        cache = PreparedQueryCache(1, observer=registry)
        cache.lookup(edge_query)
        cache.insert(edge_query, "p")
        cache.lookup(edge_query)
        other = Graph(labels=["Z", "Z"], edges=[(0, 1)])
        cache.lookup(other)
        cache.insert(other, "q")  # evicts edge_query
        assert registry.cache_hit == 1
        assert registry.cache_miss == 2
        assert registry.cache_eviction == 1
        counters = registry.snapshot()["counters"]
        assert counters["cache_hit"] == 1
        assert counters["cache_miss"] == 2
        assert counters["cache_eviction"] == 1

    def test_stats_and_clear(self, edge_query):
        cache = PreparedQueryCache(4)
        cache.lookup(edge_query)
        cache.insert(edge_query, "p")
        cache.lookup(edge_query)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1  # lifetime totals survive


class TestDataGraphSession:
    def test_repeated_query_hits_and_is_identical(self, small_data, shapes):
        session = DataGraphSession(small_data)
        cold = DAFMatcher().run_request(
            MatchRequest(shapes[0], small_data, options=MatchOptions(limit=500))
        )
        first = session.run(MatchRequest(shapes[0], options=MatchOptions(limit=500)))
        second = session.run(MatchRequest(shapes[0], options=MatchOptions(limit=500)))
        assert first.embeddings == cold.embeddings
        assert second.embeddings == cold.embeddings
        assert session.cache.hits == 1 and session.cache.misses == 1
        # A hit never rebuilds: its preprocessing cost is the lookup only.
        assert second.stats.preprocess_seconds < first.stats.preprocess_seconds

    def test_isomorphic_relabel_hit_has_identical_embedding_set(self, small_data, shapes, rng):
        session = DataGraphSession(small_data)
        for query in shapes:
            baseline = session.run(MatchRequest(query, options=MatchOptions(limit=500)))
            perm = random_permutation(query.num_vertices, rng)
            relabel = permuted(query, perm)
            probe = session.run(MatchRequest(relabel, options=MatchOptions(limit=500)))
            cold = DAFMatcher().run_request(
                MatchRequest(relabel, small_data, options=MatchOptions(limit=500))
            )
            assert sorted(probe.embeddings) == sorted(cold.embeddings)
            # the relabel rode the original's cache slot
            assert baseline.count == probe.count
        assert session.cache.hits == len(shapes)
        assert session.cache.misses == len(shapes)

    @pytest.mark.parametrize("name", ["DAF", *ALL_BASELINES])
    def test_session_matches_sessionless_for_every_matcher(self, name, rng):
        matcher = DAFMatcher() if name == "DAF" else ALL_BASELINES[name]()
        for _ in range(3):
            query, data = random_graph_case(rng, max_vertices=12, max_query=5)
            cold = type(matcher)().run_request(
                MatchRequest(query, data, options=MatchOptions(limit=200))
            )
            session = DataGraphSession(data, matcher=matcher)
            warm_miss = session.run(MatchRequest(query, options=MatchOptions(limit=200)))
            warm_hit = session.run(MatchRequest(query, options=MatchOptions(limit=200)))
            assert warm_miss.embeddings == cold.embeddings
            assert warm_hit.embeddings == cold.embeddings
            assert warm_miss.stats.recursive_calls == cold.stats.recursive_calls

    def test_foreign_data_graph_is_rejected(self, small_data, edge_query, triangle_data):
        session = DataGraphSession(small_data)
        with pytest.raises(ValueError, match="separate DataGraphSession"):
            session.run(MatchRequest(edge_query, triangle_data))

    def test_unsupported_option_is_rejected(self, small_data, shapes):
        session = DataGraphSession(small_data)
        cb_options = MatchOptions(on_embedding=lambda e: None)
        session.run(MatchRequest(shapes[0], options=cb_options))  # DAF supports it
        vf2_session = DataGraphSession(small_data, matcher=ALL_BASELINES["VF2"]())
        with pytest.raises(UnsupportedOptionError):
            vf2_session.run(
                MatchRequest(shapes[0], options=MatchOptions(count_only=True))
            )

    def test_count_only_on_cache_hit(self, small_data, shapes):
        session = DataGraphSession(small_data)
        full = session.run(MatchRequest(shapes[0], options=MatchOptions(limit=500)))
        counted = session.run(
            MatchRequest(shapes[0], options=MatchOptions(limit=500, count_only=True))
        )
        assert counted.embeddings == []
        assert counted.count == full.count
        assert session.cache.hits == 1

    def test_streaming_callback_is_remapped_on_relabel_hit(self, small_data, shapes, rng):
        session = DataGraphSession(small_data)
        query = shapes[0]
        session.run(MatchRequest(query, options=MatchOptions(limit=500)))
        relabel = permuted(query, random_permutation(query.num_vertices, rng))
        streamed: list = []
        result = session.run(
            MatchRequest(
                relabel,
                options=MatchOptions(limit=500, on_embedding=streamed.append),
            )
        )
        assert session.cache.hits == 1
        assert streamed == result.embeddings  # probe coordinates, not cached

    def test_warm_builds_each_shape_once(self, small_data, shapes):
        session = DataGraphSession(small_data)
        assert session.warm(shapes) == len(shapes)
        assert session.warm(shapes) == 0
        assert session.cache.misses == len(shapes)
        assert session.cache.hits == len(shapes)

    def test_warm_requires_daf(self, small_data):
        session = DataGraphSession(small_data, matcher=ALL_BASELINES["VF2"]())
        with pytest.raises(TypeError):
            session.warm([])

    def test_exhausted_budget_is_reported(self, small_data, shapes):
        budget = Budget(max_calls=1)
        budget.calls = budget.max_calls  # the very next tick breaches
        session = DataGraphSession(small_data)
        result = session.run(
            MatchRequest(shapes[0], options=MatchOptions(budget=budget))
        )
        assert result.budget_breach == "calls"
        assert result.count == 0


class TestBatchEngine:
    def _requests(self, shapes, repeat=2, **options):
        opts = MatchOptions(limit=500, **options)
        return [
            MatchRequest(query, options=opts, tag=f"q{i}-r{r}")
            for r in range(repeat)
            for i, query in enumerate(shapes)
        ]

    def test_sequential_batch_dedups_and_completes(self, small_data, shapes):
        session = DataGraphSession(small_data)
        engine = BatchEngine(session)
        requests = self._requests(shapes, repeat=2)
        batch = engine.run(requests)
        assert batch.failed == 0
        assert batch.completed == len(requests)
        assert batch.unique_queries == len(shapes)
        assert batch.cache_misses == len(shapes)
        assert batch.cache_hits == 0  # duplicates were deduped, not re-looked-up
        by_index = batch.by_index()
        assert [item.index for item in by_index] == list(range(len(requests)))
        assert {item.cache for item in by_index} == {"miss", "dedup"}
        # follower results equal a cold run of their own request
        for item, request in zip(by_index, requests):
            cold = DAFMatcher().run_request(
                MatchRequest(request.query, small_data, options=request.options)
            )
            assert sorted(item.result.embeddings) == sorted(cold.embeddings)

    def test_second_round_hits_warm_cache(self, small_data, shapes):
        session = DataGraphSession(small_data)
        engine = BatchEngine(session)
        engine.run(self._requests(shapes, repeat=1))
        batch = engine.run(self._requests(shapes, repeat=1))
        assert batch.cache_hits == len(shapes)
        assert batch.cache_misses == 0
        assert batch.hit_rate == 1.0

    def test_parallel_batch_matches_sequential(self, small_data, shapes):
        requests = self._requests(shapes, repeat=2)
        sequential = BatchEngine(DataGraphSession(small_data)).run(requests)
        parallel = BatchEngine(DataGraphSession(small_data), num_workers=3).run(requests)
        assert parallel.failed == 0
        assert parallel.workers == 3
        seq_items = sequential.by_index()
        par_items = parallel.by_index()
        for seq_item, par_item in zip(seq_items, par_items):
            assert sorted(seq_item.result.embeddings) == sorted(
                par_item.result.embeddings
            )
            assert seq_item.result.stats.recursive_calls == (
                par_item.result.stats.recursive_calls
            )

    def test_completion_order_streaming(self, small_data, shapes):
        session = DataGraphSession(small_data)
        engine = BatchEngine(session)
        seen = [item.index for item in engine.run_iter(self._requests(shapes, repeat=2))]
        assert sorted(seen) == list(range(2 * len(shapes)))

    def test_requests_with_callbacks_are_never_merged(self, small_data, shapes):
        session = DataGraphSession(small_data)
        engine = BatchEngine(session)
        streams: list[list] = [[], []]
        requests = [
            MatchRequest(
                shapes[0],
                options=MatchOptions(limit=500, on_embedding=streams[i].append),
                tag=i,
            )
            for i in range(2)
        ]
        batch = engine.run(requests)
        assert batch.failed == 0
        assert all(item.cache != "dedup" for item in batch.items)
        assert streams[0] == streams[1] != []

    def test_shared_budget_governs_the_batch(self, small_data, shapes):
        exhausted = Budget(max_calls=1)
        exhausted.calls = exhausted.max_calls
        session = DataGraphSession(small_data)
        batch = BatchEngine(session).run(self._requests(shapes, repeat=1), budget=exhausted)
        assert batch.failed == 0
        assert all(item.result.budget_breach == "calls" for item in batch.items)

    def test_mixed_option_groups_stay_separate(self, small_data, shapes):
        session = DataGraphSession(small_data)
        engine = BatchEngine(session)
        requests = [
            MatchRequest(shapes[0], options=MatchOptions(limit=500), tag="full"),
            MatchRequest(shapes[0], options=MatchOptions(limit=1), tag="first"),
        ]
        batch = engine.run(requests)
        assert batch.unique_queries == 2  # same shape, different options
        by_tag = {item.tag: item for item in batch.items}
        assert by_tag["first"].result.count <= 1

    def test_non_daf_session_bypasses_the_cache(self, small_data, shapes):
        session = DataGraphSession(small_data, matcher=ALL_BASELINES["VF2"]())
        batch = BatchEngine(session).run(self._requests(shapes[:2], repeat=1))
        assert batch.failed == 0
        assert all(item.cache in ("bypass", "dedup") for item in batch.items)
        assert batch.cache_hits == batch.cache_misses == 0

    def test_batch_events_are_schema_valid(self, small_data, shapes):
        sink = MemorySink()
        registry = MetricsRegistry(sink=sink)
        session = DataGraphSession(small_data, observer=registry)
        engine = BatchEngine(session)
        requests = self._requests(shapes, repeat=2)
        engine.run(requests)
        request_events = sink.of_type("batch.request")
        run_events = sink.of_type("batch.run")
        assert len(request_events) == len(requests)
        assert len(run_events) == 1
        for event in request_events + run_events:
            assert validate_event(event) == []
        summary = run_events[0]
        assert summary["requests"] == len(requests)
        assert summary["failed"] == 0
        assert summary["cache_misses"] == len(shapes)
        assert registry.cache_miss == len(shapes)

    def test_constructor_validation(self, small_data):
        session = DataGraphSession(small_data)
        with pytest.raises(ValueError):
            BatchEngine(session, num_workers=0)
        with pytest.raises(ValueError):
            BatchEngine(session, max_retries=-1)


class TestAmortization:
    def test_warm_batch_skips_preprocessing(self, small_data, shapes):
        """The layer's acceptance claim: a warm-cache batch of 50
        requests over a handful of shapes spends at least 5x less
        build time (dag_build + cs_construct spans) than 50 cold
        ``match()`` calls — while returning identical embeddings."""
        options = MatchOptions(limit=200)
        requests = [
            MatchRequest(shapes[i % len(shapes)], options=options, tag=i)
            for i in range(50)
        ]

        cold_registry = MetricsRegistry()
        cold_matcher = DAFMatcher().with_observer(cold_registry)
        cold_results = [
            cold_matcher.run_request(
                MatchRequest(r.query, small_data, options=options)
            )
            for r in requests
        ]
        cold_build = cold_registry.spans.get("dag_build", 0.0) + cold_registry.spans.get(
            "cs_construct", 0.0
        )
        assert cold_build > 0.0

        warm_registry = MetricsRegistry()
        session = DataGraphSession(small_data, observer=warm_registry)
        session.warm(shapes)
        spans_after_warm = dict(warm_registry.spans)
        batch = BatchEngine(session).run(requests)
        assert batch.failed == 0
        assert batch.cache_hits == len(shapes)  # one leader per shape, all hits
        warm_build = (
            warm_registry.spans.get("dag_build", 0.0)
            + warm_registry.spans.get("cs_construct", 0.0)
            - spans_after_warm.get("dag_build", 0.0)
            - spans_after_warm.get("cs_construct", 0.0)
        )
        assert warm_build * 5 <= cold_build
        for item, cold in zip(batch.by_index(), cold_results):
            assert sorted(item.result.embeddings) == sorted(cold.embeddings)


class TestRequestAPI:
    def test_positional_match_is_rejected(self, edge_query, triangle_data):
        matcher = DAFMatcher()
        removed_spellings = (
            lambda: matcher.match(edge_query, triangle_data),
            lambda: matcher.match(edge_query, triangle_data, limit=10),
            lambda: matcher.match(query=edge_query, data=triangle_data),
            lambda: matcher.match(edge_query),
        )
        for call in removed_spellings:
            with pytest.raises(TypeError, match=r"MatchRequest.*docs/serving\.md"):
                call()

    def test_request_form_does_not_warn(self, edge_query, triangle_data):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = DAFMatcher().match(MatchRequest(edge_query, triangle_data))
        assert result.count == 2

    def test_mixing_request_and_kwargs_is_rejected(self, edge_query, triangle_data):
        with pytest.raises(TypeError, match="inside the MatchRequest"):
            DAFMatcher().match(MatchRequest(edge_query, triangle_data), limit=5)

    def test_dataless_request_needs_a_session(self, edge_query):
        with pytest.raises(ValueError, match="DataGraphSession"):
            DAFMatcher().run_request(MatchRequest(edge_query))

    def test_unsupported_option_names_the_fields(self, edge_query, triangle_data):
        with pytest.raises(UnsupportedOptionError, match="count_only"):
            ALL_BASELINES["Ullmann"]().run_request(
                MatchRequest(
                    edge_query, triangle_data, options=MatchOptions(count_only=True)
                )
            )

    def test_count_and_exists_round_trip(self, edge_query, triangle_data):
        matcher = DAFMatcher()
        assert matcher.count(edge_query, triangle_data) == 2
        assert matcher.exists(edge_query, triangle_data)
        missing = Graph(labels=["Z", "Z"], edges=[(0, 1)])
        assert not matcher.exists(missing, triangle_data)
