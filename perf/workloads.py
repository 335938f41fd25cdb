"""The four benchmark workloads.

Each workload is a closed loop: one client, zero think time, no worker
processes.  It has three parts:

- ``setup(seed)`` builds everything that exists before the first timed
  operation (data graph, query pool, session, index, cache warm-up,
  subscriptions) and returns a :class:`State`;
- ``ops(state, seed, passes)`` yields the timed operations one at a
  time.  Generating the next operation (drawing a shape, permuting it,
  building an update batch) happens between operations, outside each
  operation's latency;
- ``check(state, expected)`` runs after the timed phase and returns the
  problems it finds beyond per-answer counts (which the runner checks
  for every :class:`Op` that names its data graph).

Query pools come from the fixed ``POOL_SEED``; ``--seed`` drives
everything drawn while serving: request order, Zipf draws, vertex
permutations and update batches.  A pool drawn from ``--seed`` would
make the seed-to-seed spread measure the sample of queries, not the
system (see "Inputs" in ``perf/README.md``).

The pool and phase sizes are constructor arguments so tests can build
tiny instances; everything else is a constant.  ``PASS_SECONDS`` is the
nominal length of one pass on the reference machine; ``--seconds`` is
converted into a whole number of passes, at least ``MIN_PASSES``, so a
run's work, and every count it reports, depends only on the seed and
``--seconds``.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Optional

from repro import (
    DAFMatcher,
    DataGraphSession,
    Delta,
    Graph,
    MatchOptions,
    MatchRequest,
    UpdateBatch,
    UpdateError,
)
from repro.datasets import SPECS, generate
from repro.graph import extract_query
from repro.workloads import generate_query_set

POOL_SEED = 2019
#: Cap on embeddings per request; ``human_enum`` uses the paper's k.
LIMIT = 1000
PAPER_K = 100_000


@dataclass
class Op:
    """One timed operation."""

    kind: str  # "query" | "update"
    run: Callable[[], object]
    #: For a query: the shape whose count the answer must equal, the
    #: graph to count it in (``None`` skips the check) and the cap.
    query: Optional[Graph] = None
    data: Optional[Graph] = None
    limit: int = 0


@dataclass
class State:
    """What ``setup`` built."""

    data: Graph
    pool: list[Graph]
    session: Optional[DataGraphSession] = None
    standing: list = field(default_factory=list)
    rng: Optional[random.Random] = None


def _pool(data: Graph, classes, rng: random.Random) -> list[Graph]:
    """Queries of each ``(size, density, count)`` class, in order."""
    queries: list[Graph] = []
    for size, density, count in classes:
        queries += generate_query_set(data, size, density, count, rng).queries
    return queries


def _permuted(query: Graph, rng: random.Random) -> Graph:
    """``query`` with its vertex ids shuffled (an isomorphic probe)."""
    perm = list(query.vertices())
    rng.shuffle(perm)
    labels = [None] * query.num_vertices
    for u in query.vertices():
        labels[perm[u]] = query.label(u)
    return Graph(labels=labels, edges=[(perm[u], perm[v]) for u, v in query.edges()])


class Workload:
    name: str
    PASS_SECONDS: float
    MIN_PASSES = 1
    #: Span names (see ``perf/trace.py``) the traced run must record.
    spans: frozenset[str]

    def passes(self, seconds: float) -> int:
        return max(self.MIN_PASSES, round(seconds / self.PASS_SECONDS))

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def ops(self, state: State, seed: int, passes: int) -> Iterator[Op]:
        raise NotImplementedError

    def check(self, state: State, expected) -> list[str]:
        return []


PREPARE_SPANS = frozenset({"dag.build", "cs.build", "prepare", "search"})
SESSION_SPANS = PREPARE_SPANS | {
    "cache.lookup",
    "cache.insert",
    "cache.hash",
    "cache.iso",
    "index.ensure",
}


class YagoRefine(Workload):
    """Sessionless requests on an unindexed yago graph: refinement-bound."""

    name = "yago_refine"
    spans = PREPARE_SPANS
    PASS_SECONDS = 15.0
    #: A pass is the 64-query pool; two give 128 samples, so p90 has 13
    #: samples beyond it.
    MIN_PASSES = 2

    def __init__(self, per_class: int = 32) -> None:
        self.per_class = per_class

    def setup(self, seed: int) -> State:
        data = generate(SPECS["yago"])
        classes = [(8, "sparse", self.per_class), (8, "nonsparse", self.per_class)]
        return State(data=data, pool=_pool(data, classes, random.Random(POOL_SEED)))

    def ops(self, state: State, seed: int, passes: int) -> Iterator[Op]:
        rng = random.Random(seed)
        options = MatchOptions(limit=LIMIT, count_only=True, time_limit=30.0)
        for _ in range(passes):
            order = list(state.pool)
            rng.shuffle(order)
            for query in order:
                request = MatchRequest(query, state.data, options)
                yield Op("query", lambda r=request: DAFMatcher().run_request(r),
                         query, state.data, LIMIT)


class HumanEnum(Workload):
    """Cache-hit requests with the paper's k on human: enumeration-bound."""

    name = "human_enum"
    spans = SESSION_SPANS
    PASS_SECONDS = 5.0

    def __init__(self, pool: int = 100) -> None:
        self.pool = pool

    def setup(self, seed: int) -> State:
        data = generate(SPECS["human"])
        pool = _pool(data, [(8, "sparse", self.pool)], random.Random(POOL_SEED))
        session = DataGraphSession(data, cache_size=len(pool))
        session.warm(pool)
        return State(data=data, pool=pool, session=session)

    def ops(self, state: State, seed: int, passes: int) -> Iterator[Op]:
        rng = random.Random(seed)
        options = MatchOptions(limit=PAPER_K, count_only=True)
        for _ in range(passes):
            order = list(state.pool)
            rng.shuffle(order)
            for query in order:
                request = MatchRequest(query, options=options)
                yield Op("query", lambda r=request: state.session.run(r),
                         query, state.data, PAPER_K)


class HprdServe(Workload):
    """A Zipf mix of permuted shapes through a small prepared-query cache."""

    name = "hprd_serve"
    spans = SESSION_SPANS
    PASS_SECONDS = 5.0

    def __init__(self, per_size: int = 16, sizes: tuple[int, ...] = (6, 8, 10, 12),
                 cache_size: int = 32, warmup: int = 200, pass_requests: int = 800) -> None:
        self.per_size = per_size
        self.sizes = sizes
        self.cache_size = cache_size
        self.warmup = warmup
        self.pass_requests = pass_requests

    def setup(self, seed: int) -> State:
        data = generate(SPECS["hprd"])
        pool_rng = random.Random(POOL_SEED)
        half = self.per_size // 2
        classes = []
        for size in self.sizes:
            classes += [(size, "sparse", half), (size, "nonsparse", self.per_size - half)]
        shapes = _pool(data, classes, pool_rng)
        pool_rng.shuffle(shapes)  # list position is popularity rank
        session = DataGraphSession(data, cache_size=self.cache_size)
        state = State(data=data, pool=shapes, session=session, rng=random.Random(seed))
        options = MatchOptions(limit=LIMIT, count_only=True)
        for shape in self._draws(state, self.warmup):
            session.run(MatchRequest(_permuted(shape, state.rng), options=options))
        return state

    def _draws(self, state: State, total: int) -> list[Graph]:
        """``total`` requests whose shape counts follow Zipf(1) over the
        popularity ranks exactly, in a seeded random order.  Exact counts
        keep the traffic mix identical across seeds; only the order and
        the permutations vary."""
        weights = [1.0 / rank for rank in range(1, len(state.pool) + 1)]
        scale = total / sum(weights)
        draws = [
            shape
            for shape, weight in zip(state.pool, weights)
            for _ in range(max(1, round(weight * scale)))
        ]
        state.rng.shuffle(draws)
        return draws

    def ops(self, state: State, seed: int, passes: int) -> Iterator[Op]:
        options = MatchOptions(limit=LIMIT, count_only=True)
        for _ in range(passes):
            for shape in self._draws(state, self.pass_requests):
                request = MatchRequest(_permuted(shape, state.rng), options=options)
                yield Op("query", lambda r=request: state.session.run(r),
                         shape, state.data, LIMIT)


class YeastChurn(Workload):
    """Update batches interleaved with reads, with standing queries."""

    name = "yeast_churn"
    spans = SESSION_SPANS | {
        "mutate.apply",
        "index.refresh",
        "cs_delta.refresh",
        "dynamic.dag_check",
        "session.apply",
    }
    PASS_SECONDS = 4.0
    STANDING_SIZE = 10
    DELTAS_PER_BATCH = 8
    READS_PER_ROUND = 4

    def __init__(self, shape_classes=((5, 6), (6, 5), (8, 5)), standing: int = 4,
                 rounds_per_pass: int = 50, check_every: int = 25) -> None:
        self.shape_classes = shape_classes
        self.standing = standing
        self.rounds_per_pass = rounds_per_pass
        self.check_every = check_every

    def setup(self, seed: int) -> State:
        data = generate(SPECS["yeast"])
        pool_rng = random.Random(POOL_SEED)
        shapes = _pool(data, [(size, "sparse", n) for size, n in self.shape_classes], pool_rng)
        session = DataGraphSession(data)
        session.warm(shapes)
        state = State(data=data, pool=shapes, session=session)
        for _ in range(100 * self.standing):
            if len(state.standing) == self.standing:
                break
            query, _ = extract_query(data, self.STANDING_SIZE, pool_rng)
            try:
                state.standing.append(session.subscribe(MatchRequest(query)))
            except UpdateError:
                continue  # baseline too large for an exact difference stream
        else:
            raise RuntimeError("could not subscribe the standing queries")
        return state

    def _batch(self, session, outstanding: deque, rng: random.Random) -> UpdateBatch:
        """Delete the oldest half of the batch from earlier inserts, fill
        the rest with inserts of random absent edges."""
        data = session.data
        deltas = [Delta.delete_edge(*outstanding.popleft())
                  for _ in range(min(self.DELTAS_PER_BATCH // 2, len(outstanding)))]
        inserted: set[tuple[int, int]] = set()
        while len(deltas) < self.DELTAS_PER_BATCH:
            u, v = sorted((rng.randrange(data.num_vertices), rng.randrange(data.num_vertices)))
            if u == v or (u, v) in inserted or data.has_edge(u, v):
                continue
            inserted.add((u, v))
            deltas.append(Delta.insert_edge(u, v))
        outstanding.extend(sorted(inserted))
        return UpdateBatch(deltas)

    def ops(self, state: State, seed: int, passes: int) -> Iterator[Op]:
        rng = random.Random(seed)
        session = state.session
        options = MatchOptions(limit=LIMIT, count_only=True)
        outstanding: deque = deque()
        for _ in range(passes * self.rounds_per_pass):
            batch = self._batch(session, outstanding, rng)
            yield Op("update", lambda b=batch: session.apply(b))
            # Reads of every check_every-th version are rechecked on that
            # version's frozen graph, which the Op keeps alive.
            checked = session.data if session.graph_version % self.check_every == 0 else None
            for _ in range(self.READS_PER_ROUND):
                shape = state.pool[rng.randrange(len(state.pool))]
                request = MatchRequest(shape, options=options)
                yield Op("query", lambda r=request: session.run(r), shape, checked, LIMIT)

    def check(self, state: State, expected) -> list[str]:
        """Each standing query's maintained set equals a fresh enumeration."""
        problems = []
        for standing in state.standing:
            request = MatchRequest(standing.request.query, state.session.data,
                                   MatchOptions(limit=10**7))
            fresh = set(DAFMatcher().run_request(request).embeddings)
            if fresh != standing.embeddings:
                problems.append(
                    f"standing query {standing.id}: maintained {len(standing.embeddings)} "
                    f"embeddings, fresh enumeration {len(fresh)}"
                )
        return problems


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "yago_refine": YagoRefine,
    "human_enum": HumanEnum,
    "hprd_serve": HprdServe,
    "yeast_churn": YeastChurn,
}
