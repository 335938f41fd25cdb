"""Query-set benchmark runner (paper §7, "Performance Measurement").

The paper's protocol, reproduced at Python scale:

- each query runs with an embedding cap ``k`` and a wall-clock limit;
  a query is *solved* if it finishes (cap or exhaustion) within the limit;
- per query set and per algorithm, report the percentage of solved
  queries and the averages of elapsed time and recursive calls over the
  ``n`` least-time-consuming solved queries, where ``n`` is the minimum
  solved count among the algorithms being compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.config import MatchConfig
from ..core.matcher import DAFMatcher
from ..graph.graph import Graph
from ..interfaces import Matcher, MatchOptions, MatchRequest


@dataclass
class QueryOutcome:
    """Measurements for one (algorithm, query) run."""

    solved: bool
    elapsed: float
    preprocess: float
    search: float
    recursive_calls: int
    embeddings: int
    candidates_total: int


@dataclass
class QuerySetSummary:
    """Aggregate over a query set for one algorithm (paper §7 metrics)."""

    algorithm: str
    query_set: str
    total_queries: int
    solved_queries: int
    avg_elapsed_ms: float
    avg_recursive_calls: float
    avg_candidates: float
    avg_preprocess_ms: float = 0.0
    avg_search_ms: float = 0.0

    @property
    def solved_percent(self) -> float:
        if self.total_queries == 0:
            return 0.0
        return 100.0 * self.solved_queries / self.total_queries


def counting_config(base: Optional[MatchConfig] = None) -> MatchConfig:
    """A copy of ``base`` with embedding materialization turned off —
    benchmarks only need counts (paper: enumerate the first k)."""
    import dataclasses

    base = base if base is not None else MatchConfig()
    return dataclasses.replace(base, collect_embeddings=False)


def daf_variant(name: str) -> DAFMatcher:
    """The four paper variants by name, in counting mode for benchmarks."""
    variants = {
        "DA-cand": MatchConfig(order="candidate", use_failing_sets=False),
        "DA-path": MatchConfig(order="path", use_failing_sets=False),
        "DAF-cand": MatchConfig(order="candidate", use_failing_sets=True),
        "DAF-path": MatchConfig(order="path", use_failing_sets=True),
        # Aliases used throughout the paper's figures.
        "DA": MatchConfig(order="path", use_failing_sets=False),
        "DAF": MatchConfig(order="path", use_failing_sets=True),
    }
    if name not in variants:
        raise KeyError(f"unknown DAF variant {name!r}; choices: {sorted(variants)}")
    matcher = DAFMatcher(counting_config(variants[name]))
    matcher.name = name
    return matcher


def run_query(
    matcher: Matcher,
    query: Graph,
    data: Graph,
    limit: int,
    time_limit: Optional[float],
) -> QueryOutcome:
    """Run one query under the paper's protocol."""
    result = matcher.run_request(
        MatchRequest(query, data, options=MatchOptions(limit=limit, time_limit=time_limit))
    )
    return QueryOutcome(
        solved=result.solved,
        elapsed=result.stats.elapsed_seconds,
        preprocess=result.stats.preprocess_seconds,
        search=result.stats.search_seconds,
        recursive_calls=result.stats.recursive_calls,
        embeddings=result.count,
        candidates_total=result.stats.candidates_total,
    )


def run_query_set(
    matcher: Matcher,
    queries: Sequence[Graph],
    data: Graph,
    limit: int,
    time_limit: Optional[float],
) -> list[QueryOutcome]:
    return [run_query(matcher, query, data, limit, time_limit) for query in queries]


def summarize(
    algorithm: str,
    query_set: str,
    outcomes: Sequence[QueryOutcome],
    top_n: Optional[int] = None,
) -> QuerySetSummary:
    """Aggregate outcomes, averaging over the ``top_n`` least-time-consuming
    solved queries (paper §7; ``None`` averages over all solved)."""
    solved = sorted((o for o in outcomes if o.solved), key=lambda o: o.elapsed)
    if top_n is not None:
        considered = solved[:top_n]
    else:
        considered = solved
    count = max(1, len(considered))
    return QuerySetSummary(
        algorithm=algorithm,
        query_set=query_set,
        total_queries=len(outcomes),
        solved_queries=len(solved),
        avg_elapsed_ms=1000.0 * sum(o.elapsed for o in considered) / count,
        avg_recursive_calls=sum(o.recursive_calls for o in considered) / count,
        avg_candidates=sum(o.candidates_total for o in considered) / count,
        avg_preprocess_ms=1000.0 * sum(o.preprocess for o in considered) / count,
        avg_search_ms=1000.0 * sum(o.search for o in considered) / count,
    )


def compare_matchers(
    matchers: dict[str, Matcher],
    query_set_name: str,
    queries: Sequence[Graph],
    data: Graph,
    limit: int,
    time_limit: Optional[float],
) -> dict[str, QuerySetSummary]:
    """Run every matcher on the query set and aggregate with the shared
    ``n = min solved count`` rule the paper uses for fair averaging.

    The data graph's index is built before any query is timed: it is a
    once-per-graph cost, and left lazy it would land on the first query
    of whichever matcher runs first.
    """
    data.ensure_index()
    all_outcomes = {
        name: run_query_set(matcher, queries, data, limit, time_limit)
        for name, matcher in matchers.items()
    }
    solved_counts = [
        sum(1 for o in outcomes if o.solved) for outcomes in all_outcomes.values()
    ]
    top_n = min(solved_counts) if solved_counts else 0
    if top_n == 0:
        top_n = None  # nobody solved anything; report raw averages
    return {
        name: summarize(name, query_set_name, outcomes, top_n)
        for name, outcomes in all_outcomes.items()
    }
