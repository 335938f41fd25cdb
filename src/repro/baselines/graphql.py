"""GraphQL (He & Singh, SIGMOD 2008).

GraphQL filters candidates in two escalating stages before searching:

1. **Neighborhood profile**: the sorted multiset of labels in a vertex's
   1-hop neighborhood; ``v`` can host ``u`` only if u's profile is a
   sub-multiset of v's.
2. **Pseudo-isomorphism refinement**: iteratively require a *semi-perfect
   bipartite matching* between u's neighbors and v's neighbors where
   neighbor ``u'`` may pair with neighbor ``v'`` only if ``v'`` is still a
   candidate of ``u'``.  A vertex failing the matching is dropped; the
   process repeats for a fixed number of rounds (the paper's default 2)
   or until a fixpoint.

The matching order is GraphQL's left-deep join order (greedy smallest
candidate set, connectivity-first) and the search is standard ordered
backtracking probing the data graph.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from ..core.filters import initial_candidates, passes_neighborhood_label_frequency
from ..graph.graph import Graph
from ..interfaces import (
    DEFAULT_LIMIT,
    Deadline,
    Embedding,
    Matcher,
    MatchResult,
    validate_inputs,
)
from .generic import greedy_candidate_order, observe_baseline_run, ordered_backtrack


def _has_semi_perfect_matching(
    left: Sequence[int], right_options: dict[int, list[int]]
) -> bool:
    """Can every left vertex be matched to a distinct right vertex?

    Hungarian-style augmenting paths; sizes here are vertex degrees, so
    the simple O(L * E) routine is plenty.
    """
    match_of_right: dict[int, int] = {}

    def augment(u: int, banned: set[int]) -> bool:
        for v in right_options[u]:
            if v in banned:
                continue
            banned.add(v)
            holder = match_of_right.get(v)
            if holder is None or augment(holder, banned):
                match_of_right[v] = u
                return True
        return False

    for u in left:
        if not augment(u, set()):
            return False
    return True


def pseudo_iso_refine(
    query: Graph,
    data: Graph,
    candidate_sets: list[set[int]],
    rounds: int = 2,
) -> None:
    """GraphQL's iterative pseudo-isomorphism refinement, in place."""
    for _ in range(rounds):
        changed = False
        for u in query.vertices():
            u_neighbors = query.neighbors(u)
            if not u_neighbors:
                continue
            doomed = []
            for v in candidate_sets[u]:
                v_neighbors = data.neighbors(v)
                options = {
                    u_n: [v_n for v_n in v_neighbors if v_n in candidate_sets[u_n]]
                    for u_n in u_neighbors
                }
                if any(not opts for opts in options.values()) or not _has_semi_perfect_matching(
                    u_neighbors, options
                ):
                    doomed.append(v)
            if doomed:
                changed = True
                candidate_sets[u].difference_update(doomed)
        if not changed:
            break


class GraphQLMatcher(Matcher):
    """GraphQL: profile filter + pseudo-iso refinement + left-deep order."""

    name = "GraphQL"

    def __init__(self, refinement_rounds: int = 2) -> None:
        self.refinement_rounds = refinement_rounds

    def _match_impl(
        self,
        query: Graph,
        data: Graph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
    ) -> MatchResult:
        validate_inputs(query, data)
        start = time.perf_counter()
        candidate_sets = [
            {
                v
                for v in initial_candidates(query, data, u)
                if passes_neighborhood_label_frequency(query, data, u, v)
            }
            for u in query.vertices()
        ]
        pseudo_iso_refine(query, data, candidate_sets, rounds=self.refinement_rounds)
        order = greedy_candidate_order(query, candidate_sets)
        preprocess = time.perf_counter() - start
        deadline = Deadline(time_limit)
        result = ordered_backtrack(
            query, data, order, candidate_sets, limit, deadline, on_embedding,
            observer=self.observer,
        )
        result.stats.preprocess_seconds = preprocess
        result.stats.candidates_total = sum(len(c) for c in candidate_sets)
        observe_baseline_run(self.observer, result.stats, candidate_sets)
        return result
