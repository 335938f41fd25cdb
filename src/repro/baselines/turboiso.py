"""Turbo_iso (Han, Lee & Lee, SIGMOD 2013).

Turbo_iso's thesis is that the optimal matching order differs per *region*
of the data graph, so it:

1. picks a start query vertex ``u_s`` ranking by ``|C_ini(u)| / deg(u)``;
2. builds a BFS spanning tree ``q_T`` of the query from ``u_s``;
3. for every start candidate ``v_s``, explores the *candidate region*:
   per-query-vertex candidate sets reachable from ``v_s`` along the
   spanning tree (top-down collection + bottom-up existence pruning —
   the CR structure, here kept as plain per-region candidate sets);
4. computes a *per-region matching order* by the path-ordering technique:
   root-to-leaf paths of ``q_T`` sorted by their estimated number of
   candidate paths (infrequent paths first), concatenated;
5. backtracks inside the region, checking non-tree edges against the data
   graph (the CR holds tree edges only — exactly the limitation the DAF
   paper's §1 challenge 1 discusses).

Simplification (DESIGN.md substitution 2): the NEC (neighborhood
equivalence class) compression of duplicate query vertices is omitted —
it compresses work by constant factors and does not change the region /
path-order behaviour the comparison is about.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Optional

from ..core.filters import (
    initial_candidate_count,
    initial_candidates,
    passes_neighborhood_label_frequency,
)
from ..graph.graph import Graph
from ..graph.properties import spanning_tree_edges
from ..interfaces import (
    DEFAULT_LIMIT,
    Deadline,
    Embedding,
    Matcher,
    MatchResult,
    SearchStats,
    TimeoutSignal,
    validate_inputs,
)
from .generic import observe_baseline_run, ordered_backtrack


class _LimitReached(Exception):
    pass


def choose_start_vertex(query: Graph, data: Graph) -> int:
    """Rank query vertices by |C_ini(u)| / deg(u); smallest wins."""
    def score(u: int) -> float:
        degree = query.degree(u)
        count = initial_candidate_count(query, data, u)
        return count / degree if degree else float(count)

    return min(query.vertices(), key=lambda u: (score(u), u))


def _tree_structure(query: Graph, root: int) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Children map and parent map of the BFS spanning tree from root."""
    edges = spanning_tree_edges(query, root)
    children: dict[int, list[int]] = {u: [] for u in query.vertices()}
    parent: dict[int, int] = {}
    for p, c in edges:
        children[p].append(c)
        parent[c] = p
    return children, parent


def explore_candidate_region(
    query: Graph,
    data: Graph,
    root: int,
    root_candidate: int,
    children: dict[int, list[int]],
    base_candidates: list[set[int]],
) -> Optional[list[set[int]]]:
    """The CR structure for one region, as per-vertex candidate sets.

    Top-down: a candidate of a child must be adjacent to some candidate of
    its tree parent.  Bottom-up: a candidate must retain, for every tree
    child, at least one adjacent candidate.  Returns ``None`` when the
    region cannot host the query tree.
    """
    region: list[set[int]] = [set() for _ in query.vertices()]
    region[root] = {root_candidate}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for c in children[u]:
            frontier: set[int] = set()
            allowed = base_candidates[c]
            for v in region[u]:
                for w in data.neighbors(v):
                    if w in allowed:
                        frontier.add(w)
            if not frontier:
                return None
            region[c] = frontier
            order.append(c)
            queue.append(c)
    # Bottom-up existence pruning.
    for u in reversed(order):
        for c in children[u]:
            child_set = region[c]
            region[u] = {
                v for v in region[u] if any(w in child_set for w in data.neighbors(v))
            }
        if not region[u]:
            return None
    return region


def path_order(
    query: Graph,
    root: int,
    children: dict[int, list[int]],
    region: list[set[int]],
) -> list[int]:
    """Turbo_iso's path ordering: root-to-leaf tree paths sorted by their
    estimated candidate-path count, concatenated (first occurrence kept)."""
    paths: list[list[int]] = []

    def walk(u: int, prefix: list[int]) -> None:
        prefix = prefix + [u]
        if not children[u]:
            paths.append(prefix)
            return
        for c in children[u]:
            walk(c, prefix)

    walk(root, [])

    def cost(path: list[int]) -> float:
        total = 1.0
        for u in path[1:]:  # the shared root contributes equally
            total *= max(1, len(region[u]))
        return total

    paths.sort(key=cost)
    order: list[int] = []
    seen: set[int] = set()
    for path in paths:
        for u in path:
            if u not in seen:
                seen.add(u)
                order.append(u)
    return order


class TurboIsoMatcher(Matcher):
    """Turbo_iso: candidate regions + per-region path ordering."""

    name = "TurboISO"

    def _match_impl(
        self,
        query: Graph,
        data: Graph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
    ) -> MatchResult:
        validate_inputs(query, data)
        stats = SearchStats()
        result = MatchResult(stats=stats)
        deadline = Deadline(time_limit)
        start = time.perf_counter()
        root = choose_start_vertex(query, data)
        children, _parent = _tree_structure(query, root)
        base_candidates = [
            {
                v
                for v in initial_candidates(query, data, u)
                if passes_neighborhood_label_frequency(query, data, u, v)
            }
            for u in query.vertices()
        ]
        stats.preprocess_seconds = time.perf_counter() - start
        if any(not c for c in base_candidates):
            observe_baseline_run(self.observer, stats, base_candidates)
            return result

        search_start = time.perf_counter()
        try:
            for v_root in sorted(base_candidates[root]):
                if deadline.expired():
                    raise TimeoutSignal
                region = explore_candidate_region(
                    query, data, root, v_root, children, base_candidates
                )
                if region is None:
                    continue
                stats.candidates_total = max(
                    stats.candidates_total, sum(len(c) for c in region)
                )
                order = path_order(query, root, children, region)
                # stats is shared across regions, so embeddings_found is
                # cumulative and the *global* limit is the right bound.
                sub = ordered_backtrack(
                    query,
                    data,
                    order,
                    region,
                    limit,
                    deadline,
                    on_embedding,
                    stats=stats,
                    observer=self.observer,
                )
                result.embeddings.extend(sub.embeddings)
                if sub.timed_out:
                    result.timed_out = True
                    break
                if stats.embeddings_found >= limit:
                    result.limit_reached = True
                    break
        except TimeoutSignal:
            result.timed_out = True
        stats.search_seconds = time.perf_counter() - search_start
        # Counters accumulate across all regions; the histogram records the
        # pre-region candidate sets (the regions are transient refinements).
        observe_baseline_run(self.observer, stats, base_candidates)
        return result
