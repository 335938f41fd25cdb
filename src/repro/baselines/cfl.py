"""CFL-Match (Bi et al., SIGMOD 2016) — the paper's primary competitor.

The three ingredients reproduced here:

**CPI structure.**  A BFS spanning tree of the query is rooted at the core
vertex minimizing ``|C_ini(u)| / deg(u)``.  Candidates are generated
top-down level by level — a candidate must be adjacent to a candidate of
its *tree parent*, pass NLF, and have at least one adjacent candidate for
every already-processed neighbor (tree or non-tree, the "forward"
non-tree check) — then refined bottom-up along tree edges.  Only *tree*
edges are materialized into adjacency lists: this is precisely the
structural difference from DAF's CS that Fig. 9 measures (CPI admits more
false-positive candidates, and non-tree edges must be verified against
the data graph during search).

**Core-forest-leaf decomposition.**  The query splits into its 2-core
(which contains all non-tree edges), the forest hanging off the core, and
the degree-one leaves.  The static matching order visits core first, then
forest, then leaves — postponing the Cartesian products that pure path
ordering suffers.  Within core and forest, root-to-leaf tree paths are
ordered infrequent-first using CPI candidate counts (the path-ordering
technique).

**Search.**  Backtracking follows the static order; tree-edge candidates
come from CPI adjacency, non-tree backward edges are probed in the data
graph.  Degree-one leaves are matched last and, in counting mode, counted
combinatorially (CFL's leaf-matching optimization, which DAF adopts).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.filters import (
    initial_candidate_count,
    initial_candidates,
    passes_neighborhood_label_frequency,
)
from ..graph.graph import Graph
from ..graph.properties import k_core_vertices
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
from .generic import observe_baseline_run


class _LimitReached(Exception):
    pass


@dataclass
class CPI:
    """CFL-Match's compact path index.

    ``adjacency[(p, c)][v]`` lists the candidates of tree-child ``c``
    adjacent (in the data graph) to candidate ``v`` of tree-parent ``p``;
    only spanning-tree edges are materialized.
    """

    query: Graph
    data: Graph
    root: int
    parent: dict[int, int]
    children: dict[int, list[int]]
    bfs_order: list[int]
    candidates: list[set[int]]
    adjacency: dict[tuple[int, int], dict[int, tuple[int, ...]]]

    @property
    def size(self) -> int:
        """Sum of candidate-set sizes — the Fig. 9 comparison metric."""
        return sum(len(c) for c in self.candidates)

    def is_empty(self) -> bool:
        return any(not c for c in self.candidates)


def select_cfl_root(query: Graph, data: Graph) -> int:
    """Root = core vertex minimizing |C_ini(u)| / deg(u) (whole query when
    the 2-core is empty, i.e. tree queries)."""
    core = k_core_vertices(query, 2)
    pool = core if core else frozenset(query.vertices())

    def score(u: int) -> float:
        degree = query.degree(u)
        count = initial_candidate_count(query, data, u)
        return count / degree if degree else float(count)

    return min(pool, key=lambda u: (score(u), u))


def build_cpi(query: Graph, data: Graph, root: Optional[int] = None) -> CPI:
    """Construct the CPI (top-down generation + bottom-up refinement)."""
    if root is None:
        root = select_cfl_root(query, data)
    # BFS tree.
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {u: [] for u in query.vertices()}
    bfs_order = [root]
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in query.neighbors(u):
            if w not in depth:
                depth[w] = depth[u] + 1
                parent[w] = u
                children[u].append(w)
                bfs_order.append(w)
                queue.append(w)
    if len(bfs_order) != query.num_vertices:
        raise ValueError("query graph must be connected")

    # Top-down candidate generation.
    candidates: list[set[int]] = [set() for _ in query.vertices()]
    candidates[root] = {
        v
        for v in initial_candidates(query, data, root)
        if passes_neighborhood_label_frequency(query, data, root, v)
    }
    processed = {root}
    for u in bfs_order[1:]:
        p = parent[u]
        allowed = set(initial_candidates(query, data, u))
        pool: set[int] = set()
        for v in candidates[p]:
            for w in data.neighbors(v):
                if w in allowed:
                    pool.add(w)
        checked_neighbors = [w for w in query.neighbors(u) if w in processed and w != p]
        survivors: set[int] = set()
        for w in pool:
            if not passes_neighborhood_label_frequency(query, data, u, w):
                continue
            w_adjacent = data.neighbor_set(w)
            if all(not candidates[un].isdisjoint(w_adjacent) for un in checked_neighbors):
                survivors.add(w)
        candidates[u] = survivors
        processed.add(u)

    # Bottom-up refinement along tree edges.
    for u in reversed(bfs_order):
        for c in children[u]:
            child_set = candidates[c]
            candidates[u] = {
                v for v in candidates[u] if any(w in child_set for w in data.neighbors(v))
            }

    # Materialize tree-edge adjacency.
    adjacency: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
    for u in bfs_order:
        for c in children[u]:
            child_set = candidates[c]
            adjacency[(u, c)] = {
                v: tuple(w for w in data.neighbors(v) if w in child_set)
                for v in candidates[u]
            }
    return CPI(
        query=query,
        data=data,
        root=root,
        parent=parent,
        children=children,
        bfs_order=bfs_order,
        candidates=candidates,
        adjacency=adjacency,
    )


def core_forest_leaf_classes(query: Graph) -> list[int]:
    """Class per vertex: 0 = core (2-core), 1 = forest, 2 = leaf.

    When the 2-core is empty (tree queries) every non-leaf vertex is
    treated as forest; 2-vertex queries keep both vertices in class 0 so
    the order machinery never defers everything.
    """
    n = query.num_vertices
    if n <= 2:
        return [0] * n
    core = k_core_vertices(query, 2)
    classes = []
    for u in query.vertices():
        if u in core:
            classes.append(0)
        elif query.degree(u) == 1:
            classes.append(2)
        else:
            classes.append(1)
    # Guard: the matching order needs a non-empty first class containing
    # the root's component; if the core is empty, promote forest to core
    # position implicitly via stable partition (classes 1 then 2).
    return classes


def cfl_matching_order(cpi: CPI) -> list[int]:
    """Core-forest-leaf order with infrequent-path-first inside classes."""
    query = cpi.query
    classes = core_forest_leaf_classes(query)
    # The root anchors the search and is matched first no matter what
    # class the decomposition gave it (a tree query may root at degree 1).
    classes[cpi.root] = 0

    # Path ordering over the BFS tree: root-to-leaf paths sorted by the
    # product of candidate-set sizes of their fresh vertices.
    paths: list[list[int]] = []

    def walk(u: int, prefix: list[int]) -> None:
        prefix = prefix + [u]
        if not cpi.children[u]:
            paths.append(prefix)
            return
        for c in cpi.children[u]:
            walk(c, prefix)

    walk(cpi.root, [])

    def cost(path: list[int]) -> float:
        total = 1.0
        for u in path[1:]:
            total *= max(1, len(cpi.candidates[u]))
        return total

    paths.sort(key=cost)
    base_order: list[int] = []
    seen: set[int] = set()
    for path in paths:
        for u in path:
            if u not in seen:
                seen.add(u)
                base_order.append(u)
    # Stable partition: core, then forest, then leaves.  Tree parents stay
    # ahead of children because a vertex's class never exceeds its tree
    # parent's (core parents for core/forest subtree roots, non-leaf
    # parents for leaves).
    return [u for cls in (0, 1, 2) for u in base_order if classes[u] == cls]


class CFLMatcher(Matcher):
    """CFL-Match: CPI + core-forest-leaf static order + leaf counting."""

    name = "CFL-Match"

    #: Leaf counting makes the enumerate-only fast path natural here, so
    #: CFL honors the shared ``count_only`` option.
    supported_options = Matcher.supported_options | {"count_only"}

    def _match_impl(
        self,
        query: Graph,
        data: Graph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
        count_only: bool = False,
    ) -> MatchResult:
        validate_inputs(query, data)
        stats = SearchStats()
        result = MatchResult(stats=stats)
        start = time.perf_counter()
        cpi = build_cpi(query, data)
        stats.preprocess_seconds = time.perf_counter() - start
        stats.candidates_total = cpi.size
        if cpi.is_empty():
            observe_baseline_run(self.observer, stats, cpi.candidates)
            return result

        order = cfl_matching_order(cpi)
        searcher = _CFLSearch(
            cpi,
            order,
            limit,
            Deadline(time_limit),
            stats,
            on_embedding,
            not count_only,
            observer=self.observer,
        )
        search_start = time.perf_counter()
        try:
            searcher.run()
        except _LimitReached:
            result.limit_reached = True
        except TimeoutSignal:
            result.timed_out = True
        stats.search_seconds = time.perf_counter() - search_start
        result.embeddings = searcher.embeddings
        observe_baseline_run(self.observer, stats, cpi.candidates)
        return result

    def cpi_size(self, query: Graph, data: Graph) -> int:
        """Auxiliary-structure size only (the Fig. 9 measurement)."""
        return build_cpi(query, data).size


class _CFLSearch:
    """Static-order backtracking over the CPI with deferred leaves."""

    def __init__(
        self,
        cpi: CPI,
        order: list[int],
        limit: int,
        deadline: Deadline,
        stats: SearchStats,
        on_embedding: Optional[Callable[[Embedding], None]],
        collect_embeddings: bool,
        observer=None,
    ) -> None:
        self.cpi = cpi
        self.limit = limit
        self.deadline = deadline
        self.stats = stats
        self.on_embedding = on_embedding
        self.collect = collect_embeddings
        self.obs = observer
        self.progress = observer.progress if observer is not None else None
        if observer is not None:
            observer.ensure_vertices(cpi.query.num_vertices)
        self.embeddings: list[Embedding] = []
        query = cpi.query
        n = query.num_vertices
        self.n = n
        classes = core_forest_leaf_classes(query)
        classes[cpi.root] = 0
        self.core_forest_order = [u for u in order if classes[u] != 2]
        self.leaves = [u for u in order if classes[u] == 2]
        position = {u: i for i, u in enumerate(self.core_forest_order)}
        # Backward non-tree neighbors to verify against the data graph.
        self.backward_nontree: list[tuple[int, ...]] = []
        for i, u in enumerate(self.core_forest_order):
            p = cpi.parent.get(u)
            self.backward_nontree.append(
                tuple(
                    w
                    for w in query.neighbors(u)
                    if w != p and w in position and position[w] < i
                )
            )
        self.mapping = [-1] * n
        self.used: set[int] = set()

    def run(self) -> None:
        self._extend(0)

    def _report(self) -> None:
        self.stats.embeddings_found += 1
        if self.collect or self.on_embedding is not None:
            embedding = tuple(self.mapping)
            if self.collect:
                self.embeddings.append(embedding)
            if self.on_embedding is not None:
                self.on_embedding(embedding)
        if self.stats.embeddings_found >= self.limit:
            raise _LimitReached

    def _extend(self, position: int) -> None:
        self.stats.recursive_calls += 1
        self.deadline.tick()
        if self.progress is not None:
            self.progress.tick(self.stats.recursive_calls, position)
        cpi = self.cpi
        data = cpi.data
        if position == len(self.core_forest_order):
            self._match_leaves()
            return
        u = self.core_forest_order[position]
        p = cpi.parent.get(u)
        if p is None:
            pool: tuple[int, ...] = tuple(sorted(cpi.candidates[u]))
        else:
            pool = cpi.adjacency[(p, u)][self.mapping[p]]
        nontree = self.backward_nontree[position]
        mapping = self.mapping
        used = self.used
        obs = self.obs
        if obs is not None:
            entered_before = obs.children_entered
        for v in pool:
            if v in used:
                if obs is not None:
                    obs.candidates_examined += 1
                    obs.prune_conflict += 1
                    obs.vertex_conflict[u] += 1
                continue
            if any(not data.has_edge(v, mapping[w]) for w in nontree):
                # Non-tree edges are not in the CPI, so this data-graph
                # probe is CFL's analogue of a missing CS edge.
                if obs is not None:
                    obs.candidates_examined += 1
                    obs.prune_cs_edge += 1
                continue
            if obs is not None:
                obs.candidates_examined += 1
                obs.children_entered += 1
                obs.vertex_entered[u] += 1
            mapping[u] = v
            used.add(v)
            try:
                self._extend(position + 1)
            finally:
                used.discard(v)
                mapping[u] = -1
        if obs is not None and obs.children_entered == entered_before:
            obs.prune_empty += 1
            obs.vertex_empty[u] += 1

    # -- leaf matching ------------------------------------------------
    def _leaf_pool(self, u: int) -> tuple[int, ...]:
        p = self.cpi.parent[u]
        return self.cpi.adjacency[(p, u)][self.mapping[p]]

    def _match_leaves(self) -> None:
        if not self.leaves:
            self._report()
            return
        if not self.collect and self.on_embedding is None:
            self._count_leaves()
            return
        self._leaf_rec(0)

    def _leaf_rec(self, position: int) -> None:
        if position == len(self.leaves):
            self._report()
            return
        self.deadline.tick()
        u = self.leaves[position]
        obs = self.obs
        if obs is not None:
            entered_before = obs.children_entered
        for v in self._leaf_pool(u):
            if v in self.used:
                if obs is not None:
                    obs.candidates_examined += 1
                    obs.prune_conflict += 1
                    obs.vertex_conflict[u] += 1
                continue
            if obs is not None:
                obs.candidates_examined += 1
                obs.children_entered += 1
                obs.vertex_entered[u] += 1
            self.mapping[u] = v
            self.used.add(v)
            try:
                self._leaf_rec(position + 1)
            finally:
                self.used.discard(v)
                self.mapping[u] = -1
        if obs is not None and obs.children_entered == entered_before:
            obs.prune_empty += 1
            obs.vertex_empty[u] += 1

    def _count_leaves(self) -> None:
        """CFL's combinatorial leaf counting, grouped by label."""
        from ..core.backtrack import _count_injective

        query = self.cpi.query
        remaining = self.limit - self.stats.embeddings_found
        obs = self.obs
        groups: dict[object, list[list[int]]] = {}
        group_first_leaf: dict[object, int] = {}
        for u in self.leaves:
            pool = self._leaf_pool(u)
            usable = [v for v in pool if v not in self.used]
            if obs is not None:
                obs.candidates_examined += len(pool)
                obs.prune_conflict += len(pool) - len(usable)
                obs.vertex_conflict[u] += len(pool) - len(usable)
            groups.setdefault(query.label(u), []).append(usable)
            group_first_leaf.setdefault(query.label(u), u)
        total = 1
        for label, candidate_lists in groups.items():
            group_count = _count_injective(
                candidate_lists, cap=remaining, injective=True, deadline=self.deadline
            )
            if group_count == 0:
                if obs is not None:
                    obs.prune_empty += 1
                    # The group failed as a unit; attribute the emptyset
                    # to its first leaf so per-vertex sums stay exact.
                    obs.vertex_empty[group_first_leaf[label]] += 1
                return
            total = min(total * group_count, remaining)
        self.stats.embeddings_found += min(total, remaining)
        if self.stats.embeddings_found >= self.limit:
            raise _LimitReached
