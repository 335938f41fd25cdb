"""DAF for directed graphs (the §2 "readily extended" case, implemented).

A directed embedding preserves labels and *directed* edges:
``(u, u') in E(q)`` requires ``(M(u), M(u')) in E(G)`` with the same
orientation.  The extension follows the paper's remark that the
techniques carry over directly — and indeed only the candidate layer is
direction-aware here:

- **C_ini** filters on in- and out-degree separately;
- the first DP pass applies a directed NLF (successor- and
  predecessor-label multiset domination);
- **DAG-graph DP** and the CS edge materialization check adjacency in the
  direction(s) the query edge demands (antiparallel query pairs demand
  both);
- the query DAG is built on the *underlying undirected* query (a DAG
  orientation is a processing order, orthogonal to edge semantics).

Everything after the CS — DAG ordering, weight array, adaptive matching
order, failing sets, leaf decomposition — is the unmodified undirected
engine (:class:`repro.core.backtrack.BacktrackEngine`), which operates
purely on the CS index lists.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..core.backtrack import BacktrackEngine
from ..core.candidate_space import CandidateSpace
from ..core.config import MatchConfig
from ..core.dag import bfs_vertex_order
from ..graph.digraph import RootedDAG
from ..graph.graph import Graph
from ..interfaces import (
    DEFAULT_LIMIT,
    Deadline,
    Embedding,
    MatchResult,
    SearchStats,
    TimeoutSignal,
)
from .digraph_data import DirectedGraph

DirectionCode = str  # "fwd" | "bwd" | "both", relative to (min, max)


def is_directed_embedding(mapping: Embedding, query: DirectedGraph, data: DirectedGraph) -> bool:
    """Check the directed embedding conditions."""
    if len(mapping) != query.num_vertices:
        return False
    if len(set(mapping)) != len(mapping):
        return False
    for u in query.vertices():
        if query.label(u) != data.label(mapping[u]):
            return False
    for u, w in query.edges():
        if not data.has_edge(mapping[u], mapping[w]):
            return False
    return True


def directed_initial_candidates(query: DirectedGraph, data: DirectedGraph, u: int) -> set[int]:
    """Directed C_ini: label match + in/out-degree domination."""
    out_needed = query.out_degree(u)
    in_needed = query.in_degree(u)
    return {
        v
        for v in data.vertices_with_label(query.label(u))
        if data.out_degree(v) >= out_needed and data.in_degree(v) >= in_needed
    }


def passes_directed_nlf(query: DirectedGraph, data: DirectedGraph, u: int, v: int) -> bool:
    """Directed NLF: successor- and predecessor-label multisets dominate."""
    data_out = data.out_label_counts(v)
    for label, needed in query.out_label_counts(u).items():
        if data_out.get(label, 0) < needed:
            return False
    data_in = data.in_label_counts(v)
    for label, needed in query.in_label_counts(u).items():
        if data_in.get(label, 0) < needed:
            return False
    return True


def _edge_direction(u: int, u_c: int, directions: dict[tuple[int, int], DirectionCode]) -> DirectionCode:
    """Direction code of the query edge between ``u`` and ``u_c``,
    re-expressed relative to the (u, u_c) ordering: "fwd" = u -> u_c."""
    key = (u, u_c) if u < u_c else (u_c, u)
    code = directions[key]
    if code == "both":
        return "both"
    if u < u_c:
        return code
    return "fwd" if code == "bwd" else "bwd"


def _supported(data: DirectedGraph, v: int, child_candidates: set[int], code: DirectionCode) -> bool:
    """Does ``v`` have a child candidate in the required direction(s)?"""
    if code == "fwd":
        pool = data.out_set(v)
        return not child_candidates.isdisjoint(pool)
    if code == "bwd":
        pool = data.in_set(v)
        return not child_candidates.isdisjoint(pool)
    out_pool = data.out_set(v)
    in_pool = data.in_set(v)
    return any(w in out_pool and w in in_pool for w in child_candidates)


def _adjacent_candidates(
    data: DirectedGraph, v: int, child_index: dict[int, int], code: DirectionCode
) -> tuple[int, ...]:
    """CS down-list entry: child-candidate indices adjacent to ``v`` in
    the required direction(s)."""
    if code == "fwd":
        return tuple(child_index[w] for w in data.out_neighbors(v) if w in child_index)
    if code == "bwd":
        return tuple(child_index[w] for w in data.in_neighbors(v) if w in child_index)
    in_pool = data.in_set(v)
    return tuple(
        child_index[w] for w in data.out_neighbors(v) if w in in_pool and w in child_index
    )


def build_directed_candidate_space(
    query: DirectedGraph,
    data: DirectedGraph,
    refinement_steps: int = 3,
    use_local_filters: bool = True,
) -> tuple[CandidateSpace, RootedDAG]:
    """BuildDAG + BuildCS for directed graphs.

    Returns the CS (over the undirected skeleton of the query, with
    direction-aware edges) and the rooted query DAG.
    """
    query_und, directions = query.to_undirected()
    from ..graph.properties import is_connected

    if query_und.num_vertices > 1 and not is_connected(query_und):
        raise ValueError("query graph must be (weakly) connected")

    candidate_sets = [directed_initial_candidates(query, data, u) for u in query.vertices()]

    # Root rule: argmin |C_ini(u)| / und-degree(u).
    def score(u: int) -> float:
        degree = query_und.degree(u)
        count = len(candidate_sets[u])
        return count / degree if degree else float(count)

    root = min(query_und.vertices(), key=lambda u: (score(u), u))
    order = bfs_vertex_order(query_und, data, root)
    rank = {u: i for i, u in enumerate(order)}
    dag_edges = []
    for u, w in query_und.edges():
        dag_edges.append((u, w) if rank[u] < rank[w] else (w, u))
    dag = RootedDAG(query_und, dag_edges, root)

    # Alternating DAG-graph DP with direction-aware adjacency.
    passes = [dag.reverse(), dag]
    for step in range(refinement_steps):
        direction = passes[step % 2]
        for u in reversed(direction.topological_order()):
            survivors: set[int] = set()
            children = direction.children(u)
            for v in candidate_sets[u]:
                if step == 0 and use_local_filters and not passes_directed_nlf(query, data, u, v):
                    continue
                ok = True
                for u_c in children:
                    code = _edge_direction(u, u_c, directions)
                    if not _supported(data, v, candidate_sets[u_c], code):
                        ok = False
                        break
                if ok:
                    survivors.add(v)
            candidate_sets[u] = survivors

    candidates = [sorted(c) for c in candidate_sets]
    candidate_index = [{v: i for i, v in enumerate(c)} for c in candidates]
    down: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in query.vertices()]
    for u in query.vertices():
        for u_c in dag.children(u):
            code = _edge_direction(u, u_c, directions)
            child_index = candidate_index[u_c]
            down[u][u_c] = [
                _adjacent_candidates(data, v, child_index, code) for v in candidates[u]
            ]
    cs = CandidateSpace(
        query=query_und,
        data=data,  # type: ignore[arg-type]  # engine only touches it in induced mode
        dag=dag,
        candidates=candidates,
        candidate_index=candidate_index,
        down=down,
        refinement_steps=refinement_steps,
    )
    return cs, dag


class DirectedDAFMatcher:
    """DAF over directed graphs.

    Same result/statistics contract as the undirected matchers; the
    ``induced`` config is rejected (its non-edge semantics are not
    defined here) and ``injective=False`` directed homomorphisms are
    supported like the undirected case.
    """

    def __init__(self, config: Optional[MatchConfig] = None) -> None:
        self.config = config if config is not None else MatchConfig()
        if self.config.induced:
            raise ValueError("induced matching is not supported for directed graphs")
        self.name = f"{self.config.variant_name}-directed"

    def match(
        self,
        query: DirectedGraph,
        data: DirectedGraph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
    ) -> MatchResult:
        query._require_frozen()
        data._require_frozen()
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        start = time.perf_counter()
        if self.config.injective:
            cs, _dag = build_directed_candidate_space(
                query,
                data,
                refinement_steps=self.config.refinement_steps,
                use_local_filters=self.config.use_local_filters,
            )
        else:
            # Homomorphism mode: degree/NLF filters are unsound; label-only.
            cs, _dag = build_directed_candidate_space(
                query, data, refinement_steps=self.config.refinement_steps,
                use_local_filters=False,
            )
        stats = SearchStats(
            candidates_total=cs.size,
            filter_iterations=cs.refinement_steps,
            preprocess_seconds=time.perf_counter() - start,
        )
        result = MatchResult(stats=stats)
        if cs.is_empty():
            return result
        engine = BacktrackEngine(
            cs,
            self.config,
            limit=limit,
            deadline=Deadline(time_limit),
            stats=stats,
            on_embedding=on_embedding,
        )
        search_start = time.perf_counter()
        try:
            engine.run()
        except TimeoutSignal:
            result.timed_out = True
        stats.search_seconds = time.perf_counter() - search_start
        result.embeddings = engine.embeddings
        result.limit_reached = engine.limit_reached
        return result

    def count(self, query: DirectedGraph, data: DirectedGraph, **kwargs) -> int:
        return self.match(query, data, **kwargs).count


class DirectedBruteForce:
    """Reference directed matcher for tests (permutation-style search)."""

    name = "directed-brute-force"

    def match(
        self,
        query: DirectedGraph,
        data: DirectedGraph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
    ) -> MatchResult:
        stats = SearchStats()
        result = MatchResult(stats=stats)
        deadline = Deadline(time_limit)
        n = query.num_vertices
        mapping = [-1] * n
        used: set[int] = set()

        class _Stop(Exception):
            pass

        def extend(u: int) -> None:
            stats.recursive_calls += 1
            deadline.tick()
            if u == n:
                stats.embeddings_found += 1
                result.embeddings.append(tuple(mapping))
                if stats.embeddings_found >= limit:
                    raise _Stop
                return
            for v in data.vertices_with_label(query.label(u)):
                if v in used:
                    continue
                ok = True
                for w in query.out_neighbors(u):
                    if w < u and not data.has_edge(v, mapping[w]):
                        ok = False
                        break
                if ok:
                    for w in query.in_neighbors(u):
                        if w < u and not data.has_edge(mapping[w], v):
                            ok = False
                            break
                if ok:
                    mapping[u] = v
                    used.add(v)
                    extend(u + 1)
                    used.discard(v)
                    mapping[u] = -1

        try:
            extend(0)
        except _Stop:
            result.limit_reached = True
        except TimeoutSignal:
            result.timed_out = True
        return result
