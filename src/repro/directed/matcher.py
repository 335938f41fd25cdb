"""DAF for directed graphs (the §2 "readily extended" case, implemented).

A directed embedding preserves labels and *directed* edges:
``(u, u') in E(q)`` requires ``(M(u), M(u')) in E(G)`` with the same
orientation.  The extension follows the paper's remark that the
techniques carry over directly — and indeed only the candidate layer is
direction-aware here:

- **C_ini** filters on in- and out-degree separately and, with local
  filters on, on a directed NLF (successor- and predecessor-label
  multiset domination); homomorphism mode (``injective=False``) keeps
  the label test only;
- the root is core :func:`~repro.core.dag.select_root` fed the
  in/out-degree candidate counts, and the DAG is core
  :func:`~repro.core.dag.build_dag` on the *underlying undirected*
  query (a DAG orientation is a processing order, orthogonal to edge
  semantics);
- **DAG-graph DP** and the CS edge materialization run in
  :func:`~repro.core.candidate_space.build_edge_aware_candidate_space`
  with an adjacency that follows the direction(s) the query edge
  demands (antiparallel query pairs demand both).

Everything after the CS — weight array, adaptive matching order,
failing sets, leaf decomposition — is :meth:`DAFMatcher.search
<repro.core.matcher.DAFMatcher.search>`, which operates purely on the
CS index lists.  :class:`DirectedBruteForce` is the reference the tests
check it against.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.candidate_space import build_edge_aware_candidate_space
from ..core.dag import build_dag, select_root
from ..core.matcher import ExtensionMatcher, PreparedQuery
from ..graph.properties import is_connected
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


class DirectedDAFMatcher(ExtensionMatcher):
    """DAF over directed graphs.

    Same result/statistics contract as the undirected matchers, called
    as ``match(MatchRequest(query, data, options=...))``; the
    ``induced`` config is rejected (its non-edge semantics are not
    defined here) and ``injective=False`` finds directed homomorphisms.
    """

    name_suffix = "directed"
    graph_kind = "directed"

    def prepare(self, query: DirectedGraph, data: DirectedGraph) -> PreparedQuery:
        """BuildDAG + BuildCS over the query's undirected skeleton, with
        direction-aware CS edges."""
        query._require_frozen()
        data._require_frozen()
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        start = time.perf_counter()
        skeleton, directions = query.to_undirected()
        if skeleton.num_vertices > 1 and not is_connected(skeleton):
            raise ValueError("query graph must be (weakly) connected")
        if self.config.injective:
            initial = [directed_initial_candidates(query, data, u) for u in query.vertices()]
        else:
            # Homomorphisms may fold query vertices onto one data vertex,
            # so in/out-degree and NLF domination are unsound: label-only.
            initial = [set(data.vertices_with_label(query.label(u))) for u in query.vertices()]
        # The root rule counts C_ini before the directed NLF narrows it.
        root = select_root(skeleton, data, [len(c) for c in initial])
        if self.config.injective and self.config.use_local_filters:
            initial = [
                {v for v in candidates if passes_directed_nlf(query, data, u, v)}
                for u, candidates in enumerate(initial)
            ]
        dag = build_dag(skeleton, data, root)

        def adjacent(u: int, u_c: int, v: int):
            code = _edge_direction(u, u_c, directions)
            if code == "fwd":
                return data.out_neighbors(v)
            if code == "bwd":
                return data.in_neighbors(v)
            in_pool = data.in_set(v)
            return [w for w in data.out_neighbors(v) if w in in_pool]

        cs = build_edge_aware_candidate_space(
            skeleton,
            data,
            dag,
            initial,
            adjacent,
            refinement_steps=self.config.refinement_steps,
            refine_to_fixpoint=self.config.refine_to_fixpoint,
        )
        return PreparedQuery(
            query=skeleton,
            data=data,
            dag=dag,
            cs=cs,
            preprocess_seconds=time.perf_counter() - start,
        )


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
