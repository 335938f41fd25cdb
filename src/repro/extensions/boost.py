"""BoostIso-style data-graph compression (Appendix A.5).

BoostIso (Ren & Wang, VLDB 2015) speeds up any matcher by merging
*syntactically equivalent* (SE) data vertices — same label, identical
neighborhood — into hypervertices.  The DAF paper applies only the
equivalence relationships (it found the containment-based dynamic
candidate loading unsound), and so do we.

Pipeline:

1. :func:`se_equivalence_classes` groups data vertices by
   ``(label, neighbor set)``; same-class vertices are pairwise
   non-adjacent (v adjacent to v' with N(v) = N(v') would force a
   self-loop), so classes collapse cleanly.
2. :func:`compress` builds the hypergraph: one vertex per class with a
   capacity (class size); hyperedges inherited from any member pair.
3. :class:`BoostedDAFMatcher` runs DAF's CS construction on the
   hypergraph and searches it with a capacity-aware engine: a
   hypervertex may host up to ``capacity`` query vertices of the search
   simultaneously.  Each compressed embedding expands to
   ``product over hypervertices of P(capacity, used)`` real embeddings
   (falling factorials), enumerated on demand when embeddings are
   materialized.

Failing sets remain sound: a conflict on a *full* hypervertex pins all
its current occupiers (their ancestor masks join the failing set), which
is the capacity generalization of the paper's conflict class.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Callable, Optional

from ..core.backtrack import _REPORT, BacktrackEngine, _count_injective, _LimitReached
from ..core.candidate_space import build_candidate_space
from ..core.config import MatchConfig
from ..core.dag import build_dag
from ..graph.graph import Graph
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


def se_equivalence_classes(data: Graph) -> list[list[int]]:
    """SE classes: vertices sharing a label and an identical neighborhood."""
    groups: dict[tuple[object, frozenset[int]], list[int]] = {}
    for v in data.vertices():
        groups.setdefault((data.label(v), data.neighbor_set(v)), []).append(v)
    return sorted(groups.values())


def compression_ratio(data: Graph) -> float:
    """Fraction of vertices removed by SE compression (paper A.5 reports
    53.1% for Human down to 1.4% for HPRD)."""
    classes = se_equivalence_classes(data)
    return 1.0 - len(classes) / data.num_vertices if data.num_vertices else 0.0


def compress(data: Graph) -> tuple[Graph, list[int], list[list[int]]]:
    """Build the SE hypergraph.

    Returns ``(hypergraph, capacities, members)`` where hypervertex ``h``
    stands for the ``capacities[h]`` original vertices ``members[h]``.
    """
    classes = se_equivalence_classes(data)
    class_of = {}
    for h, members in enumerate(classes):
        for v in members:
            class_of[v] = h
    hyper = Graph()
    for members in classes:
        hyper.add_vertex(data.label(members[0]))
    seen: set[tuple[int, int]] = set()
    for u, v in data.edges():
        a, b = class_of[u], class_of[v]
        if a == b:
            raise AssertionError("SE classes cannot contain adjacent vertices")
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            hyper.add_edge(*key)
    hyper.freeze()
    return hyper, [len(members) for members in classes], classes


def capacity_aware_candidates(
    query: Graph, hyper: Graph, capacities: list[int], u: int
) -> set[int]:
    """C_ini on a hypergraph: label match plus *capacity-weighted* degree
    and neighbor-label-frequency domination.

    A hypervertex of degree 1 whose single neighbor has capacity 3 stands
    for real vertices of degree 3, so the plain structural degree would
    wrongly reject it; weighting by neighbor capacities restores the
    member vertices' true statistics.
    """
    survivors: set[int] = set()
    needed_counts = query.neighbor_label_counts(u)
    degree_u = query.degree(u)
    for h in hyper.vertices_with_label(query.label(u)):
        weighted_degree = 0
        weighted_counts: dict[object, int] = {}
        for w in hyper.neighbors(h):
            capacity = capacities[w]
            weighted_degree += capacity
            label = hyper.label(w)
            weighted_counts[label] = weighted_counts.get(label, 0) + capacity
        if weighted_degree < degree_u:
            continue
        if all(weighted_counts.get(label, 0) >= k for label, k in needed_counts.items()):
            survivors.add(h)
    return survivors


def _falling_factorial(n: int, k: int) -> int:
    result = 1
    for i in range(k):
        result *= n - i
    return result


class _CapacityEngine(BacktrackEngine):
    """DAF's engine over a hypergraph with per-vertex capacities.

    The base driver runs unchanged: capacity replaces the one-occupier
    rule through the ``_blocked`` hook, so the base injectivity check is
    switched off and a hypervertex conflicts only once it is full.

    Leaf decomposition's leaf-by-leaf matching does not generalize to
    capacities, so callers enable ``leaf_decomposition`` only in counting
    mode (enforced by :class:`BoostedDAFMatcher`), where the slot-based
    :meth:`_count_leaves` handles the leaves; otherwise expansion happens
    in ``_report``.
    """

    def __init__(self, capacities: list[int], members: list[list[int]], *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.capacities = capacities
        self.members = members
        self.occupiers: dict[int, list[int]] = {}
        self.injective = False
        self._blocked = self._blocked_mask

    # -- occupancy-aware mapping --------------------------------------
    def _map(self, u: int, i: int, v: int) -> None:
        super()._map(u, i, v)
        self.occupiers.setdefault(v, []).append(u)

    def _unmap(self, u: int, v: int) -> None:
        super()._unmap(u, v)
        holders = self.occupiers[v]
        holders.remove(u)
        if not holders:
            del self.occupiers[v]

    def _blocked_mask(self, u: int, v: int) -> int:
        """0 if ``v`` can host another query vertex; otherwise the
        conflict contribution (anc(u) plus all occupiers' ancestors)."""
        holders = self.occupiers.get(v)
        if holders is None or len(holders) < self.capacities[v]:
            return 0
        mask = self.anc[u]
        for holder in holders:
            mask |= self.anc[holder]
        return mask

    def can_checkpoint(self) -> bool:
        # Expansion in ``_report`` is not re-entrant: a suspension inside
        # it cannot tell which real embeddings were already delivered.
        return super().can_checkpoint() and self._state != _REPORT

    # -- capacity-aware leaf counting ----------------------------------
    def _count_leaves(self) -> Optional[int]:
        """Combinatorial leaf counting over *hypervertex slots*.

        With the core mapped, hypervertex ``h`` has ``cap_h - used_h``
        free member slots (which specific members the core takes is
        irrelevant for counting — members are interchangeable).  Leaves
        grouped by label count injective assignments into slot ids, and
        the total multiplies with the core's own falling-factorial
        expansion.  On a zero count the failing set pins the group's
        leaves plus every core vertex occupying one of the group's
        candidate hypervertices (freeing any of them could create a
        slot).
        """
        remaining = self.limit - self.stats.embeddings_found
        core_usage: dict[int, int] = {}
        occupying: dict[int, list[int]] = {}
        for u, v in enumerate(self.mapping):
            if v >= 0:
                core_usage[v] = core_usage.get(v, 0) + 1
                occupying.setdefault(v, []).append(u)
        core_expansion = 1
        for v, used in core_usage.items():
            core_expansion *= _falling_factorial(self.capacities[v], used)

        total = core_expansion
        for label_leaves in self.leaf_groups:
            slot_lists: list[list[tuple[int, int]]] = []
            pinned = 0
            for u in label_leaves:
                candidates_u = self.cs.candidates[u]
                slots: list[tuple[int, int]] = []
                for i in self._leaf_candidate_indices(u):
                    h = candidates_u[i]
                    for w in occupying.get(h, ()):
                        pinned |= self.anc[w]
                    free = self.capacities[h] - core_usage.get(h, 0)
                    slots.extend((h, k) for k in range(free))
                slot_lists.append(slots)
            group_count = _count_injective(
                slot_lists, cap=remaining, injective=True, deadline=self.deadline
            )
            if group_count == 0:
                failing = pinned
                for u in label_leaves:
                    failing |= self.anc[u]
                return failing
            total = min(total * group_count, remaining)
        self._report_bulk(min(total, remaining))
        return None

    # -- expansion -----------------------------------------------------
    def _report(self) -> None:
        usage: dict[int, list[int]] = {}
        for u, v in enumerate(self.mapping):
            if v < 0:
                continue  # deferred leaves are never mapped here
            usage.setdefault(v, []).append(u)
        if self.collect or self.on_embedding is not None:
            self._enumerate_expansions(usage)
        else:
            expansion = 1
            for v, users in usage.items():
                expansion *= _falling_factorial(self.capacities[v], len(users))
            self._report_bulk(expansion)

    def _enumerate_expansions(self, usage: dict[int, list[int]]) -> None:
        """Materialize every real embedding behind a compressed one."""
        hypervertices = list(usage)
        choice_iters = [
            itertools.permutations(self.members[v], len(usage[v])) for v in hypervertices
        ]
        for combo in itertools.product(*choice_iters):
            # One expansion is one unit of search work: a hypervertex
            # with a large class can expand into up to ``limit`` real
            # embeddings, which must not outrun ``time_limit``.
            self.deadline.tick()
            real = [-1] * self.n
            for v, chosen in zip(hypervertices, combo):
                for query_vertex, member in zip(usage[v], chosen):
                    real[query_vertex] = member
            self.stats.embeddings_found += 1
            embedding = tuple(real)
            if self.collect:
                self.embeddings.append(embedding)
            if self.on_embedding is not None:
                self.on_embedding(embedding)
            if self.stats.embeddings_found >= self.limit:
                raise _LimitReached


class BoostedDAFMatcher(Matcher):
    """DAF over the SE-compressed data graph (the paper's DAF-Boost)."""

    name = "DAF-Boost"

    def __init__(self, config: Optional[MatchConfig] = None) -> None:
        base = config if config is not None else MatchConfig()
        if base.induced or not base.injective:
            raise ValueError(
                "BoostedDAFMatcher supports plain injective matching only: "
                "SE-class expansion assumes edge constraints alone"
            )
        # Leaf deferral is supported in counting mode via the slot-based
        # capacity-aware counter; when embeddings are materialized the
        # expansion must see every vertex mapped, so deferral is disabled
        # per match() call (see below).
        self.config = base
        # id(graph) -> (graph, compression).  The graph is kept as a strong
        # reference deliberately: it pins the id so a garbage-collected
        # graph can never alias a new one, and the identity check below
        # guards against any other id reuse.
        self._compressed_cache: dict[
            int, tuple[Graph, tuple[Graph, list[int], list[list[int]]]]
        ] = {}

    def compress_data(self, data: Graph) -> tuple[Graph, list[int], list[list[int]]]:
        """Compress ``data``, caching per graph identity (compression is a
        one-time cost amortized over a query workload, as in BoostIso)."""
        entry = self._compressed_cache.get(id(data))
        if entry is None or entry[0] is not data:
            entry = (data, compress(data))
            self._compressed_cache[id(data)] = entry
        return entry[1]

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
        hyper, capacities, members = self.compress_data(data)
        dag = build_dag(query, hyper)
        initial_sets = [
            capacity_aware_candidates(query, hyper, capacities, u) for u in query.vertices()
        ]
        cs = build_candidate_space(
            query,
            hyper,
            dag,
            refinement_steps=self.config.refinement_steps,
            refine_to_fixpoint=self.config.refine_to_fixpoint,
            # Plain MND/NLF are capacity-blind and unsound on hypergraphs;
            # the capacity-aware equivalents are folded into initial_sets.
            use_local_filters=False,
            initial_sets=initial_sets,
        )
        stats = SearchStats(
            candidates_total=cs.size,
            filter_iterations=cs.refinement_steps,
            preprocess_seconds=time.perf_counter() - start,
        )
        result = MatchResult(stats=stats)
        if cs.is_empty():
            return result
        counting_only = not self.config.collect_embeddings and on_embedding is None
        effective = dataclasses.replace(
            self.config,
            leaf_decomposition=self.config.leaf_decomposition and counting_only,
        )
        engine = _CapacityEngine(
            capacities,
            members,
            cs,
            effective,
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
