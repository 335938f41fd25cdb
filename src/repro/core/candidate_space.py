"""The CS structure and DAG-graph dynamic programming (paper §4).

The candidate space (CS) is the auxiliary structure DAF searches *instead
of* the data graph.  It holds a candidate set ``C(u)`` per query vertex and
— unlike the tree-based CPI/CR structures of CFL-Match and Turbo_iso — an
edge between ``v in C(u)`` and ``v' in C(u')`` for **every** query edge
``(u, u')`` present in the data graph.  That completeness gives the CS the
equivalence property (Theorem 4.1): embeddings of q in G are exactly the
embeddings of q in the CS, so backtracking never probes G.

Construction (``build_candidate_space``):

1. ``C(u) <- C_ini(u)`` (label + degree; sound by construction).
2. Refine by DAG-graph DP alternating between the reversed query DAG
   ``q_D^{-1}`` and ``q_D`` (the paper runs 3 steps by default; we also
   support running to a fixpoint).  The first step additionally applies
   the local MND/NLF filters.  One DP pass over direction ``q'`` keeps
   ``v in C(u)`` only if every child ``u_c`` of ``u`` in ``q'`` has some
   candidate adjacent to ``v`` — i.e. only if a weak embedding of the
   sub-DAG ``q'_u`` exists at ``v`` (Recurrence (1)).  A pass tests only
   the members of ``C(u)`` that border some candidate of the child with
   the smallest candidate set — on the first pass over ``q_D^{-1}`` this
   is CFL-Match's top-down generation — and generates that neighbourhood
   only when its degree sum makes it cheaper than testing the set it
   would narrow.
3. Materialize CS edges as per-DAG-edge adjacency lists
   ``N^u_{u_c}(v)`` storing candidate *indices*, which is what the
   backtracking engine intersects to compute extendable candidates.

A CS built with ``keep_trail=True`` records what each pass removed;
:mod:`repro.core.cs_delta` refreshes such a CS after data-graph
mutations from that trail, in time proportional to the batch.

The directed and edge-labeled extensions build through
:func:`build_edge_aware_candidate_space`: the same DP and edge
materialization over an adjacency the caller supplies per query edge.
It stays apart from :func:`build_candidate_space` so that the
undirected refinement, the hot path of every sessionless request, pays
no per-edge call.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from ..graph.digraph import ReversedDAG, RootedDAG
from ..graph.graph import Graph
from ..resilience.budget import CANDIDATE_BYTES, CS_EDGE_BYTES, Budget
from ..resilience.faults import FAULTS
from .filters import initial_candidates, passes_local_filters_hoisted

AnyDAG = Union[RootedDAG, ReversedDAG]


@dataclass
class CandidateSpace:
    """The materialized CS structure on ``query`` and ``data``.

    Attributes
    ----------
    candidates:
        ``candidates[u]`` is the sorted list of data vertices in ``C(u)``.
    candidate_index:
        ``candidate_index[u][v]`` is the position of data vertex ``v`` in
        ``candidates[u]``.
    down:
        CS edges along the rooted DAG: for each DAG edge ``(u, u_c)``,
        ``down[u][u_c][i]`` is the tuple of positions (into
        ``candidates[u_c]``) of candidates adjacent in ``G`` to the i-th
        candidate of ``u``.  This is the paper's ``N^u_{u_c}(v)`` with
        vertices replaced by indices.
    refinement_steps:
        DP passes actually performed (for stats / Fig. 9-style analysis).
    trail:
        Optional refinement trail recorded when ``keep_trail=True``:
        ``trail[k][u]`` is an unsorted ``array('i')`` of what DP pass
        ``k + 1`` removed from ``C(u)``, so ``C(u)`` after pass ``k`` (0:
        C_ini) is ``candidates[u]`` plus the removals in ``trail[k:]``.
        :mod:`repro.core.cs_delta` reads a vertex's old pass outcomes
        from ``candidate_index``, the pass-2+ removals and the C_ini
        rule, and writes the trail a cold build would, sharing every
        array a batch left alone.

    A CS is never mutated after construction (a refresh builds a new
    one, sharing whatever lists, maps and rows the batch left alone),
    which is what lets :attr:`weights` be computed once and kept.
    """

    query: Graph
    data: Graph
    dag: RootedDAG
    candidates: list[list[int]]
    candidate_index: list[dict[int, int]]
    down: list[dict[int, list[tuple[int, ...]]]]
    refinement_steps: int
    trail: Optional[list[list[Sequence[int]]]] = None
    _weights: Optional[tuple[Sequence[int], ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def weights(self) -> tuple[Sequence[int], ...]:
        """The path-size weight array ``W[u][i]`` (§5.2), built on first
        read and kept for the life of this CS.

        Every cache hit on a prepared query reuses it instead of
        recomputing it.  Rows are stored as ``array('q')`` (8 bytes per
        candidate instead of a list slot plus an int object); a row whose
        weights overflow 64 bits stays a tuple of Python ints.
        """
        if self._weights is None:
            self._weights = tuple(_compact(row) for row in compute_weight_array(self))
        return self._weights

    @property
    def size(self) -> int:
        """Sum of candidate-set sizes — the Fig. 9 auxiliary-size metric."""
        return sum(len(c) for c in self.candidates)

    @property
    def num_edges(self) -> int:
        """Total CS edges (each stored once, along the DAG direction)."""
        return sum(
            len(neighbors)
            for per_child in self.down
            for adjacency in per_child.values()
            for neighbors in adjacency
        )

    def is_empty(self) -> bool:
        """True iff some candidate set is empty — the query is negative and
        backtracking can be skipped entirely (Appendix A.3)."""
        return any(not c for c in self.candidates)

    def neighbors_down(self, u: int, u_c: int, v: int) -> tuple[int, ...]:
        """``N^u_{u_c}(v)`` as data vertices (paper's notation), for tests
        and examples; the engine uses index-based ``down`` directly."""
        i = self.candidate_index[u][v]
        return tuple(self.candidates[u_c][j] for j in self.down[u][u_c][i])


def _compact(row: list[int]) -> Sequence[int]:
    try:
        return array("q", row)
    except OverflowError:
        return tuple(row)


def compute_weight_array(cs: CandidateSpace) -> list[list[int]]:
    """The path-size weight array ``W[u][i]`` (i indexes ``C(u)``), §5.2.

    Bottom-up over the rooted DAG in time proportional to the CS size:
    ``W_u(v) = 1`` if ``u`` has no single-parent child, otherwise the
    minimum over single-parent children ``c`` of the sum of ``W_c(v')``
    over ``v'`` in ``N^u_c(v)``.  :attr:`CandidateSpace.weights` caches
    it per CS; this function always recomputes.
    """
    dag = cs.dag
    n = cs.query.num_vertices
    weights: list[list[int]] = [[] for _ in range(n)]
    for u in reversed(dag.topological_order()):
        num_candidates = len(cs.candidates[u])
        tree_children = dag.single_parent_children(u)
        if not tree_children:
            weights[u] = [1] * num_candidates
            continue
        row = [0] * num_candidates
        for i in range(num_candidates):
            best = None
            for c in tree_children:
                total = sum(map(weights[c].__getitem__, cs.down[u][c][i]))
                if best is None or total < best:
                    best = total
            row[i] = best if best is not None else 1
        weights[u] = row
    return weights


#: Narrowing a DP pass to ``N(C(u*))`` pays when the union's degree sum is
#: below this many steps per candidate it saves testing: one set insertion
#: per step against an MND/NLF check plus up to one ``isdisjoint`` per
#: child per test.  Measured on the benchmark graphs, 8 cut refinement
#: time on the human query pool by about a fifth and on hprd's by a
#: tenth, and left yago and yeast unmoved.
_UNION_STEPS_PER_TEST = 8

#: Safety net on a ``refine_to_fixpoint`` run's pass count.
MAX_FIXPOINT_STEPS = 64

_NO_REMOVALS = array("i")  #: trail entry of a C(u) a pass left alone; never mutated


def initial_candidate_sets(
    query: Graph, data: Graph, injective: bool = True, observer=None
) -> list[set[int]]:
    """C_ini(u) for every query vertex: label + degree (paper §3).

    Homomorphisms may fold several query vertices onto one data vertex,
    so the degree condition is unsound for them: with ``injective=False``
    C_ini is label-only.
    """
    if not injective:
        return [set(data.vertices_with_label(query.label(u))) for u in query.vertices()]
    sets = [set(initial_candidates(query, data, u)) for u in query.vertices()]
    if observer is not None:
        # C_ini rejections: data vertices with the right label that the
        # degree condition (or label itself, for unlabeled data) removed.
        considered = sum(
            len(data.vertices_with_label(query.label(u))) for u in query.vertices()
        )
        observer.prune_label_degree += considered - sum(len(s) for s in sets)
    return sets


def config_build_options(config, query: Graph, data: Graph) -> dict:
    """The :func:`build_candidate_space` refinement arguments a
    :class:`~repro.core.config.MatchConfig` implies.

    This and :func:`refine_options` hold the homomorphism rule: a
    non-injective config starts from the label-only C_ini and never runs
    MND/NLF (both assume injectivity).  The DP itself only checks
    existence and stays sound for homomorphisms.
    """
    return {
        **refine_options(config),
        "initial_sets": (
            None
            if config.injective
            else initial_candidate_sets(query, data, injective=False)
        ),
    }


def refine_options(config) -> dict:
    """The pass-loop half of :func:`config_build_options`: how many
    passes run and whether the first applies MND/NLF.  A refresh
    (:mod:`repro.core.cs_delta`) reads only this half, so it never
    builds a C_ini."""
    return {
        "refinement_steps": config.refinement_steps,
        "refine_to_fixpoint": config.refine_to_fixpoint,
        "use_local_filters": config.use_local_filters and config.injective,
    }


def _refine_pass(
    query: Graph,
    data: Graph,
    direction: AnyDAG,
    cand: list[set[int]],
    apply_local_filters: bool = False,
    observer=None,
) -> bool:
    """One DAG-graph DP pass in place; returns True if anything changed.

    Processes query vertices in reverse topological order of ``direction``
    so every child's refined set C'(u_c) is final before u is visited
    (the bottom-up evaluation of Recurrence (1)).  A changed ``cand[u]``
    is replaced, never mutated: the trail diffs it against the old set.

    The tested set is generated, not filtered: a survivor borders some
    candidate of every child, so it lies in ``N(C(u*))`` for the child
    ``u*`` with the smallest candidate set.  When building that
    neighbourhood is cheaper than testing the set (``|C(u*)|`` is below
    the set's size and the degree sum of ``C(u*)`` is below
    :data:`_UNION_STEPS_PER_TEST` times it), the pass builds it and tests
    only its intersection with the set (CFL-Match's top-down candidate
    generation applied to every pass); otherwise it tests the set as is.
    Either way the output is the same.

    With an ``observer``, rejections are attributed per reason: local
    MND/NLF failures count as ``prune_label_degree``; DP failures (no
    CS edge to some child's candidate set — Recurrence (1)), including
    the candidates outside ``N(C(u*))`` dropped before any test, count
    as ``prune_cs_edge``.
    """
    changed = False
    if apply_local_filters:
        index = data.index
    order = tuple(reversed(direction.topological_order()))
    for u in order:
        children = direction.children(u)
        if not children and not apply_local_filters:
            continue
        if apply_local_filters:
            # Hoist the query-side MND/NLF signatures out of the per-
            # candidate loop; the data side is a GraphIndex lookup.
            query_mnd = query.max_neighbor_degree(u)
            query_nlf = query.neighbor_label_counts(u)
        survivors: set[int] = set()
        pool = cand[u]
        if children:
            # Every survivor borders a candidate of each child, so only
            # N(C(u*)) for the smallest child set u* can survive.  Build
            # that reach only when it is cheaper than testing the pool:
            # the union walks the degree sum of C(u*).
            smallest = min((cand[u_c] for u_c in children), key=len)
            if len(smallest) < len(pool) and (
                sum(map(data.degree, smallest)) < _UNION_STEPS_PER_TEST * len(pool)
            ):
                reach = set().union(*map(data.neighbor_set, smallest))
                tested = pool & reach
                if observer is not None:
                    observer.prune_cs_edge += len(pool) - len(tested)
                pool = tested
        for v in pool:
            if apply_local_filters and not passes_local_filters_hoisted(
                index, v, query_mnd, query_nlf
            ):
                if observer is not None:
                    observer.prune_label_degree += 1
                continue
            v_neighbors = data.neighbor_set(v)
            for u_c in children:
                if cand[u_c].isdisjoint(v_neighbors):
                    if observer is not None:
                        observer.prune_cs_edge += 1
                    break
            else:
                survivors.add(v)
        if len(survivors) != len(cand[u]):
            changed = True
            cand[u] = survivors
    return changed


def build_candidate_space(
    query: Graph,
    data: Graph,
    dag: RootedDAG,
    refinement_steps: int = 3,
    refine_to_fixpoint: bool = False,
    use_local_filters: bool = True,
    initial_sets: Optional[list[set[int]]] = None,
    budget: Optional[Budget] = None,
    observer=None,
    keep_trail: bool = False,
) -> CandidateSpace:
    """BuildCS(q, q_D, G): construct the optimized CS (paper §4).

    Parameters
    ----------
    refinement_steps:
        Number of alternating DP passes (paper default 3: q_D^{-1}, q_D,
        q_D^{-1}; the filtering rate beyond 3 was < 1% in their study).
    refine_to_fixpoint:
        If True, keep alternating until no candidate set changes
        (bounded by :data:`MAX_FIXPOINT_STEPS` as a safety net).
    use_local_filters:
        Apply MND + NLF during the first pass, as the paper suggests.
    initial_sets:
        Override the C_ini computation (one set per query vertex).  Used
        when the data graph carries extra semantics the standard label +
        degree filter would get wrong — e.g. the capacity-weighted
        degrees of BoostIso hypergraphs.  The caller is responsible for
        soundness; local filters should usually be disabled alongside.
    budget:
        Optional :class:`repro.resilience.Budget`.  Construction polls
        the wall clock around every DP pass and holds the estimated CS
        footprint (candidate entries + materialized edges) against the
        memory dimension, raising :class:`BudgetExceeded` *before* an
        oversized structure is fully allocated.
    observer:
        Optional :class:`repro.obs.MetricsRegistry`.  Attributes every
        candidate rejection to a prune reason (``prune_label_degree``
        for C_ini/MND/NLF, ``prune_cs_edge`` for DP removals), times the
        refinement loop as the ``cs_refine`` span, and records the final
        per-vertex candidate histogram.
    keep_trail:
        Record what each pass removed on the returned CS (the ``trail``
        attribute) so that
        :func:`repro.core.cs_delta.refresh_candidate_space` can refresh
        it after data-graph mutations.  Costs 4 bytes per removed
        candidate; off by default.  A refresh writes the trail this
        build would have written, so a refreshed CS refreshes again.
    """
    if dag.query is not query:
        raise ValueError("the DAG must orient exactly this query graph")
    if initial_sets is not None:
        if len(initial_sets) != query.num_vertices:
            raise ValueError("initial_sets needs one candidate set per query vertex")
        cand = [set(s) for s in initial_sets]
    else:
        cand = initial_candidate_sets(query, data, observer=observer)
    def _checkpoint(step: int) -> None:
        """Per-pass governance: fault hook + budget time/memory check."""
        if FAULTS.active:
            FAULTS.fire("cs.refine", step=step)
        if budget is not None:
            budget.note_memory(sum(len(c) for c in cand) * CANDIDATE_BYTES)
            budget.poll()

    trail: Optional[list[list[Sequence[int]]]] = [] if keep_trail else None
    directions: tuple[AnyDAG, AnyDAG] = (dag.reverse(), dag)
    steps_done = 0
    bound = False
    if budget is not None and FAULTS.active:
        # Injected hangs at cs.refine must not sleep past this budget.
        FAULTS.bind_budget(budget)
        bound = True
    try:
        _checkpoint(0)
        refine_start = time.perf_counter() if observer is not None else 0.0
        passes = MAX_FIXPOINT_STEPS if refine_to_fixpoint else refinement_steps
        for step in range(passes):
            pass_input = cand[:]
            changed = _refine_pass(
                query,
                data,
                directions[step % 2],
                cand,
                apply_local_filters=(step == 0 and use_local_filters),
                observer=observer,
            )
            steps_done += 1
            _checkpoint(steps_done)
            if trail is not None:
                trail.append([_NO_REMOVALS if b is a else array("i", [*(b - a)])
                              for b, a in zip(pass_input, cand)])
            if refine_to_fixpoint and not changed and step > 0:
                break
    finally:
        if bound:
            FAULTS.unbind_budget(budget)
    if observer is not None:
        observer.record_span("cs_refine", time.perf_counter() - refine_start)

    candidates = [sorted(c) for c in cand]
    candidate_index = [{v: i for i, v in enumerate(c)} for c in candidates]

    # Materialize CS edges along the rooted-DAG direction.  Edges are
    # "immediate from E(q) and E(G) once candidate sets are decided" (§4):
    # (v, v_c) is a CS edge iff (u, u_c) in E(q_D) and (v, v_c) in E(G).
    down: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in query.vertices()]
    candidate_footprint = sum(len(c) for c in candidates) * CANDIDATE_BYTES
    edges_materialized = 0
    for u in query.vertices():
        for u_c in dag.children(u):
            child_index = candidate_index[u_c]
            adjacency = [
                tuple(child_index[w] for w in data.neighbors(v) if w in child_index)
                for v in candidates[u]
            ]
            edges_materialized += sum(map(len, adjacency))
            down[u][u_c] = adjacency
        if budget is not None:
            # Catch a blowing-up CS per query vertex, before it finishes.
            budget.note_memory(
                candidate_footprint + edges_materialized * CS_EDGE_BYTES
            )
            budget.poll()

    if observer is not None:
        observer.observe_candidate_sizes(len(c) for c in candidates)

    return CandidateSpace(
        query=query,
        data=data,
        dag=dag,
        candidates=candidates,
        candidate_index=candidate_index,
        down=down,
        refinement_steps=steps_done,
        trail=trail,
    )


def build_edge_aware_candidate_space(
    query: Graph,
    data,
    dag: RootedDAG,
    initial_sets: list[set[int]],
    adjacent: Callable[[int, int, int], Iterable[int]],
    refinement_steps: int = 3,
    refine_to_fixpoint: bool = False,
) -> CandidateSpace:
    """BuildCS for graphs whose edges mean more than adjacency.

    A directed query edge needs a data edge in its orientation; an
    edge-labeled one needs a data edge carrying its label.
    ``adjacent(u, u_c, v)`` yields the data vertices that may host
    ``u_c`` next to ``v`` hosting ``u`` across the query edge between
    them (``u_c`` is a child of ``u`` in whichever DAG direction the
    pass runs).  The DP and the CS edge rows use it where
    :func:`build_candidate_space` uses plain adjacency; ``initial_sets``
    is C_ini with every local filter already folded in.  Passes follow
    the same rule: ``refinement_steps``, or with ``refine_to_fixpoint``
    up to :data:`MAX_FIXPOINT_STEPS`, stopping after a non-first pass
    that changes nothing.  ``query`` is the undirected skeleton the DAG
    orients; ``data`` is only stored on the CS.
    """
    cand = [set(s) for s in initial_sets]
    directions: tuple[AnyDAG, AnyDAG] = (dag.reverse(), dag)
    passes = MAX_FIXPOINT_STEPS if refine_to_fixpoint else refinement_steps
    steps_done = 0
    for step in range(passes):
        direction = directions[step % 2]
        changed = False
        for u in reversed(direction.topological_order()):
            children = direction.children(u)
            if not children:
                continue
            survivors = {
                v
                for v in cand[u]
                if all(not cand[u_c].isdisjoint(adjacent(u, u_c, v)) for u_c in children)
            }
            if len(survivors) != len(cand[u]):
                changed = True
                cand[u] = survivors
        steps_done += 1
        if refine_to_fixpoint and not changed and step > 0:
            break

    candidates = [sorted(c) for c in cand]
    candidate_index = [{v: i for i, v in enumerate(c)} for c in candidates]
    down: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in query.vertices()]
    for u in query.vertices():
        for u_c in dag.children(u):
            child_index = candidate_index[u_c]
            down[u][u_c] = [
                tuple(child_index[w] for w in adjacent(u, u_c, v) if w in child_index)
                for v in candidates[u]
            ]
    return CandidateSpace(
        query=query,
        data=data,
        dag=dag,
        candidates=candidates,
        candidate_index=candidate_index,
        down=down,
        refinement_steps=steps_done,
    )


def has_weak_embedding(
    cs: CandidateSpace, direction: AnyDAG, u: int, v: int
) -> bool:
    """Reference check: is there a weak embedding of ``q'_u`` at ``v``?

    Direct recursive evaluation of Definition 4.5 over the *final* CS —
    quadratic and only for tests/documentation; the DP above is the real
    computation.
    """
    if v not in cs.candidate_index[u]:
        return False

    memo: dict[tuple[int, int], bool] = {}

    def weak(u_: int, v_: int) -> bool:
        key = (u_, v_)
        if key in memo:
            return memo[key]
        memo[key] = True  # break cycles defensively; DAGs have none
        result = True
        for u_c in direction.children(u_):
            child_set = set(cs.candidates[u_c])
            if not any(w in child_set and weak(u_c, w) for w in cs.data.neighbors(v_)):
                result = False
                break
        memo[key] = result
        return result

    return weak(u, v)
