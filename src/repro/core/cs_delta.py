"""Incremental candidate-space maintenance after data-graph deltas.

The serving layer caches one :class:`CandidateSpace` per (query, config)
pair.  When the data graph mutates, rebuilding every cached CS from
scratch costs a full BuildCS per entry; :func:`refresh_candidate_space`
instead runs BuildCS in *replay* mode
(``build_candidate_space(previous=..., footprint=...)``): the same pass
loop, where each pass the old CS recorded (``CandidateSpace.trail``, kept
by ``keep_trail=True`` as what each pass removed) is re-run by
``_refine_pass`` against the mutated graph, re-evaluating only the
candidates the delta batch could have affected.

The contract is strict **bit-identity**: the refreshed CS — candidate
lists, index maps, materialized ``down`` adjacency, ``refinement_steps``
and the trail the next refresh replays — equals what a cold
:func:`~repro.core.candidate_space.build_candidate_space` on the mutated
graph would produce with the same parameters.  That holds because C_ini
is recomputed cold, and each replayed pass re-evaluates a superset of
the candidates whose pass outcome could differ, copying the trail's
recorded outcome for the rest:

- a vertex in the footprint's ``dirty`` set (adjacency, degree, or label
  possibly changed) is always re-evaluated;
- in the first pass, vertices whose *local-filter signature* may have
  changed (``dirty`` plus its new-graph neighborhood) are re-evaluated;
- within a pass, children refine before parents (the same reverse
  topological order as the cold pass), so each parent re-evaluates the
  vertices adjacent to any child candidate that flipped this pass
  (``N_G'(S'_k(u_c) XOR S_k(u_c))``);
- any vertex newly present in the pass input is re-evaluated.

Every other vertex sees the same neighborhood and the same intersecting
child candidates as the recorded run, so copying its recorded membership
is exact.  Passes beyond the recorded trail (a fixpoint run that now
needs extra passes) run cold.

:func:`cs_diff` is the cross-validation half: a structural comparison
used by tests, the equivalence suite, and ``repro update
--cross-validate`` to assert the refreshed CS against a cold rebuild.
"""

from __future__ import annotations

from ..graph.digraph import RootedDAG
from ..graph.graph import Graph
from .candidate_space import CandidateSpace, build_candidate_space, config_build_options


def dag_equivalent(a: RootedDAG, b: RootedDAG) -> bool:
    """Same orientation: equal roots and equal child lists everywhere.

    BuildDAG picks the root (and BFS tie-breaks) from *data-graph*
    statistics, so a delta batch can legitimately re-orient a query's
    DAG.  A trail replay is only meaningful against the same DAG; the
    serving layer uses this check to decide refresh-vs-invalidate.
    """
    if a.root != b.root or a.query.num_vertices != b.query.num_vertices:
        return False
    return all(a.children(u) == b.children(u) for u in a.query.vertices())


def refresh_candidate_space(
    old: CandidateSpace, data: Graph, footprint, config, observer=None
) -> CandidateSpace:
    """Refresh ``old`` (built on the pre-batch graph, with a trail)
    against the mutated graph ``data``.

    ``footprint`` is the batch's :class:`repro.graph.mutate.DeltaFootprint`
    and ``config`` the :class:`~repro.core.config.MatchConfig` the old CS
    was built under.  The caller has already established DAG stability
    (see :func:`dag_equivalent`); the old DAG is reused as-is, which is
    valid because a :class:`RootedDAG` references only the query graph.
    """
    return build_candidate_space(
        old.query,
        data,
        old.dag,
        **config_build_options(config, old.query, data),
        observer=observer,
        keep_trail=True,
        previous=old,
        footprint=footprint,
    )


def cs_diff(a: CandidateSpace, b: CandidateSpace) -> list[str]:
    """Structural differences between two candidate spaces, as messages.

    Empty list means bit-identical candidates, index maps, materialized
    adjacency, refinement-step counts and (if both have one) trails — the
    cross-validation check behind the incremental-maintenance guarantee.
    """
    problems: list[str] = []
    if a.query.num_vertices != b.query.num_vertices:
        return [
            f"query size differs: {a.query.num_vertices} vs {b.query.num_vertices}"
        ]
    if a.refinement_steps != b.refinement_steps:
        problems.append(
            f"refinement_steps differ: {a.refinement_steps} vs {b.refinement_steps}"
        )
    for u in a.query.vertices():
        if a.candidates[u] != b.candidates[u]:
            problems.append(
                f"C({u}) differs: {len(a.candidates[u])} candidates vs "
                f"{len(b.candidates[u])}"
            )
        if a.candidate_index[u] != b.candidate_index[u]:
            problems.append(f"candidate_index[{u}] differs")
        if a.down[u] != b.down[u]:
            problems.append(f"down[{u}] adjacency differs")
    if a.trail is not None and b.trail is not None:  # in set order: compare sets
        for k, (removed_a, removed_b) in enumerate(zip(a.trail, b.trail)):
            for u, (ra, rb) in enumerate(zip(removed_a, removed_b)):
                if set(ra) != set(rb):
                    problems.append(f"trail[{k}][{u}] removals differ")
    return problems
