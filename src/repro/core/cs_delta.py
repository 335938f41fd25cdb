"""Incremental candidate-space maintenance after data-graph deltas.

The serving layer caches one :class:`CandidateSpace` per (query, config)
pair.  When the data graph mutates, rebuilding every cached CS from
scratch costs a full BuildCS per entry; :func:`refresh_candidate_space`
instead replays the old build's passes as *flip sets*, in time
proportional to what the batch affected rather than to C_ini.

Write ``S_k(u)`` for ``C(u)`` after pass ``k`` of the old build (``S_0``
is C_ini on the old graph) and ``S'_k(u)`` for the same set of a cold
build on the mutated graph, with the same DAG and parameters.  The
replay carries ``X_k(u) = S'_k(u) XOR S_k(u)`` and never materialises
either side.  The old side is read from the old CS alone: ``v`` is in
``S_k(u)`` for ``k >= 1`` iff it is in ``candidate_index[u]`` or a pass
after ``k`` removed it (the trail's short pass-2+ arrays), and in
``S_0(u)`` iff the C_ini rule holds for it on the old graph.

The contract is strict **bit-identity**: the refreshed CS — candidate
lists, index maps, materialized ``down`` adjacency, ``refinement_steps``
and the trail the next refresh replays — equals what a cold
:func:`~repro.core.candidate_space.build_candidate_space` on the mutated
graph would produce.  C_ini depends only on a vertex's label and degree,
which move only at the footprint's ``dirty`` vertices, so ``X_0`` lies
inside ``dirty``.  Pass ``k`` keeps ``v`` iff ``v`` was in the pass
input, passes the local filters (pass 1 only) and borders a pass-``k``
candidate of every child.  A vertex's outcome can therefore differ
between the two runs only if

- it is in ``X_{k-1}(u)`` (its pass input differs);
- it is ``dirty`` (its label or neighbourhood moved);
- on pass 1 with local filters, its MND/NLF signature moved
  (:func:`repro.graph.index.changed_signatures`, computed once per
  batch);
- it borders a vertex of ``X_k(u_c)`` for a child ``u_c`` (children
  refine before parents in the same reverse topological order as the
  cold pass, so those flips are final).

Exactly these vertices, of ``u``'s label, are re-tested; every other one
sees the same input, signature and child candidates in both runs, so its
outcome and its flip (none) carry over.  A fixpoint run that stops
earlier than the old one truncates the trail there.  One that needs
passes beyond the recorded trail replays them against empty removals:
the old run stopped because its last pass removed nothing, so its final
CS is a fixpoint of both directions and every later pass would remove
nothing from it either.

The refresh then rebuilds only what flipped: the trail arrays, candidate
lists, index maps and ``down`` rows of changed sets (and the rows of
dirty candidates).  Everything else is the old CS's own object, shared;
the old CS is never mutated.  An attached observer counts the prune
reasons of re-tested candidates only.

:func:`cs_diff` is the cross-validation half: a structural comparison
used by tests, the equivalence suite, and ``repro update
--cross-validate`` to assert the refreshed CS against a cold rebuild.
"""

from __future__ import annotations

import time
from array import array
from typing import Optional

from ..graph.digraph import RootedDAG
from ..graph.graph import Graph
from ..graph.index import changed_signatures
from ..resilience.faults import FAULTS
from . import candidate_space
from .candidate_space import (
    _NO_REMOVALS,
    MAX_FIXPOINT_STEPS,
    CandidateSpace,
    refine_options,
)


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
    old: CandidateSpace,
    data: Graph,
    footprint,
    config,
    observer=None,
    moved: Optional[frozenset[int]] = None,
) -> CandidateSpace:
    """Refresh ``old`` (built with a trail on the pre-batch graph
    ``old.data``) against the mutated graph ``data``.

    ``footprint`` is the batch's :class:`repro.graph.mutate.DeltaFootprint`
    and ``config`` the :class:`~repro.core.config.MatchConfig` the old CS
    was built under.  ``moved`` is the batch's
    :func:`~repro.graph.index.changed_signatures`; a caller refreshing
    many entries computes it once, otherwise it is computed here when
    the first pass applies local filters.  The caller has already
    established DAG stability (see :func:`dag_equivalent`); the old DAG
    is reused as-is, which is valid because a :class:`RootedDAG`
    references only the query graph.
    """
    if old.trail is None:
        raise ValueError("candidate space has no refinement trail (keep_trail=False)")
    options = refine_options(config)
    local = options["use_local_filters"]
    if local and moved is None:
        moved = changed_signatures(old.data.index, data.index, data, footprint)
    replay = _Replay(old, data, footprint.dirty, moved if local else frozenset(), config.injective)
    refine_start = time.perf_counter() if observer is not None else 0.0
    if FAULTS.active:
        FAULTS.fire("cs.refine", step=0)
    passes = MAX_FIXPOINT_STEPS if options["refine_to_fixpoint"] else options["refinement_steps"]
    for step in range(passes):
        changed = replay.run_pass(step, local and step == 0, observer)
        if FAULTS.active:
            FAULTS.fire("cs.refine", step=step + 1)
        if options["refine_to_fixpoint"] and not changed and step > 0:
            break
    if observer is not None:
        observer.record_span("cs_refine", time.perf_counter() - refine_start)
    cs = replay.assemble()
    if observer is not None:
        observer.observe_candidate_sizes(len(c) for c in cs.candidates)
    return cs


class _Replay:
    """The flip-set state of one refresh; see the module docstring."""

    def __init__(self, old: CandidateSpace, data: Graph, dirty, moved, injective: bool) -> None:
        self.old = old
        self.data = data
        self.dirty = dirty
        query = old.query
        self.labels = [query.label(u) for u in query.vertices()]
        self.min_degree = [query.degree(u) if injective else 0 for u in query.vertices()]
        # Dirty vertices carrying each query label on either graph (the
        # only places C_ini can flip), and signature moves by new label.
        old_data = old.data
        old_count = old_data.num_vertices
        self.touched: dict = {lab: set() for lab in self.labels}
        self.shifted: dict = {lab: set() for lab in self.labels}
        before: dict[int, tuple] = {}  # dirty vertex -> old (label, degree)
        for v in dirty:
            before[v] = (old_data.label(v), old_data.degree(v)) if v < old_count else (None, -1)
            for lab in (data.label(v), before[v][0]):
                if lab in self.touched:
                    self.touched[lab].add(v)
        for v in moved:
            lab = data.label(v)
            if lab in self.shifted:
                self.shifted[lab].add(v)
        # X_0(u): where the C_ini rule disagrees between the two graphs.
        self.flips = []
        for label, min_degree in zip(self.labels, self.min_degree):
            self.flips.append({
                v for v in self.touched[label]
                if (before[v][0] == label and before[v][1] >= min_degree)
                != (data.label(v) == label and data.degree(v) >= min_degree)
            })
        self._later: list[Optional[dict[int, int]]] = [None] * query.num_vertices
        self.trail: list[list] = []

    def later(self, u: int) -> dict[int, int]:
        """Old removals from ``C(u)`` by pass 2 onwards, as vertex → pass."""
        removals = self._later[u]
        if removals is None:
            removals = self._later[u] = {
                v: k for k, per_vertex in enumerate(self.old.trail[1:], start=2)
                for v in per_vertex[u]
            }
        return removals

    def run_pass(self, step: int, apply_local_filters: bool, observer) -> bool:
        """Replay pass ``k = step + 1``; returns True if the new run's
        pass removed anything (the cold loop's ``changed``)."""
        k = step + 1
        data, old = self.data, self.old
        direction = old.dag.reverse() if step % 2 == 0 else old.dag
        old_removed = old.trail[step] if step < len(old.trail) else None
        label_of = data.label
        new_flips: list = [None] * old.query.num_vertices
        removed: list = [None] * old.query.num_vertices
        changed = False
        for u in reversed(direction.topological_order()):
            entry = old_removed[u] if old_removed is not None else _NO_REMOVALS
            children = direction.children(u)
            prev = self.flips[u]
            if not children and not apply_local_filters:
                new_flips[u], removed[u] = prev, entry  # the pass skips u in both runs
                continue
            label = self.labels[u]
            retest = prev | self.touched[label]
            if apply_local_filters:
                retest |= self.shifted[label]
            for u_c in children:
                for w in new_flips[u_c]:
                    retest.update(x for x in data.neighbors(w) if label_of(x) == label)
            flipped: set[int] = set()
            if retest:
                flipped, gained, lost = self._retest(
                    u, k, retest, [(u_c, new_flips[u_c]) for u_c in children],
                    apply_local_filters, observer,
                )
                if gained or lost:
                    entry = array("i", entry)
                    for v in lost:
                        entry.remove(v)
                    entry.extend(gained)
                    if not entry:
                        entry = _NO_REMOVALS
            new_flips[u] = flipped
            removed[u] = entry
            changed = changed or bool(entry)
        self.flips = new_flips
        self.trail.append(removed)
        return changed

    def _retest(self, u: int, k: int, retest: set[int], children: list,
                apply_local_filters: bool, observer) -> tuple[set[int], list[int], list[int]]:
        """Pass ``k``'s outcome for each ``retest`` vertex of ``C(u)`` in
        both runs; ``children`` pairs each child with its ``X_k``.

        Returns ``X_k(u)`` (the vertices whose outcome differs), the
        vertices the new pass removes and the old one did not
        (``gained`` by the trail entry) and the reverse (``lost``)."""
        old, data = self.old, self.data
        label, min_degree = self.labels[u], self.min_degree[u]
        prev = self.flips[u]
        final = old.candidate_index[u]
        later = self.later(u)
        if k == 1:
            old_count = old.data.num_vertices
            old_label, old_degrees = old.data.label, old.data.degrees
        # A child's new pass-k set is S_k(u_c) XOR X_k(u_c), and S_k(u_c)
        # is its old final set plus what passes after k removed.
        child_sets = [
            (old.candidate_index[u_c].keys(), {w for w, j in self.later(u_c).items() if j > k},
             flipped_c)
            for u_c, flipped_c in children
        ]
        if apply_local_filters:
            index = data.index
            query_mnd = old.query.max_neighbor_degree(u)
            query_nlf = old.query.neighbor_label_counts(u)
        flipped: set[int] = set()
        gained: list[int] = []
        lost: list[int] = []
        for v in retest:
            # v's old membership before and after the pass (S_{k-1},
            # S_k), then its new pass input membership.
            if k == 1:
                was_in = v < old_count and old_label(v) == label and old_degrees[v] >= min_degree
            else:
                was_in = v in final or later.get(v, 0) >= k
            now_in = was_in != (v in prev)
            if not (was_in or now_in):
                continue
            was_out = was_in and (v in final or later.get(v, 0) > k)
            now_out = now_in
            if now_in:
                # DP before the local filters: most re-tests fail it.
                neighbors = data.neighbor_set(v)
                for final_c, ahead_c, flipped_c in child_sets:
                    if flipped_c.isdisjoint(neighbors):
                        borders = not (final_c.isdisjoint(neighbors)
                                       and ahead_c.isdisjoint(neighbors))
                    else:
                        borders = any((w in final_c or w in ahead_c) != (w in flipped_c)
                                      for w in neighbors)
                    if not borders:
                        if observer is not None:
                            observer.prune_cs_edge += 1
                        now_out = False
                        break
                else:
                    # Looked up on its module, where tests count calls.
                    if apply_local_filters and not candidate_space.passes_local_filters_hoisted(
                        index, v, query_mnd, query_nlf
                    ):
                        if observer is not None:
                            observer.prune_label_degree += 1
                        now_out = False
            if now_out != was_out:
                flipped.add(v)
            if (was_in and not was_out) != (now_in and not now_out):
                (lost if was_in and not was_out else gained).append(v)
        return flipped, gained, lost

    def assemble(self) -> CandidateSpace:
        """The refreshed CS: new lists, maps and rows only where they moved."""
        old, data, dirty = self.old, self.data, self.dirty
        steps = len(self.trail)
        candidates: list = []
        candidate_index: list = []
        for u in old.query.vertices():
            # S'(u) = S_steps(u) XOR X(u), and S_steps(u) is the old final
            # set plus what old passes after ``steps`` removed.
            final_flips = self.flips[u].symmetric_difference(
                v for v, k in self.later(u).items() if k > steps
            ) if steps < len(old.trail) else self.flips[u]
            if final_flips:
                members = sorted(final_flips.symmetric_difference(old.candidates[u]))
                candidates.append(members)
                candidate_index.append({v: i for i, v in enumerate(members)})
            else:
                candidates.append(old.candidates[u])
                candidate_index.append(old.candidate_index[u])

        def row(v: int, child_index: dict[int, int]) -> tuple[int, ...]:
            return tuple(child_index[w] for w in data.neighbors(v) if w in child_index)

        down: list = []
        for u in old.query.vertices():
            rows_of: dict = {}
            index_u = candidate_index[u]
            old_index = old.candidate_index[u]
            # Where neither u's list nor the child's moved, only the rows
            # of candidates whose adjacency moved are rebuilt.
            stale = (
                [v for v in self.touched[self.labels[u]] if v in index_u]
                if index_u is old_index else None
            )
            for u_c, old_rows in old.down[u].items():
                child_index = candidate_index[u_c]
                if child_index is not old.candidate_index[u_c]:
                    rows = [row(v, child_index) for v in candidates[u]]
                elif stale is not None:
                    rows = old_rows[:] if stale else old_rows
                    for v in stale:
                        rows[index_u[v]] = row(v, child_index)
                else:
                    rows = [
                        old_rows[old_index[v]] if v in old_index and v not in dirty
                        else row(v, child_index)
                        for v in candidates[u]
                    ]
                rows_of[u_c] = rows
            down.append(rows_of)

        return CandidateSpace(
            query=old.query,
            data=data,
            dag=old.dag,
            candidates=candidates,
            candidate_index=candidate_index,
            down=down,
            refinement_steps=steps,
            trail=self.trail,
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
