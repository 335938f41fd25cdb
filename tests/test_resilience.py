"""Budget governor, fault injection, and the graceful-degradation chain."""

import random

import pytest

from repro import (
    Budget,
    BudgetExceeded,
    DAFMatcher,
    MatchConfig,
    MatchOptions,
    MatchRequest,
    ResilientMatcher,
)
from repro.baselines.generic import ordered_backtrack
from repro.baselines.vf2 import VF2Matcher
from repro.graph import Graph, ensure_connected, gnm_random_graph
from repro.interfaces import Deadline, Matcher, MatchResult, is_embedding
from repro.resilience.budget import CANDIDATE_BYTES, embedding_bytes
from repro.resilience.faults import FAULTS, FaultSpec, InjectedFault, inject


def star_instance(leaves: int = 12):
    """Hub-and-spoke instance with leaves * (leaves - 1) embeddings of a
    2-leaf star query — cheap to build, expensive-ish to enumerate."""
    data = Graph(
        labels=["H"] + ["L"] * leaves,
        edges=[(0, i) for i in range(1, leaves + 1)],
    )
    query = Graph(labels=["H", "L", "L"], edges=[(0, 1), (0, 2)])
    return query, data


def blob_instance():
    rng = random.Random(13)
    n = 40
    data = ensure_connected(gnm_random_graph(n, 400, ["A"] * n, rng), rng)
    query = ensure_connected(gnm_random_graph(8, 16, ["A"] * 8, rng), rng)
    return query, data


class TestBudgetUnit:
    def test_calls_dimension_checked_every_tick(self):
        budget = Budget(max_calls=5)
        for _ in range(5):
            budget.tick()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.tick()
        assert excinfo.value.dimension == "calls"
        assert budget.breach == "calls"
        assert isinstance(excinfo.value, Exception)

    def test_time_dimension_polled_at_interval(self):
        budget = Budget(time_limit=0.0, check_interval=4)
        for _ in range(3):
            budget.tick()  # countdown not yet elapsed
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.tick()
        assert excinfo.value.dimension == "time"

    def test_charge_memory_is_cumulative(self):
        budget = Budget(max_memory=100)
        budget.charge_memory(60)
        assert budget.memory == 60
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge_memory(60)
        assert excinfo.value.dimension == "memory"

    def test_note_memory_is_high_water_mark(self):
        budget = Budget(max_memory=100)
        budget.note_memory(50)
        budget.note_memory(30)
        assert budget.memory == 50
        with pytest.raises(BudgetExceeded):
            budget.note_memory(200)

    def test_expired_does_not_raise(self):
        budget = Budget(max_calls=1)
        assert not budget.expired()
        budget.calls = 2
        assert budget.expired()

    def test_remaining_accessors(self):
        budget = Budget(time_limit=60.0, max_calls=10)
        budget.tick()
        assert budget.remaining_calls() == 9
        assert 0.0 < budget.remaining_time() <= 60.0
        unbounded = Budget()
        assert unbounded.remaining_time() is None
        assert unbounded.remaining_calls() is None

    def test_cap_time_only_tightens(self):
        budget = Budget(time_limit=0.001)
        budget.cap_time(100.0)
        assert budget.remaining_time() < 1.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_calls=0)
        with pytest.raises(ValueError):
            Budget(max_memory=0)

    def test_budget_is_deadline_compatible(self):
        # Every engine takes a Deadline; Budget must expose that surface.
        for attr in ("tick", "expired"):
            assert callable(getattr(Budget(), attr))
            assert callable(getattr(Deadline(None), attr))


class TestBudgetedDAF:
    def test_call_budget_flags_instead_of_raising(self):
        query, data = blob_instance()
        result = DAFMatcher().match(
            MatchRequest(
                query, data, options=MatchOptions(limit=10**9, budget=Budget(max_calls=50))
            )
        )
        assert result.budget_breach == "calls"
        assert not result.timed_out
        assert not result.solved
        # The search stopped right where the budget said.
        assert result.stats.recursive_calls <= 51

    def test_time_budget_sets_both_flags(self):
        query, data = blob_instance()
        result = DAFMatcher(MatchConfig(collect_embeddings=False)).match(
            MatchRequest(
                query,
                data,
                options=MatchOptions(
                    limit=10**9, budget=Budget(time_limit=0.05, check_interval=16)
                ),
            )
        )
        assert result.timed_out
        assert result.budget_breach == "time"

    def test_memory_budget_during_collection_keeps_partial(self):
        query, data = star_instance(leaves=12)
        full = DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        assert full.count == 12 * 11
        # Enough for the CS structure but only a fraction of the embeddings.
        cap = data.num_vertices * CANDIDATE_BYTES * 4 + embedding_bytes(3) * 20
        result = DAFMatcher().match(
            MatchRequest(
                query, data, options=MatchOptions(limit=10**9, budget=Budget(max_memory=cap))
            )
        )
        assert result.budget_breach == "memory"
        assert 0 < result.count < full.count
        # Counter and collected list agree even at the breach point.
        assert len(result.embeddings) == result.count
        for embedding in result.embeddings:
            assert is_embedding(embedding, query, data)

    def test_memory_budget_during_cs_build(self):
        query, data = blob_instance()
        result = DAFMatcher().match(
            MatchRequest(
                query, data, options=MatchOptions(limit=10**9, budget=Budget(max_memory=64))
            )
        )
        assert result.budget_breach == "memory"
        assert result.count == 0
        assert result.stats.recursive_calls == 0  # died before the search

    def test_unbreached_budget_changes_nothing(self):
        query, data = star_instance(leaves=6)
        plain = DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        budgeted = DAFMatcher().match(
            MatchRequest(
                query,
                data,
                options=MatchOptions(
                    limit=10**9, budget=Budget(max_calls=10**9, max_memory=10**9)
                ),
            )
        )
        assert budgeted.budget_breach is None
        assert budgeted.solved
        assert sorted(budgeted.embeddings) == sorted(plain.embeddings)


class TestBudgetedGenericBacktrack:
    def _run(self, deadline):
        query, data = star_instance(leaves=8)
        candidate_sets = [
            {v for v in data.vertices() if data.label(v) == query.label(u)}
            for u in query.vertices()
        ]
        return ordered_backtrack(
            query, data, [0, 1, 2], candidate_sets, limit=10**9, deadline=deadline
        )

    def test_call_budget(self):
        result = self._run(Budget(max_calls=10))
        assert result.budget_breach == "calls"
        assert result.stats.recursive_calls <= 11

    def test_memory_budget(self):
        result = self._run(Budget(max_memory=embedding_bytes(3) * 5))
        assert result.budget_breach == "memory"
        assert 0 < len(result.embeddings) == result.stats.embeddings_found <= 5

    def test_plain_deadline_still_works(self):
        result = self._run(Deadline(None))
        assert result.stats.embeddings_found == 8 * 7
        assert result.budget_breach is None


@pytest.mark.faults
class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="nowhere")
        with pytest.raises(ValueError):
            FaultSpec(site="cs.refine", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="cs.refine", probability=1.5)

    def test_at_visit_is_deterministic(self):
        with inject(FaultSpec(site="cs.refine", at_visit=2)) as injector:
            injector.fire("cs.refine", step=0)
            injector.fire("cs.refine", step=1)
            with pytest.raises(InjectedFault):
                injector.fire("cs.refine", step=2)
        assert not FAULTS.active  # context manager disarms

    def test_match_filter(self):
        with inject(FaultSpec(site="worker.start", match={"slice_index": 1})) as inj:
            inj.fire("worker.start", slice_index=0, attempt=0)  # no match, no fire
            with pytest.raises(InjectedFault):
                inj.fire("worker.start", slice_index=1, attempt=0)

    def test_zero_probability_never_fires(self):
        with inject(FaultSpec(site="cs.refine", probability=0.0), seed=7) as inj:
            for step in range(100):
                inj.fire("cs.refine", step=step)
        assert not inj.fired

    def test_seeded_probability_reproducible(self):
        def run(seed):
            count = 0
            with inject(FaultSpec(site="cs.refine", probability=0.5), seed=seed) as inj:
                for step in range(50):
                    try:
                        inj.fire("cs.refine", step=step)
                    except InjectedFault:
                        count += 1
            return count

        assert run(3) == run(3)
        assert 0 < run(3) < 50

    def test_cs_refine_hook_reaches_matcher(self):
        query, data = star_instance()
        with inject(FaultSpec(site="cs.refine")):
            with pytest.raises(InjectedFault):
                DAFMatcher().match(MatchRequest(query, data))

    def test_backtrack_hook_reaches_matcher(self):
        query, data = blob_instance()
        with inject(FaultSpec(site="backtrack.step", at_visit=5)):
            with pytest.raises(InjectedFault):
                DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))

    def test_disarmed_injector_costs_nothing(self):
        query, data = star_instance()
        assert not FAULTS.active
        assert DAFMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        ).count == 12 * 11


class _AlwaysCrashes(Matcher):
    """A primary that dies on every call, for chain-isolation tests."""

    name = "always-crashes"

    def _match_impl(self, query, data, limit=10**9, time_limit=None, on_embedding=None):
        raise RuntimeError("synthetic matcher crash")


class TestResilientMatcher:
    def test_healthy_primary_unchanged(self):
        query, data = star_instance(leaves=6)
        plain = DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        result = ResilientMatcher().match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert result.solved
        assert sorted(result.embeddings) == sorted(plain.embeddings)
        assert len(result.degradations) == 1
        assert "ok" in result.degradations[0]

    def test_memory_breach_degrades_to_counting(self):
        query, data = star_instance(leaves=12)
        expected = 12 * 11
        # Fits the CS structure and a handful of embeddings, nowhere near
        # all 132 — collection must breach, counting mode must succeed.
        cap = data.num_vertices * CANDIDATE_BYTES * 4 + embedding_bytes(3) * 20
        result = ResilientMatcher(max_memory=cap).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert result.solved
        assert result.count == expected
        assert result.embeddings == []  # counting mode collects nothing
        assert len(result.degradations) == 2
        assert "memory budget exceeded" in result.degradations[0]
        assert "ok" in result.degradations[1]

    def test_crashing_primary_falls_back(self):
        query, data = star_instance(leaves=6)
        result = ResilientMatcher(primary=_AlwaysCrashes()).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert result.solved
        assert result.count == 6 * 5
        assert "crashed" in result.degradations[0]
        assert "VF2" in result.degradations[-1]

    @pytest.mark.faults
    def test_injected_faults_exhaust_daf_stages_then_fallback(self):
        query, data = star_instance(leaves=6)
        with inject(FaultSpec(site="backtrack.step")):
            result = ResilientMatcher().match(
                MatchRequest(query, data, options=MatchOptions(limit=10**9))
            )
        # Every DAF stage crashed on its first recursive call.  Each stage
        # tries one checkpoint resume, but a fault that always fires at the
        # same site cannot advance the call counter, so the bounded resume
        # logic gives up and the chain degrades; VF2 has no backtrack.step
        # hook and completes the query.
        assert result.solved
        assert result.count == 6 * 5
        assert sum("resuming from checkpoint" in line for line in result.degradations) == 3
        assert sum("degrading" in line for line in result.degradations) == 3
        assert "ok" in result.degradations[-1]

    def test_all_stages_dead_flags_partial_failure(self):
        query, data = star_instance()
        matcher = ResilientMatcher(primary=_AlwaysCrashes(), use_fallback=False)
        result = matcher.match(MatchRequest(query, data, options=MatchOptions(limit=10**9)))
        assert result.partial_failure
        assert not result.solved
        assert result.count == 0
        assert result.degradations  # the post-mortem is on the result

    def test_timeout_returns_immediately(self):
        query, data = blob_instance()
        result = ResilientMatcher(config=MatchConfig(collect_embeddings=False)).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9, time_limit=0.05))
        )
        assert result.timed_out
        assert not result.solved
        # No pointless retries: a later stage cannot manufacture wall clock.
        assert sum("timed out" in line for line in result.degradations) <= 1

    def test_call_budget_is_global_across_chain(self):
        query, data = blob_instance()
        result = ResilientMatcher(max_calls=100).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9))
        )
        assert result.budget_breach == "calls"
        assert result.stats.recursive_calls <= 101

    def test_on_embedding_sees_final_result(self):
        query, data = star_instance(leaves=5)
        seen = []
        result = ResilientMatcher(primary=_AlwaysCrashes()).match(
            MatchRequest(query, data, options=MatchOptions(limit=10**9, on_embedding=seen.append))
        )
        assert sorted(seen) == sorted(result.embeddings)
