"""Suspend/resume checkpoints (docs/robustness.md).

Bit-identical resumption is the contract under test: a search cut short
at any safe phase and resumed from its :class:`SearchCheckpoint` must
produce the *same* embeddings in the same order with the same
deterministic counters as a run that was never interrupted.  The classes
below walk that contract up the stack: engine suspension sweeps, the
serialization round trip, observability events, crashed-parallel-worker
recovery, and the batch journal.
"""

import json
import random

import pytest

from repro import Budget, DAFMatcher, MatchConfig
from repro.core.candidate_space import build_candidate_space
from repro.core.dag import build_dag
from repro.extensions import ParallelDAFMatcher
from repro.extensions.boost import _CapacityEngine, capacity_aware_candidates, compress
from repro.graph import ensure_connected, gnm_random_graph
from repro.interfaces import (
    Deadline,
    MatchOptions,
    MatchRequest,
    MatchResult,
    Matcher,
    SearchStats,
)
from repro.obs import JsonlSink, MetricsRegistry
from repro.obs.schema import validate_jsonl
from repro.resilience import CheckpointMismatchError, SearchCheckpoint
from repro.resilience.faults import FaultSpec, inject
from repro.service import BatchEngine, BatchJournal, DataGraphSession
from tests.test_backtrack_engine import _se_duplicate

LIMIT = 10**9


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(99)
    data = ensure_connected(gnm_random_graph(24, 80, ["A"] * 24, rng), rng)
    query = ensure_connected(gnm_random_graph(4, 4, ["A"] * 4, rng), rng)
    return query, data


@pytest.fixture(scope="module")
def expected(instance):
    query, data = instance
    return DAFMatcher().match(MatchRequest(query, data, options=MatchOptions(limit=LIMIT)))


def run_with_budget(query, data, max_calls, resume_from=None, observer=None):
    matcher = DAFMatcher()
    if observer is not None:
        matcher.observer = observer
    options = MatchOptions(
        limit=LIMIT, budget=Budget(max_calls=max_calls), resume_from=resume_from
    )
    return matcher.match(MatchRequest(query, data, options=options))


def chase(query, data, max_calls):
    """Drive a search to completion in ``max_calls``-sized resume hops."""
    hops = 0
    checkpoint = None
    while True:
        result = run_with_budget(query, data, max_calls, resume_from=checkpoint)
        if result.budget_breach is None:
            return result, hops
        assert result.budget_breach == "calls"
        assert result.checkpoint is not None, "suspension must be resumable"
        checkpoint = result.checkpoint
        hops += 1
        assert hops < 10_000, "resume chain failed to make progress"


class TestSuspendResume:
    def test_chained_resume_is_bit_identical(self, instance, expected):
        query, data = instance
        total = expected.stats.recursive_calls
        assert total > 20, "workload too shallow to exercise suspension"
        for step in (total // 2 + 1, total // 5 + 1, total // 17 + 1):
            result, hops = chase(query, data, step)
            assert hops >= 1, f"step {step} never suspended"
            assert result.embeddings == expected.embeddings
            assert result.stats.recursive_calls == total
            assert result.stats.embeddings_found == expected.stats.embeddings_found

    def test_resume_accepts_dict_payload(self, instance, expected):
        query, data = instance
        total = expected.stats.recursive_calls
        first = run_with_budget(query, data, total // 2 + 1)
        assert first.checkpoint is not None
        resumed, _ = chase_from_dict(query, data, first.checkpoint.to_dict(), expected)
        assert resumed.embeddings == expected.embeddings

    def test_periodic_checkpoints_each_resume_identically(self, instance, expected):
        query, data = instance
        matcher = DAFMatcher()
        prepared = matcher.prepare(query, data)
        captured = []
        full = matcher.search(
            prepared, limit=LIMIT, checkpoint_every=25, on_checkpoint=captured.append
        )
        assert full.embeddings == expected.embeddings
        assert captured, "periodic hook never fired"
        assert [c.recursive_calls for c in captured] == sorted(
            {c.recursive_calls for c in captured}
        ), "periodic stream must advance monotonically"
        for ckpt in (captured[0], captured[len(captured) // 2], captured[-1]):
            resumed = matcher.search(
                matcher.prepare(query, data), limit=LIMIT, resume_from=ckpt
            )
            assert resumed.embeddings == expected.embeddings
            assert resumed.stats.recursive_calls == expected.stats.recursive_calls

    @pytest.mark.faults
    def test_crash_attaches_checkpoint_to_exception(self, instance, expected):
        query, data = instance
        total = expected.stats.recursive_calls
        with inject(FaultSpec("backtrack.step", kind="raise", at_visit=total // 2)):
            with pytest.raises(Exception) as excinfo:
                DAFMatcher().match(
                    MatchRequest(query, data, options=MatchOptions(limit=LIMIT))
                )
        ckpt = getattr(excinfo.value, "search_checkpoint", None)
        assert ckpt is not None, "crash mid-search must carry a resume point"
        resumed, _ = chase_from_dict(query, data, ckpt.to_dict(), expected)
        assert resumed.embeddings == expected.embeddings
        assert resumed.stats.recursive_calls == total


def chase_from_dict(query, data, payload, expected):
    """Resume from a ``to_dict()`` payload, chasing any further breaches."""
    checkpoint = payload
    hops = 0
    while True:
        result = run_with_budget(query, data, 10**9, resume_from=checkpoint)
        if result.budget_breach is None:
            return result, hops
        checkpoint = result.checkpoint
        hops += 1
        assert hops < 100


class TestSerialization:
    def suspended(self, instance):
        query, data = instance
        result = run_with_budget(query, data, 15)
        assert result.checkpoint is not None
        return result.checkpoint

    def test_json_round_trip_is_lossless(self, instance):
        ckpt = self.suspended(instance)
        clone = SearchCheckpoint.from_json(ckpt.to_json())
        assert clone.to_dict() == ckpt.to_dict()
        assert clone.to_json() == ckpt.to_json()

    def test_save_load_file(self, instance, tmp_path):
        ckpt = self.suspended(instance)
        path = tmp_path / "search.ckpt.json"
        ckpt.save(path)
        assert SearchCheckpoint.load(path).to_dict() == ckpt.to_dict()

    def test_unknown_version_rejected(self, instance):
        payload = self.suspended(instance).to_dict()
        payload["version"] = 99
        with pytest.raises(CheckpointMismatchError, match="version"):
            SearchCheckpoint.from_dict(payload)

    def test_malformed_frames_rejected(self, instance):
        payload = self.suspended(instance).to_dict()
        payload["frames"] = [["not", "numbers"]]
        with pytest.raises(CheckpointMismatchError, match="malformed"):
            SearchCheckpoint.from_dict(payload)

    def test_config_mismatch_refused(self, instance):
        query, data = instance
        ckpt = self.suspended(instance)
        other = DAFMatcher(MatchConfig(use_failing_sets=False))
        with pytest.raises(CheckpointMismatchError, match="use_failing_sets"):
            other.match(
                MatchRequest(
                    query, data, options=MatchOptions(limit=LIMIT, resume_from=ckpt)
                )
            )

    def test_query_mismatch_refused(self, instance):
        _query, data = instance
        ckpt = self.suspended(instance)
        rng = random.Random(7)
        other_query = ensure_connected(gnm_random_graph(5, 6, ["A"] * 5, rng), rng)
        with pytest.raises(CheckpointMismatchError):
            DAFMatcher().match(
                MatchRequest(
                    other_query, data, options=MatchOptions(limit=LIMIT, resume_from=ckpt)
                )
            )


class TestCheckpointEvents:
    def test_save_and_resume_events_validate(self, instance, tmp_path):
        query, data = instance
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        obs = MetricsRegistry(sink=sink)
        first = run_with_budget(query, data, 20, observer=obs)
        assert first.checkpoint is not None
        run_with_budget(query, data, 10**9, resume_from=first.checkpoint, observer=obs)
        sink.close()
        assert validate_jsonl(path) == []
        events = [json.loads(line) for line in path.read_text().splitlines()]
        saves = [e for e in events if e["event"] == "checkpoint.save"]
        resumes = [e for e in events if e["event"] == "checkpoint.resume"]
        assert saves and saves[0]["reason"] == "budget:calls"
        assert saves[0]["recursive_calls"] == first.checkpoint.recursive_calls
        assert resumes and resumes[0]["recursive_calls"] == first.checkpoint.recursive_calls


@pytest.mark.faults
class TestParallelResume:
    def test_crashed_worker_retry_resumes_not_restarts(self, instance, expected):
        query, data = instance
        clean = ParallelDAFMatcher(num_workers=2, checkpoint_every=8).match(
            MatchRequest(query, data, options=MatchOptions(limit=LIMIT))
        )
        slice_calls = [o.recursive_calls for o in clean.stats.worker_outcomes]
        if len(slice_calls) < 2:
            pytest.skip("workload produced a single slice; runs inline")
        tmax = max(slice_calls)
        assert tmax >= 32, "slices too shallow for a meaningful resume"
        # Kill workers at 3/4 of the deepest slice: a checkpoint taken at
        # floor(at/8)*8 calls exists, and the resumed retry re-executes at
        # most total - that < at calls, so the per-process at_visit fault
        # (re-armed in the forked retry) never refires.
        at = (3 * tmax) // 4
        with inject(FaultSpec("backtrack.step", kind="exit", at_visit=at)):
            result = ParallelDAFMatcher(
                num_workers=2, max_retries=2, checkpoint_every=8
            ).match(MatchRequest(query, data, options=MatchOptions(limit=LIMIT)))
        assert sorted(result.embeddings) == sorted(expected.embeddings)
        # Per-slice accounting differs from the sequential engine by the
        # extra root calls, so the faulted run must match the *clean
        # parallel* totals exactly.
        assert result.stats.recursive_calls == clean.stats.recursive_calls
        resumed = [o for o in result.stats.worker_outcomes if o.resumed_from_calls > 0]
        assert resumed, "retry must resume from the piggy-backed checkpoint"
        for outcome in resumed:
            assert outcome.status == "ok"
            assert outcome.attempts > 1
            executed_on_retry = outcome.recursive_calls - outcome.resumed_from_calls
            # The proof of resumption: the retry did strictly less work
            # than a from-scratch rerun of its slice would have.
            assert executed_on_retry < outcome.recursive_calls
        assert result.stats.recursive_calls == sum(
            o.recursive_calls for o in result.stats.worker_outcomes
        )

    def test_stalled_worker_is_recovered(self, instance, expected):
        query, data = instance
        clean = ParallelDAFMatcher(num_workers=2, checkpoint_every=8).match(
            MatchRequest(query, data, options=MatchOptions(limit=LIMIT))
        )
        slice_calls = [o.recursive_calls for o in clean.stats.worker_outcomes]
        if len(slice_calls) < 2:
            pytest.skip("workload produced a single slice; runs inline")
        tmax = max(slice_calls)
        with inject(
            FaultSpec(
                "backtrack.step", kind="hang", at_visit=(3 * tmax) // 4, hang_seconds=30.0
            )
        ):
            result = ParallelDAFMatcher(
                num_workers=2, max_retries=2, checkpoint_every=8, stall_timeout=0.75
            ).match(MatchRequest(query, data, options=MatchOptions(limit=LIMIT)))
        assert sorted(result.embeddings) == sorted(expected.embeddings)
        assert result.stats.worker_retries >= 1
        assert any(o.resumed_from_calls > 0 for o in result.stats.worker_outcomes)


class _InterruptingMatcher(Matcher):
    """Returns an interrupted result on every call (Ctrl-C stand-in)."""

    name = "interrupting"

    def _match_impl(self, query, data, limit=10**9, time_limit=None, on_embedding=None):
        return MatchResult(stats=SearchStats(), interrupted=True)


class TestBatchJournal:
    def queries(self, instance, count=3):
        query, data = instance
        rng = random.Random(13)
        out = [query]
        while len(out) < count:
            probe = ensure_connected(gnm_random_graph(4, 5, ["A"] * 4, rng), rng)
            out.append(probe)
        return data, out

    def test_journal_replays_completed_requests(self, instance, tmp_path):
        data, queries = self.queries(instance)
        requests = [
            MatchRequest(q, options=MatchOptions(limit=LIMIT), tag=f"q{i}")
            for i, q in enumerate(queries)
        ]
        journal = BatchJournal(tmp_path / "journal")
        engine = BatchEngine(DataGraphSession(data))
        first = engine.run(requests, journal=journal)
        assert first.failed == 0
        second = BatchEngine(DataGraphSession(data)).run(requests, journal=journal)
        assert second.failed == 0
        for before, after in zip(first.items, second.items):
            assert after.cache == "journal"
            assert after.result.embeddings == before.result.embeddings

    def test_journal_resumes_budget_suspended_request(self, instance, expected, tmp_path):
        data, queries = self.queries(instance, count=2)
        total = expected.stats.recursive_calls
        step = total // 3 + 1
        journal = BatchJournal(tmp_path / "journal")
        runs = 0
        while True:
            runs += 1
            assert runs <= 10, "journaled resume failed to converge"
            # Fresh requests each run: Budget is a stateful governor, so a
            # breached instance cannot be re-submitted.
            requests = [
                MatchRequest(
                    queries[0],
                    options=MatchOptions(limit=LIMIT, budget=Budget(max_calls=step)),
                    tag="suspended",
                ),
                MatchRequest(queries[1], options=MatchOptions(limit=LIMIT), tag="easy"),
            ]
            batch = BatchEngine(DataGraphSession(data)).run(requests, journal=journal)
            done = [i for i in batch.items if i.tag == "suspended" and i.result is not None]
            if done and done[0].result.budget_breach is None:
                break
        assert runs > 1, "budget never suspended the request"
        final = done[0].result
        assert final.embeddings == expected.embeddings
        assert final.stats.recursive_calls == total

    def test_interrupted_item_stops_dispatch(self, instance, tmp_path):
        data, queries = self.queries(instance)
        session = DataGraphSession(data, matcher=_InterruptingMatcher())
        engine = BatchEngine(session)
        requests = [
            MatchRequest(q, options=MatchOptions(limit=LIMIT), tag=f"q{i}")
            for i, q in enumerate(queries)
        ]
        items = list(engine.run_iter(requests))
        assert items, "the interrupted item itself must still be yielded"
        assert items[-1].result.interrupted
        assert len(items) < len(requests), "dispatch must stop after an interrupt"

    def test_corrupt_checkpoint_falls_back_to_scratch(self, instance, expected, tmp_path):
        data, queries = self.queries(instance, count=1)
        requests = [MatchRequest(queries[0], options=MatchOptions(limit=LIMIT), tag="q0")]
        journal = BatchJournal(tmp_path / "journal")
        # A checkpoint for a *different* search: restore must refuse it and
        # the engine must rerun from scratch rather than diverge or die.
        rng = random.Random(3)
        other = ensure_connected(gnm_random_graph(5, 7, ["A"] * 5, rng), rng)
        stray = DAFMatcher().match(
            MatchRequest(
                other, data, options=MatchOptions(limit=LIMIT, budget=Budget(max_calls=10))
            )
        )
        assert stray.checkpoint is not None
        journal.save_checkpoint(0, stray.checkpoint)
        batch = BatchEngine(DataGraphSession(data)).run(requests, journal=journal)
        assert batch.failed == 0
        assert batch.items[0].result.embeddings == expected.embeddings


def capacity_engine(query, data, config, **kwargs):
    """A DAF-Boost capacity engine over the SE-compressed ``data``."""
    hyper, capacities, members = compress(data)
    initial_sets = [
        capacity_aware_candidates(query, hyper, capacities, u) for u in query.vertices()
    ]
    cs = build_candidate_space(
        query, hyper, build_dag(query, hyper), use_local_filters=False, initial_sets=initial_sets
    )
    return _CapacityEngine(
        capacities,
        members,
        cs,
        config,
        limit=LIMIT,
        deadline=Deadline(None),
        stats=SearchStats(),
        **kwargs,
    )


@pytest.fixture(scope="module")
def boost_instance():
    """Single-label graph with SE twins, so hypervertices hold several
    query vertices at once."""
    rng = random.Random(5)
    base = ensure_connected(gnm_random_graph(14, 30, ["A"] * 14, rng), rng)
    data = _se_duplicate(base, rng, 6)
    query = ensure_connected(gnm_random_graph(5, 5, ["A"] * 5, rng), rng)
    return query, data


class TestCapacityEngineCheckpoint:
    @pytest.mark.parametrize(
        "config",
        [
            MatchConfig(leaf_decomposition=False),
            MatchConfig(collect_embeddings=False),
            MatchConfig(collect_embeddings=False, use_failing_sets=False),
        ],
        ids=["collect", "count-leaves", "count-da"],
    )
    def test_periodic_checkpoints_each_resume_identically(self, boost_instance, config):
        query, data = boost_instance
        captured = []
        full = capacity_engine(
            query, data, config, checkpoint_every=10, on_checkpoint=captured.append
        )
        full.run()
        assert full.stats.embeddings_found > 0
        assert len(captured) >= 3, "periodic hook never fired"
        for ckpt in captured[:: max(1, len(captured) // 12)]:
            resumed = capacity_engine(query, data, config)
            resumed.restore(SearchCheckpoint.from_json(ckpt.to_json()))
            resumed.run()
            assert resumed.embeddings == full.embeddings
            assert resumed.stats.embeddings_found == full.stats.embeddings_found
            assert resumed.stats.recursive_calls == full.stats.recursive_calls
            assert resumed.occupiers == {}

    def test_suspension_inside_expansion_is_not_resumable(self, boost_instance):
        query, data = boost_instance
        seen = []

        def stop_at_third(embedding):
            seen.append(embedding)
            if len(seen) == 3:
                raise RuntimeError("consumer failed")

        engine = capacity_engine(
            query, data, MatchConfig(leaf_decomposition=False), on_embedding=stop_at_third
        )
        with pytest.raises(RuntimeError):
            engine.run()
        assert not engine.can_checkpoint()
