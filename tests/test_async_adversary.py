"""Tests for the asynchronous adversary subsystem (PR 5).

Covers the three scheduler bugfixes (each failing on the pre-PR code), the
pluggable adversary strategies, mid-execution crash points, determinism and
fingerprints, the batched executor, the scheduler's cycle fast-forward
(differentially, against step-by-step execution), the bounded-interleaving
model checker (including the mutant self-test and serial-vs-parallel parity)
and the store round-trips of async records.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.async_condition_set_agreement import (
    AsyncConditionSetAgreementProcess,
    run_async_condition_set_agreement,
)
from repro.api import AgreementSpec, Engine, RunConfig
from repro.asynchronous import (
    AsyncExecutionResult,
    AsyncExecutor,
    AsynchronousProcess,
    AsynchronousScheduler,
    CrashAtStepAdversary,
    EnumeratedAdversary,
    LatencySkewAdversary,
    RoundRobinAdversary,
    SeededRandomAdversary,
    SharedMemory,
    available_async_adversaries,
    count_interleavings,
    enumerate_interleavings,
    resolve_async_adversary,
)
from repro.check import (
    MUTANT_HASTY_ASYNC,
    AsyncSpace,
    Counterexample,
    HastyAsyncProcess,
    count_async_adversaries,
    enumerate_async_adversaries,
    register_mutants,
)
from repro.check.async_oracles import ASYNC_ORACLES
from repro.check.oracles import CheckContext
from repro.core.conditions import MaxLegalCondition
from repro.core.values import is_bottom
from repro.core.vectors import InputVector
from repro.exceptions import AdversaryError, InvalidParameterError, RegistryError
from repro.store import ResultStore
from repro.workloads.scenarios import async_scenario
from repro.workloads.vectors import vector_in_max_condition
from strategies import vectors

SPEC = AgreementSpec(n=6, t=2, k=1, d=0, ell=1, domain=8)
VECTOR = vector_in_max_condition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell, 5)


class DecideAfter(AsynchronousProcess):
    """Decides its proposal after a fixed number of steps."""

    def __init__(self, process_id, n, memory, threshold=3):
        super().__init__(process_id, n, memory)
        self._threshold = threshold

    def execute_step(self) -> None:
        if self.steps_taken >= self._threshold:
            self.decide(self.proposal)


class Stubborn(AsynchronousProcess):
    """Never decides — the spinning process of the budget regression."""

    def execute_step(self) -> None:
        return None


# ----------------------------------------------------------------------
# Satellite bugfix 1: the per-process step budget
# ----------------------------------------------------------------------
class TestPerProcessBudget:
    def test_no_process_exceeds_its_budget(self):
        """Regression: the old scheduler enforced only a *global* budget of
        ``n * max_steps_per_process``, so a process running alone could take
        the whole system's budget (and a spinner could starve the rest)."""
        memory = SharedMemory(3)
        processes = [DecideAfter(pid, 3, memory, threshold=8) for pid in range(3)]
        result = AsynchronousScheduler(seed=0, max_steps_per_process=5).run(
            processes, [1, 2, 3], crashed=[1, 2]
        )
        # Old code: the single live process takes 8 <= 15 global steps and
        # decides.  New code: its own 5-step cap stops it first.
        assert result.steps_by_process[0] == 5
        assert not result.terminated
        assert result.decisions == {}

    def test_spinner_cannot_starve_the_rest(self):
        """A spinning process stops being scheduled at its cap, so the other
        processes still receive their full budget."""
        memory = SharedMemory(2)
        processes = [
            Stubborn(0, 2, memory),
            DecideAfter(1, 2, memory, threshold=4),
        ]
        # The skew adversary heavily favours process 0 (smallest latency):
        # without per-process caps it would spin process 0 forever.
        result = AsynchronousScheduler(
            max_steps_per_process=6, adversary=LatencySkewAdversary(skew=100.0)
        ).run(processes, [9, 7])
        assert result.decisions == {1: 7}
        assert result.steps_by_process[0] == 6  # capped, not starved into 12
        assert max(result.steps_by_process.values()) <= 6

    def test_budget_exhaustion_reported(self):
        memory = SharedMemory(2)
        processes = [Stubborn(pid, 2, memory) for pid in range(2)]
        result = AsynchronousScheduler(seed=0, max_steps_per_process=5).run(
            processes, [1, 2]
        )
        assert not result.terminated
        assert result.total_steps == 10
        assert result.steps_by_process == {0: 5, 1: 5}


# ----------------------------------------------------------------------
# Satellite bugfix 2: the proposals lookup
# ----------------------------------------------------------------------
class TestProposalValidation:
    def _processes(self, n=3):
        memory = SharedMemory(n)
        return [DecideAfter(pid, n, memory) for pid in range(n)]

    def test_mapping_missing_pid_names_the_process(self):
        """Regression: a mapping without an entry for some pid escaped as a
        raw ``KeyError`` from the duplicated Mapping/Sequence branch."""
        with pytest.raises(InvalidParameterError, match="process 2"):
            AsynchronousScheduler().run(self._processes(), {0: 1, 1: 2})

    def test_short_sequence_names_the_process(self):
        """Regression: a too-short sequence escaped as ``IndexError``."""
        with pytest.raises(InvalidParameterError, match="process 2"):
            AsynchronousScheduler().run(self._processes(), [1, 2])

    def test_mapping_and_sequence_both_accepted(self):
        mapping = AsynchronousScheduler(seed=1).run(self._processes(), {0: 5, 1: 6, 2: 7})
        sequence = AsynchronousScheduler(seed=1).run(self._processes(), [5, 6, 7])
        assert mapping.decisions == sequence.decisions == {0: 5, 1: 6, 2: 7}


# ----------------------------------------------------------------------
# Satellite bugfix 3: terminated defaults to False
# ----------------------------------------------------------------------
class TestTerminatedDefault:
    def test_blank_result_reads_as_non_termination(self):
        """Regression: a zero-step / partially-populated result used to read
        as a successful termination (``terminated=True`` by default)."""
        assert AsyncExecutionResult(n=3).terminated is False

    def test_scheduler_sets_it_from_the_live_check(self):
        memory = SharedMemory(2)
        processes = [DecideAfter(pid, 2, memory, threshold=1) for pid in range(2)]
        result = AsynchronousScheduler().run(processes, [4, 4])
        assert result.terminated is True


# ----------------------------------------------------------------------
# Adversary strategies
# ----------------------------------------------------------------------
class TestAdversaries:
    def test_resolution_default_matches_seed_contract(self):
        assert isinstance(resolve_async_adversary(None, None), RoundRobinAdversary)
        assert isinstance(resolve_async_adversary(None, 3), SeededRandomAdversary)
        skew = LatencySkewAdversary()
        assert resolve_async_adversary(skew, 3) is skew
        with pytest.raises(RegistryError):
            resolve_async_adversary("no-such-strategy", 0)

    def test_name_and_instance_agree(self):
        engine = Engine(SPEC, "condition-kset")
        by_name = engine.run(VECTOR, backend="async", async_adversary="round-robin")
        by_instance = engine.run(
            VECTOR, backend="async", async_adversary=RoundRobinAdversary()
        )
        assert by_name.fingerprint == by_instance.fingerprint
        assert by_name.decisions == by_instance.decisions

    def test_config_default_is_the_seeded_random_strategy(self):
        engine = Engine(SPEC, "condition-kset")
        default = engine.run(VECTOR, backend="async", seed=9)
        explicit = engine.run(
            VECTOR, backend="async", seed=9, async_adversary=SeededRandomAdversary(9)
        )
        assert default.fingerprint == explicit.fingerprint

    def test_latency_skew_is_deterministic_and_safe(self):
        engine = Engine(SPEC, "condition-kset")
        first = engine.run(VECTOR, backend="async", async_adversary="latency-skew")
        second = engine.run(VECTOR, backend="async", async_adversary="latency-skew")
        assert first.fingerprint == second.fingerprint
        assert first.terminated
        assert first.distinct_decision_count() <= SPEC.ell

    def test_crash_at_step_wrapper_carries_crash_points(self):
        condition = MaxLegalCondition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell)
        adversary = CrashAtStepAdversary(RoundRobinAdversary(), {5: 1})
        result = run_async_condition_set_agreement(
            condition, SPEC.x, VECTOR, adversary=adversary
        )
        assert result.crashed == frozenset({5})
        assert result.steps_by_process[5] == 1
        assert result.terminated

    def test_enumerated_prefix_then_round_robin(self):
        memory = SharedMemory(3)
        processes = [DecideAfter(pid, 3, memory, threshold=2) for pid in range(3)]
        result = AsynchronousScheduler(
            adversary=EnumeratedAdversary((2, 2, 2, 2))
        ).run(processes, [1, 2, 3])
        # The prefix drives p2 to its decision first (choices index into the
        # runnable list, which shrinks once p2 decides), then round-robin
        # finishes the others.
        assert result.step_sequence[:2] == (2, 2)
        assert result.decision_steps[2] == 2
        assert result.terminated

    def test_adversary_returning_non_runnable_pid_rejected(self):
        class Rogue(RoundRobinAdversary):
            def choose(self, runnable, step_index):
                return 99

        memory = SharedMemory(2)
        processes = [DecideAfter(pid, 2, memory) for pid in range(2)]
        with pytest.raises(AdversaryError):
            AsynchronousScheduler(adversary=Rogue()).run(processes, [1, 2])

    def test_adversary_stepping_a_crashed_process_rejected(self):
        """A strategy ignoring the runnable list must not step a process past
        its crash point (or its budget) — that would hang the run forever."""

        class StuckOnZero(RoundRobinAdversary):
            def choose(self, runnable, step_index):
                return 0

        memory = SharedMemory(3)
        processes = [Stubborn(pid, 3, memory) for pid in range(3)]
        with pytest.raises(AdversaryError):
            AsynchronousScheduler(
                adversary=StuckOnZero(), max_steps_per_process=5
            ).run(processes, [1, 2, 3], crash_steps={0: 1})


# ----------------------------------------------------------------------
# Determinism and fingerprints
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_same_result(self):
        engine = Engine(SPEC, "condition-kset")
        first = engine.run(VECTOR, backend="async", seed=11)
        second = engine.run(VECTOR, backend="async", seed=11)
        assert first.decisions == second.decisions
        assert first.decision_times == second.decision_times
        assert first.duration == second.duration
        assert first.fingerprint == second.fingerprint
        assert first.raw.step_sequence == second.raw.step_sequence

    def test_different_seeds_change_the_interleaving(self):
        engine = Engine(SPEC, "condition-kset")
        fingerprints = {
            engine.run(VECTOR, backend="async", seed=seed).fingerprint
            for seed in range(6)
        }
        assert len(fingerprints) > 1

    def test_sync_results_carry_no_fingerprint(self):
        assert Engine(SPEC, "condition-kset").run(VECTOR).fingerprint is None


# ----------------------------------------------------------------------
# Mid-execution crash points
# ----------------------------------------------------------------------
class TestCrashSteps:
    def test_pre_crash_writes_stay_visible(self):
        """A process crashing after its write leaves the proposal in the
        shared memory — the regime the initial-crash modelling collapsed."""
        n, m, x, ell = 3, 4, 1, 1
        condition = MaxLegalCondition(n, m, x, ell)
        vector = vector_in_max_condition(n, m, x, ell, 2)
        memory = SharedMemory(n)
        processes = [
            AsyncConditionSetAgreementProcess(pid, n, memory, condition, x)
            for pid in range(n)
        ]
        result = AsynchronousScheduler(adversary="round-robin").run(
            processes, list(vector), crash_steps={2: 1}
        )
        assert result.crashed == frozenset({2})
        assert result.steps_by_process[2] == 1
        assert not is_bottom(memory.snapshot_proposals()[2])  # the write landed
        assert 2 not in result.decisions
        assert result.terminated

    def test_initial_crash_keeps_the_register_bottom(self):
        n, m, x, ell = 3, 4, 1, 1
        condition = MaxLegalCondition(n, m, x, ell)
        vector = vector_in_max_condition(n, m, x, ell, 2)
        memory = SharedMemory(n)
        processes = [
            AsyncConditionSetAgreementProcess(pid, n, memory, condition, x)
            for pid in range(n)
        ]
        result = AsynchronousScheduler(adversary="round-robin").run(
            processes, list(vector), crash_steps={2: 0}
        )
        assert is_bottom(memory.snapshot_proposals()[2])
        assert result.crashed == frozenset({2})

    def test_deciding_before_the_crash_point_is_surviving(self):
        engine = Engine(SPEC, "condition-kset")
        result = engine.run(
            VECTOR, backend="async", async_adversary="round-robin",
            crash_steps={0: 50},
        )
        assert 0 in result.decisions
        assert result.crashed == frozenset()

    def test_schedule_rounds_project_onto_crash_points(self):
        """A round-2 schedule crash is no longer an initial crash: the
        process takes its pre-crash step and its write stays visible."""
        from repro.sync.adversary import CrashEvent, CrashSchedule

        engine = Engine(SPEC, "condition-kset")
        schedule = CrashSchedule.from_events([CrashEvent(5, 2, frozenset())])
        result = engine.run(VECTOR, schedule, backend="async", seed=1)
        assert result.crashed == frozenset({5})
        assert result.raw.crash_steps == {5: 1}
        assert result.raw.steps_by_process[5] == 1

    def test_crash_steps_validated(self):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError):
            engine.run(VECTOR, backend="async", crash_steps={99: 0})
        with pytest.raises(InvalidParameterError):
            engine.run(VECTOR, backend="async", crash_steps={0: -1})
        with pytest.raises(InvalidParameterError):
            engine.run(VECTOR, crash_steps={0: 1})  # sync backend rejects it


# ----------------------------------------------------------------------
# The batched executor
# ----------------------------------------------------------------------
class TestAsyncExecutor:
    def _factory(self):
        condition = MaxLegalCondition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell)
        return lambda pid, n, memory: AsyncConditionSetAgreementProcess(
            pid, n, memory, condition, SPEC.x
        )

    def test_reuse_matches_fresh_construction(self):
        executor = AsyncExecutor(SPEC.n, self._factory())
        condition = MaxLegalCondition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell)
        for seed in range(4):
            reused = executor.run(list(VECTOR), seed=seed)
            fresh = run_async_condition_set_agreement(
                condition, SPEC.x, VECTOR, seed=seed
            )
            assert reused.decisions == fresh.decisions
            assert reused.step_sequence == fresh.step_sequence
            assert reused.fingerprint == fresh.fingerprint
        assert executor.runs_executed == 4

    def test_reset_clears_cross_run_state(self):
        executor = AsyncExecutor(SPEC.n, self._factory())
        first = executor.run(list(VECTOR), seed=0, crash_steps={0: 0})
        second = executor.run(list(VECTOR), seed=0)
        assert first.crashed == frozenset({0})
        assert second.crashed == frozenset()  # the crash did not leak
        assert executor.memory.write_count > 0  # counters reset per run

    def test_engine_reuses_one_substrate_per_spec(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async"))
        engine.run_batch([VECTOR] * 5)
        assert engine._async_executor().runs_executed == 5

    def test_an_observer_sees_the_prefix_and_may_end_the_run(self):
        """The enumerated adversary's observer runs before steps 0 to
        ``len(prefix)``, reading the executor's processes and registers; one
        that raises ends the run, and the next run is not affected."""
        executor = AsyncExecutor(SPEC.n, self._factory())
        adversary = EnumeratedAdversary((1, 1, 0))
        expected = executor.run(list(VECTOR), adversary=adversary)
        snapshots = executor.memory.snapshot_count
        seen = []

        def observe(runnable, step):
            steps = tuple(process.steps_taken for process in executor.processes)
            seen.append((step, runnable, steps, executor.memory.registers()))

        adversary.observer = observe
        observed = executor.run(list(VECTOR), adversary=adversary)
        assert observed.step_sequence == expected.step_sequence
        assert executor.memory.snapshot_count == snapshots  # reading counts nothing
        assert [(step, sum(steps)) for step, _, steps, _ in seen] == [
            (0, 0), (1, 1), (2, 2), (3, 3)
        ]
        assert seen[0][1] == tuple(range(SPEC.n))
        # Before step 1, only the process of step 0 has written its proposal.
        first = expected.step_sequence[0]
        registers = seen[1][3]
        assert len(registers) == 2 * SPEC.n and registers[first] == VECTOR[first]
        assert sum(not is_bottom(value) for value in registers) == 1

        class Stop(Exception):
            pass

        def stop(runnable, step):
            if step == 2:
                raise Stop

        adversary.observer = stop
        with pytest.raises(Stop):
            executor.run(list(VECTOR), adversary=adversary)
        assert adversary.widths == (SPEC.n, SPEC.n)
        adversary.observer = None
        again = executor.run(list(VECTOR), adversary=adversary)
        assert again.step_sequence == expected.step_sequence
        assert again.steps_by_process == expected.steps_by_process
        assert executor.runs_executed == 4


# ----------------------------------------------------------------------
# The scheduler's cycle fast-forward
# ----------------------------------------------------------------------
@st.composite
def async_executions(draw):
    """One execution: n, x, vector, mutant?, budget, crash points, strategy, seed.

    Budgets of 1..15 and crash points up to past the budget make processes
    leave mid-cycle at different step counts; a strategy is either an
    enumerated prefix of depth 0..4 or a registered strategy name.
    """
    n = draw(st.sampled_from((2, 3, 4)))
    budget = draw(st.integers(1, 15))
    return (
        n,
        draw(st.integers(0, n - 1)),
        draw(vectors(n, 3)),
        draw(st.booleans()),
        budget,
        draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, budget + 2))),
        draw(
            st.one_of(
                st.lists(st.integers(0, n - 1), max_size=4).map(tuple),
                st.sampled_from(available_async_adversaries()),
            )
        ),
        draw(st.integers(0, 3)),
    )


def _run_drawn(execution):
    """Run *execution* on a fresh executor; the result and every counter."""
    n, x, vector, mutant, budget, crash_steps, strategy, seed = execution
    condition = MaxLegalCondition(n, 3, x, 1)
    process_type = HastyAsyncProcess if mutant else AsyncConditionSetAgreementProcess
    processes = []

    def factory(pid, n, memory):
        processes.append(process_type(pid, n, memory, condition, x))
        return processes[-1]

    executor = AsyncExecutor(n, factory, budget)
    adversary = (
        EnumeratedAdversary(strategy)
        if isinstance(strategy, tuple)
        else resolve_async_adversary(strategy, seed)
    )
    result = executor.run(list(vector), crash_steps=crash_steps, adversary=adversary)
    return (
        result,
        [process.steps_taken for process in processes],
        executor.memory.write_count,
        executor.memory.snapshot_count,
        getattr(adversary, "cursor", None),
    )


class TestCycleFastForward:
    @settings(max_examples=300, deadline=None)
    @given(execution=async_executions())
    def test_fast_forward_matches_step_by_step(self, execution):
        fast = _run_drawn(execution)
        # Without a local state the scheduler executes every step.
        with mock.patch.object(
            AsyncConditionSetAgreementProcess,
            "local_state",
            AsynchronousProcess.local_state,
        ):
            step_by_step = _run_drawn(execution)
        assert fast == step_by_step

    def test_blocked_round_robin_run_skips_its_repeats(self, monkeypatch):
        """Outside the condition the run blocks: every process spends its
        200-step budget alternating a snapshot and a help-wait step."""
        spec = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=2)
        engine = Engine(spec, "async-condition")
        executed = 0
        execute_step = AsyncConditionSetAgreementProcess.execute_step

        def counted(self):
            nonlocal executed
            executed += 1
            execute_step(self)

        monkeypatch.setattr(AsyncConditionSetAgreementProcess, "execute_step", counted)
        result = engine.run(
            InputVector([1, 1, 2]), backend="async", async_adversary="round-robin"
        )
        assert result.duration == 600
        assert result.raw.steps_by_process == {0: 200, 1: 200, 2: 200}
        assert not result.terminated
        oracle = ASYNC_ORACLES["async-step-budget"]
        context = CheckContext.from_engine(engine, AsyncSpace().resolve(engine))
        assert oracle.applies(context, result)
        assert oracle.check(context, result) is None
        assert executed < result.duration / 10


# ----------------------------------------------------------------------
# Engine integration: batches, sweeps, parallel parity
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def _vectors(self, count=12):
        return [
            vector_in_max_condition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell, seed)
            for seed in range(count)
        ]

    def test_async_batch_parallel_parity_is_byte_identical(self):
        vectors = self._vectors()
        config = RunConfig(backend="async", seed=7)
        serial = Engine(SPEC, "condition-kset", config).run_batch(
            vectors, chunk_size=3
        )
        parallel = Engine(SPEC, "condition-kset", config).run_batch(
            vectors, chunk_size=3, workers=4
        )
        assert [r.to_record() for r in serial] == [r.to_record() for r in parallel]
        assert all(r.fingerprint for r in serial)

    def test_batch_adversary_and_crash_steps_thread_through_workers(self):
        vectors = self._vectors(8)
        config = RunConfig(backend="async", seed=3)
        kwargs = dict(async_adversary="latency-skew", crash_steps={5: 1})
        serial = Engine(SPEC, "condition-kset", config).run_batch(vectors, **kwargs)
        parallel = Engine(SPEC, "condition-kset", config).run_batch(
            vectors, workers=2, **kwargs
        )
        assert [r.to_record() for r in serial] == [r.to_record() for r in parallel]
        assert all(r.crashed == frozenset({5}) for r in serial)

    def test_parallel_batch_rejects_adversary_instances(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async"))
        with pytest.raises(InvalidParameterError):
            engine.run_batch(
                self._vectors(4), workers=2, async_adversary=RoundRobinAdversary()
            )

    def test_async_sweep_parallel_parity(self):
        config = RunConfig(backend="async", seed=2)
        grid = {"d": (0, 1)}
        serial = Engine(SPEC, "condition-kset", config).sweep(
            grid, runs_per_cell=3, async_adversary="round-robin"
        )
        parallel = Engine(SPEC, "condition-kset", config).sweep(
            grid, runs_per_cell=3, async_adversary="round-robin", workers=2
        )
        for cell_a, cell_b in zip(serial, parallel):
            assert [r.to_record() for r in cell_a.results] == [
                r.to_record() for r in cell_b.results
            ]

    def test_store_round_trips_async_records(self, tmp_path):
        store = ResultStore(tmp_path / "async.jsonl")
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async", seed=4))
        produced = engine.run_batch(self._vectors(5), store=store)
        reloaded = store.load_results()
        assert [r.to_record() for r in reloaded] == [r.to_record() for r in produced]
        assert all(r.backend == "async" for r in reloaded)
        assert all(r.fingerprint for r in reloaded)


# ----------------------------------------------------------------------
# The bounded-interleaving model checker
# ----------------------------------------------------------------------
class TestAsyncCheck:
    CHECK_SPEC = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=2)

    def test_interleaving_count_matches_closed_form(self):
        for n, depth in ((1, 3), (2, 4), (3, 3)):
            generated = sum(1 for _ in enumerate_interleavings(n, depth))
            assert generated == count_interleavings(n, depth) == n**depth

    def test_adversary_count_matches_closed_form(self):
        for n, depth, crashes in ((2, 2, 1), (3, 2, 1), (3, 3, 2)):
            generated = sum(
                1 for _ in enumerate_async_adversaries(n, depth, crashes)
            )
            assert generated == count_async_adversaries(n, depth, crashes)

    def test_reference_algorithm_passes(self):
        report = Engine(self.CHECK_SPEC, "condition-kset").check(
            backend="async", depth=2
        )
        assert report.passed, report.render()
        assert report.executions == report.adversary_count * report.vector_count
        assert report.tally("async-termination-in-condition").checked > 0
        assert report.tally("async-step-budget").violations == 0

    def test_serial_vs_parallel_reports_byte_identical(self):
        serial = Engine(self.CHECK_SPEC, "condition-kset").check(
            backend="async", depth=2
        )
        parallel = Engine(self.CHECK_SPEC, "condition-kset").check(
            backend="async", depth=2, workers=4
        )
        assert serial.to_record() == parallel.to_record()

    def test_mutant_is_caught_and_replayable(self, tmp_path):
        register_mutants()
        spec = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=3)
        store = ResultStore(tmp_path / "async-ce.jsonl")
        report = Engine(spec, MUTANT_HASTY_ASYNC).check(
            backend="async", depth=4, max_crashes=0, vectors=[[3, 1, 1]],
            store=store,
        )
        assert not report.passed
        assert report.tally("async-agreement").violations > 0
        counterexample = report.counterexamples[0]
        replayed = counterexample.replay()
        assert replayed.fingerprint == counterexample.fingerprint
        assert replayed.distinct_decision_count() > spec.ell
        # The stored record reloads into an equal, replayable counterexample.
        reloaded = store.load_counterexamples()
        assert [ce.to_record() for ce in reloaded] == [
            ce.to_record() for ce in report.counterexamples
        ]
        assert Counterexample.from_record(
            counterexample.to_record()
        ).adversary["prefix"] == counterexample.adversary["prefix"]

    def test_sync_and_async_knobs_do_not_mix(self):
        engine = Engine(self.CHECK_SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError):
            engine.check(backend="async", rounds=2)
        with pytest.raises(InvalidParameterError):
            engine.check(depth=2)

    def test_unknown_check_backend_rejected(self):
        """A typo'd backend must not silently fall through to the sync checker."""
        from repro.exceptions import BackendError

        engine = Engine(self.CHECK_SPEC, "condition-kset")
        with pytest.raises(BackendError):
            engine.check(backend="Async")

    def test_scenario_check_entry_point(self):
        scenario = async_scenario(3, 2, 1, 1, adversary="round-robin")
        result = scenario.run()
        assert result.terminated
        assert result.crashed == frozenset(dict(scenario.crash_steps))
        report = scenario.check(depth=2)
        assert report.passed
        batch = scenario.batch(runs=3)
        assert len(batch) == 3 and all(r.terminated for r in batch)


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestCli:
    def test_check_backend_async(self, capsys):
        from repro.cli import main

        status = main(
            [
                "check", "--backend", "async", "--n", "3", "--t", "1", "--d", "0",
                "--m", "2", "--depth", "2",
            ]
        )
        assert status == 0
        assert "async-agreement" in capsys.readouterr().out

    def test_demo_async_adversary(self, capsys):
        from repro.cli import main

        status = main(
            [
                "demo", "--backend", "async", "--adversary", "latency-skew",
                "--n", "6", "--t", "2", "--d", "1", "--m", "6",
            ]
        )
        assert status == 0
        assert "steps" in capsys.readouterr().out
