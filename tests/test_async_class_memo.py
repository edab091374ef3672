"""The asynchronous check's class memo (``AsyncSpace.batch``).

The memo starts the reference executor at most once per class of identical
executions, and stops a run at a configuration an earlier run explored.
These tests pin how many runs start on the ``async-interleave`` benchmark
cell, prove the three class rules on the reference executor over that
cell's whole space, and compare the memo's reports with the reference path
(``vectorized=False``, every adversary executed) on a spread of cells:
depths 2-5, 0-2 crashes, a mutant with truncated counterexamples and
``workers=2`` shards that start mid-block.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.async_condition_set_agreement import AsyncConditionSetAgreementProcess
from repro.api import AgreementSpec, Engine
from repro.api.registry import ALGORITHMS, AlgorithmEntry
from repro.asynchronous import AsynchronousProcess
from repro.check import MUTANT_HASTY_ASYNC, AsyncSpace, async_checker, register_mutants
from repro.check.frontier import input_frontier
from repro.check.oracles import CheckContext
from repro.exceptions import SimulationError
from repro.parallel import SUBMIT_WINDOW_PER_WORKER

#: The ``async-interleave`` benchmark cell: 1,296 adversaries x 8 vectors.
CELL = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=2)
#: The mutant cells' spec: a domain of 3 lets the hasty process disagree.
MUTANT_SPEC = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=3)


def _reports(spec, algorithm, **options):
    """The memo's and the reference path's report of one cell, and each
    engine's executor run count."""
    memo = Engine(spec, algorithm)
    reference = Engine(spec, algorithm)
    reports = (
        memo.check(backend="async", **options),
        reference.check(backend="async", vectorized=False, **options),
    )
    runs = tuple(engine._async_executor().runs_executed for engine in (memo, reference))
    return reports, runs


def test_the_benchmark_cell_runs_each_class_once():
    """2,074 runs start for the 2,859 classes of rules 1 and 2: rule 3
    serves 785 classes before any run, and stops 652 of the runs early."""
    engine = Engine(CELL, "async-condition")
    report = engine.check(backend="async", depth=4)
    assert report.passed
    assert (report.adversary_count, report.executions) == (1296, 10368)
    assert engine._async_executor().runs_executed == 2074


def test_rule_3_is_off_without_local_states(monkeypatch):
    """A process whose ``local_state()`` is ``None`` turns rule 3 off for
    the run, as it turns off the cycle skipper: one run per class of rules
    1 and 2, and the same report."""
    expected = Engine(CELL, "async-condition").check(backend="async", depth=4)
    monkeypatch.setattr(AsyncConditionSetAgreementProcess, "local_state", lambda self: None)
    engine = Engine(CELL, "async-condition")
    report = engine.check(backend="async", depth=4)
    assert engine._async_executor().runs_executed == 2859
    assert report.to_record() == expected.to_record()


def test_an_oracle_outside_the_four_is_refused():
    engine = Engine(CELL, "async-condition")
    space = AsyncSpace().resolve(engine)
    context = CheckContext.from_engine(engine, space)
    vectors = input_frontier(CELL, engine.condition)
    assert space.batch(engine, context, vectors, tuple(space.oracles)) is not None
    assert space.batch(engine, context, vectors, ("async-validity", "other")) is None


def _signature(raw):
    """What every member of a class shares with its representative."""
    return (
        raw.step_sequence,
        tuple(sorted(raw.decisions.items())),
        tuple(sorted(raw.decision_steps.items())),
        tuple(sorted(raw.steps_by_process.items())),
        raw.crashed,
    )


def test_class_rules_hold_on_the_reference_executor():
    """Both rules, on every execution of the benchmark cell, step by step.

    Rule 1: prefixes with equal residues modulo the widths read realize one
    execution.  Rule 2: a crash point ``(p, s)`` with ``s >= 1`` that ``p``
    outlives (it decides within ``s`` steps without the crash) changes
    nothing.  Walking the space in enumeration order and opening a class
    wherever neither rule reaches an earlier run opens exactly as many
    classes as there are distinct executions: 2,859, of which rule 3 lets
    the memo start 2,074 runs.
    """
    engine = Engine(CELL, "async-condition")
    space = AsyncSpace(depth=4).resolve(engine)
    vectors = input_frontier(CELL, engine.condition)
    runs = {}
    for crash_steps, adversary in space.points(CELL, 0, None):
        assignment = tuple(sorted(crash_steps.items()))
        for lane, vector in enumerate(vectors):
            raw = space.execute(engine, vector, (crash_steps, adversary)).raw
            runs[assignment, adversary.prefix, lane] = (adversary.widths, raw)
    assert len(runs) == 10368

    classes = {}
    opened = 0
    by_residues = {}
    for (assignment, prefix, lane), (widths, raw) in runs.items():
        residues = tuple(choice % width for choice, width in zip(prefix, widths))
        same = by_residues.setdefault((assignment, lane, widths, residues), raw)
        assert _signature(raw) == _signature(same)
        found = same is not raw
        for index, (pid, crash_point) in enumerate(assignment):
            below = runs[assignment[:index] + assignment[index + 1:], prefix, lane][1]
            decided = below.decision_steps.get(pid)
            if crash_point >= 1 and decided is not None and decided <= crash_point:
                assert _signature(raw) == _signature(below)
                found = True
        opened += not found
        classes.setdefault((lane, _signature(raw)), 0)
    assert opened == len(classes) == 2859


def _configuration(lane, runnable, executor):
    """The configuration before a step, as rule 3 reads it, with the lane."""
    configuration = [lane, runnable]
    for process in executor.processes:
        configuration += (
            process.local_state(), process.steps_taken, process.has_decided(), process.decision
        )
    return (*configuration, *executor.memory.registers())


def test_equal_configurations_hold_on_the_reference_executor():
    """Rule 3, on every execution of the benchmark cell.

    Before step ``s`` with ``2 <= s <= depth`` (step ``depth`` is the first
    after the prefix), executions with equal crash assignment, lane,
    configuration and remaining choices ``prefix[s:]`` end alike: the same
    decisions, decision steps, steps per process, ``crashed`` and
    ``terminated``.  7,188 of the 10,368 executions meet such a pair that an
    earlier one already met.
    """
    engine = Engine(CELL, "async-condition")
    space = AsyncSpace(depth=4).resolve(engine)
    vectors = input_frontier(CELL, engine.condition)
    executor = engine._async_executor()
    passed = []

    def observe(runnable, step):
        if step >= 2:
            passed.append((step, _configuration(lane, runnable, executor)))

    first = {}
    repeated = 0
    for crash_steps, adversary in space.points(CELL, 0, None):
        assignment = tuple(sorted(crash_steps.items()))
        for lane, vector in enumerate(vectors):
            passed.clear()
            adversary.observer = observe
            raw = space.execute(engine, vector, (crash_steps, adversary)).raw
            adversary.observer = None
            ending = (*_signature(raw)[1:], raw.terminated)
            seen = False
            for step, configuration in passed:
                kept = first.setdefault(
                    (assignment, configuration, adversary.prefix[step:]), ending
                )
                assert kept == ending
                seen = seen or kept is not ending
            repeated += seen
    assert repeated == 7188


@pytest.mark.parametrize(
    "depth, max_crashes",
    [(2, 2), (3, 1), (4, 0), (5, 0)],
)
def test_memo_matches_the_reference(depth, max_crashes):
    (memo, reference), (memo_runs, reference_runs) = _reports(
        CELL, "async-condition", depth=depth, max_crashes=max_crashes
    )
    assert memo.to_record() == reference.to_record()
    assert memo.render() == reference.render()
    assert reference_runs == reference.executions
    assert memo_runs <= reference_runs


def test_memo_matches_the_reference_on_a_mutant_with_truncated_counterexamples():
    register_mutants()
    (memo, reference), (memo_runs, _) = _reports(
        MUTANT_SPEC,
        MUTANT_HASTY_ASYNC,
        depth=3,
        max_crashes=2,
        vectors=[[3, 1, 1], [1, 3, 3], [2, 1, 3]],
        max_counterexamples=7,
    )
    assert memo.truncated and memo.violation_count > len(memo.counterexamples) == 7
    assert memo.to_record() == reference.to_record()
    assert memo.render() == reference.render()
    # One run per class, plus the seven counterexample replays.
    assert memo_runs < reference.executions


class Tally(AsynchronousProcess):
    """Writes its proposal, then the count of proposals its one snapshot
    saw, and decides only if that count (read back from the register) is
    ``n``.  Its local state forgets the count, so two configurations that
    differ only in that register must stay apart."""

    def on_initialize(self, proposal) -> None:
        self._phase = "write"

    def local_state(self) -> str:
        return self._phase

    def execute_step(self) -> None:
        memory = self.memory
        if self._phase == "write":
            memory.write_proposal(self.process_id, self.proposal)
            self._phase = "count"
        elif self._phase == "count":
            memory.write_decision(self.process_id, memory.snapshot_proposals().non_bottom_count())
            self._phase = "wait"
        elif memory.snapshot_decisions()[self.process_id] == self.n:
            self.decide(self.proposal)


def test_the_configuration_holds_the_registers(monkeypatch):
    """The memo matches the reference on :class:`Tally`, whose agreement
    and termination hold on some interleavings and fail on others."""
    entry = AlgorithmEntry(
        name="tally",
        backends=frozenset({"async"}),
        build=lambda spec, condition: None,
        agreement_degree=lambda spec: spec.ell,
        summary="decides once its one snapshot saw every proposal",
        async_factory=lambda spec, condition: Tally,
    )
    monkeypatch.setitem(ALGORITHMS._entries, "tally", entry)
    (memo, reference), _ = _reports(CELL, "tally", depth=4)
    assert not memo.passed
    assert memo.to_record() == reference.to_record()
    assert memo.render() == reference.render()


@st.composite
def async_cells(draw):
    """A small async cell: its spec, algorithm and check options.

    n is 2 or 3 at depth 1 to 4, or 4 at depth 1 or 2; t < n, d <= t, up to
    x crashes, a domain of 2 or 3, and 1 to 4 explicit vectors."""
    n = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 2 if n == 4 else 4))
    t = draw(st.integers(0, n - 1))
    spec = AgreementSpec(
        n=n, t=t, k=1, d=draw(st.integers(0, t)), ell=1, domain=draw(st.sampled_from((2, 3)))
    )
    vector = st.lists(st.integers(1, spec.domain), min_size=n, max_size=n)
    options = {
        "depth": depth,
        "max_crashes": draw(st.integers(0, spec.x)),
        "vectors": draw(st.lists(vector, min_size=1, max_size=4)),
        "max_counterexamples": draw(st.integers(0, 7)),
    }
    return spec, draw(st.sampled_from(("async-condition", MUTANT_HASTY_ASYNC))), options


@settings(max_examples=150, deadline=None)
@given(cell=async_cells())
def test_memo_matches_the_reference_on_drawn_cells(cell):
    register_mutants()
    spec, algorithm, options = cell
    (memo, reference), (memo_runs, reference_runs) = _reports(spec, algorithm, **options)
    assert memo.to_record() == reference.to_record()
    assert memo.render() == reference.render()
    # Each counterexample's lane is re-run on the reference path.
    assert memo_runs <= reference_runs + len(memo.counterexamples)


def test_memo_shards_that_start_mid_block_match_the_reference():
    register_mutants()
    depth = 3
    space = AsyncSpace(depth=depth, max_crashes=1)
    count = space.count(MUTANT_SPEC)
    shard = -(-count // (2 * SUBMIT_WINDOW_PER_WORKER))
    # A block is one crash assignment's 3^depth prefixes.
    assert shard % 3**depth != 0
    options = {"depth": depth, "max_crashes": 1, "all_vectors_limit": 10}
    sharded = Engine(MUTANT_SPEC, MUTANT_HASTY_ASYNC).check(
        backend="async", workers=2, **options
    )
    reference = Engine(MUTANT_SPEC, MUTANT_HASTY_ASYNC).check(
        backend="async", vectorized=False, **options
    )
    assert not reference.passed
    assert sharded.to_record() == reference.to_record()


@pytest.mark.slow
@pytest.mark.parametrize(
    "spec, algorithm, options",
    [
        (AgreementSpec(n=4, t=1, k=1, d=0, ell=1, domain=2), "async-condition",
         {"depth": 3, "max_crashes": 2}),
        (AgreementSpec(n=4, t=2, k=1, d=1, ell=1, domain=2), "async-condition",
         {"depth": 4}),
        (AgreementSpec(n=4, t=1, k=1, d=0, ell=1, domain=3), MUTANT_HASTY_ASYNC,
         {"depth": 3, "max_crashes": 2, "all_vectors_limit": 10}),
    ],
    ids=["n4-two-crashes", "n4-t2", "n4-mutant"],
)
def test_memo_matches_the_reference_on_n4(spec, algorithm, options):
    register_mutants()
    (memo, reference), _ = _reports(spec, algorithm, **options)
    assert memo.to_record() == reference.to_record()
    assert memo.render() == reference.render()


def test_a_memo_outcome_the_reference_does_not_reproduce_raises(monkeypatch):
    """Flagged lanes are re-run on the reference path, so a wrong memo entry
    cannot reach a report: the check raises and names the adversary."""
    run = async_checker._ClassMemo._run

    def flag_validity(self, lane, vector, point):
        checks, steps = run(self, lane, vector, point)
        return ((True, True), *checks[1:]), steps

    monkeypatch.setattr(async_checker._ClassMemo, "_run", flag_validity)
    with pytest.raises(SimulationError, match=r"'async-validity'.* under prefix \[0, 0\]"):
        Engine(CELL, "async-condition").check(backend="async", depth=2)
