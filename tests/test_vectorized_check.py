"""The packed batch execution core — parity with the scalar reference path.

Three layers of evidence that ``vectorized=True`` changes the cost of the
exhaustive check and nothing else:

* **representation** — packing a batch of vectors into a
  :class:`repro.vec.PackedBlock` and unpacking it is the identity, for any
  drawn batch (Hypothesis);
* **condition algebra** — ``contains_batch`` / ``p_batch`` answer bit for bit
  what the scalar ``contains`` / ``is_compatible`` loops answer, for all six
  registered condition families (Hypothesis);
* **checker** — on the complete ``n=4, t=2`` space the batch evaluator and
  the reference object runtime produce byte-identical
  :class:`~repro.check.CheckReport` records, serial and sharded, for both
  supported algorithms — including when violations exist (bounds tightened
  by monkeypatching so the correct algorithms actually fail), where the
  counterexample order and truncation must match exactly; and on random
  contiguous slices of the schedule stream of drawn specs (Hypothesis),
  which start the evaluator's caches mid-stream as a pool shard does.

The guard tests pin the refusal surface: anything the batch model cannot
mirror faithfully (mutant subclasses, trace recording, foreign oracles)
falls back to the scalar path, and ``vectorized=False`` is refused on the
net backend, which has no batch hook to disable.  The cache tests pin
that the round driver's caches stay small and belong to one evaluator, that
the class memo serves every schedule what a fresh evaluator computes, and
that an overrunning class raises for each of its members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import vector_batches, vectors

from repro.algorithms.condition_kset import ConditionBasedKSetAgreement
from repro.algorithms.early_deciding_kset import EarlyDecidingKSetAgreement
from repro.api import ALGORITHMS, AgreementSpec, AlgorithmEntry, Engine, RunConfig
from repro.check import MUTANT_HASTY_FLOODMIN, SyncSpace, check_slice, checker, register_mutants
from repro.check.frontier import input_frontier, packed_frontier
from repro.check.oracles import ORACLES, CheckContext, PropertyOracle
from repro.core.conditions import ExplicitCondition, MaxLegalCondition
from repro.core.families import (
    AllVectorsOracle,
    FrequencyGapCondition,
    HammingBallCondition,
    MinLegalCondition,
)
from repro.core.values import BOTTOM
from repro.core.vectors import InputVector, View
from repro.exceptions import InvalidParameterError, ReproError, SimulationError
from repro.sync.adversary import (
    CrashEvent,
    CrashSchedule,
    count_schedules,
    enumerate_schedules,
)
from repro.vec import BatchSyncEvaluator, PackedBlock

#: The complete two-fault cell: 2,731 schedules × 16 vectors (domain 2 is
#: under the all-vectors limit, so the input dimension is exhaustive too).
N4T2 = AgreementSpec(n=4, t=2, k=2, d=1, ell=1, domain=2)


def small_spec(**overrides) -> AgreementSpec:
    parameters = dict(n=3, t=1, k=1, d=1, ell=1, domain=2)
    parameters.update(overrides)
    return AgreementSpec(**parameters)


# ----------------------------------------------------------------------
# Representation: pack/unpack is the identity
# ----------------------------------------------------------------------
_batches = st.tuples(st.integers(2, 4), st.integers(2, 3)).flatmap(
    lambda nm: st.tuples(st.just(nm[0]), st.just(nm[1]), vector_batches(nm[0], nm[1]))
)


@given(_batches)
def test_pack_unpack_round_trip(case):
    n, m, batch = case
    block = PackedBlock.pack(batch, m)
    assert (block.n, block.m, block.lanes) == (n, m, len(batch))
    assert block.unpack() == batch
    # The value columns partition the full mask at every position.
    for position in range(n):
        combined = 0
        for column in block.cols[position]:
            assert combined & column == 0
            combined |= column
        assert combined == block.full_mask


@given(_batches)
def test_lane_masks_match_per_lane_reads(case):
    _, m, batch = case
    block = PackedBlock.pack(batch, m)
    for lane, vector in enumerate(batch):
        assert block.lane(lane) == vector.entries
        for position, value in enumerate(vector.entries):
            assert block.col(position, value) & (1 << lane)
    # Foreign values never select a lane.
    assert block.col(0, 0) == 0
    assert block.col(0, m + 1) == 0
    assert block.col(0, True) == 0


# ----------------------------------------------------------------------
# Condition algebra: batch answers == scalar loops, all six families
# ----------------------------------------------------------------------
def _scalar_contains_mask(condition, block):
    mask = 0
    for lane, entries in enumerate(block.iter_lanes()):
        if condition.contains(InputVector(entries)):
            mask |= 1 << lane
    return mask


def _scalar_p_mask(condition, block, positions):
    heard = frozenset(positions)
    mask = 0
    for lane, entries in enumerate(block.iter_lanes()):
        view = View(
            entries[position] if position in heard else BOTTOM
            for position in range(block.n)
        )
        if condition.is_compatible(view):
            mask |= 1 << lane
    return mask


@st.composite
def _family_cases(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 3))
    batch = draw(vector_batches(n, m))
    positions = tuple(sorted(draw(st.frozensets(st.integers(0, n - 1)))))
    x = draw(st.integers(0, n - 1))
    ell = draw(st.integers(1, 2))
    conditions = [
        MaxLegalCondition(n, m, x, ell),
        MinLegalCondition(n, m, x, ell),
        AllVectorsOracle(n, m, ell),
        FrequencyGapCondition(n, m, draw(st.integers(0, n - 1))),
        HammingBallCondition(
            n, m, draw(vectors(n, m)), draw(st.integers(0, n - 1)), ell
        ),
        ExplicitCondition(draw(st.lists(vectors(n, m), min_size=1, max_size=4))),
    ]
    return m, batch, positions, conditions


@given(_family_cases())
@settings(max_examples=60)
def test_batch_membership_matches_scalar_for_all_families(case):
    m, batch, positions, conditions = case
    block = PackedBlock.pack(batch, m)
    for condition in conditions:
        assert condition.contains_batch(block) == _scalar_contains_mask(
            condition, block
        ), condition.name
        assert condition.p_batch(block, positions) == _scalar_p_mask(
            condition, block, positions
        ), condition.name


def test_explicit_condition_rejects_foreign_block_sizes():
    condition = ExplicitCondition([InputVector([1, 2]), InputVector([2, 2])])
    block = PackedBlock.pack([InputVector([1, 2, 2])], 2)
    assert condition.contains_batch(block) == 0
    # The generic ⊥-view fallback answers the P(J) question instead.
    assert condition.p_batch(block, (0,)) == _scalar_p_mask(condition, block, (0,))


# ----------------------------------------------------------------------
# Checker: byte-identical reports on the complete n=4, t=2 space
# ----------------------------------------------------------------------
_RECORDS: dict[tuple, str] = {}


def _record(algorithm, *, workers=1, vectorized=True, **check_kwargs):
    key = (algorithm, workers, vectorized, tuple(sorted(check_kwargs.items())))
    if key not in _RECORDS:
        engine = Engine(N4T2, algorithm, RunConfig(workers=workers))
        report = engine.check(vectorized=vectorized, **check_kwargs)
        _RECORDS[key] = json.dumps(report.to_record(), sort_keys=True)
    return _RECORDS[key]


class TestFullSpaceParity:
    @pytest.mark.parametrize("algorithm", ["condition-kset", "early-deciding"])
    def test_serial_batch_matches_reference(self, algorithm):
        vectorized = _record(algorithm, vectorized=True)
        assert vectorized == _record(algorithm, vectorized=False)
        report = json.loads(vectorized)
        assert report["schedule_count"] == 2731
        assert report["executions"] == 2731 * 16
        assert all(tally["violations"] == 0 for tally in report["tallies"])

    @pytest.mark.parametrize("algorithm", ["condition-kset", "early-deciding"])
    def test_sharded_batch_matches_reference(self, algorithm):
        assert _record(algorithm, workers=4, vectorized=True) == _record(
            algorithm, vectorized=False
        )


class TestViolationParity:
    """Tightened bounds make the correct algorithms fail, so the decode-back
    path (counterexample order, truncation, detail text) is exercised for
    real instead of only on the all-pass space."""

    def test_condition_kset_counterexamples_decode_identically(self, monkeypatch):
        monkeypatch.setattr(AgreementSpec, "in_condition_bound", lambda self: 1)
        kwargs = dict(rounds=2, max_counterexamples=3)
        vectorized = Engine(N4T2, "condition-kset").check(vectorized=True, **kwargs)
        reference = Engine(N4T2, "condition-kset").check(vectorized=False, **kwargs)
        assert vectorized.to_record() == reference.to_record()
        assert not vectorized.passed
        assert len(vectorized.counterexamples) == 3

    def test_early_deciding_truncation_matches(self, monkeypatch):
        original = EarlyDecidingKSetAgreement.early_bound
        monkeypatch.setattr(
            EarlyDecidingKSetAgreement,
            "early_bound",
            lambda self, failures: max(1, original(self, failures) - 1),
        )
        kwargs = dict(max_counterexamples=0)
        vectorized = Engine(N4T2, "early-deciding").check(vectorized=True, **kwargs)
        reference = Engine(N4T2, "early-deciding").check(vectorized=False, **kwargs)
        assert vectorized.to_record() == reference.to_record()
        assert not vectorized.passed
        assert not vectorized.counterexamples
        assert vectorized.violation_count > 0


# ----------------------------------------------------------------------
# Checker: parity on random slices of the schedule stream
# ----------------------------------------------------------------------
#: Every registered condition family: the first five with their default
#: parameters, ``explicit`` with drawn member vectors.
_FAMILIES = ("max-legal", "min-legal", "frequency-gap", "hamming-ball", "all-vectors", "explicit")


@st.composite
def _schedule_slices(draw):
    """A valid spec, a packed algorithm and a contiguous schedule slice.

    The evaluator's caches carry lane states and oracle masks from one
    schedule to the next, so a slice that starts mid-stream (as every pool
    shard but the first does) must still agree with the scalar loop.
    ``stop=None`` marks a slice that runs to the end of the stream.
    """
    algorithm = draw(st.sampled_from(["condition-kset", "early-deciding"]))
    condition = draw(st.sampled_from(_FAMILIES))
    n = draw(st.integers(2, 6))
    t = draw(st.integers(1, n - 1))
    d = draw(st.integers(0, t - 1))
    k = draw(st.integers(1, t))
    # The plurality recognizer of frequency-gap has degree 1.
    ell = 1 if condition == "frequency-gap" else draw(st.integers(1, min(k, t - d)))
    domain = draw(st.integers(2, 3))
    params = {}
    if condition == "explicit":
        members = st.tuples(*[st.integers(1, domain)] * n)
        params = {
            "vectors": tuple(draw(st.lists(members, min_size=1, max_size=6, unique=True))),
            "recognizer": draw(st.sampled_from(["max", "min"])),
        }
    spec = AgreementSpec(
        n=n, t=t, k=k, d=d, ell=ell, domain=domain, condition=condition,
        condition_params=params,
    )
    rounds = spec.outside_condition_bound()
    count = count_schedules(n, t, rounds)
    start = draw(st.integers(0, min(count - 1, 3000)))
    stop = start + draw(st.integers(1, 150))
    return algorithm, spec, rounds, start, None if stop >= count else stop


def _slice_records(engine, rounds, start, stop, vectors, vectorized):
    """``check_slice``'s outcome as records, or the error it raised (a
    condition with default parameters may fail to decode some view)."""
    try:
        enumerated, executions, tallies, counterexamples = check_slice(
            engine, SyncSpace(rounds), start, stop, vectors, tuple(ORACLES), 4,
            vectorized=vectorized,
        )
    except ReproError as error:
        return repr(error)
    return (
        enumerated,
        executions,
        [tally.to_record() for tally in tallies],
        [counterexample.to_record() for counterexample in counterexamples],
    )


@given(_schedule_slices())
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_schedule_slices_match_reference(case):
    algorithm, spec, rounds, start, stop = case
    engine = Engine(spec, algorithm)
    vectors = input_frontier(spec, engine.condition)
    assert _build(engine) is not None  # the packed path really runs
    arguments = (engine, rounds, start, stop, vectors)
    assert _slice_records(*arguments, True) == _slice_records(*arguments, False)

    # Tightened bounds make violations, so the decode-back path runs too.
    original = EarlyDecidingKSetAgreement.early_bound
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AgreementSpec, "in_condition_bound", lambda self: 1)
        patch.setattr(
            EarlyDecidingKSetAgreement,
            "early_bound",
            lambda self, failures: max(1, original(self, failures) - 1),
        )
        tightened = _slice_records(*arguments, True)
        assert tightened == _slice_records(*arguments, False)
    in_condition = algorithm == "condition-kset" and any(
        map(engine.condition.contains, vectors)
    )
    if in_condition and not isinstance(tightened, str):
        # The tightened bound applies to every in-condition execution, and
        # Figure 2 decides no earlier than round 2.
        assert tightened[3], "the tightened bound produced no counterexample"


# ----------------------------------------------------------------------
# Guards: the refusal surface of the batch evaluator
# ----------------------------------------------------------------------
def _build(engine, vectors_override=None, oracles_override=None):
    context = CheckContext.from_engine(engine, SyncSpace().resolve(engine))
    frontier = (
        vectors_override
        if vectors_override is not None
        else input_frontier(engine.spec, engine.condition)
    )
    names = oracles_override if oracles_override is not None else tuple(ORACLES)
    return BatchSyncEvaluator.build(engine, context, frontier, names)


class TestBatchGuards:
    def test_registry_algorithms_build(self):
        assert _build(Engine(N4T2, "condition-kset")) is not None
        assert _build(Engine(N4T2, "early-deciding")) is not None

    def test_an_entry_with_its_own_condition_runs_packed(self, monkeypatch):
        """A Figure 2 entry registered with ``uses_condition=False`` builds
        its own condition, so the engine holds none: the evaluator decodes
        with the algorithm's, as the reference runtime does."""
        key = "own-condition-kset-test"
        monkeypatch.setitem(
            ALGORITHMS._entries,
            key,
            AlgorithmEntry(
                name=key,
                backends=frozenset({"sync"}),
                build=lambda spec, condition: ConditionBasedKSetAgreement(
                    spec.condition_oracle(), spec.t, spec.d, spec.k
                ),
                agreement_degree=lambda spec: spec.k,
                summary="test-only Figure 2 entry with its own condition",
                uses_condition=False,
            ),
        )
        spec = small_spec(t=2, k=2)
        engine = Engine(spec, key)
        assert engine.condition is None
        assert _build(engine) is not None
        packed = engine.check(vectorized=True)
        assert packed.to_record() == Engine(spec, key).check(vectorized=False).to_record()
        assert packed.passed and packed.executions

    def test_mutant_subclass_falls_back_to_scalar(self):
        register_mutants()
        assert _build(Engine(small_spec(), MUTANT_HASTY_FLOODMIN)) is None

    def test_trace_recording_falls_back_to_scalar(self):
        engine = Engine(small_spec(), "condition-kset", RunConfig(record_trace=True))
        assert _build(engine) is None

    def test_foreign_oracle_falls_back_to_scalar(self):
        engine = Engine(small_spec(), "condition-kset")
        assert _build(engine, oracles_override=("validity", "round-count")) is None

    def test_unpackable_frontier_falls_back_to_scalar(self):
        engine = Engine(small_spec(), "condition-kset")
        assert _build(engine, vectors_override=()) is None

    def test_packed_frontier_lane_order_matches_vectors(self):
        spec = N4T2
        frontier, block = packed_frontier(spec, Engine(spec, "condition-kset").condition)
        assert block is not None
        assert block.unpack() == frontier

    def test_no_vectorized_refused_on_net_and_taken_on_async(self):
        """The net check has no batch hook to disable; the async one does
        (its class memo), and ``vectorized=False`` is its reference path."""
        with pytest.raises(InvalidParameterError, match="net check has no batch hook"):
            Engine(small_spec(), "floodmin").check(backend="net", vectorized=False)
        engine = Engine(small_spec(), "condition-kset")
        reference = engine.check(backend="async", depth=2, vectorized=False)
        assert engine._async_executor().runs_executed == reference.executions
        memo = Engine(small_spec(), "condition-kset").check(backend="async", depth=2)
        assert reference.to_record() == memo.to_record()


class TestRoundCaches:
    """The round driver's caches: few entries, all hits on a second pass,
    and nothing shared between evaluators."""

    @pytest.mark.parametrize(
        "algorithm, sizes",
        [("condition-kset", (40, 120, 407)), ("early-deciding", (26, 137, 407))],
    )
    def test_full_space_reaches_few_states(self, algorithm, sizes):
        engine = Engine(N4T2, algorithm)
        evaluator = _build(engine)
        schedules = list(enumerate_schedules(4, 2, N4T2.outside_condition_bound()))
        masks = [evaluator.check_schedule(schedule) for schedule in schedules]

        def cache_sizes(evaluator):
            return (
                len(evaluator._states),
                len(evaluator._transitions),
                len(evaluator._oracle_cache),
            )

        # 2,731 schedules: equal lane states share one id, so the caches
        # hold a few hundred entries, and the class memo one per class.
        assert cache_sizes(evaluator) == sizes
        assert len(evaluator._class_memo) == 422
        assert [evaluator.check_schedule(schedule) for schedule in schedules] == masks
        assert cache_sizes(evaluator) == sizes
        assert len(evaluator._class_memo) == 422
        fresh = _build(engine)
        assert cache_sizes(fresh)[1:] == (0, 0)
        assert not fresh._class_memo


#: The three-round cell (k=1): round-3 crashes and receivers that crashed in
#: round 2 reach the class key.
N4T2K1 = AgreementSpec(n=4, t=2, k=1, d=1, ell=1, domain=2)


class TestClassMemo:
    """The driver runs once per observable crash class; every other member
    of the class is served from the memo."""

    @pytest.mark.parametrize("algorithm", ["condition-kset", "early-deciding"])
    @pytest.mark.parametrize(
        "spec, classes", [(N4T2, 422), (N4T2K1, 1138)], ids=["rounds-2", "rounds-3"]
    )
    def test_memoized_masks_equal_the_driver_on_every_schedule(self, spec, classes, algorithm):
        engine = Engine(spec, algorithm)
        memoized = _build(engine)
        # The reference forgets every class before each schedule, so the
        # round driver runs on each one.  Its transition and oracle caches
        # are keyed on their complete inputs, so it answers as a fresh
        # evaluator would.
        reference = _build(engine)
        runs: dict = {}
        rounds = spec.outside_condition_bound()
        for schedule in enumerate_schedules(spec.n, spec.t, rounds):
            # The key is exact for the driver: crashed lanes and deciding
            # transitions agree across a class, not only the (mostly
            # violation-free) masks.
            run = reference._run(schedule)
            assert runs.setdefault(schedule.observable_key(), run) == run, schedule.canonical()
            reference._class_memo.clear()
            assert memoized.check_schedule(schedule) == reference.check_schedule(schedule), (
                schedule.canonical()
            )
        assert len(runs) == len(memoized._class_memo) == classes

    def test_every_member_of_an_overrunning_class_raises(self, monkeypatch):
        engine = Engine(N4T2, "condition-kset")
        # Figure 2 decides no earlier than round 2: a one-round bound overruns.
        monkeypatch.setattr(engine.algorithm, "last_round", lambda: 1)
        evaluator = _build(engine)
        members = [
            CrashSchedule.from_events([CrashEvent(3, 2, frozenset({0, 1, 2}))]),
            CrashSchedule.from_events([CrashEvent(3, 2, frozenset({0, 1, 2, 3}))]),
        ]
        assert members[0].observable_key() == members[1].observable_key()
        for schedule in members:
            with pytest.raises(SimulationError, match="exceeded its round bound"):
                evaluator.check_schedule(schedule)
        assert not evaluator._class_memo


def _always(context, result):
    return True


def _flagged(context, result):
    return f"flagged {list(result.input_vector.entries)}"


#: A stub space's oracles: one every execution violates, one none does.
_STUB_ORACLES = {
    "flagged": PropertyOracle("flagged", "every execution violates it", _always, _flagged),
    "quiet": PropertyOracle("quiet", "no execution violates it", _always, lambda c, r: None),
}


@dataclass(frozen=True)
class _StubSpace(SyncSpace):
    """The sync space with a stub batch hook: each schedule's answer is
    ``answers[len(schedule) % len(answers)]``, as that very tuple (*shared*)
    or as an equal fresh one."""

    answers: tuple = ()
    shared: bool = True

    oracles: ClassVar = _STUB_ORACLES

    def batch(self, engine, context, vectors, oracle_names):
        def masks(schedule):
            answer = self.answers[len(schedule) % len(self.answers)]
            if self.shared:
                return answer
            fresh = tuple([(applies, violations) for applies, violations in answer])
            assert fresh == answer and fresh is not answer
            return fresh

        return masks


class TestSharedAnswers:
    """The batch slice tallies one entry per distinct answer object: one
    tuple returned for many points must count exactly as equal fresh
    tuples do, and decode its counterexamples point by point."""

    VECTORS = tuple(InputVector(entries) for entries in ([1, 1, 1, 1], [1, 2, 1, 2], [2, 2, 2, 1]))
    #: A violating answer (lanes 0 and 2 flagged) and a clean one.
    VIOLATING = ((0b111, 0b101), (0b011, 0))
    CLEAN = ((0b111, 0), (0b110, 0))

    def _slice(self, answers, shared, cap):
        engine = Engine(N4T2, "condition-kset")
        space = _StubSpace(rounds=2, answers=answers, shared=shared)
        enumerated, executions, tallies, counterexamples = check_slice(
            engine, space, 5, 405, self.VECTORS, ("flagged", "quiet"), cap, vectorized=True
        )
        violations = sum(tally.violations for tally in tallies)
        return (
            enumerated,
            executions,
            [tally.to_record() for tally in tallies],
            [json.dumps(ce.to_record(), sort_keys=True) for ce in counterexamples],
            violations > len(counterexamples),
        )

    @pytest.mark.parametrize("cap", [0, 7, 10_000])
    @pytest.mark.parametrize("mix", ["violating", "alternating"])
    def test_one_shared_tuple_counts_as_fresh_equal_tuples(self, mix, cap, monkeypatch):
        answers = (self.VIOLATING,) if mix == "violating" else (self.VIOLATING, self.CLEAN)
        shared = self._slice(answers, True, cap)
        assert shared == self._slice(answers, False, cap)
        # Fresh tuples make an entry per point: a tiny entry bound tallies
        # (and forgets) them as the slice goes, with the same outcome.
        monkeypatch.setattr(checker, "_ANSWERS_KEPT", 3)
        assert shared == self._slice(answers, False, cap)
        assert shared == self._slice(answers, True, cap)

        # The tallies are the per-point bit counts.
        schedules = list(enumerate_schedules(4, 2, 2))[5:405]
        got = [answers[len(schedule) % len(answers)] for schedule in schedules]
        flagged = sum(answer[0][1].bit_count() for answer in got)
        quiet = sum(answer[1][0].bit_count() for answer in got)
        assert shared[:3] == (
            400,
            1200,
            [
                {"oracle": "flagged", "checked": 1200, "violations": flagged},
                {"oracle": "quiet", "checked": quiet, "violations": 0},
            ],
        )
        # Counterexamples follow the stream: point, then lane, until the cap.
        decoded = [
            f"flagged {list(self.VECTORS[lane].entries)}"
            for answer in got
            for lane in (0, 2)
            if answer is self.VIOLATING
        ][:cap]
        assert [json.loads(ce)["detail"] for ce in shared[3]] == decoded
        assert shared[4] == (cap < flagged)


class TestCliFlag:
    @pytest.mark.parametrize(
        "options",
        [["--d", "1"], ["--backend", "async", "--d", "0", "--depth", "3"]],
        ids=["sync", "async"],
    )
    def test_no_vectorized_renders_the_identical_report(self, options, capsys):
        from repro.cli import main

        arguments = ["check", "--n", "3", "--t", "1", "--k", "1", "--m", "2", *options]
        assert main(arguments) == 0
        vectorized_output = capsys.readouterr().out
        assert main(arguments + ["--no-vectorized"]) == 0
        assert capsys.readouterr().out == vectorized_output
        assert "verdict          : PASS" in vectorized_output
