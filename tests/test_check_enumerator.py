"""The schedule enumerator: generated = counted, unique, valid, complete.

Three cross-validations back the "exhaustive" claim of :mod:`repro.check`:

* the generator produces exactly :func:`count_schedules` schedules on every
  ``n <= 4, t <= 2`` system (the closed form and the enumeration are
  independent derivations of the same space);
* every generated schedule is unique (by canonical form) and passes
  :meth:`CrashSchedule.validate`;
* :func:`random_schedule` — the sampling adversary the rest of the suite
  relies on — only ever produces schedules that lie inside the enumerated
  space (a Hypothesis property, plus an exact set-membership check on a
  system small enough to materialize).

The observable-key tests pin the quotient the packed evaluator memoizes on:
schedules with equal :meth:`CrashSchedule.observable_key` run identically on
the reference runtime, for every frontier vector, under ``condition-kset``,
``early-deciding`` and ``floodmin``.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import crash_schedules

from repro.api import AgreementSpec, Engine
from repro.check import SyncSpace
from repro.check.frontier import input_frontier
from repro.exceptions import AdversaryError
from repro.sync.adversary import (
    CrashEvent,
    CrashSchedule,
    count_schedules,
    enumerate_schedules,
    random_schedule,
)
from repro.sync.runtime import SynchronousSystem

#: Every (n, t) system the exhaustive tests cover, with the round depths
#: used by the checker (the unconditional deadline is 2 or 3 there).
SYSTEMS = [
    (n, t, rounds)
    for n in (2, 3, 4)
    for t in range(0, min(2, n - 1) + 1)
    for rounds in (1, 2)
] + [(3, 1, 3), (3, 2, 3), (4, 1, 3)]


class TestCountCrossValidation:
    @pytest.mark.parametrize("n,t,rounds", SYSTEMS)
    def test_generated_count_matches_closed_form(self, n, t, rounds):
        generated = sum(1 for _ in enumerate_schedules(n, t, rounds))
        assert generated == count_schedules(n, t, rounds)

    @pytest.mark.parametrize("n,t,rounds", SYSTEMS)
    def test_schedules_unique_and_valid(self, n, t, rounds):
        seen = set()
        for schedule in enumerate_schedules(n, t, rounds):
            key = schedule.canonical()
            assert key not in seen, f"duplicate schedule {key}"
            seen.add(key)
            schedule.validate(n, t)  # raises on an illegal schedule
            assert all(event.round_number <= rounds for event in schedule)
        assert len(seen) == count_schedules(n, t, rounds)

    def test_max_crashes_restricts_the_space(self):
        # Budget 0 leaves only the failure-free schedule; budget t is the default.
        assert count_schedules(4, 2, 2, max_crashes=0) == 1
        assert count_schedules(4, 2, 2, max_crashes=2) == count_schedules(4, 2, 2)
        only = list(enumerate_schedules(4, 2, 2, max_crashes=0))
        assert len(only) == 1 and only[0].crash_count() == 0
        partial = sum(1 for _ in enumerate_schedules(4, 2, 2, max_crashes=1))
        assert partial == count_schedules(4, 2, 2, max_crashes=1) < count_schedules(4, 2, 2)

    def test_closed_form_small_cases_by_hand(self):
        # n=2, t=1, rounds=1: faulty set {} or {p}; a round-1 event is one of
        # the 3 prefixes — 1 + 2*3 = 7.
        assert count_schedules(2, 1, 1) == 7
        # n=3, t=1, rounds=2: events = 4 prefixes + 8 subsets = 12; 1 + 3*12 = 37.
        assert count_schedules(3, 1, 2) == 37

    def test_parameter_validation(self):
        with pytest.raises(AdversaryError):
            count_schedules(0, 0, 1)
        with pytest.raises(AdversaryError):
            count_schedules(3, 3, 1)  # t must stay < n
        with pytest.raises(AdversaryError):
            count_schedules(3, 1, 0)
        with pytest.raises(AdversaryError):
            list(enumerate_schedules(3, 1, 1, max_crashes=-1))


def _window(n, t, rounds, start, size, max_crashes=None):
    """The canonical forms of *size* schedules from *start* on, sought."""
    stream = enumerate_schedules(n, t, rounds, max_crashes, start=start)
    return [schedule.canonical() for schedule in islice(stream, size)]


def _boundaries(n, t, rounds):
    """Every tier and faulty-set boundary of the stream, and its neighbours."""
    events = (n + 1) + (rounds - 1) * 2**n
    blocks = [events**f for f in range(t + 1) for _ in range(math.comb(n, f))]
    return {
        edge + offset
        for edge in accumulate(blocks, initial=0)
        for offset in (-1, 0, 1)
        if edge + offset >= 0
    }


class TestSeek:
    """``start=`` yields exactly the stream's ``[start:]``: whole tiers and
    faulty sets are skipped by the terms of the closed form, and only the
    events of one faulty set are stepped over."""

    @pytest.mark.parametrize("n,t,rounds", [(2, 1, 1), (3, 1, 2), (3, 2, 2), (4, 1, 3)])
    def test_every_start_of_a_small_system(self, n, t, rounds):
        full = [schedule.canonical() for schedule in enumerate_schedules(n, t, rounds)]
        for start in range(len(full) + 3):
            assert _window(n, t, rounds, start, 4) == full[start:start + 4]
        tail = enumerate_schedules(n, t, rounds, start=len(full) // 2)
        assert [schedule.canonical() for schedule in tail] == full[len(full) // 2:]

    @pytest.mark.parametrize("n,t,rounds", [(5, 2, 2), (4, 2, 3)])
    def test_boundaries_count_and_starts_past_it(self, n, t, rounds):
        full = [schedule.canonical() for schedule in enumerate_schedules(n, t, rounds)]
        count = count_schedules(n, t, rounds)
        starts = _boundaries(n, t, rounds) | {count - 1, count, count + 1, 10 * count}
        assert count in starts and len(starts) > 3 * (t + 1)
        for start in sorted(starts):
            assert _window(n, t, rounds, start, 3) == full[start:start + 3]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_starts_and_budgets(self, data):
        n, t, rounds = data.draw(st.sampled_from([(4, 2, 2), (5, 2, 2), (4, 3, 2), (5, 1, 3)]))
        max_crashes = data.draw(st.one_of(st.none(), st.integers(0, t)))
        count = count_schedules(n, t, rounds, max_crashes)
        start = data.draw(st.integers(0, count + 5))
        size = data.draw(st.integers(1, 40))
        stream = enumerate_schedules(n, t, rounds, max_crashes)
        expected = [schedule.canonical() for schedule in islice(stream, start, start + size)]
        assert _window(n, t, rounds, start, size, max_crashes) == expected

    def test_the_sync_space_slices_by_seeking(self):
        spec = AgreementSpec(n=4, t=2, k=1, d=1, ell=1, domain=2)
        space = SyncSpace(2)
        full = [schedule.canonical() for schedule in enumerate_schedules(4, 2, 2)]
        for start, stop in [(0, 5), (700, 1400), (2729, None), (2731, None), (5, 3)]:
            sliced = [schedule.canonical() for schedule in space.points(spec, start, stop)]
            assert sliced == full[start:stop]

    @pytest.mark.parametrize("start", [-1, 1.0, True, "3"])
    def test_start_must_be_a_natural_number(self, start):
        with pytest.raises(AdversaryError, match="start"):
            next(enumerate_schedules(3, 1, 1, start=start))


class TestRandomScheduleInsideTheSpace:
    #: The enumerated space of the (3, 1, rounds=2) system, materialized once.
    SPACE = frozenset(s.canonical() for s in enumerate_schedules(3, 1, 2))

    @given(
        crash_count=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_membership_on_a_tiny_system(self, crash_count, seed):
        schedule = random_schedule(3, 1, crash_count, max_round=2, rng=seed)
        assert schedule.canonical() in self.SPACE

    @given(
        params=st.tuples(
            st.integers(min_value=2, max_value=4),  # n
            st.integers(min_value=1, max_value=3),  # rounds
        ).flatmap(
            lambda nr: st.tuples(
                st.just(nr[0]),
                st.integers(min_value=0, max_value=min(2, nr[0] - 1)),  # t
                st.just(nr[1]),
            )
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_structural_membership(self, params, seed):
        """Every random schedule satisfies the structural constraints the
        enumerator generates from: <= t crashes, rounds within [1, max_round],
        round-1 prefixes, receivers within the system."""
        n, t, rounds = params
        schedule = random_schedule(n, t, t, max_round=rounds, rng=seed)
        schedule.validate(n, t)
        assert schedule.crash_count() <= t
        assert all(1 <= event.round_number <= rounds for event in schedule)

    @given(
        data=st.integers(min_value=2, max_value=4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                crash_schedules(n, min(2, n - 1), 2),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_strategy_draws_inside_the_space(self, data):
        """The shared crash_schedules() strategy also lives in the enumerated
        space (checked structurally for n=4, exactly for smaller systems)."""
        n, schedule = data
        t = min(2, n - 1)
        schedule.validate(n, t)
        assert all(1 <= event.round_number <= 2 for event in schedule)
        if n <= 3:
            space = frozenset(s.canonical() for s in enumerate_schedules(n, t, 2))
            assert schedule.canonical() in space


class TestCanonicalForm:
    def test_canonical_is_order_insensitive_and_hashable(self):
        events = [
            CrashEvent(2, 2, frozenset({0, 1})),
            CrashEvent.round_one_prefix(0, 1),
        ]
        forward = CrashSchedule.from_events(events)
        backward = CrashSchedule.from_events(reversed(events))
        assert forward.canonical() == backward.canonical()
        assert hash(forward.canonical()) == hash(backward.canonical())
        assert forward.canonical() == ((0, 1, (0,)), (2, 2, (0, 1)))


def _observed(result):
    """The fields of a run that equal observable keys must reproduce."""
    return (
        sorted(result.decisions.items()),
        sorted(result.decision_rounds.items()),
        sorted(result.crash_rounds.items()),
        result.rounds_executed,
    )


class TestObservableKey:
    def test_key_drops_receivers_that_crashed_by_that_round(self):
        schedule = CrashSchedule.from_events(
            [
                CrashEvent(3, 3, frozenset({0, 1, 2})),
                CrashEvent(2, 2, frozenset({0, 1, 2, 3})),
                CrashEvent.round_one_prefix(1, 3),
            ]
        )
        assert schedule.observable_key() == (
            ((1, 1, frozenset({0, 2})), (2, 2, frozenset({0, 3})), (3, 3, frozenset({0}))),
            0,
        )

    def test_initial_crashes_stay_apart_from_self_deliveries(self):
        # Both reduce to an empty delivered set, but the round-bound oracles
        # count only the first as an initial crash.
        initial = CrashSchedule.from_events([CrashEvent.initially_crashed(0)])
        to_itself = CrashSchedule.from_events([CrashEvent.round_one_prefix(0, 1)])
        assert initial.observable_key() == (((0, 1, frozenset()),), 1)
        assert to_itself.observable_key() == (((0, 1, frozenset()),), 0)

    @pytest.mark.parametrize(
        "spec, rounds, classes",
        [
            (AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2), 2, 23),
            (AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2), 3, 35),
            (AgreementSpec(n=4, t=2, k=2, d=1, ell=1, domain=2), 2, 422),
        ],
    )
    def test_class_members_run_identically_on_the_reference_runtime(
        self, spec, rounds, classes
    ):
        grouped: dict = {}
        for schedule in enumerate_schedules(spec.n, spec.t, rounds):
            grouped.setdefault(schedule.observable_key(), []).append(schedule)
        assert len(grouped) == classes
        shared = [members for members in grouped.values() if len(members) > 1]
        for algorithm in ("condition-kset", "early-deciding", "floodmin"):
            engine = Engine(spec, algorithm)
            system = SynchronousSystem(spec.n, spec.t, engine.algorithm)
            for vector in input_frontier(spec, engine.condition):
                for first, *others in shared:
                    expected = _observed(system.run(vector, first, validate_schedule=False))
                    for schedule in others:
                        result = system.run(vector, schedule, validate_schedule=False)
                        assert _observed(result) == expected, (
                            algorithm, vector, first.canonical(), schedule.canonical()
                        )
