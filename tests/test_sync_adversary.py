"""Unit tests for crash events, schedules and adversary factories."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import crash_schedules

from repro.exceptions import AdversaryError
from repro.sync.adversary import (
    CrashEvent,
    CrashSchedule,
    crashes_in_round_one,
    enumerate_schedules,
    initial_crashes,
    no_crashes,
    random_schedule,
    staggered_schedule,
)


class TestCrashEvent:
    def test_basic_event(self):
        event = CrashEvent(2, 3, frozenset({0, 4}))
        assert event.process_id == 2
        assert event.round_number == 3
        assert event.delivered_to == frozenset({0, 4})

    def test_validation(self):
        with pytest.raises(AdversaryError):
            CrashEvent(-1, 1)
        with pytest.raises(AdversaryError):
            CrashEvent(0, 0)

    def test_initially_crashed(self):
        event = CrashEvent.initially_crashed(4)
        assert event.round_number == 1
        assert event.delivered_to == frozenset()
        assert event.is_prefix_delivery()

    def test_round_one_prefix(self):
        event = CrashEvent.round_one_prefix(4, 3)
        assert event.delivered_to == frozenset({0, 1, 2})
        assert event.is_prefix_delivery()
        with pytest.raises(AdversaryError):
            CrashEvent.round_one_prefix(4, -1)

    def test_is_prefix_delivery(self):
        assert CrashEvent(0, 2, frozenset({0, 1})).is_prefix_delivery()
        assert not CrashEvent(0, 2, frozenset({1, 2})).is_prefix_delivery()


class TestCrashSchedule:
    def test_from_events_rejects_duplicates(self):
        with pytest.raises(AdversaryError):
            CrashSchedule.from_events(
                [CrashEvent.initially_crashed(1), CrashEvent(1, 2)]
            )

    def test_queries(self):
        schedule = CrashSchedule.from_events(
            [
                CrashEvent.initially_crashed(5),
                CrashEvent.round_one_prefix(4, 2),
                CrashEvent(3, 2, frozenset({0})),
            ]
        )
        assert len(schedule) == 3
        assert schedule.crash_count() == 3
        assert schedule.crash_round(5) == 1
        assert schedule.crash_round(0) is None
        assert {event.process_id for event in schedule.crashes_in_round(1)} == {4, 5}
        assert schedule.initial_crash_count() == 1
        assert schedule.round_one_crash_count() == 2
        assert {event.process_id for event in schedule} == {3, 4, 5}

    def test_validate_crash_budget(self):
        schedule = CrashSchedule.from_events(
            [CrashEvent.initially_crashed(0), CrashEvent.initially_crashed(1)]
        )
        schedule.validate(n=4, t=2)
        with pytest.raises(AdversaryError):
            schedule.validate(n=4, t=1)

    def test_validate_process_ids(self):
        schedule = CrashSchedule.from_events([CrashEvent.initially_crashed(9)])
        with pytest.raises(AdversaryError):
            schedule.validate(n=4, t=2)
        schedule = CrashSchedule.from_events([CrashEvent(0, 2, frozenset({7}))])
        with pytest.raises(AdversaryError):
            schedule.validate(n=4, t=2)

    def test_validate_round_one_prefix_rule(self):
        bad = CrashSchedule.from_events([CrashEvent(0, 1, frozenset({2, 3}))])
        with pytest.raises(AdversaryError):
            bad.validate(n=4, t=2)
        good = CrashSchedule.from_events([CrashEvent(0, 2, frozenset({2, 3}))])
        good.validate(n=4, t=2)


class TestFactories:
    def test_no_crashes(self):
        schedule = no_crashes()
        assert schedule.crash_count() == 0
        schedule.validate(n=3, t=0)

    def test_initial_crashes_requires_ids(self):
        with pytest.raises(AdversaryError):
            initial_crashes(2)
        schedule = initial_crashes(2, process_ids=[4, 5, 6])
        assert schedule.crash_count() == 2
        assert schedule.initial_crash_count() == 2
        with pytest.raises(AdversaryError):
            initial_crashes(3, process_ids=[0])

    def test_crashes_in_round_one(self):
        schedule = crashes_in_round_one(6, 2, delivered_prefix=3)
        assert schedule.crash_count() == 2
        assert {event.process_id for event in schedule} == {4, 5}
        assert all(event.delivered_to == frozenset({0, 1, 2}) for event in schedule)
        schedule.validate(n=6, t=2)
        with pytest.raises(AdversaryError):
            crashes_in_round_one(3, 5)

    def test_crashes_in_round_one_start_id(self):
        schedule = crashes_in_round_one(6, 2, delivered_prefix=0, start_id=1)
        assert {event.process_id for event in schedule} == {1, 2}

    def test_random_schedule_is_deterministic_and_valid(self):
        first = random_schedule(8, 4, 3, max_round=4, rng=42)
        second = random_schedule(8, 4, 3, max_round=4, rng=42)
        assert {e.process_id: (e.round_number, e.delivered_to) for e in first} == {
            e.process_id: (e.round_number, e.delivered_to) for e in second
        }
        first.validate(n=8, t=4)
        assert first.crash_count() == 3

    def test_random_schedule_validation(self):
        with pytest.raises(AdversaryError):
            random_schedule(8, 2, 3, max_round=2)
        with pytest.raises(AdversaryError):
            random_schedule(2, 2, 3, max_round=2)
        with pytest.raises(AdversaryError):
            random_schedule(8, 4, 2, max_round=0)

    def test_random_schedule_accepts_random_instance(self):
        rng = Random(7)
        schedule = random_schedule(6, 3, 2, max_round=3, rng=rng)
        schedule.validate(n=6, t=3)

    def test_staggered_schedule(self):
        schedule = staggered_schedule(8, 4, per_round=1)
        schedule.validate(n=8, t=4)
        assert schedule.crash_count() == 4
        rounds = sorted(event.round_number for event in schedule)
        assert rounds == [1, 2, 3, 4]

    def test_staggered_schedule_per_round(self):
        schedule = staggered_schedule(9, 4, per_round=2)
        schedule.validate(n=9, t=4)
        assert schedule.crash_count() == 4
        assert len(schedule.crashes_in_round(1)) == 2
        assert len(schedule.crashes_in_round(2)) == 2

    def test_staggered_schedule_round_one_prefixes_shrink(self):
        schedule = staggered_schedule(6, 3, per_round=3)
        prefixes = sorted(len(event.delivered_to) for event in schedule.crashes_in_round(1))
        assert len(prefixes) == 3
        assert len(set(prefixes)) == 3  # distinct shrinking prefixes

    def test_staggered_requires_positive_per_round(self):
        with pytest.raises(AdversaryError):
            staggered_schedule(6, 3, per_round=0)


# ----------------------------------------------------------------------
# The per-schedule checks against their plain formulations
# ----------------------------------------------------------------------
def _reference_validate(schedule: CrashSchedule, n: int, t: int) -> None:
    """``CrashSchedule.validate`` as a loop over every receiver."""
    if len(schedule.events) > t:
        raise AdversaryError(
            f"the schedule crashes {len(schedule.events)} processes but t={t}"
        )
    for event in schedule.events.values():
        if not 0 <= event.process_id < n:
            raise AdversaryError(
                f"crash event names process {event.process_id} outside [0, {n})"
            )
        if any(not 0 <= receiver < n for receiver in event.delivered_to):
            raise AdversaryError(
                f"crash event of process {event.process_id} delivers to unknown processes"
            )
        if event.round_number == 1 and not event.is_prefix_delivery():
            raise AdversaryError(
                "round-1 crashes must deliver to a prefix of the processes "
                "(ordered send phase); got "
                f"{sorted(event.delivered_to)} for process {event.process_id}"
            )


def _reference_key(schedule: CrashSchedule):
    """``CrashSchedule.observable_key`` as a set difference per event."""
    events = sorted(schedule.events.items())
    observed = []
    initial = 0
    for pid, event in events:
        delivered = event.delivered_to
        if delivered:
            delivered = delivered.difference(
                [other for other, crash in events if crash.round_number <= event.round_number]
            )
        elif event.round_number == 1:
            initial += 1
        observed.append((pid, event.round_number, delivered))
    return tuple(observed), initial


def _refusal(validate, schedule: CrashSchedule, n: int, t: int) -> str | None:
    try:
        validate(schedule, n, t)
    except AdversaryError as error:
        return str(error)
    return None


@st.composite
def _any_schedules(draw):
    """``(n, t, schedule)``: process ids in ``[0, n + 1]``, rounds 1–3, and
    deliveries that are prefixes (some past ``n``) or receiver sets drawn
    from ``[-2, n + 2]``, so every refusal and every pass is reachable."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(0, n))
    victims = draw(st.lists(st.integers(0, n + 1), unique=True, max_size=n + 1))
    events = []
    for victim in victims:
        round_number = draw(st.integers(1, 3))
        if draw(st.booleans()):
            delivered = frozenset(range(draw(st.integers(0, n + 2))))
        else:
            delivered = draw(st.frozensets(st.integers(-2, n + 2), max_size=n + 2))
        events.append(CrashEvent(victim, round_number, delivered))
    return n, t, CrashSchedule.from_events(events)


class TestChecksMatchTheirReferences:
    """``validate`` runs set tests and ``observable_key`` removes only the
    crashed processes a set holds; both must answer as the plain loops do."""

    @given(_any_schedules())
    @settings(max_examples=400, deadline=None)
    def test_validate_refuses_what_the_receiver_loop_refuses(self, drawn):
        n, t, schedule = drawn
        assert _refusal(CrashSchedule.validate, schedule, n, t) == _refusal(
            _reference_validate, schedule, n, t
        )

    @pytest.mark.parametrize("receiver", ["1", 1.5])
    def test_non_integer_receivers_are_refused(self, receiver):
        schedule = CrashSchedule.from_events([CrashEvent(0, 2, frozenset({0, receiver}))])
        with pytest.raises(AdversaryError, match="process 0 delivers to unknown processes"):
            schedule.validate(n=4, t=2)

    @pytest.mark.parametrize(
        "n, t, rounds", [(3, 1, 2), (3, 1, 3), (4, 2, 2), (4, 2, 3), (4, 3, 4)]
    )
    def test_key_matches_the_set_difference_on_every_schedule(self, n, t, rounds):
        for schedule in enumerate_schedules(n, t, rounds):
            assert schedule.observable_key() == _reference_key(schedule)

    @given(
        st.integers(5, 6).flatmap(
            lambda n: st.integers(1, n - 1).flatmap(
                lambda t: crash_schedules(n, t, 4)
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_key_matches_the_set_difference_on_drawn_schedules(self, schedule):
        assert schedule.observable_key() == _reference_key(schedule)
