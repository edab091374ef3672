"""Crash adversaries for the synchronous simulator (Section 6.2 failure model).

A process is *faulty* when it crashes: it stops in the middle of some round
and takes no further step.  The only adversarial freedom in the model is

* **when** each faulty process crashes (which round), and
* **which prefix / subset of its round messages is delivered** before it stops.

Round 1 is special: the paper's algorithm relies on the *ordered* send phase
(each process sends to ``p_1``, then ``p_2``, ..., then ``p_n``), so a process
crashing during round 1 delivers its proposal to a **prefix** of the processes.
This is what makes the round-1 views ordered by containment, the key
ingredient of the agreement proof (Theorem 12).  In later rounds the paper
puts no constraint on the order, so the adversary may pick an arbitrary subset
of receivers.

The module defines:

* :class:`CrashEvent` / :class:`CrashSchedule` — a fully explicit, validated
  description of who crashes when and who still hears from them;
* adversary factories producing schedules: :func:`no_crashes`,
  :func:`initial_crashes`, :func:`random_schedule`,
  :func:`staggered_schedule` (the classical "one chain of crashes per round"
  worst case that forces flood algorithms to run long) and
  :func:`crashes_in_round_one`;
* the **exhaustive adversary**: :func:`enumerate_schedules` yields *every*
  legal schedule of the failure model for a given ``(n, t, rounds)`` — the
  space is finite because a crash is fully described by its round and its
  delivery pattern (a prefix length in round 1, an arbitrary receiver subset
  later) — and :func:`count_schedules` gives the closed-form size of that
  space, used to cross-validate the generator.  The model checker of
  :mod:`repro.check` is built on this pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from random import Random
from typing import Iterable, Iterator, Mapping

from ..exceptions import AdversaryError

__all__ = [
    "CrashEvent",
    "CrashSchedule",
    "no_crashes",
    "initial_crashes",
    "crashes_in_round_one",
    "random_schedule",
    "staggered_schedule",
    "enumerate_schedules",
    "count_schedules",
]


@dataclass(frozen=True)
class CrashEvent:
    """The crash of one process.

    Attributes
    ----------
    process_id:
        The crashing process (0-based).
    round_number:
        The round during which the process crashes (1-based).  The process
        executes no compute phase for that round and sends nothing afterwards.
    delivered_to:
        The receivers that still get the process's round-``round_number``
        message.  For a round-1 crash this **must** be a prefix
        ``{0, 1, ..., c−1}`` of the process identifiers (ordered send phase);
        the simulator enforces it.  ``frozenset()`` means the crash happened
        before any send ("initially crashed" when ``round_number == 1``).
    """

    process_id: int
    round_number: int
    delivered_to: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.process_id < 0:
            raise AdversaryError(f"invalid process id {self.process_id}")
        if self.round_number < 1:
            raise AdversaryError(f"invalid crash round {self.round_number}")
        object.__setattr__(self, "delivered_to", frozenset(self.delivered_to))

    @staticmethod
    def initially_crashed(process_id: int) -> "CrashEvent":
        """A process that crashes before taking any step."""
        return CrashEvent(process_id, 1, frozenset())

    @staticmethod
    def round_one_prefix(process_id: int, prefix_length: int) -> "CrashEvent":
        """A round-1 crash delivering the proposal to the first *prefix_length* processes."""
        if prefix_length < 0:
            raise AdversaryError(f"negative prefix length {prefix_length}")
        return CrashEvent(process_id, 1, frozenset(range(prefix_length)))

    def is_prefix_delivery(self) -> bool:
        """Is the delivered set a prefix {0, ..., c−1} of the process identifiers?"""
        return self.delivered_to == frozenset(range(len(self.delivered_to)))


@dataclass
class CrashSchedule:
    """A complete crash schedule: at most one :class:`CrashEvent` per process."""

    events: dict[int, CrashEvent] = field(default_factory=dict)

    @classmethod
    def from_events(cls, events: Iterable[CrashEvent]) -> "CrashSchedule":
        """Build a schedule from events, rejecting duplicated process ids."""
        table: dict[int, CrashEvent] = {}
        for event in events:
            if event.process_id in table:
                raise AdversaryError(
                    f"process {event.process_id} appears twice in the crash schedule"
                )
            table[event.process_id] = event
        return cls(table)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events.values())

    def crash_count(self) -> int:
        """Total number of faulty processes in the schedule."""
        return len(self.events)

    def crash_round(self, process_id: int) -> int | None:
        """The round during which *process_id* crashes, or ``None`` if correct."""
        event = self.events.get(process_id)
        return event.round_number if event is not None else None

    def crashes_in_round(self, round_number: int) -> tuple[CrashEvent, ...]:
        """All crash events scheduled for *round_number*."""
        return tuple(
            event for event in self.events.values() if event.round_number == round_number
        )

    def initial_crash_count(self) -> int:
        """Processes that crash in round 1 without delivering anything."""
        return sum(
            1
            for event in self.events.values()
            if event.round_number == 1 and not event.delivered_to
        )

    def round_one_crash_count(self) -> int:
        """Processes that crash during the first round (any delivery prefix)."""
        return sum(1 for event in self.events.values() if event.round_number == 1)

    def canonical(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """A hashable canonical form of the schedule.

        ``((process_id, round_number, sorted delivered), ...)`` sorted by
        process id.  Equal forms are equal schedules, so the form keys
        deduplication sets (the enumerator tests) and counterexample records.
        Equal forms imply identical behaviour, but not conversely: schedules
        that differ only in deliveries nobody reads share an
        :meth:`observable_key`, the coarser equivalence.
        """
        return tuple(
            (event.process_id, event.round_number, tuple(sorted(event.delivered_to)))
            for event in sorted(self.events.values(), key=lambda e: e.process_id)
        )

    def observable_key(
        self,
    ) -> tuple[tuple[tuple[int, int, frozenset[int]], ...], int]:
        """What an execution can observe of the schedule, as a hashable key.

        A crash takes effect before its round's compute phase, so nobody
        reads what a round-``r`` message delivers to a process that crashes
        in round ``r`` or earlier — the sender included.  The key is
        ``(events, initial crashes)``: per event, sorted by process id,
        ``(process_id, round_number, delivered_to minus those processes)``,
        and :meth:`initial_crash_count`, which the round-bound oracles read
        and the reduced sets no longer tell apart.
        :meth:`round_one_crash_count` follows from the events.

        Two schedules with equal keys give equal ``decisions``,
        ``decision_rounds``, ``crash_rounds`` and ``rounds_executed`` on
        every input vector.  A recorded trace's ``delivered`` map can still
        differ; the packed evaluator, which memoizes on this key, refuses
        trace recording anyway.
        """
        events = sorted(self.events.items())
        observed = []
        initial = 0  # initial_crash_count(), counted in the same pass
        for pid, event in events:
            delivered = event.delivered_to
            round_number = event.round_number
            if delivered:
                # Only the crashed processes the set holds are taken out, so
                # a set that holds none is kept as it is.
                for other, crash in events:
                    if other in delivered and crash.round_number <= round_number:
                        delivered = delivered - {other}
            elif round_number == 1:
                initial += 1
            observed.append((pid, round_number, delivered))
        return tuple(observed), initial

    def to_records(self) -> list[dict]:
        """JSON-serializable event records, sorted by process id.

        The single source of truth for how schedules serialize: run results
        and counterexamples embed this shape and restore it with
        :meth:`from_records`.
        """
        return [
            {
                "process_id": event.process_id,
                "round_number": event.round_number,
                "delivered_to": sorted(event.delivered_to),
            }
            for event in sorted(self.events.values(), key=lambda e: e.process_id)
        ]

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "CrashSchedule":
        """Rebuild a schedule from :meth:`to_records` dictionaries (inverse map)."""
        return cls.from_events(
            CrashEvent(
                process_id=record["process_id"],
                round_number=record["round_number"],
                delivered_to=frozenset(record["delivered_to"]),
            )
            for record in records
        )

    def validate(self, n: int, t: int) -> None:
        """Check the schedule against the system parameters.

        * every process identifier is in ``[0, n)``;
        * at most ``t`` processes crash;
        * delivered sets only name existing processes: each receiver must be
          one of the integers ``0..n-1`` (a string or ``1.5`` is refused);
        * round-1 crashes deliver to a prefix of the process identifiers
          (ordered send phase of Section 6.2).

        The checker validates every enumerated schedule, so each event costs
        two set tests: its delivered set against ``frozenset(range(n))``,
        and, in round 1, its largest receiver against its size (distinct
        receivers in ``[0, n)`` form a prefix exactly when the largest is
        ``len - 1``).
        """
        if len(self.events) > t:
            raise AdversaryError(
                f"the schedule crashes {len(self.events)} processes but t={t}"
            )
        receivers = _receivers(n)
        for event in self.events.values():
            if not 0 <= event.process_id < n:
                raise AdversaryError(
                    f"crash event names process {event.process_id} outside [0, {n})"
                )
            delivered = event.delivered_to
            if not delivered <= receivers:
                raise AdversaryError(
                    f"crash event of process {event.process_id} delivers to unknown processes"
                )
            if event.round_number == 1 and delivered and max(delivered) != len(delivered) - 1:
                raise AdversaryError(
                    "round-1 crashes must deliver to a prefix of the processes "
                    "(ordered send phase); got "
                    f"{sorted(delivered)} for process {event.process_id}"
                )


@cache
def _receivers(n: int) -> frozenset[int]:
    """Every receiver of an ``n``-process system, built once per ``n``."""
    return frozenset(range(n))


# ----------------------------------------------------------------------
# Adversary factories
# ----------------------------------------------------------------------
def no_crashes() -> CrashSchedule:
    """The failure-free schedule."""
    return CrashSchedule()


def initial_crashes(count: int, process_ids: Iterable[int] | None = None) -> CrashSchedule:
    """*count* processes crash before taking any step.

    By default the highest-numbered processes are chosen (any choice is
    equivalent for the algorithms, which are symmetric); an explicit iterable
    of process identifiers can be given instead.
    """
    if process_ids is None:
        raise AdversaryError(
            "initial_crashes needs the system size; use crashes_in_round_one(n, count) "
            "or pass explicit process_ids"
        )
    chosen = list(process_ids)[:count]
    if len(chosen) < count:
        raise AdversaryError(f"asked for {count} initial crashes but only {len(chosen)} ids given")
    return CrashSchedule.from_events(CrashEvent.initially_crashed(pid) for pid in chosen)


def crashes_in_round_one(
    n: int,
    count: int,
    delivered_prefix: int = 0,
    start_id: int | None = None,
) -> CrashSchedule:
    """*count* processes crash during round 1, each delivering to the same prefix.

    ``delivered_prefix = 0`` models processes that crashed initially (their
    entry stays ⊥ in every view).  The crashing processes are the
    highest-numbered ones unless *start_id* is given.
    """
    if count > n:
        raise AdversaryError(f"cannot crash {count} processes out of {n}")
    first = n - count if start_id is None else start_id
    ids = range(first, first + count)
    return CrashSchedule.from_events(
        CrashEvent.round_one_prefix(pid, delivered_prefix) for pid in ids
    )


def random_schedule(
    n: int,
    t: int,
    crash_count: int,
    max_round: int,
    rng: Random | int | None = None,
) -> CrashSchedule:
    """A random schedule with *crash_count* crashes spread over ``[1, max_round]``.

    Round-1 crashes deliver a random prefix; later crashes deliver a random
    subset of the processes.  Deterministic given the seed.
    """
    if crash_count > t:
        raise AdversaryError(f"crash_count={crash_count} exceeds t={t}")
    if crash_count > n:
        raise AdversaryError(f"crash_count={crash_count} exceeds n={n}")
    if max_round < 1:
        raise AdversaryError(f"max_round must be >= 1, got {max_round}")
    if not isinstance(rng, Random):
        rng = Random(rng)
    victims = rng.sample(range(n), crash_count)
    events = []
    for victim in victims:
        round_number = rng.randint(1, max_round)
        if round_number == 1:
            prefix = rng.randint(0, n)
            events.append(CrashEvent.round_one_prefix(victim, prefix))
        else:
            others = [pid for pid in range(n)]
            subset_size = rng.randint(0, n)
            delivered = frozenset(rng.sample(others, subset_size))
            events.append(CrashEvent(victim, round_number, delivered))
    return CrashSchedule.from_events(events)


# ----------------------------------------------------------------------
# The exhaustive adversary (Section 6.2 failure model, enumerated)
# ----------------------------------------------------------------------
def _event_choices(n: int, rounds: int) -> list[tuple[int, frozenset[int]]]:
    """Every ``(round, delivered)`` pair one crash event may take.

    Round 1 delivers a prefix (ordered send phase): ``n + 1`` choices.
    Rounds ``2..rounds`` deliver an arbitrary receiver subset: ``2^n``
    choices each, enumerated in bitmask order so the sequence is stable.
    """
    choices: list[tuple[int, frozenset[int]]] = [
        (1, frozenset(range(prefix))) for prefix in range(n + 1)
    ]
    for round_number in range(2, rounds + 1):
        for mask in range(1 << n):
            choices.append(
                (round_number, frozenset(pid for pid in range(n) if mask >> pid & 1))
            )
    return choices


def count_schedules(n: int, t: int, rounds: int, max_crashes: int | None = None) -> int:
    """Closed-form size of the schedule space enumerated by :func:`enumerate_schedules`.

    One crash event has ``E = (n + 1) + (rounds − 1)·2^n`` choices (a prefix
    length in round 1, a receiver subset in each later round), and a schedule
    picks a faulty set of at most ``min(t, max_crashes)`` processes plus one
    event per faulty process independently::

        Σ_{f=0}^{budget}  C(n, f) · E^f

    The formula is the generator's cross-validation: the enumerator tests
    assert that the number of generated schedules matches it exactly, and
    :func:`repro.check.run_check` re-asserts the match on every exhaustive
    verification run.
    """
    _validate_enumeration_parameters(n, t, rounds)
    budget = t if max_crashes is None else min(max_crashes, t)
    if budget < 0:
        raise AdversaryError(f"max_crashes must be >= 0, got {max_crashes}")
    event_count = (n + 1) + (rounds - 1) * (1 << n)
    return sum(math.comb(n, f) * event_count**f for f in range(budget + 1))


def enumerate_schedules(
    n: int, t: int, rounds: int, max_crashes: int | None = None, *, start: int = 0
) -> Iterator[CrashSchedule]:
    """Yield **every** legal crash schedule of the ``(n, t, rounds)`` system.

    The enumeration covers the full adversarial freedom of the Section 6.2
    failure model, restricted to crashes in rounds ``1..rounds`` (a crash in
    a later round is unobservable by an algorithm that has already halted):

    * every faulty set of at most ``min(t, max_crashes)`` processes;
    * for each faulty process, every crash round in ``[1, rounds]``;
    * for a round-1 crash, every delivered prefix ``{0, ..., p−1}``,
      ``0 <= p <= n`` (the ordered send phase);
    * for a later-round crash, every delivered subset of the processes.

    The order is deterministic: faulty sets by increasing size then
    lexicographically, event assignments in the fixed order of
    ``(round, delivery)`` choices — so slicing the stream by index shards the
    space reproducibly (this is how ``workers=`` parallelises the model
    checker).  Every yielded schedule satisfies
    :meth:`CrashSchedule.validate`, and :func:`random_schedule` draws from
    exactly this space.  The total number of schedules is
    :func:`count_schedules`.

    The events are built once, one frozen :class:`CrashEvent` per (process,
    choice), and every yielded schedule holds the shared instances; each
    schedule's own event table is new.

    *start* skips the first schedules of the stream without building them:
    whole crash-count tiers and faulty sets are skipped by the terms of
    :func:`count_schedules`, so only the events of the one faulty set that
    holds schedule *start* are stepped over.
    """
    _validate_enumeration_parameters(n, t, rounds)
    budget = t if max_crashes is None else min(max_crashes, t)
    if budget < 0:
        raise AdversaryError(f"max_crashes must be >= 0, got {max_crashes}")
    if type(start) is not int or start < 0:
        raise AdversaryError(f"start must be an integer >= 0, got {start!r}")
    choices = _event_choices(n, rounds)
    events = [
        [CrashEvent(pid, round_number, delivered) for round_number, delivered in choices]
        for pid in range(n)
    ]
    for crash_count in range(budget + 1):
        # Schedules per faulty set of this size, and in the whole tier.
        block = len(choices) ** crash_count
        tier = math.comb(n, crash_count) * block
        if start >= tier:
            start -= tier
            continue
        skipped, start = divmod(start, block)
        faulty_sets = itertools.combinations(range(n), crash_count)
        for victims in itertools.islice(faulty_sets, skipped, None):
            per_victim = [events[victim] for victim in victims]
            assignments = itertools.islice(itertools.product(*per_victim), start, None)
            start = 0
            for assignment in assignments:
                yield CrashSchedule(dict(zip(victims, assignment)))


def _validate_enumeration_parameters(n: int, t: int, rounds: int) -> None:
    if n < 1:
        raise AdversaryError(f"n must be >= 1, got {n}")
    if not 0 <= t < n:
        raise AdversaryError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
    if rounds < 1:
        raise AdversaryError(f"rounds must be >= 1, got {rounds}")


def staggered_schedule(
    n: int,
    t: int,
    per_round: int = 1,
    first_round: int = 1,
    round_one_prefixes: Mapping[int, int] | None = None,
) -> CrashSchedule:
    """The classical staggered adversary: *per_round* crashes in every round.

    Starting at *first_round*, the schedule crashes ``per_round`` processes per
    round until the budget ``t`` is exhausted.  In round 1 each victim delivers
    a distinct shrinking prefix (victim ``i`` of the round delivers to the
    first ``n − i − 1`` processes, unless overridden through
    *round_one_prefixes*); in later rounds each victim delivers to nobody.
    This is the adversary that forces flood-based algorithms to keep running,
    and it is the one used by the round-tightness experiments (E6/E7).
    """
    if per_round < 1:
        raise AdversaryError(f"per_round must be >= 1, got {per_round}")
    events: list[CrashEvent] = []
    victim = n - 1
    budget = t
    round_number = first_round
    while budget > 0 and victim >= 0:
        for slot in range(min(per_round, budget)):
            if victim < 0:
                break
            if round_number == 1:
                default_prefix = max(0, n - slot - 1)
                prefix = (
                    round_one_prefixes.get(victim, default_prefix)
                    if round_one_prefixes
                    else default_prefix
                )
                events.append(CrashEvent.round_one_prefix(victim, prefix))
            else:
                events.append(CrashEvent(victim, round_number, frozenset()))
            victim -= 1
        budget -= min(per_round, budget)
        round_number += 1
    return CrashSchedule.from_events(events)
