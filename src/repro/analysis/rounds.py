"""Round-complexity measurement helpers.

Experiments E6–E10 all follow the same pattern: run an algorithm on a family
of crash schedules, record the worst (latest) decision round of a correct
process, and compare it to the bound predicted by the paper.  This module
provides the shared machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Iterable, Sequence

from ..api.engine import Engine
from ..api.result import RunResult
from ..core.vectors import InputVector
from ..sync.adversary import (
    CrashSchedule,
    crashes_in_round_one,
    no_crashes,
    random_schedule,
    staggered_schedule,
)
from .properties import assert_execution_correct

__all__ = ["RoundMeasurement", "measure_worst_rounds", "adversarial_schedules"]


@dataclass
class RoundMeasurement:
    """Worst-case measurement over a family of schedules."""

    #: The latest decision round of a correct process over all runs.
    worst_round: int
    #: The largest number of distinct decided values over all runs.
    worst_agreement: int
    #: Number of executions measured.
    runs: int
    #: The schedule (index in the family) achieving the worst round.
    worst_schedule_index: int

    def within(self, bound: int) -> bool:
        """Did every run decide within *bound* rounds?"""
        return self.worst_round <= bound


def adversarial_schedules(
    n: int,
    t: int,
    k: int,
    last_round: int,
    rng: Random | int | None = 0,
    random_runs: int = 25,
    include_round_one_batches: bool = True,
) -> list[CrashSchedule]:
    """A representative family of crash schedules for round measurements.

    It always contains the failure-free schedule, the staggered schedules with
    1 and ``k`` crashes per round (the classical worst cases for flood-based
    algorithms), batches of round-1 crashes of every size up to ``t`` (which
    exercise the ``f > t − d`` branches of the condition-based algorithm), and
    *random_runs* random schedules.
    """
    if not isinstance(rng, Random):
        rng = Random(rng)
    schedules: list[CrashSchedule] = [no_crashes()]
    schedules.append(staggered_schedule(n, t, per_round=1))
    if k > 1:
        schedules.append(staggered_schedule(n, t, per_round=k))
    if include_round_one_batches:
        for crash_count in range(1, t + 1):
            schedules.append(crashes_in_round_one(n, crash_count, delivered_prefix=0))
            schedules.append(
                crashes_in_round_one(n, crash_count, delivered_prefix=n // 2)
            )
    for _ in range(random_runs):
        crash_count = rng.randint(0, t)
        schedules.append(
            random_schedule(n, t, crash_count, max_round=max(1, last_round), rng=rng)
        )
    return schedules


def measure_worst_rounds(
    engine: Engine,
    input_vector: InputVector | Sequence[Any],
    schedules: Iterable[CrashSchedule],
    k: int,
    verify: bool = True,
) -> RoundMeasurement:
    """Run *engine* on every schedule and report the worst decision round.

    The runs share the engine's memoized condition oracle, so queries
    repeated across the schedule family are answered from its cache.  When
    *verify* is true every execution is also checked for termination,
    validity and k-agreement (so a measurement cannot silently come from a
    broken run).
    """
    worst_round = 0
    worst_agreement = 0
    worst_index = -1
    runs = 0
    for index, schedule in enumerate(schedules):
        result: RunResult = engine.run(input_vector, schedule)
        if verify:
            assert_execution_correct(result, result.input_vector, k)
        runs += 1
        latest = result.max_decision_round_of_correct()
        if latest > worst_round:
            worst_round = latest
            worst_index = index
        worst_agreement = max(worst_agreement, result.distinct_decision_count())
    return RoundMeasurement(
        worst_round=worst_round,
        worst_agreement=worst_agreement,
        runs=runs,
        worst_schedule_index=worst_index,
    )
