"""Best-of timing that alternates the compared sides round by round.

A benchmark that times every round of one side and then every round of the
other lets a slow stretch of the machine — a throttled or contended vCPU can
run the same code well over 1.5× slower for a few seconds on a shared host —
land on one side only, and then the comparison measures the machine.
Alternating the sides every round, and flipping which goes first, spreads
such a stretch over both, so each side's best round sees the same machine.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

__all__ = ["alternating_rounds", "best_of_alternating"]


def alternating_rounds(
    sides: Sequence[Callable[[], Any]], rounds: int
) -> list[tuple[list[float], Any]]:
    """``(seconds of every round, last value)`` per side, in the order of
    *sides*.

    Every round calls each side once; odd rounds call them in reverse order.
    """
    seconds: list[list[float]] = [[] for _ in sides]
    values: list[Any] = [None] * len(sides)
    for round_index in range(rounds):
        order = range(len(sides)) if round_index % 2 == 0 else reversed(range(len(sides)))
        for index in order:
            start = time.perf_counter()
            values[index] = sides[index]()
            seconds[index].append(time.perf_counter() - start)
    return list(zip(seconds, values))


def best_of_alternating(
    sides: Sequence[Callable[[], Any]], rounds: int
) -> list[tuple[float, Any]]:
    """``(best seconds, last value)`` per side, in the order of *sides*."""
    return [(min(times), value) for times, value in alternating_rounds(sides, rounds)]
