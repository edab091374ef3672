"""Asynchronous adversaries: pluggable, deterministic scheduling strategies.

The only sources of non-determinism of the asynchronous model are *which live
process takes the next atomic step* and *when a faulty process stops being
scheduled*.  This module makes both pluggable and fully deterministic, the
asynchronous counterpart of :mod:`repro.sync.adversary`:

* :class:`AsyncAdversary` — the strategy interface: given the runnable
  process identifiers and the global step index, pick who steps next.  An
  adversary may also carry *crash points* (``pid -> step``): the process
  takes that many steps and then vanishes, its earlier writes staying
  visible — mid-execution crashes, not just "never scheduled at all".
* Built-in strategies: :class:`RoundRobinAdversary` (the fairest regular
  interleaving), :class:`SeededRandomAdversary` (the classical seeded
  interleaver), :class:`LatencySkewAdversary` (processes run at different
  deterministic speeds — the "one fast, many slow" regime), and
  :class:`CrashAtStepAdversary` (wraps any strategy with crash points).
* The **enumerated adversary**: :class:`EnumeratedAdversary` replays one
  explicit choice prefix and then continues round-robin, and
  :func:`enumerate_interleavings` / :func:`count_interleavings` generate the
  complete ``n^depth`` prefix space in a fixed order — mirroring
  :func:`repro.sync.adversary.enumerate_schedules`, this is what the
  bounded-interleaving model checker of :mod:`repro.check` is built on.

Strategies are registered by name in :data:`ASYNC_ADVERSARIES` so that specs,
CLI flags and parallel-task envelopes can refer to them as strings; factories
take the run's seed, which only the seeded strategies consume.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from random import Random
from typing import Callable, Iterator, Mapping, Sequence

from ..exceptions import AdversaryError, InvalidParameterError
from ..registry import Registry

__all__ = [
    "AsyncAdversary",
    "RoundRobinAdversary",
    "SeededRandomAdversary",
    "LatencySkewAdversary",
    "CrashAtStepAdversary",
    "EnumeratedAdversary",
    "ASYNC_ADVERSARIES",
    "register_async_adversary",
    "available_async_adversaries",
    "resolve_async_adversary",
    "enumerate_interleavings",
    "count_interleavings",
]


class AsyncAdversary(ABC):
    """One scheduling strategy of the asynchronous adversary.

    The scheduler calls :meth:`reset` once per execution and then
    :meth:`choose` once per atomic step; a strategy may keep internal state
    between choices (counters, virtual clocks, a PRNG) but must be a
    deterministic function of its construction arguments — two executions of
    the same adversary over the same algorithm are identical, which is what
    makes async runs replayable and batches parallelizable.
    """

    #: Display name recorded in :class:`~repro.asynchronous.scheduler.AsyncExecutionResult`.
    name: str = "adversary"

    def reset(self) -> None:
        """Called by the scheduler before the first step of each execution."""

    @abstractmethod
    def choose(self, runnable: Sequence[int], step_index: int) -> int:
        """Return the process id (an element of *runnable*) that steps next."""

    def crash_steps(self) -> Mapping[int, int]:
        """Crash points carried by the strategy (``pid -> steps before vanishing``).

        The scheduler merges these with its explicit ``crash_steps`` argument
        (the explicit argument wins).  The default strategy crashes nobody.
        """
        return {}


class RoundRobinAdversary(AsyncAdversary):
    """Cycle through the runnable processes in identifier order.

    The most regular interleaving: the counter advances on every step, so a
    process leaving the runnable set (decided, crashed, budget exhausted)
    shifts but never starves the rotation.  Because every choice is a
    function of :attr:`cursor`, the scheduler fast-forwards repeating cycles
    under this class and :class:`EnumeratedAdversary`, advancing the cursor
    through :meth:`fast_forward`; it never does so under a subclass, which
    may override :meth:`choose`.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Rotation choices made so far: the next is ``runnable[cursor % len(runnable)]``."""
        return self._cursor

    @property
    def rotation_start(self) -> int:
        """The step index from which every choice is the rotation's."""
        return 0

    def fast_forward(self, steps: int) -> None:
        """Advance the rotation past *steps* choices the scheduler skipped."""
        self._cursor += steps

    def reset(self) -> None:
        self._cursor = 0

    def choose(self, runnable: Sequence[int], step_index: int) -> int:
        pid = runnable[self._cursor % len(runnable)]
        self._cursor += 1
        return pid


class SeededRandomAdversary(AsyncAdversary):
    """Pick a uniformly random runnable process, deterministically seeded.

    Passing an explicit :class:`random.Random` shares the stream across
    executions (the seed-API behaviour); an integer seed re-seeds on every
    :meth:`reset`, so the same adversary instance replays identically.
    """

    name = "random"

    def __init__(self, seed: Random | int | None = 0) -> None:
        if isinstance(seed, Random):
            self._seed: int | None = None
            self._rng = seed
        else:
            self._seed = 0 if seed is None else seed
            self._rng = Random(self._seed)

    def reset(self) -> None:
        if self._seed is not None:
            self._rng = Random(self._seed)

    def choose(self, runnable: Sequence[int], step_index: int) -> int:
        return self._rng.choice(runnable)


class LatencySkewAdversary(AsyncAdversary):
    """Processes run at different deterministic speeds (virtual-time scheduling).

    Process ``i`` has latency ``1 + skew * i`` (or an explicit per-process
    latency table): each step advances the chosen process's virtual clock by
    its latency, and the runnable process with the smallest clock steps next
    (ties to the lowest id).  Large skews model the regime the asynchronous
    proofs care about — one process racing far ahead of nearly-crashed
    stragglers — without any randomness.
    """

    name = "latency-skew"

    def __init__(
        self,
        skew: float = 1.5,
        latencies: Mapping[int, float] | None = None,
    ) -> None:
        if skew < 0:
            raise InvalidParameterError(f"skew must be >= 0, got {skew}")
        if latencies is not None:
            for pid, latency in latencies.items():
                if latency <= 0:
                    raise AdversaryError(
                        f"latency of process {pid} must be > 0, got {latency}"
                    )
        self._skew = skew
        self._latencies = dict(latencies) if latencies is not None else None
        self._clock: dict[int, float] = {}

    def reset(self) -> None:
        self._clock = {}

    def _latency(self, pid: int) -> float:
        if self._latencies is not None:
            return self._latencies.get(pid, 1.0)
        return 1.0 + self._skew * pid

    def choose(self, runnable: Sequence[int], step_index: int) -> int:
        pid = min(runnable, key=lambda p: (self._clock.get(p, 0.0), p))
        self._clock[pid] = self._clock.get(pid, 0.0) + self._latency(pid)
        return pid


class CrashAtStepAdversary(AsyncAdversary):
    """Wrap any strategy with crash points (``pid -> steps before vanishing``).

    A crash point of ``0`` is an initial crash (the process never runs); a
    crash point of ``s >= 1`` lets the process take ``s`` atomic steps — its
    writes land and stay visible — before it silently stops being scheduled.
    """

    def __init__(self, inner: AsyncAdversary, crash_steps: Mapping[int, int]) -> None:
        for pid, step in crash_steps.items():
            if not isinstance(step, int) or step < 0:
                raise AdversaryError(
                    f"crash step of process {pid} must be an integer >= 0, got {step!r}"
                )
        self._inner = inner
        self._crash_steps = dict(crash_steps)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"crash-at-step({self._inner.name})"

    def reset(self) -> None:
        self._inner.reset()

    def choose(self, runnable: Sequence[int], step_index: int) -> int:
        return self._inner.choose(runnable, step_index)

    def crash_steps(self) -> Mapping[int, int]:
        return dict(self._crash_steps)


class EnumeratedAdversary(RoundRobinAdversary):
    """Replay one explicit choice prefix, then continue round-robin.

    Element ``i`` of *prefix* selects the runnable process of step ``i`` as
    ``runnable[prefix[i] % len(runnable)]`` — every runnable process is
    reachable by some choice value, so the prefix space ``{0..n-1}^depth``
    covers **every** interleaving of the first ``depth`` steps.  Once the
    prefix is exhausted the adversary schedules fairly (round-robin), so an
    execution that the paper guarantees to terminate still terminates within
    its budget.  :func:`enumerate_interleavings` generates the full prefix
    space in a fixed order; the bounded-interleaving model checker of
    :mod:`repro.check` runs one execution per prefix.

    The adversary records the width (``len(runnable)``) it read at each
    prefix step of the last execution, :attr:`widths`: two prefixes whose
    choices agree modulo those widths realize the same steps.  Its
    :attr:`observer`, when set, is called before each prefix step and
    before the first step after the prefix, and may end the execution by
    raising.  Both live here, not in a subclass, because the scheduler
    fast-forwards only this exact class.
    """

    def __init__(self, prefix: Sequence[int]) -> None:
        choices = tuple(prefix)
        for choice in choices:
            if not isinstance(choice, int) or choice < 0:
                raise AdversaryError(
                    f"interleaving choices must be integers >= 0, got {choice!r}"
                )
        super().__init__()
        self._prefix = choices
        self._widths: list[int] = []
        #: ``observer(runnable, step_index)``, called before the choice of
        #: each step whose *step_index* is at most ``len(prefix)``; ``None``
        #: (the default) observes nothing.  The class memo of
        #: :mod:`repro.check.async_checker` sets it around one run.
        self.observer: Callable[[tuple[int, ...], int], None] | None = None

    @property
    def prefix(self) -> tuple[int, ...]:
        """The adversarial choice prefix driving the first steps."""
        return self._prefix

    @property
    def widths(self) -> tuple[int, ...]:
        """The runnable-set width read at each prefix step of the last execution
        (fewer than the prefix when the execution ended first)."""
        return tuple(self._widths)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"enumerated{list(self._prefix)}"

    @property
    def rotation_start(self) -> int:
        return len(self._prefix)

    def reset(self) -> None:
        super().reset()
        self._widths = []

    def choose(self, runnable: Sequence[int], step_index: int) -> int:
        prefix = self._prefix
        if step_index <= len(prefix) and self.observer is not None:
            self.observer(runnable, step_index)
        if step_index < len(prefix):
            width = len(runnable)
            self._widths.append(width)
            return runnable[prefix[step_index] % width]
        return super().choose(runnable, step_index)


# ----------------------------------------------------------------------
# The enumerated bounded-interleaving space
# ----------------------------------------------------------------------
def count_interleavings(n: int, depth: int) -> int:
    """Closed-form size ``n^depth`` of the bounded-interleaving prefix space.

    The cross-validation partner of :func:`enumerate_interleavings`, exactly
    like :func:`repro.sync.adversary.count_schedules` is for the synchronous
    enumerator; the async model checker re-asserts the match on every run.
    """
    _validate_interleaving_parameters(n, depth)
    return n**depth


def enumerate_interleavings(n: int, depth: int) -> Iterator[tuple[int, ...]]:
    """Yield every choice prefix of ``{0..n-1}^depth`` in lexicographic order.

    Each prefix drives one :class:`EnumeratedAdversary`; together they cover
    every possible interleaving of the first *depth* atomic steps of an
    ``n``-process execution.  The order is deterministic, so slicing the
    stream by index shards the space reproducibly (how ``workers=``
    parallelises the bounded-interleaving check).
    """
    _validate_interleaving_parameters(n, depth)
    return itertools.product(range(n), repeat=depth)


def _validate_interleaving_parameters(n: int, depth: int) -> None:
    if n < 1:
        raise AdversaryError(f"n must be >= 1, got {n}")
    if depth < 0:
        raise AdversaryError(f"depth must be >= 0, got {depth}")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Name -> factory ``(seed) -> AsyncAdversary``; the seed is the run's seed
#: and only the seeded strategies consume it.
ASYNC_ADVERSARIES = Registry("async adversary")


def register_async_adversary(name: str, summary: str):
    """Decorator registering a ``(seed) -> AsyncAdversary`` factory by name."""

    def decorator(factory: Callable[[Random | int | None], AsyncAdversary]):
        factory.summary = summary
        ASYNC_ADVERSARIES.add(name, factory)
        return factory

    return decorator


def available_async_adversaries() -> tuple[str, ...]:
    """The registered strategy names, sorted."""
    return ASYNC_ADVERSARIES.names()


def resolve_async_adversary(
    adversary: "AsyncAdversary | str | None",
    seed: Random | int | None = None,
) -> AsyncAdversary:
    """Resolve a strategy: an instance passes through, a name hits the registry.

    ``None`` preserves the historical scheduler behaviour: a seed gives the
    seeded-random interleaver, no seed gives round-robin.
    """
    if isinstance(adversary, AsyncAdversary):
        return adversary
    if adversary is None:
        return RoundRobinAdversary() if seed is None else SeededRandomAdversary(seed)
    if isinstance(adversary, str):
        return ASYNC_ADVERSARIES.get(adversary)(seed)
    raise InvalidParameterError(
        f"adversary must be an AsyncAdversary, a registry name or None, "
        f"got {adversary!r}"
    )


@register_async_adversary("round-robin", "cycle through the runnable processes in id order")
def _round_robin_factory(seed: Random | int | None) -> AsyncAdversary:
    return RoundRobinAdversary()


@register_async_adversary("random", "uniformly random runnable process, seeded by the run")
def _random_factory(seed: Random | int | None) -> AsyncAdversary:
    return SeededRandomAdversary(seed)


@register_async_adversary(
    "latency-skew", "deterministic speed skew: process i runs at latency 1 + 1.5*i"
)
def _latency_skew_factory(seed: Random | int | None) -> AsyncAdversary:
    return LatencySkewAdversary()
