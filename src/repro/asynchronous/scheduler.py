"""Asynchronous scheduler: adversarial interleavings with crash failures.

The scheduler owns the two sources of non-determinism of the asynchronous
model — which live process takes the next atomic step, and when a faulty
process stops being scheduled — and delegates both to a pluggable
:class:`~repro.asynchronous.adversary.AsyncAdversary` strategy plus explicit
*crash points*.  A crash point ``pid -> s`` lets the process take ``s``
atomic steps (its writes land and stay visible in later snapshots) before it
silently vanishes; ``s = 0`` is the classical initial crash.  From the other
processes' perspective a vanished process is indistinguishable from a very
slow one, which is exactly why asynchronous agreement is hard.

Because ``l``-set agreement is unsolvable in an asynchronous system with
``l <= x`` crashes when all input vectors are possible, executions may
legitimately not terminate.  The scheduler therefore enforces a **per-process
step budget** (``max_steps_per_process`` — no process ever takes more steps,
so a spinning process cannot starve the rest whatever the strategy does) and
reports whether all live processes decided; the property oracles and
experiments E12/E15 interpret the outcome (a run that exhausts its budget
without deciding is evidence of blocking, not an error of the substrate).

Every execution is deterministic given its adversary, and the result carries
the full step sequence plus a short *fingerprint* of the interleaving, so two
runs can be compared (and parallel batches proven identical) by record.  The
fingerprint digests the step sequence on its first read: a check that reads
no fingerprint digests no sequence.

The scheduler keeps the runnable processes as a tuple, rebuilt only when the
process that just stepped decides or reaches its step limit (its budget, or
its crash point if that comes first).  A blocked execution spends its whole
budget alternating the same steps over a memory that no longer changes, so
under a *rotation* — :class:`~repro.asynchronous.adversary.RoundRobinAdversary`,
or :class:`~repro.asynchronous.adversary.EnumeratedAdversary` once its prefix
is spent, matched by exact class because a subclass may override ``choose`` —
the scheduler fast-forwards those repeats instead of executing them.  A
*configuration* is the runnable tuple, each runnable process's
:meth:`~repro.asynchronous.process.AsynchronousProcess.local_state`, the
memory's write count and the rotation phase (cursor modulo the number of
runnable processes); under a rotation it fixes every later step.  When one
recurs, the steps since its first occurrence form a cycle that wrote nothing
and decided nothing, and it repeats until some process reaches its limit.
The scheduler appends as many whole copies of the cycle to the step sequence
as leave every process strictly below its limit, and credits their steps to
the processes, the memory's snapshot count and the adversary's cursor; the
steps at which processes leave the runnable set run for real.  Detection
starts over whenever the runnable set changes or the memory is written, and a
``None`` local state from any runnable process turns it off for the run.  The
result is the one step-by-step execution gives, field for field; every other
strategy is asked for every step.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from random import Random
from typing import Any, Iterable, Mapping, Sequence

from ..deferred import DeferredField, deferred
from ..exceptions import AdversaryError, InvalidParameterError
from .adversary import (
    AsyncAdversary,
    EnumeratedAdversary,
    RoundRobinAdversary,
    resolve_async_adversary,
)
from .process import AsynchronousProcess
from .shared_memory import SharedMemory

__all__ = ["AsyncExecutionResult", "AsynchronousScheduler", "interleaving_fingerprint"]


def interleaving_fingerprint(step_sequence: Sequence[int]) -> str:
    """A short stable digest of one interleaving (the scheduled pid sequence)."""
    payload = ",".join(map(str, step_sequence)).encode("ascii")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


@dataclass
class AsyncExecutionResult:
    """Outcome of one asynchronous execution."""

    n: int
    #: Mapping process id -> decided value.
    decisions: dict[int, Any] = field(default_factory=dict)
    #: Mapping process id -> number of atomic steps it had taken when it decided.
    decision_steps: dict[int, int] = field(default_factory=dict)
    #: Processes the adversary crashed (initially or mid-execution) that never
    #: decided; a process that decided before reaching its crash point is correct.
    crashed: frozenset[int] = frozenset()
    #: Total number of atomic steps granted by the scheduler.
    total_steps: int = 0
    #: ``True`` when every live (non-crashed) process decided within the budget.
    #: Defaults to ``False``: a zero-step or partially-populated result must
    #: read as a *non*-termination, the scheduler sets it from the live check.
    terminated: bool = False
    #: Mapping process id -> atomic steps the scheduler granted it.
    steps_by_process: dict[int, int] = field(default_factory=dict)
    #: The scheduled process id of every step, in order (the interleaving).
    step_sequence: tuple[int, ...] = ()
    #: Short digest of :attr:`step_sequence` — two executions interleaved
    #: identically exactly when their fingerprints match.  A scheduler run's
    #: result computes it on first read.
    fingerprint: str = DeferredField("")
    #: The effective crash points applied (``pid -> steps before vanishing``).
    crash_steps: dict[int, int] = field(default_factory=dict)
    #: Display name of the adversary strategy that drove the execution.
    adversary: str = ""

    def decided_values(self) -> frozenset[Any]:
        """The set of distinct decided values."""
        return frozenset(self.decisions.values())

    def distinct_decision_count(self) -> int:
        """Number of distinct decided values."""
        return len(self.decided_values())

    @property
    def correct_processes(self) -> frozenset[int]:
        """Processes that were never crashed."""
        return frozenset(range(self.n)) - self.crashed

    def _compute_fingerprint(self, _data: None) -> str:
        return interleaving_fingerprint(self.step_sequence)


class AsynchronousScheduler:
    """Drives a set of :class:`AsynchronousProcess` objects step by step.

    Parameters
    ----------
    seed:
        Seed of the pseudo-random interleaving (an explicit
        :class:`random.Random` may be passed instead).  Only consulted when
        *adversary* is ``None``: a seed gives the seeded-random strategy,
        ``None`` gives round-robin — the historical behaviour.
    max_steps_per_process:
        **Per-process** step budget: no process is ever granted more than
        this many atomic steps, so one spinning process cannot starve the
        others whatever the adversary does.
    adversary:
        The scheduling strategy: an :class:`AsyncAdversary` instance, a
        registry name (``"round-robin"``, ``"random"``, ``"latency-skew"``),
        or ``None`` to derive one from *seed* as above.
    """

    def __init__(
        self,
        seed: Random | int | None = None,
        max_steps_per_process: int = 1000,
        adversary: AsyncAdversary | str | None = None,
    ) -> None:
        if max_steps_per_process < 1:
            raise InvalidParameterError(
                f"max_steps_per_process must be >= 1, got {max_steps_per_process}"
            )
        self._adversary = resolve_async_adversary(adversary, seed)
        self._max_steps_per_process = max_steps_per_process

    @property
    def adversary(self) -> AsyncAdversary:
        """The scheduling strategy driving the interleaving."""
        return self._adversary

    def run(
        self,
        processes: Sequence[AsynchronousProcess],
        proposals: Mapping[int, Any] | Sequence[Any],
        crashed: Iterable[int] = (),
        crash_steps: Mapping[int, int] | None = None,
    ) -> AsyncExecutionResult:
        """Run the processes on *proposals* under the adversary's interleaving.

        *crashed* processes never take a step (crash point ``0``, the worst
        case for the others: their proposal never reaches the shared memory).
        *crash_steps* maps process ids to **mid-execution** crash points: the
        process takes that many atomic steps — its writes stay visible in
        later snapshots — and then vanishes.  Explicit crash points override
        both *crashed* and any points carried by the adversary strategy.
        """
        n = len(processes)
        effective = self._effective_crash_steps(n, crashed, crash_steps)

        for process in processes:
            pid = process.process_id
            try:
                value = proposals[pid]
            except (KeyError, IndexError):
                kind = "mapping" if isinstance(proposals, Mapping) else "sequence"
                raise InvalidParameterError(
                    f"no proposal for process {pid} in the proposals {kind}"
                ) from None
            process.initialize(value)

        steps_by_process = {process.process_id: 0 for process in processes}
        sequence: list[int] = []
        by_pid = {process.process_id: process for process in processes}
        budget = self._max_steps_per_process
        # A process stops being scheduled at its budget, or at its crash
        # point (where it vanishes) if that comes first.
        limits = {pid: min(budget, effective.get(pid, budget)) for pid in by_pid}
        adversary = self._adversary
        adversary.reset()
        skipper = _CycleSkipper.for_run(adversary, by_pid, limits)

        result = AsyncExecutionResult(n=n)
        runnable = tuple(
            process.process_id
            for process in processes
            if not process.has_decided() and limits[process.process_id] > 0
        )
        while runnable:
            if skipper is not None and not skipper.visit(
                runnable, sequence, steps_by_process
            ):
                skipper = None
            pid = adversary.choose(runnable, len(sequence))
            if pid not in runnable:
                raise AdversaryError(
                    f"adversary {adversary.name!r} chose process {pid!r}, "
                    f"which is not runnable (runnable: {list(runnable)})"
                )
            process = by_pid[pid]
            process.step()
            steps_by_process[pid] += 1
            sequence.append(pid)
            if process.has_decided():
                result.decisions[pid] = process.decision
                result.decision_steps[pid] = process.steps_taken
            elif steps_by_process[pid] < limits[pid]:
                continue
            runnable = tuple(other for other in runnable if other != pid)

        # A process the adversary doomed is crashed unless it decided before
        # reaching its crash point; every other process is live, and the run
        # terminated exactly when all live processes decided.
        crashed_set = frozenset(
            pid for pid in effective if pid not in result.decisions
        )
        result.crashed = crashed_set
        result.total_steps = len(sequence)
        result.steps_by_process = steps_by_process
        result.step_sequence = tuple(sequence)
        result.fingerprint = deferred()
        result.crash_steps = dict(effective)
        result.adversary = adversary.name
        result.terminated = all(
            process.has_decided()
            for process in processes
            if process.process_id not in crashed_set
        )
        return result

    def _effective_crash_steps(
        self,
        n: int,
        crashed: Iterable[int],
        crash_steps: Mapping[int, int] | None,
    ) -> dict[int, int]:
        """Merge the crash points: adversary-carried < *crashed* < explicit."""
        effective: dict[int, int] = {}
        for pid, step in self._adversary.crash_steps().items():
            effective[int(pid)] = step
        for pid in crashed:
            effective[pid] = 0
        if crash_steps is not None:
            for pid, step in crash_steps.items():
                effective[pid] = step
        for pid, step in effective.items():
            if not isinstance(pid, int) or not 0 <= pid < n:
                raise InvalidParameterError(
                    f"crashed process {pid} outside [0, {n})"
                )
            if not isinstance(step, int) or step < 0:
                raise InvalidParameterError(
                    f"crash step of process {pid} must be an integer >= 0, got {step!r}"
                )
        return effective


#: The strategies whose every choice from ``rotation_start`` on is
#: ``runnable[cursor % len(runnable)]``.
_ROTATIONS = (RoundRobinAdversary, EnumeratedAdversary)


class _CycleSkipper:
    """One run's fast-forward of repeating cycles (see the module docstring).

    Any cycle spans whole rotations, so the configuration is sampled only at
    phase 0; within a window of unchanged runnable tuple and write count it is
    then just the tuple of local states.
    """

    def __init__(
        self,
        rotation: RoundRobinAdversary,
        memory: SharedMemory,
        by_pid: Mapping[int, AsynchronousProcess],
        limits: Mapping[int, int],
    ) -> None:
        self._rotation = rotation
        self._memory = memory
        self._by_pid = by_pid
        self._limits = limits
        self._window: tuple[tuple[int, ...], int] | None = None
        # Local states -> (step index, snapshot count) at their first sample
        # in the current window.
        self._seen: dict[tuple[Any, ...], tuple[int, int]] = {}

    @classmethod
    def for_run(
        cls,
        adversary: AsyncAdversary,
        by_pid: Mapping[int, AsynchronousProcess],
        limits: Mapping[int, int],
    ) -> "_CycleSkipper | None":
        """The run's fast-forward, or ``None`` when it cannot apply.

        It needs a rotation adversary (exact class) and one shared memory
        whose write count covers every process's writes.
        """
        if type(adversary) not in _ROTATIONS or not by_pid:
            return None
        memory = next(iter(by_pid.values())).memory
        if any(process.memory is not memory for process in by_pid.values()):
            return None
        return cls(adversary, memory, by_pid, limits)

    def visit(
        self,
        runnable: tuple[int, ...],
        sequence: list[int],
        steps_by_process: dict[int, int],
    ) -> bool:
        """Sample the configuration before a step; skip repeats if it recurs.

        Returns ``False`` when a process has no local state, which turns the
        fast-forward off for the rest of the run.
        """
        rotation = self._rotation
        step_index = len(sequence)
        if step_index < rotation.rotation_start or rotation.cursor % len(runnable):
            return True
        memory = self._memory
        window = (runnable, memory.write_count)
        if window != self._window:
            self._window = window
            self._seen.clear()
        states = tuple(self._by_pid[pid].local_state() for pid in runnable)
        if None in states:
            return False
        first = self._seen.get(states)
        if first is None:
            self._seen[states] = (step_index, memory.snapshot_count)
            return True
        first_step, first_snapshots = first
        cycle = sequence[first_step:]
        counts = Counter(cycle)
        # Whole copies only, each leaving every process below its limit.
        copies = min(
            (self._limits[pid] - 1 - steps_by_process[pid]) // count
            for pid, count in counts.items()
        )
        if copies > 0:
            sequence.extend(cycle * copies)
            for pid, count in counts.items():
                steps_by_process[pid] += copies * count
                self._by_pid[pid].fast_forward(copies * count)
            memory.fast_forward(copies * (memory.snapshot_count - first_snapshots))
            rotation.fast_forward(copies * len(cycle))
        self._seen.clear()
        return True
