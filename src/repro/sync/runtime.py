"""The synchronous round-based execution engine (the model of Section 6.2).

The engine implements exactly the paper's synchronous computation model:

* executions proceed in rounds ``r = 1, 2, ...``;
* each round has a **send phase** (every live process broadcasts one payload),
  a **receive phase** (a message sent in round ``r`` is received in round
  ``r``) and a **computation phase**;
* a process that crashes during round ``r`` delivers its round-``r`` message
  only to the receivers allowed by the :class:`~repro.sync.adversary.CrashSchedule`
  and takes no further step;
* during round 1 the send order is fixed (``p_1`` first, then ``p_2``, ...),
  so a round-1 crash delivers a *prefix* — the schedule validation enforces
  it, which is what gives the containment ordering of round-1 views that the
  agreement proof of the paper relies on.

The engine is deterministic: given an input vector and a crash schedule the
execution is a pure function.  Randomness only enters through the adversary
factories of :mod:`repro.sync.adversary`, which take explicit seeds.

A run builds its crash table once and keeps a list of the live (neither
crashed nor halted) processes, so a round touches only those and its own
crashes.  :class:`RoundSystem` holds what this engine shares with
:class:`~repro.net.runtime.NetSystem`: the parameter checks, the processes
and the round limit; both normalise their proposals with
:func:`~repro.core.vectors.normalise_proposals`.

A system builds and type-checks its ``n`` processes for its first run.
When every one of them declares
:attr:`~repro.sync.process.RoundBasedProcess.reusable`, later runs reset
and re-initialise the same objects instead of asking the algorithm again;
otherwise each run gets fresh ones.  So a system runs one execution at a
time: it is not reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.vectors import InputVector, normalise_proposals
from ..exceptions import InvalidParameterError, SimulationError, require_int
from .adversary import CrashEvent, CrashSchedule, no_crashes
from .process import RoundBasedProcess, SynchronousAlgorithm
from .trace import ExecutionTrace, RoundRecord

__all__ = ["ExecutionResult", "RoundSystem", "SynchronousSystem"]


@dataclass
class ExecutionResult:
    """The outcome of one synchronous execution.

    Attributes
    ----------
    n, t:
        System parameters.
    input_vector:
        The proposals, as an :class:`~repro.core.vectors.InputVector`.
    decisions:
        Mapping process id -> decided value, for every process that decided.
    decision_rounds:
        Mapping process id -> round at which it decided.
    crash_rounds:
        Mapping process id -> round during which it crashed.
    rounds_executed:
        Number of rounds the engine ran before every live process halted.
    schedule:
        The crash schedule that was applied.
    trace:
        Optional detailed trace (``None`` unless the run recorded one).
    """

    n: int
    t: int
    input_vector: InputVector
    decisions: dict[int, Any] = field(default_factory=dict)
    decision_rounds: dict[int, int] = field(default_factory=dict)
    crash_rounds: dict[int, int] = field(default_factory=dict)
    rounds_executed: int = 0
    schedule: CrashSchedule = field(default_factory=CrashSchedule)
    trace: ExecutionTrace | None = None

    # -- derived facts -------------------------------------------------------
    @property
    def correct_processes(self) -> frozenset[int]:
        """The processes that never crashed."""
        return frozenset(pid for pid in range(self.n) if pid not in self.crash_rounds)

    @property
    def faulty_processes(self) -> frozenset[int]:
        """The processes that crashed during the execution."""
        return frozenset(self.crash_rounds)

    @property
    def failure_count(self) -> int:
        """``f``: the number of processes that actually crashed."""
        return len(self.crash_rounds)

    def decided_values(self) -> frozenset[Any]:
        """The set of distinct decided values."""
        return frozenset(self.decisions.values())

    def distinct_decision_count(self) -> int:
        """Number of distinct decided values (must be ≤ k for k-set agreement)."""
        return len(self.decided_values())

    def max_decision_round(self) -> int:
        """The latest round at which some process decided (0 when nobody decided)."""
        return max(self.decision_rounds.values(), default=0)

    def max_decision_round_of_correct(self) -> int:
        """The latest decision round among correct processes only."""
        rounds = [
            self.decision_rounds[pid]
            for pid in self.correct_processes
            if pid in self.decision_rounds
        ]
        return max(rounds, default=0)

    def all_correct_decided(self) -> bool:
        """Termination: did every correct process decide?"""
        return all(pid in self.decisions for pid in self.correct_processes)

    def summary(self) -> str:
        """One-line description used by examples and experiment logs."""
        return (
            f"n={self.n} t={self.t} f={self.failure_count} "
            f"rounds={self.rounds_executed} "
            f"decided={self.distinct_decision_count()} value(s) "
            f"latest_decision_round={self.max_decision_round()}"
        )


class RoundSystem:
    """``n`` processes of one algorithm, a fault budget ``0 <= t < n`` and a
    round limit: ``max_rounds`` (an ``int >= 1``) or, when ``None``,
    ``algorithm.max_rounds(n, t)``.  The base of both round runtimes.

    The processes of the last run are kept for the next one when all of
    them declare :attr:`~repro.sync.process.RoundBasedProcess.reusable`."""

    #: The processes every run resets and re-initialises, once the first
    #: run built reusable ones.
    _reused: list[RoundBasedProcess] | None = None

    def __init__(
        self,
        n: int,
        t: int,
        algorithm: SynchronousAlgorithm,
        max_rounds: int | None = None,
    ) -> None:
        require_int("n", n)
        require_int("t", t)
        if max_rounds is not None:
            require_int("max_rounds", max_rounds, 1)
        if n < 1:
            raise InvalidParameterError(f"the system needs at least one process, got n={n}")
        if not 0 <= t < n:
            raise InvalidParameterError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
        self._n = n
        self._t = t
        self._algorithm = algorithm
        self._max_rounds = max_rounds

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def t(self) -> int:
        """Maximum number of tolerated faults."""
        return self._t

    @property
    def algorithm(self) -> SynchronousAlgorithm:
        """The algorithm executed by the system."""
        return self._algorithm

    def _round_limit(self) -> int:
        if self._max_rounds is not None:
            return self._max_rounds
        return self._algorithm.max_rounds(self._n, self._t)

    def _processes_for(self, input_vector: InputVector) -> list[RoundBasedProcess]:
        """The run's processes, indexed by id, each initialised with its
        proposal: the kept ones reset, or fresh ones from the algorithm."""
        processes = self._reused
        if processes is None:
            processes = []
            for process_id in range(self._n):
                process = self._algorithm.create_process(process_id, self._n, self._t)
                if not isinstance(process, RoundBasedProcess):
                    raise SimulationError(
                        f"{self._algorithm.name}.create_process returned "
                        f"{type(process).__name__}, not a RoundBasedProcess"
                    )
                processes.append(process)
            if all(process.reusable for process in processes):
                self._reused = processes
        else:
            for process in processes:
                process.reset()
        for process, proposal in zip(processes, input_vector.entries):
            process.initialize(proposal)
        return processes


class SynchronousSystem(RoundSystem):
    """A synchronous message-passing system running one algorithm.

    Parameters
    ----------
    n:
        Number of processes.
    t:
        Maximum number of crashes the runs may contain (``0 <= t < n``).
    algorithm:
        The :class:`~repro.sync.process.SynchronousAlgorithm` factory.
    record_trace:
        When ``True`` every run stores a full :class:`ExecutionTrace`.
    max_rounds:
        Watchdog override; defaults to ``algorithm.max_rounds(n, t)``.
    """

    def __init__(
        self,
        n: int,
        t: int,
        algorithm: SynchronousAlgorithm,
        record_trace: bool = False,
        max_rounds: int | None = None,
    ) -> None:
        super().__init__(n, t, algorithm, max_rounds)
        self._record_trace = record_trace

    def run(
        self,
        proposals: InputVector | Mapping[int, Any] | list[Any],
        schedule: CrashSchedule | None = None,
        *,
        validate_schedule: bool = True,
    ) -> ExecutionResult:
        """Execute the algorithm on *proposals* under *schedule*.

        *proposals* may be an :class:`InputVector`, a list of values (one per
        process) or a mapping process id -> value.  The schedule defaults to
        the failure-free one.  *validate_schedule* may be set to ``False`` by
        callers that already validated the schedule against ``(n, t)`` — the
        batch engine does this to validate each distinct schedule once instead
        of once per run.
        """
        input_vector = normalise_proposals(proposals, self._n)
        schedule = schedule if schedule is not None else no_crashes()
        if validate_schedule:
            schedule.validate(self._n, self._t)
        processes = self._processes_for(input_vector)
        trace = ExecutionTrace() if self._record_trace else None
        decisions: dict[int, Any] = {}
        decision_rounds: dict[int, int] = {}
        crash_rounds: dict[int, int] = {}
        #: Crash events by round, then by process (one event per process).
        crash_table: dict[int, dict[int, CrashEvent]] = {}
        for event in schedule:
            crash_table.setdefault(event.round_number, {})[event.process_id] = event
        everyone = range(self._n)
        #: Processes neither crashed nor halted, in identifier order.
        live = [pid for pid in everyone if not processes[pid].has_halted()]
        round_limit = self._round_limit()

        round_number = 0
        while live and round_number < round_limit:
            round_number += 1
            crash_events = crash_table.get(round_number, {})

            # --- send phase (process order = identifier order) -------------
            inboxes: list[dict[int, Any]] = [{} for _ in everyone]
            for sender_id in live:
                payload = processes[sender_id].message_for_round(round_number)
                event = crash_events.get(sender_id)
                for receiver_id in everyone if event is None else event.delivered_to:
                    inboxes[receiver_id][sender_id] = payload

            # --- crashes take effect before the computation phase -----------
            for victim in crash_events:
                crash_rounds[victim] = round_number

            # --- receive + computation phases -------------------------------
            newly_decided: dict[int, Any] = {}
            running: list[int] = []
            for receiver_id in live:
                process = processes[receiver_id]
                if receiver_id in crash_events or process.has_halted():
                    continue
                process.receive_round(round_number, inboxes[receiver_id])
                if process.has_decided() and receiver_id not in decisions:
                    decisions[receiver_id] = process.decision
                    decision_rounds[receiver_id] = process.decision_round or round_number
                    newly_decided[receiver_id] = process.decision
                if not process.has_halted():
                    running.append(receiver_id)

            if trace is not None:
                trace.record(
                    RoundRecord(
                        round_number=round_number,
                        senders=tuple(live),
                        delivered={
                            pid: dict(inbox) for pid, inbox in enumerate(inboxes) if inbox
                        },
                        crashed=tuple(sorted(crash_events)),
                        decisions=newly_decided,
                        active_after=tuple(running),
                    )
                )
            live = running

        # Watchdog: live processes remaining after the round limit means the
        # algorithm violated its own termination bound.
        if live:
            raise SimulationError(
                f"{self._algorithm.name} exceeded its round bound "
                f"({round_limit} rounds) with processes {live} still running"
            )
        # Positional, in field order: the result is built once per execution.
        return ExecutionResult(
            self._n, self._t, input_vector, decisions, decision_rounds, crash_rounds,
            round_number, schedule, trace,
        )
