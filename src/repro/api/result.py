"""The unified execution record returned by the engine.

The synchronous runtime returns :class:`~repro.sync.runtime.ExecutionResult`
(rounds, crash rounds, traces) and the asynchronous scheduler returns
:class:`~repro.asynchronous.scheduler.AsyncExecutionResult` (step counts,
step budgets).  :class:`RunResult` normalizes both into one record so that
callers — the CLI, the experiment harness, the property checkers, future
caching layers — handle every backend through a single shape:

* ``decisions`` / ``decision_times`` — who decided what, and *when* in the
  backend's native time unit (``"rounds"`` or ``"steps"``);
* ``duration`` — total rounds executed or total steps granted;
* ``crashed`` / ``terminated`` — the failure picture, identical semantics on
  both backends ("every correct process decided");
* ``in_condition`` — whether the input vector belongs to the condition the
  algorithm was instantiated with (``None`` for unconditioned baselines);
* ``raw`` — the backend-native result, kept for drill-down (traces, step
  counts) so nothing the seed API exposed is lost.

The record quacks enough like the backend-native results (``decisions``,
``decided_values``, ``correct_processes``, ``terminated``,
``max_decision_round_of_correct``) that the property checkers of
:mod:`repro.analysis.properties` accept it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..core.vectors import InputVector
from ..deferred import DeferredField, deferred
from ..exceptions import InvalidParameterError
from ..sync.adversary import CrashEvent, CrashSchedule
from ..sync.runtime import ExecutionResult
from ..sync.trace import ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only; the backends load on first use
    from ..asynchronous.scheduler import AsyncExecutionResult
    from ..net.runtime import NetExecutionResult

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """One execution, normalized across backends."""

    #: Registry key (or display name) of the algorithm that ran.
    algorithm: str
    #: ``"sync"``, ``"async"`` or ``"net"``.
    backend: str
    n: int
    t: int
    input_vector: InputVector
    #: Mapping process id -> decided value.
    decisions: dict[int, Any] = field(default_factory=dict)
    #: Mapping process id -> decision time, in :attr:`time_unit` units.
    decision_times: dict[int, int] = field(default_factory=dict)
    #: Processes that crashed (sync: during the run; async: never scheduled;
    #: net: the adversary's omission-faulty victim set).
    crashed: frozenset[int] = frozenset()
    #: Rounds executed (sync/net) or total steps granted (async).
    duration: int = 0
    #: ``"rounds"`` (sync/net) or ``"steps"`` (async).
    time_unit: str = "rounds"
    #: Every correct process decided.
    terminated: bool = True
    #: Membership of the input vector in the algorithm's condition
    #: (``None`` when the algorithm consults no condition).
    in_condition: bool | None = None
    #: Display name of the condition oracle the run consulted (``None`` for
    #: unconditioned baselines) — e.g. ``"max_1-legal(x=2, n=8, m=10)"``.
    condition: str | None = None
    #: The crash schedule that was applied (``None`` on the async backend when
    #: crashes were injected directly).
    schedule: CrashSchedule | None = None
    #: Short digest of the execution's nondeterminism source (``None`` on the
    #: sync backend): the async interleaving or the net backend's realized
    #: fault matrix — two runs behaved identically exactly when their
    #: fingerprints match, which is how batch/store records prove parity.
    #: A normalized async or net result reads it from :attr:`raw` on first
    #: read, so the digest is computed only when somebody reads it.
    fingerprint: str | None = DeferredField(None)
    #: Full synchronous trace when one was recorded.
    trace: ExecutionTrace | None = None
    #: The backend-native result object.
    raw: ExecutionResult | AsyncExecutionResult | NetExecutionResult | None = None

    def _compute_fingerprint(
        self, raw: AsyncExecutionResult | NetExecutionResult
    ) -> str | None:
        return raw.fingerprint or None

    # -- derived facts -------------------------------------------------------
    @property
    def correct_processes(self) -> frozenset[int]:
        """The processes that never crashed."""
        return frozenset(range(self.n)) - self.crashed

    @property
    def failure_count(self) -> int:
        """``f``: the number of processes that actually crashed."""
        return len(self.crashed)

    def decided_values(self) -> frozenset[Any]:
        """The set of distinct decided values."""
        return frozenset(self.decisions.values())

    def distinct_decision_count(self) -> int:
        """Number of distinct decided values (≤ k for k-set agreement)."""
        return len(self.decided_values())

    def all_correct_decided(self) -> bool:
        """Termination: did every correct process decide?"""
        return all(pid in self.decisions for pid in self.correct_processes)

    def max_decision_time(self) -> int:
        """The latest decision time (0 when nobody decided)."""
        return max(self.decision_times.values(), default=0)

    def max_decision_round_of_correct(self) -> int:
        """Latest decision round among correct processes (synchronous runs only)."""
        if self.time_unit != "rounds":
            raise InvalidParameterError(
                "decision rounds are only defined on the synchronous backend; "
                f"this result is in {self.time_unit!r}"
            )
        times = [
            self.decision_times[pid]
            for pid in self.correct_processes
            if pid in self.decision_times
        ]
        return max(times, default=0)

    @property
    def rounds_executed(self) -> int:
        """Alias of :attr:`duration` for synchronous runs (seed-API parity)."""
        if self.time_unit != "rounds":
            raise InvalidParameterError(
                f"rounds_executed is only defined on the synchronous backend; "
                f"this result is in {self.time_unit!r}"
            )
        return self.duration

    def summary(self) -> str:
        """One-line description used by the CLI and experiment logs."""
        membership = (
            "-" if self.in_condition is None else ("yes" if self.in_condition else "no")
        )
        return (
            f"{self.algorithm} [{self.backend}] n={self.n} t={self.t} "
            f"f={self.failure_count} in_condition={membership} "
            f"{self.time_unit}={self.duration} "
            f"decided={self.distinct_decision_count()} value(s) "
            f"terminated={self.terminated}"
        )

    # -- serialization -------------------------------------------------------
    # trace and raw are backend-native object graphs, deliberately dropped.
    def to_record(self) -> dict[str, Any]:  # repro: lint-ok[record-parity-fields]
        """The JSON-serializable record of the run (used by :mod:`repro.store`).

        Everything the normalized record carries round-trips except the two
        drill-down fields: :attr:`trace` and :attr:`raw` are backend-native
        object graphs and are deliberately dropped — a reloaded result carries
        ``trace=None`` and ``raw=None``.  Process ids are stored as JSON
        object keys (strings) and restored to ``int`` by :meth:`from_record`;
        proposal/decision values must themselves be JSON-serializable (the
        library's standard domains are integers).
        """
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "n": self.n,
            "t": self.t,
            "input_vector": list(self.input_vector.entries),
            "decisions": {str(pid): value for pid, value in self.decisions.items()},
            "decision_times": {
                str(pid): time for pid, time in self.decision_times.items()
            },
            "crashed": sorted(self.crashed),
            "duration": self.duration,
            "time_unit": self.time_unit,
            "terminated": self.terminated,
            "in_condition": self.in_condition,
            "condition": self.condition,
            "schedule": (
                None if self.schedule is None else self.schedule.to_records()
            ),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from a :meth:`to_record` dictionary (inverse map)."""
        try:
            schedule_events = record["schedule"]
            schedule = (
                None
                if schedule_events is None
                else CrashSchedule.from_records(schedule_events)
            )
            return cls(
                algorithm=record["algorithm"],
                backend=record["backend"],
                n=record["n"],
                t=record["t"],
                input_vector=InputVector(record["input_vector"]),
                decisions={int(pid): value for pid, value in record["decisions"].items()},
                decision_times={
                    int(pid): time for pid, time in record["decision_times"].items()
                },
                crashed=frozenset(record["crashed"]),
                duration=record["duration"],
                time_unit=record["time_unit"],
                terminated=record["terminated"],
                in_condition=record["in_condition"],
                condition=record["condition"],
                schedule=schedule,
                # .get(): records written before fingerprints existed reload fine.
                fingerprint=record.get("fingerprint"),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise InvalidParameterError(
                f"malformed RunResult record: {error!r}"
            ) from error

    # -- normalization -------------------------------------------------------
    @classmethod
    def from_sync(
        cls,
        result: ExecutionResult,
        algorithm: str,
        in_condition: bool | None = None,
        condition: str | None = None,
    ) -> "RunResult":
        """Normalize a synchronous :class:`ExecutionResult`."""
        return cls(
            algorithm=algorithm,
            backend="sync",
            n=result.n,
            t=result.t,
            input_vector=result.input_vector,
            decisions=dict(result.decisions),
            decision_times=dict(result.decision_rounds),
            crashed=result.faulty_processes,
            duration=result.rounds_executed,
            time_unit="rounds",
            terminated=result.all_correct_decided(),
            in_condition=in_condition,
            condition=condition,
            schedule=result.schedule,
            trace=result.trace,
            raw=result,
        )

    @classmethod
    def from_async(
        cls,
        result: AsyncExecutionResult,
        input_vector: InputVector,
        algorithm: str,
        t: int,
        in_condition: bool | None = None,
        schedule: CrashSchedule | None = None,
        condition: str | None = None,
    ) -> "RunResult":
        """Normalize an asynchronous :class:`AsyncExecutionResult`."""
        return cls(
            algorithm=algorithm,
            backend="async",
            n=result.n,
            t=t,
            input_vector=input_vector,
            decisions=dict(result.decisions),
            decision_times=dict(result.decision_steps),
            crashed=result.crashed,
            duration=result.total_steps,
            time_unit="steps",
            terminated=result.terminated,
            in_condition=in_condition,
            condition=condition,
            schedule=schedule,
            fingerprint=deferred(result),
            trace=None,
            raw=result,
        )

    @classmethod
    def from_net(
        cls,
        result: NetExecutionResult,
        algorithm: str,
        in_condition: bool | None = None,
        condition: str | None = None,
    ) -> "RunResult":
        """Normalize a message-passing :class:`NetExecutionResult`.

        ``crashed`` carries the adversary's omission-faulty *process* set
        (empty for the message-granular failure models) so the derived
        ``correct_processes`` / ``terminated`` facts keep their "every
        non-faulty process decided" semantics.
        """
        return cls(
            algorithm=algorithm,
            backend="net",
            n=result.n,
            t=result.t,
            input_vector=result.input_vector,
            decisions=dict(result.decisions),
            decision_times=dict(result.decision_rounds),
            crashed=result.faulty,
            duration=result.rounds_executed,
            time_unit="rounds",
            terminated=result.all_correct_decided(),
            in_condition=in_condition,
            condition=condition,
            schedule=None,
            fingerprint=deferred(result),
            trace=None,
            raw=result,
        )

    @classmethod
    def normalize(
        cls,
        result: "RunResult | ExecutionResult | AsyncExecutionResult",
        input_vector: InputVector | None = None,
        algorithm: str = "unknown",
        t: int = 0,
        in_condition: bool | None = None,
    ) -> "RunResult":
        """Coerce any backend result into a :class:`RunResult` (idempotent)."""
        if isinstance(result, cls):
            return result
        if isinstance(result, ExecutionResult):
            return cls.from_sync(result, algorithm, in_condition)
        from ..asynchronous.scheduler import AsyncExecutionResult
        from ..net.runtime import NetExecutionResult

        if isinstance(result, NetExecutionResult):
            return cls.from_net(result, algorithm, in_condition)
        if isinstance(result, AsyncExecutionResult):
            if input_vector is None:
                raise InvalidParameterError(
                    "normalizing an AsyncExecutionResult needs the input vector"
                )
            return cls.from_async(result, input_vector, algorithm, t, in_condition)
        raise InvalidParameterError(
            f"cannot normalize {type(result).__name__} into a RunResult"
        )
