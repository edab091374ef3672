"""The message-passing adversary space: every fault assignment of one family.

The synchronous space enumerates crash schedules and the asynchronous one
bounded interleavings; :class:`NetSpace` enumerates the **fault space of a
message-level failure model**.  One adversary is a fully specified fault
assignment of the chosen family — a static omission assignment (which senders
omit to which receivers), a set of lost channels, a delay map, or a
corruption map — drawn from the deterministic stream of
:func:`repro.net.enumerate_faults` and cross-validated against the closed
form of :func:`repro.net.count_faults` on **every** run, mirroring the
:func:`~repro.sync.adversary.count_schedules` contract.

:func:`repro.check.checker.run_check` executes each fault assignment against
the deterministic input frontier and evaluates the applicability-gated
oracles of :mod:`repro.check.net_oracles` — crash-model claims (validity,
agreement) are not evaluated under ``byzantine-corrupt``, so the checker
never asserts a theorem the paper does not make.  Violations become
replayable :class:`NetCounterexample` records that carry the exact fault
assignment (as a JSON record inverted by
:func:`repro.net.adversary_from_record`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Mapping

from ..api.engine import RunKnobs
from ..api.result import RunResult
from ..api.spec import AgreementSpec, RunConfig, require_int
from ..core.vectors import InputVector
from ..exceptions import InvalidParameterError
from ..net.adversary import (
    NET_ADVERSARIES,
    NetAdversary,
    adversary_from_record,
    count_faults,
    enumerate_faults,
)
from .checker import FAILURE_FREE, CheckSpace
# Importable from every checker module: perfbench's traced run wraps it there.
from .frontier import input_frontier  # noqa: F401
from .net_oracles import NET_ORACLES, NetCheckContext
from .oracles import PropertyOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.engine import Engine

__all__ = ["NetCounterexample", "NetSpace"]

#: The family checked when ``Engine.check(backend="net")`` names none: static
#: send omission is the closest message-level analogue of the crash model.
DEFAULT_NET_ADVERSARY = "send-omission"


@dataclass
class NetCounterexample:
    """One replayable message-level violation: the fault assignment, the evidence."""

    oracle: str
    algorithm: str
    detail: str
    spec: AgreementSpec
    vector: InputVector
    #: Failure-model family of the enumerated fault space.
    adversary: str
    #: The exact fault assignment (a :meth:`~repro.net.NetAdversary.fault_record`).
    faults: dict[str, Any] = field(default_factory=dict)
    decisions: dict[int, Any] = field(default_factory=dict)
    duration: int = 0
    fingerprint: str | None = None

    def to_record(self) -> dict[str, Any]:
        """The JSON-serializable record (used by :mod:`repro.store`)."""
        import dataclasses

        return {
            "oracle": self.oracle,
            "algorithm": self.algorithm,
            "detail": self.detail,
            "spec": dataclasses.asdict(self.spec),
            "vector": list(self.vector.entries),
            "adversary": self.adversary,
            "faults": dict(self.faults),
            "decisions": {str(pid): value for pid, value in self.decisions.items()},
            "duration": self.duration,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "NetCounterexample":
        """Rebuild a counterexample from a :meth:`to_record` dictionary."""
        try:
            return cls(
                oracle=record["oracle"],
                algorithm=record["algorithm"],
                detail=record["detail"],
                spec=AgreementSpec(**record["spec"]),
                vector=InputVector(record["vector"]),
                adversary=record["adversary"],
                faults=dict(record["faults"]),
                decisions={int(pid): value for pid, value in record["decisions"].items()},
                duration=record["duration"],
                fingerprint=record.get("fingerprint"),
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise InvalidParameterError(
                f"malformed NetCounterexample record: {error!r}"
            ) from error

    def replay(self, config: RunConfig | None = None) -> RunResult:
        """Re-execute the counterexample through a fresh engine.

        The fault record rebuilds the exact enumerated adversary (every
        channel verdict pinned), so the replayed execution is bit-for-bit the
        one the checker saw.  The algorithm is resolved by registry key, so
        replaying a mutant's counterexample requires the mutant to be
        registered (see :func:`repro.check.mutants.register_mutants`).
        """
        from ..api.engine import Engine

        engine = Engine(self.spec, self.algorithm, config)
        return engine.run(
            self.vector,
            backend="net",
            seed=0,
            net_adversary=adversary_from_record(self.faults),
        )

    def summary(self) -> str:
        """One line for CLI output and logs."""
        return (
            f"[{self.oracle}] {self.algorithm} on {list(self.vector.entries)} "
            f"under {self.adversary} faults {self.faults}: {self.detail}"
        )


@dataclass(frozen=True)
class NetSpace(CheckSpace):
    """Every fault assignment of one message-level failure model.

    *adversary* names the family (:data:`repro.net.NET_ADVERSARIES`, default
    ``send-omission``), *rounds* the rounds the channel-granular families
    range over (default: the algorithm's own round bound) and *max_faults*
    the largest fault count, victims or channels per family (default
    ``spec.t``).  The spaces grow combinatorially in all three, so this is a
    tiny-system tool exactly like its sync and async siblings.
    """

    adversary: str | None = None
    rounds: int | None = None
    max_faults: int | None = None

    backend: ClassVar[str] = "net"
    oracles: ClassVar[Mapping[str, PropertyOracle]] = NET_ORACLES

    def __post_init__(self) -> None:
        if self.adversary is not None and (
            not isinstance(self.adversary, str) or self.adversary not in NET_ADVERSARIES
        ):
            raise InvalidParameterError(
                f"unknown net adversary {self.adversary!r}; registered failure "
                f"models: {', '.join(sorted(NET_ADVERSARIES))}"
            )
        if self.rounds is not None:
            require_int("rounds", self.rounds, 1)
        if self.max_faults is not None:
            require_int("max_faults", self.max_faults, 0)

    def resolve(self, engine: "Engine") -> "NetSpace":
        self._require_backend(engine, "the fault-space check")
        spec = engine.spec
        return NetSpace(
            DEFAULT_NET_ADVERSARY if self.adversary is None else self.adversary,
            (
                engine.algorithm.max_rounds(spec.n, spec.t)
                if self.rounds is None
                else self.rounds
            ),
            spec.t if self.max_faults is None else self.max_faults,
        )

    def count(self, spec: AgreementSpec) -> int:
        return count_faults(self.adversary, spec.n, self.rounds, self.max_faults)

    def points(self, spec: AgreementSpec, start: int, stop: int | None) -> Iterable[NetAdversary]:
        return islice(
            enumerate_faults(self.adversary, spec.n, self.rounds, self.max_faults),
            start,
            stop,
        )

    def context(self, engine: "Engine") -> NetCheckContext:
        return NetCheckContext.from_engine(engine, self.adversary)

    def execute(self, engine: "Engine", vector: InputVector, faults: NetAdversary) -> RunResult:
        return engine._execute(vector, FAILURE_FREE, 0, RunKnobs("net", net_adversary=faults))

    def counterexample(self, engine, oracle, detail, vector, faults, result) -> NetCounterexample:
        return NetCounterexample(
            oracle=oracle,
            algorithm=engine.algorithm_name,
            detail=detail,
            spec=engine.spec,
            vector=vector,
            adversary=self.adversary,
            faults=faults.fault_record(),
            decisions=dict(result.decisions),
            duration=result.duration,
            fingerprint=result.fingerprint,
        )

    def header(self, count: int) -> dict[str, Any]:
        return {
            "backend": "net",
            "adversary": self.adversary,
            "rounds": self.rounds,
            "max_faults": self.max_faults,
            "fault_count": count,
        }

    def render_lines(self, algorithm: str, count: int) -> list[str]:
        return [
            f"algorithm        : {algorithm} [net]",
            f"fault space      : {count} {self.adversary} assignments "
            f"(rounds {self.rounds}, <= {self.max_faults} faults, "
            f"closed form cross-validated)",
        ]
