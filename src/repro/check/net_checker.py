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
replayable :class:`~repro.check.checker.Counterexample` records whose
``adversary`` and ``faults`` keys carry the family and the exact fault
assignment (a JSON record inverted by :func:`repro.net.adversary_from_record`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Mapping

from ..api.engine import RunKnobs
from ..api.spec import AgreementSpec, require_int
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
from .net_oracles import NET_ORACLES
from .oracles import PropertyOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.engine import Engine
    from ..sync.adversary import CrashSchedule

__all__ = ["NetSpace"]

#: The family checked when ``Engine.check(backend="net")`` names none: static
#: send omission is the closest message-level analogue of the crash model.
DEFAULT_NET_ADVERSARY = "send-omission"


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
    record_keys: ClassVar[tuple[str, ...]] = ("adversary", "faults")

    def __post_init__(self) -> None:
        if self.adversary is not None:
            NET_ADVERSARIES.get(self.adversary)
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

    def run_args(self, faults: NetAdversary) -> tuple[CrashSchedule, RunKnobs]:
        return FAILURE_FREE, RunKnobs("net", net_adversary=faults)

    def point_record(self, faults: NetAdversary) -> dict[str, Any]:
        return {"adversary": self.adversary, "faults": faults.fault_record()}

    def point(self, spec: AgreementSpec, record: Mapping[str, Any]) -> NetAdversary:
        # The fault record pins every channel verdict of the enumerated
        # assignment, so the rebuilt adversary replays it bit for bit.
        return adversary_from_record(record["faults"])

    def describe(self, record: Mapping[str, Any]) -> str:
        return f"{record['adversary']} faults {record['faults']}"

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
