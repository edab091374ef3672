"""The asynchronous adversary space: every bounded interleaving × every crash.

The synchronous space enumerates crash schedules; its asynchronous
counterpart :class:`AsyncSpace` enumerates **adversaries** of the
shared-memory model.  One adversary is a pair:

* a *crash assignment* — a faulty set of at most ``max_crashes`` processes,
  each with a crash point in ``[0, depth]`` (``0`` = initial crash, ``s >= 1``
  = the process takes ``s`` steps, its writes landing, then vanishes);
* an *interleaving prefix* — one choice sequence of ``{0..n-1}^depth``
  driving the first ``depth`` scheduling decisions through
  :class:`~repro.asynchronous.adversary.EnumeratedAdversary` (fair
  round-robin afterwards, so guaranteed executions still terminate within
  their budget).

The space is finite and its closed form —
``Σ_f C(n,f)·(depth+1)^f × n^depth`` — is cross-validated against the
generator on every run, mirroring the
:func:`~repro.sync.adversary.count_schedules` contract.
:func:`repro.check.checker.run_check` executes each adversary against the
deterministic input frontier and evaluates the asynchronous property oracles
of :mod:`repro.check.async_oracles`; violations become replayable
:class:`~repro.check.checker.Counterexample` records whose ``prefix`` and
``crash_steps`` keys carry the adversary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Mapping

from ..api.engine import RunKnobs
from ..api.result import RunResult
from ..api.spec import AgreementSpec, require_int
from ..asynchronous.adversary import (
    EnumeratedAdversary,
    count_interleavings,
    enumerate_interleavings,
)
from ..core.vectors import InputVector
from ..exceptions import InvalidParameterError
from .async_oracles import ASYNC_ORACLES
from .checker import FAILURE_FREE, CheckSpace
# Importable from every checker module: perfbench's traced run wraps it there.
from .frontier import input_frontier  # noqa: F401
from .oracles import PropertyOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.engine import Engine

__all__ = [
    "AsyncSpace",
    "count_async_adversaries",
    "enumerate_async_adversaries",
]


def count_async_adversaries(n: int, depth: int, max_crashes: int) -> int:
    """Closed-form size of the adversary space of :func:`enumerate_async_adversaries`.

    Every faulty set of at most *max_crashes* processes, one crash point in
    ``[0, depth]`` per faulty process, times the ``n^depth`` interleaving
    prefixes::

        ( Σ_{f=0}^{max_crashes}  C(n, f) · (depth + 1)^f )  ×  n^depth

    The generator cross-validation runs on **every** async check.
    """
    _validate_async_parameters(n, depth, max_crashes)
    crash_configurations = sum(
        math.comb(n, f) * (depth + 1) ** f for f in range(max_crashes + 1)
    )
    return crash_configurations * count_interleavings(n, depth)


def enumerate_async_adversaries(
    n: int, depth: int, max_crashes: int
) -> Iterator[tuple[dict[int, int], tuple[int, ...]]]:
    """Yield every ``(crash_steps, prefix)`` adversary of the bounded space.

    Deterministic order — faulty sets by size then lexicographically, crash
    points in product order, prefixes innermost in lexicographic order — so
    slicing the stream by index shards the space reproducibly (this is how
    ``workers=`` parallelises the asynchronous check).  The total count is
    :func:`count_async_adversaries`.
    """
    _validate_async_parameters(n, depth, max_crashes)
    for crash_count in range(max_crashes + 1):
        for victims in itertools.combinations(range(n), crash_count):
            for points in itertools.product(range(depth + 1), repeat=crash_count):
                crash_steps = dict(zip(victims, points))
                for prefix in enumerate_interleavings(n, depth):
                    yield dict(crash_steps), prefix


def _validate_async_parameters(n: int, depth: int, max_crashes: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if depth < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {depth}")
    if not 0 <= max_crashes < n:
        raise InvalidParameterError(
            f"max_crashes must satisfy 0 <= max_crashes < n, got "
            f"max_crashes={max_crashes}, n={n}"
        )


#: One point of the asynchronous space: the crash points and the adversary
#: replaying the interleaving prefix.
AsyncPoint = tuple[dict[int, int], EnumeratedAdversary]


@dataclass(frozen=True)
class AsyncSpace(CheckSpace):
    """Every bounded interleaving prefix × every crash assignment.

    *depth* is the length of the adversarial scheduling prefix (default
    ``spec.n``) and *max_crashes* the largest faulty set (default
    ``spec.x``); both spaces are exponential, so this is a tiny-system tool
    exactly like its synchronous sibling.
    """

    depth: int | None = None
    max_crashes: int | None = None

    backend: ClassVar[str] = "async"
    oracles: ClassVar[Mapping[str, PropertyOracle]] = ASYNC_ORACLES
    record_keys: ClassVar[tuple[str, ...]] = ("prefix", "crash_steps")

    def __post_init__(self) -> None:
        if self.depth is not None:
            require_int("depth", self.depth)
        if self.max_crashes is not None:
            require_int("max_crashes", self.max_crashes)

    def resolve(self, engine: "Engine") -> "AsyncSpace":
        self._require_backend(engine, "the bounded-interleaving check")
        spec = engine.spec
        return AsyncSpace(
            spec.n if self.depth is None else self.depth,
            spec.x if self.max_crashes is None else self.max_crashes,
        )

    def count(self, spec: AgreementSpec) -> int:
        return count_async_adversaries(spec.n, self.depth, self.max_crashes)

    def points(self, spec: AgreementSpec, start: int, stop: int | None) -> Iterator[AsyncPoint]:
        stream = islice(
            enumerate_async_adversaries(spec.n, self.depth, self.max_crashes),
            start,
            stop,
        )
        for crash_steps, prefix in stream:
            yield crash_steps, EnumeratedAdversary(prefix)

    def execute(self, engine: "Engine", vector: InputVector, point: AsyncPoint) -> RunResult:
        crash_steps, adversary = point
        knobs = RunKnobs(
            "async", async_adversary=adversary, crash_steps=tuple(sorted(crash_steps.items()))
        )
        return engine._execute(vector, FAILURE_FREE, 0, knobs)

    def point_record(self, point: AsyncPoint) -> dict[str, Any]:
        crash_steps, adversary = point
        return {
            "prefix": list(adversary.prefix),
            "crash_steps": {str(pid): step for pid, step in crash_steps.items()},
        }

    def point(self, spec: AgreementSpec, record: Mapping[str, Any]) -> AsyncPoint:
        crash_steps = {int(pid): step for pid, step in record["crash_steps"].items()}
        for pid, steps in crash_steps.items():
            require_int("a crash_steps process id", pid, 0)
            require_int(f"the crash step of process {pid}", steps, 0)
        return crash_steps, EnumeratedAdversary(record["prefix"])

    def describe(self, record: Mapping[str, Any]) -> str:
        crashes = sorted((int(pid), step) for pid, step in record["crash_steps"].items())
        return f"prefix {list(record['prefix'])} crashes {dict(crashes)}"

    def header(self, count: int) -> dict[str, Any]:
        return {
            "backend": "async",
            "depth": self.depth,
            "max_crashes": self.max_crashes,
            "adversary_count": count,
        }

    def render_lines(self, algorithm: str, count: int) -> list[str]:
        return [
            f"algorithm        : {algorithm} [async]",
            f"adversary space  : {count} adversaries "
            f"(interleaving depth {self.depth}, <= {self.max_crashes} crashes, "
            f"closed form cross-validated)",
        ]
