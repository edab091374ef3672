"""String-keyed registries for algorithms and adversary schedules.

The registries make "add an algorithm" or "add an adversary" a one-file,
one-decorator change instead of a cross-cutting edit: the CLI, the experiment
harness, the examples and future backends all resolve names through here.

* :data:`ALGORITHMS` maps a name (``"condition-kset"``, ``"floodmin"``, ...)
  to an :class:`AlgorithmEntry` describing which backends the algorithm runs
  on, how to build its synchronous factory from an
  :class:`~repro.api.spec.AgreementSpec`, and what agreement degree its
  decisions must satisfy.
* :data:`SCHEDULES` maps a name (``"none"``, ``"round-one"``, ``"staggered"``,
  ...) to a factory ``(spec, crashes, seed) -> CrashSchedule``.

Unknown names raise :class:`~repro.exceptions.RegistryError` listing the known
names; duplicate registrations raise too (shadowing an algorithm silently is a
deployment hazard, not a convenience).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..core.conditions import ConditionOracle
from ..exceptions import InvalidParameterError, RegistryError
from ..sync.adversary import (
    CrashSchedule,
    crashes_in_round_one,
    no_crashes,
    random_schedule,
    staggered_schedule,
)
from ..sync.process import SynchronousAlgorithm
from .spec import AgreementSpec

__all__ = [
    "AlgorithmEntry",
    "Registry",
    "ALGORITHMS",
    "SCHEDULES",
    "register_algorithm",
    "register_schedule",
    "available_algorithms",
    "available_schedules",
]


class Registry:
    """A named map from string keys to entries, with helpful failure modes."""

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: dict[str, Any] = {}

    @property
    def kind(self) -> str:
        """What the registry holds (``"algorithm"``, ``"schedule"``, ...)."""
        return self._kind

    def add(self, name: str, entry: Any) -> None:
        """Register *entry* under *name*; duplicate names are rejected."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self._kind} names must be non-empty strings, got {name!r}")
        if name in self._entries:
            raise RegistryError(
                f"{self._kind} {name!r} is already registered; "
                "pick a new name instead of shadowing an existing entry"
            )
        self._entries[name] = entry

    def get(self, name: str) -> Any:
        """Look *name* up, raising :class:`RegistryError` with the known names."""
        try:
            return self._entries[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise RegistryError(
                f"unknown {self._kind} {name!r}; known {self._kind}s: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """The registered names, sorted."""
        return tuple(sorted(self._entries))

    def items(self) -> list[tuple[str, Any]]:
        """(name, entry) pairs, sorted by name."""
        return [(name, self._entries[name]) for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class AlgorithmEntry:
    """One algorithm as seen by the engine.

    Attributes
    ----------
    name:
        The registry key.
    backends:
        The backends the algorithm runs on (subset of ``{"sync", "async",
        "net"}`` — the message-passing backend drives the same round-based
        process objects as ``"sync"``, so synchronous algorithms usually
        declare both).
        Condition-based entries support both: the synchronous Figure 2
        algorithm and its Section 4 shared-memory counterpart share the same
        condition oracle.
    build:
        ``(spec, condition) -> SynchronousAlgorithm | None``.  Returns ``None``
        for purely asynchronous entries; *condition* is the (possibly
        memoized) oracle the engine wants the algorithm to consult.
    agreement_degree:
        ``spec -> int``: how many distinct decisions the runs may produce
        (``k`` for k-set entries, 1 for consensus, ``l`` on the asynchronous
        backend, where the Section 4 algorithm solves l-set agreement).
    summary:
        One line for ``repro-setagreement algorithms`` and the README table.
    uses_condition:
        Whether the algorithm consults a condition oracle (drives the
        engine's membership annotation and decode memoization).
    async_factory:
        ``(spec, condition) -> (process_id, n, memory) -> AsynchronousProcess``:
        how the engine's batched executor builds this algorithm's processes
        on the asynchronous backend.  ``None`` (the default) means the
        Section 4 condition-based process — the right answer for every
        condition-based entry; mutants and alternative async algorithms
        override it.
    """

    name: str
    backends: frozenset[str]
    build: Callable[[AgreementSpec, ConditionOracle], SynchronousAlgorithm | None]
    agreement_degree: Callable[[AgreementSpec], int]
    summary: str
    uses_condition: bool = True
    async_factory: Callable[[AgreementSpec, ConditionOracle], Callable] | None = None

    def supports(self, backend: str) -> bool:
        """Does the entry run on *backend*?"""
        return backend in self.backends


ALGORITHMS = Registry("algorithm")
SCHEDULES = Registry("schedule")


def register_algorithm(
    name: str,
    backends: tuple[str, ...],
    summary: str,
    agreement_degree: Callable[[AgreementSpec], int] | None = None,
    uses_condition: bool = True,
    async_factory: Callable[[AgreementSpec, ConditionOracle], Callable] | None = None,
):
    """Decorator registering a ``(spec, condition) -> algorithm`` builder."""

    def decorator(build):
        ALGORITHMS.add(
            name,
            AlgorithmEntry(
                name=name,
                backends=frozenset(backends),
                build=build,
                agreement_degree=agreement_degree or (lambda spec: spec.k),
                summary=summary,
                uses_condition=uses_condition,
                async_factory=async_factory,
            ),
        )
        return build

    return decorator


def register_schedule(name: str, summary: str):
    """Decorator registering a ``(spec, crashes, seed) -> CrashSchedule`` factory."""

    def decorator(factory):
        factory.summary = summary
        SCHEDULES.add(name, factory)
        return factory

    return decorator


def available_algorithms() -> tuple[str, ...]:
    """The registered algorithm names."""
    return ALGORITHMS.names()


def available_schedules() -> tuple[str, ...]:
    """The registered schedule names."""
    return SCHEDULES.names()


# ----------------------------------------------------------------------
# Built-in algorithms
# ----------------------------------------------------------------------
@register_algorithm(
    "condition-kset",
    ("sync", "async", "net"),
    "Figure 2: condition-based k-set agreement (the paper's contribution)",
)
def _build_condition_kset(spec: AgreementSpec, condition: ConditionOracle):
    from ..algorithms.condition_kset import ConditionBasedKSetAgreement

    # The degenerate d = t regime is the classical special case of the
    # abstract and is the only one where Section 6.1's l <= t − d requirement
    # is deliberately waived; any other spec violating it is a user error and
    # must fail loudly.
    return ConditionBasedKSetAgreement(
        condition=condition,
        t=spec.t,
        d=spec.d,
        k=spec.k,
        enforce_requirements=spec.d != spec.t,
    )


@register_algorithm(
    "condition-consensus",
    ("sync", "async", "net"),
    "k = l = 1 special case: condition-based consensus (MRR)",
    agreement_degree=lambda spec: 1,
)
def _build_condition_consensus(spec: AgreementSpec, condition: ConditionOracle):
    from ..algorithms.condition_consensus import ConditionBasedConsensus

    if spec.k != 1:
        raise InvalidParameterError(
            f"condition-consensus solves consensus (k = 1), the spec asks for k={spec.k}"
        )
    return ConditionBasedConsensus(condition=condition, t=spec.t, d=spec.d)


@register_algorithm(
    "floodmin",
    ("sync", "net"),
    "classical ⌊t/k⌋ + 1-round FloodMin k-set agreement baseline",
    uses_condition=False,
)
def _build_floodmin(spec: AgreementSpec, condition: ConditionOracle):
    from ..algorithms.classic_kset import FloodMinKSetAgreement

    return FloodMinKSetAgreement(t=spec.t, k=spec.k)


@register_algorithm(
    "flood-consensus",
    ("sync", "net"),
    "classical t + 1-round FloodSet consensus baseline",
    agreement_degree=lambda spec: 1,
    uses_condition=False,
)
def _build_flood_consensus(spec: AgreementSpec, condition: ConditionOracle):
    from ..algorithms.classic_consensus import FloodSetConsensus

    if spec.k != 1:
        raise InvalidParameterError(
            f"flood-consensus solves consensus (k = 1), the spec asks for k={spec.k}"
        )
    return FloodSetConsensus(t=spec.t)


@register_algorithm(
    "early-deciding",
    ("sync", "net"),
    "Section 8: early-deciding k-set agreement, min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1) rounds",
    uses_condition=False,
)
def _build_early_deciding(spec: AgreementSpec, condition: ConditionOracle):
    from ..algorithms.early_deciding_kset import EarlyDecidingKSetAgreement

    return EarlyDecidingKSetAgreement(t=spec.t, k=spec.k)


@register_algorithm(
    "async-condition",
    ("async",),
    "Section 4: asynchronous shared-memory l-set agreement from an (x, l)-legal condition",
    agreement_degree=lambda spec: spec.ell,
)
def _build_async_condition(spec: AgreementSpec, condition: ConditionOracle):
    # Purely asynchronous: the engine drives the Section 4 snapshot algorithm
    # directly, there is no synchronous factory to build.
    return None


# ----------------------------------------------------------------------
# Built-in adversary schedules
# ----------------------------------------------------------------------
@register_schedule("none", "failure-free execution")
def _schedule_none(spec: AgreementSpec, crashes: int, seed: int) -> CrashSchedule:
    return no_crashes()


@register_schedule("round-one", "crashes during round 1, proposals reach a half prefix")
def _schedule_round_one(spec: AgreementSpec, crashes: int, seed: int) -> CrashSchedule:
    if crashes <= 0:
        return no_crashes()
    return crashes_in_round_one(spec.n, crashes, delivered_prefix=spec.n // 2)


@register_schedule("initial", "processes crash before sending anything")
def _schedule_initial(spec: AgreementSpec, crashes: int, seed: int) -> CrashSchedule:
    if crashes <= 0:
        return no_crashes()
    return crashes_in_round_one(spec.n, crashes, delivered_prefix=0)


@register_schedule(
    "staggered",
    "k crashes per round until the budget (crashes, default t) runs out: the classical flood worst case",
)
def _schedule_staggered(spec: AgreementSpec, crashes: int, seed: int) -> CrashSchedule:
    budget = crashes if crashes > 0 else spec.t
    return staggered_schedule(spec.n, budget, per_round=max(1, spec.k))


@register_schedule("random", "random crash rounds and delivery patterns (seeded)")
def _schedule_random(spec: AgreementSpec, crashes: int, seed: int) -> CrashSchedule:
    # An over-budget crash count must fail loudly (random_schedule raises),
    # exactly like every explicit schedule would.
    return random_schedule(
        spec.n,
        spec.t,
        crashes,
        max_round=spec.outside_condition_bound(),
        rng=seed,
    )
