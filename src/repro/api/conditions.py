"""The condition-family registry: string-keyed, spec-driven condition oracles.

PR 1 made algorithms and adversary schedules registry-driven; this module
does the same for *conditions*, the third axis of the paper.  A
:class:`ConditionFamily` binds a name (``"max-legal"``, ``"hamming-ball"``,
...) to a builder ``(spec, params) -> ConditionOracle``; the spec names its
family through the ``condition`` / ``condition_params`` fields of
:class:`~repro.api.spec.AgreementSpec` and every layer — the engine, the CLI,
the scenarios, the experiments — resolves it through
:func:`resolve_condition`.

Resolution is memoized per spec (specs are frozen and hashable), so every
engine, batch and sweep cell over equal specs shares one oracle object and
its caches — the property the seed API only had for ``max_l``.

Registering a custom family is one decorator::

    from repro.api import register_condition

    @register_condition("two-values", "vectors carrying exactly two distinct values")
    def _build_two_values(spec, params):
        from repro.core.generators import two_values_condition
        return two_values_condition(spec.n, spec.domain)

Builders must reject unknown parameters loudly (use :func:`take_params`): a
typo'd parameter must fail, not silently fall back to a default.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..core.conditions import ConditionOracle, ExplicitCondition, MaxLegalCondition
from ..core.recognizing import MaxValues, MinValues
from ..core.vectors import InputVector
from ..exceptions import InvalidParameterError
from .registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec imports us lazily)
    from ..core.families import MinLegalCondition
    from .spec import AgreementSpec

__all__ = [
    "CONDITIONS",
    "ConditionFamily",
    "available_conditions",
    "register_condition",
    "resolve_condition",
    "take_params",
]


class ConditionFamily:
    """One registered condition family.

    Attributes
    ----------
    name:
        The registry key.
    summary:
        One line for ``repro conditions`` and the README table.
    parameters:
        Human-readable description of the accepted ``condition_params``.
    build:
        ``(spec, params) -> ConditionOracle``.
    """

    __slots__ = ("name", "summary", "parameters", "build")

    def __init__(
        self,
        name: str,
        summary: str,
        parameters: str,
        build: Callable[["AgreementSpec", Mapping[str, Any]], ConditionOracle],
    ) -> None:
        self.name = name
        self.summary = summary
        self.parameters = parameters
        self.build = build

    def __repr__(self) -> str:
        return f"ConditionFamily(name={self.name!r})"


CONDITIONS = Registry("condition")


def register_condition(name: str, summary: str, parameters: str = "none"):
    """Decorator registering a ``(spec, params) -> ConditionOracle`` builder."""

    def decorator(build):
        CONDITIONS.add(name, ConditionFamily(name, summary, parameters, build))
        return build

    return decorator


def available_conditions() -> tuple[str, ...]:
    """The registered condition-family names."""
    return CONDITIONS.names()


def take_params(
    family: str, params: Mapping[str, Any], accepted: tuple[str, ...]
) -> dict[str, Any]:
    """Copy *params*, rejecting keys outside *accepted* with a loud error."""
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        known = ", ".join(accepted) or "<none>"
        raise InvalidParameterError(
            f"condition family {family!r} got unknown parameter(s) "
            f"{', '.join(map(repr, unknown))}; accepted parameters: {known}"
        )
    return dict(params)


@lru_cache(maxsize=256)
def resolve_condition(spec: "AgreementSpec") -> ConditionOracle:
    """Build (once per spec) the condition oracle named by ``spec.condition``.

    The cache is bounded: specs carry arbitrary user data (``explicit``
    vector sets, ball centres), so pinning every oracle forever would leak in
    long-running processes.  The process-wide sharing the seed API relied on
    lives in the per-``(n, m, x, l)`` caches of the built-in families, which
    survive eviction here.
    """
    family: ConditionFamily = CONDITIONS.get(spec.condition)
    return family.build(spec, dict(spec.condition_params))


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _max_legal_for(n: int, domain: int, x: int, ell: int) -> MaxLegalCondition:
    """One shared ``max_l`` condition per parameter tuple (process-wide).

    Shared across *every* spec with equal derived parameters — including
    specs differing only in ``t`` and ``d`` with the same ``x = t − d`` —
    which is what lets batches and sibling engines reuse one legality
    structure (and is the seed behaviour, kept byte-identical).
    """
    return MaxLegalCondition(n=n, domain=domain, x=x, ell=ell)


@register_condition(
    "max-legal",
    "Theorem 2: the maximal (x, l)-legal condition generated by max_l (the default)",
)
def _build_max_legal(spec: "AgreementSpec", params: Mapping[str, Any]) -> ConditionOracle:
    take_params("max-legal", params, ())
    return _max_legal_for(spec.n, spec.domain, spec.x, spec.ell)


@lru_cache(maxsize=None)
def _min_legal_for(n: int, domain: int, x: int, ell: int) -> "MinLegalCondition":
    from ..core.families import MinLegalCondition

    return MinLegalCondition(n=n, domain=domain, x=x, ell=ell)


@register_condition(
    "min-legal",
    "the mirror of max-legal, generated by min_l (Section 2.3's symmetry)",
)
def _build_min_legal(spec: "AgreementSpec", params: Mapping[str, Any]) -> ConditionOracle:
    take_params("min-legal", params, ())
    return _min_legal_for(spec.n, spec.domain, spec.x, spec.ell)


@register_condition(
    "all-vectors",
    "the trivial condition C_all; (x, l)-legal iff l > x (Theorems 8-9)",
)
def _build_all_vectors(spec: "AgreementSpec", params: Mapping[str, Any]) -> ConditionOracle:
    from ..core.families import AllVectorsOracle

    take_params("all-vectors", params, ())
    return AllVectorsOracle(spec.n, spec.domain, spec.ell)


@register_condition(
    "frequency-gap",
    "MRR plurality condition: the mode beats the runner-up by more than gap",
    parameters="gap (int, default x)",
)
def _build_frequency_gap(spec: "AgreementSpec", params: Mapping[str, Any]) -> ConditionOracle:
    from ..core.families import FrequencyGapCondition

    options = take_params("frequency-gap", params, ("gap",))
    if spec.ell != 1:
        raise InvalidParameterError(
            f"the frequency-gap family has degree l = 1 (its recognizer returns "
            f"the plurality winner); the spec asks for ell={spec.ell}"
        )
    gap = options.get("gap", spec.x)
    return FrequencyGapCondition(spec.n, spec.domain, gap)


@register_condition(
    "hamming-ball",
    "all vectors within Hamming distance radius of a centre vector",
    parameters="center (tuple of n values, default unanimous m), radius (int, default x)",
)
def _build_hamming_ball(spec: "AgreementSpec", params: Mapping[str, Any]) -> ConditionOracle:
    from ..core.families import HammingBallCondition

    options = take_params("hamming-ball", params, ("center", "radius"))
    center = options.get("center")
    if center is None:
        center = (spec.domain,) * spec.n
    radius = options.get("radius", spec.x)
    return HammingBallCondition(spec.n, spec.domain, center, radius, spec.ell)


@register_condition(
    "explicit",
    "a finite condition given extensionally as a set of vectors",
    parameters="vectors (tuple of n-tuples, required), recognizer ('max'|'min', default 'max')",
)
def _build_explicit(spec: "AgreementSpec", params: Mapping[str, Any]) -> ConditionOracle:
    options = take_params("explicit", params, ("vectors", "recognizer"))
    raw_vectors = options.get("vectors")
    if not raw_vectors:
        raise InvalidParameterError(
            "the 'explicit' family needs a non-empty 'vectors' parameter "
            "(a tuple of input vectors)"
        )
    which = options.get("recognizer", "max")
    if which not in ("max", "min"):
        raise InvalidParameterError(
            f"the explicit recognizer must be 'max' or 'min', got {which!r}"
        )
    recognizer = MaxValues(spec.ell) if which == "max" else MinValues(spec.ell)
    vectors = [
        vector if isinstance(vector, InputVector) else InputVector(vector)
        for vector in raw_vectors
    ]
    return ExplicitCondition(vectors, recognizer)
