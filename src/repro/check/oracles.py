"""Property oracles: one predicate per claim the paper makes about executions.

Each oracle inspects one normalized :class:`~repro.api.RunResult` and either
passes or produces a human-readable violation detail.  Oracles carry an
*applicability* predicate so the same oracle set can be evaluated over every
algorithm and every execution: an oracle that does not apply to a run is
simply not counted for it.  Both predicates take the one
:class:`CheckContext` of the checked instance, whatever the space.

This module holds the :class:`CheckContext` and :class:`PropertyOracle`
types and the oracles of the synchronous space, where decision times are
rounds.  The registered oracles:

=============================  =====================================================
name                           claim (and when it applies)
=============================  =====================================================
``validity``                   every decided value was proposed (always applies)
``agreement``                  at most ``k`` distinct values are decided, where
                               ``k`` is the algorithm's agreement degree (always)
``termination``                every correct process decides (always)
``round-bound-in-condition``   correct processes decide by
                               ``min(⌊(d + l − 1)/k⌋ + 1, ⌊t/k⌋ + 1)`` — and by
                               round **2** when at most ``t − d`` processes crash
                               during round 1 (Theorem 10 fast path, checked for
                               the Figure 2 algorithm); applies when the input
                               vector belongs to the condition
``round-bound-outside``        correct processes decide by the unconditional
                               deadline ``⌊t/k⌋ + 1`` — tightened to the
                               in-condition bound when more than ``t − d``
                               processes crash initially (Theorem 10); applies
                               when the input vector is outside the condition,
                               or always for condition-free algorithms
``early-deciding-bound``       correct processes decide by
                               ``min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)`` where ``f`` is the
                               actual crash count (Section 8); applies to
                               algorithms exposing ``early_bound``
=============================  =====================================================

A differential check (a :class:`~repro.check.checker.SyncSpace` with a
*reference*) evaluates :data:`REFERENCE_ORACLES` instead, whose one oracle,
``reference-decisions``, claims that the reference algorithm decides the
same values on the same execution (always applies).

The refined round bounds (the 2-round fast path and the initial-crash
tightening) are only asserted for the ``condition-kset`` algorithm, whose
Theorem 10 proves them; other condition-based algorithms are held to the
generic bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..api.engine import Engine
from ..api.spec import AgreementSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import RunResult
    from .checker import CheckSpace

__all__ = ["CheckContext", "PropertyOracle", "ORACLES", "REFERENCE_ORACLES"]

#: Algorithms whose Theorem 10 refinements (2-round fast path, initial-crash
#: tightening) the round-bound oracles may assert.
_THEOREM10_ALGORITHMS = frozenset({"condition-kset"})


@dataclass(frozen=True)
class CheckContext:
    """Everything the oracles need to know about the checked instance.

    One type for all three spaces, built once per slice by
    :func:`~repro.check.checker.check_slice` (worker-side too, so contexts
    never travel across process boundaries).  Every field is computed the
    same way whatever the backend; each oracle reads the ones its claim
    names.
    """

    spec: AgreementSpec
    algorithm: str
    #: The checked space, every default resolved (the net oracles read its
    #: failure model, ``space.adversary``).
    space: "CheckSpace"
    #: Distinct values the runs may decide on the space's backend (``k``;
    #: ``l`` for the Section 4 algorithm on async).
    degree: int
    #: ``min(⌊(d + l − 1)/k⌋ + 1, ⌊t/k⌋ + 1)`` — decision deadline in C.
    in_bound: int
    #: ``⌊t/k⌋ + 1`` — the unconditional decision deadline.
    out_bound: int
    #: The algorithm proves the Theorem 10 refinements (see module docstring).
    theorem10: bool
    #: ``f -> min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)`` when the algorithm is early-deciding.
    early_bound: Callable[[int], int] | None
    #: The per-process step budget of asynchronous executions.
    max_steps_per_process: int
    #: The engine of the space's reference algorithm (same spec and config),
    #: or ``None`` when the space names none.
    reference: Engine | None = None

    @classmethod
    def from_engine(cls, engine: Engine, space: "CheckSpace") -> "CheckContext":
        """The context of *engine* checked over the resolved *space*."""
        spec = engine.spec
        return cls(
            spec=spec,
            algorithm=engine.algorithm_name,
            space=space,
            degree=engine.agreement_degree(space.backend),
            in_bound=spec.in_condition_bound(),
            out_bound=spec.outside_condition_bound(),
            theorem10=engine.algorithm_name in _THEOREM10_ALGORITHMS,
            early_bound=getattr(engine.algorithm, "early_bound", None),
            max_steps_per_process=engine.config.max_steps_per_process,
            reference=(
                None
                if space.reference is None
                else Engine(spec, space.reference, engine.config)
            ),
        )


@dataclass(frozen=True)
class PropertyOracle:
    """One checkable claim: an applicability predicate and a violation finder.

    The one oracle type of all three spaces, in three registries:
    :data:`ORACLES` here, :data:`~repro.check.net_oracles.NET_ORACLES` and
    :data:`~repro.check.async_oracles.ASYNC_ORACLES`.  Both predicates take
    the :class:`CheckContext` first and the execution second.  A check runs
    once per execution: it tests its claim with one cheap predicate first
    and builds its message only on a violation.
    """

    name: str
    summary: str
    applies: Callable[[CheckContext, "RunResult"], bool]
    check: Callable[[CheckContext, "RunResult"], str | None]


def _always(context: CheckContext, result: "RunResult") -> bool:
    return True


def _check_validity(context: CheckContext, result: "RunResult") -> str | None:
    proposed = result.input_vector.val()
    if proposed.issuperset(result.decisions.values()):
        return None
    for process_id, value in sorted(result.decisions.items()):
        if value not in proposed:
            return f"process {process_id} decided {value!r}, which was never proposed"
    return None


def _check_agreement(context: CheckContext, result: "RunResult") -> str | None:
    decided = set(result.decisions.values())
    if len(decided) > context.degree:
        return (
            f"{len(decided)} distinct values decided "
            f"({sorted(map(repr, decided))}), but the agreement degree is "
            f"{context.degree}"
        )
    return None


def _check_termination(context: CheckContext, result: "RunResult") -> str | None:
    if result.terminated:
        return None
    undecided = sorted(result.correct_processes - set(result.decisions))
    return f"correct process(es) {undecided} never decided"


def _applies_in_condition(context: CheckContext, result: "RunResult") -> bool:
    return result.in_condition is True


def _check_in_condition_bound(context: CheckContext, result: "RunResult") -> str | None:
    bound = context.in_bound
    label = "in-condition bound"
    schedule = result.schedule
    if (
        context.theorem10
        and schedule is not None
        and schedule.round_one_crash_count() <= context.spec.x
    ):
        # The general bound already floors at 2 (a process never decides in
        # round 1), so the fast path can only tighten — min() keeps that true
        # even if the floor ever changes.
        bound = min(bound, 2)
        label = "2-round fast path (<= t - d round-1 crashes)"
    latest = result.max_decision_round_of_correct()
    if latest > bound:
        return (
            f"a correct process decided at round {latest}, beyond the {label} "
            f"of {bound}"
        )
    return None


def _applies_outside_condition(context: CheckContext, result: "RunResult") -> bool:
    # Condition-free algorithms (in_condition is None) are held to the
    # unconditional deadline on every run.
    return result.in_condition is not True


def _check_outside_condition_bound(context: CheckContext, result: "RunResult") -> str | None:
    bound = context.out_bound
    label = "unconditional bound"
    schedule = result.schedule
    if (
        context.theorem10
        and result.in_condition is False
        and schedule is not None
        and schedule.initial_crash_count() > context.spec.x
    ):
        bound = min(bound, context.in_bound)
        label = "initial-crash-tightened bound (> t - d initial crashes)"
    latest = result.max_decision_round_of_correct()
    if latest > bound:
        return (
            f"a correct process decided at round {latest}, beyond the {label} "
            f"of {bound}"
        )
    return None


def _applies_early_deciding(context: CheckContext, result: "RunResult") -> bool:
    return context.early_bound is not None


def _check_early_deciding_bound(context: CheckContext, result: "RunResult") -> str | None:
    assert context.early_bound is not None
    bound = context.early_bound(result.failure_count)
    latest = result.max_decision_round_of_correct()
    if latest > bound:
        return (
            f"a correct process decided at round {latest}, beyond the adaptive "
            f"bound {bound} for f={result.failure_count} actual crashes"
        )
    return None


#: The oracle registry, in evaluation (and report) order.
ORACLES: dict[str, PropertyOracle] = {
    oracle.name: oracle
    for oracle in (
        PropertyOracle(
            "validity",
            "every decided value was proposed",
            _always,
            _check_validity,
        ),
        PropertyOracle(
            "agreement",
            "at most k distinct values are decided",
            _always,
            _check_agreement,
        ),
        PropertyOracle(
            "termination",
            "every correct process decides",
            _always,
            _check_termination,
        ),
        PropertyOracle(
            "round-bound-in-condition",
            "in-condition inputs decide by min(⌊(d+l-1)/k⌋+1, ⌊t/k⌋+1), "
            "by round 2 on the fast path",
            _applies_in_condition,
            _check_in_condition_bound,
        ),
        PropertyOracle(
            "round-bound-outside",
            "outside-condition (and condition-free) runs decide by ⌊t/k⌋+1",
            _applies_outside_condition,
            _check_outside_condition_bound,
        ),
        PropertyOracle(
            "early-deciding-bound",
            "early-deciding runs decide by min(⌊f/k⌋+2, ⌊t/k⌋+1)",
            _applies_early_deciding,
            _check_early_deciding_bound,
        ),
    )
}


def _check_reference_decisions(context: CheckContext, result: "RunResult") -> str | None:
    reference = context.space.execute(context.reference, result.input_vector, result.schedule)
    if reference.decisions == result.decisions:
        return None
    return (
        f"decided {dict(sorted(result.decisions.items()))}, but "
        f"{reference.algorithm} decided {dict(sorted(reference.decisions.items()))}"
    )


#: The registry of a differential check: the checked algorithm against the
#: space's reference, execution by execution.
REFERENCE_ORACLES: dict[str, PropertyOracle] = {
    "reference-decisions": PropertyOracle(
        "reference-decisions",
        "the reference algorithm decides the same values on the same execution",
        _always,
        _check_reference_decisions,
    ),
}
