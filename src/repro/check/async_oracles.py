"""Asynchronous property oracles: one predicate per Section 4 claim.

The synchronous oracles of :mod:`repro.check.oracles` speak in rounds; these
speak in atomic steps over the shared-memory model.  Each oracle inspects one
normalized :class:`~repro.api.RunResult` produced on the asynchronous backend
and either passes or returns a human-readable violation detail; an
applicability predicate keeps the same oracle set evaluable over every
execution of the bounded-interleaving check.  They take the same
:class:`~repro.check.oracles.CheckContext` as every other oracle, and read
the crash resilience ``x = t − d`` as ``context.spec.x``.

The registered oracles:

=================================  ==================================================
name                               claim (and when it applies)
=================================  ==================================================
``async-validity``                 every decided value was proposed (always applies)
``async-agreement``                at most ``l`` distinct values are decided, where
                                   ``l`` is the agreement degree of the Section 4
                                   algorithm (always applies)
``async-termination-in-condition`` every live process decides within its step
                                   budget; applies when the input vector belongs to
                                   the condition and at most ``x`` processes crash —
                                   the Section 4 guarantee ("termination within
                                   budget iff the input is in the condition": the
                                   converse direction is not a theorem, an
                                   outside-condition run may still decide when a
                                   partial snapshot is completable into ``C``, so
                                   only this direction is checkable per execution)
``async-step-budget``              no process is granted more steps than the
                                   per-process budget, and no crashed process steps
                                   past its crash point; applies whenever the
                                   backend-native result is available (always, for
                                   engine-produced runs)
=================================  ==================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..asynchronous.scheduler import AsyncExecutionResult
# Validity and agreement read no rounds: the synchronous predicates serve.
from .oracles import (
    CheckContext,
    PropertyOracle,
    _always,
    _check_agreement,
    _check_validity,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import RunResult

__all__ = ["ASYNC_ORACLES"]


def _applies_termination(context: CheckContext, result: "RunResult") -> bool:
    return result.in_condition is True and len(result.crashed) <= context.spec.x


def _check_termination(context: CheckContext, result: "RunResult") -> str | None:
    if not result.terminated:
        undecided = sorted(result.correct_processes - set(result.decisions))
        return (
            f"in-condition input with {len(result.crashed)} <= x = {context.spec.x} "
            f"crashes did not terminate within the step budget; live "
            f"process(es) {undecided} never decided"
        )
    return None


def _applies_step_budget(context: CheckContext, result: "RunResult") -> bool:
    return isinstance(result.raw, AsyncExecutionResult)


def _check_step_budget(context: CheckContext, result: "RunResult") -> str | None:
    raw: AsyncExecutionResult = result.raw
    budget = context.max_steps_per_process
    for pid, steps in sorted(raw.steps_by_process.items()):
        if steps > budget:
            return (
                f"process {pid} was granted {steps} steps, beyond the "
                f"per-process budget of {budget}"
            )
        crash_point = raw.crash_steps.get(pid)
        if crash_point is not None and steps > crash_point:
            return (
                f"process {pid} took {steps} steps past its crash point "
                f"of {crash_point}"
            )
    return None


#: The asynchronous oracle registry, in evaluation (and report) order.
ASYNC_ORACLES: dict[str, PropertyOracle] = {
    oracle.name: oracle
    for oracle in (
        PropertyOracle(
            "async-validity",
            "every decided value was proposed",
            _always,
            _check_validity,
        ),
        PropertyOracle(
            "async-agreement",
            "at most l distinct values are decided",
            _always,
            _check_agreement,
        ),
        PropertyOracle(
            "async-termination-in-condition",
            "in-condition inputs with <= x crashes terminate within the budget",
            _applies_termination,
            _check_termination,
        ),
        PropertyOracle(
            "async-step-budget",
            "no process exceeds its step budget or steps past its crash point",
            _applies_step_budget,
            _check_step_budget,
        ),
    )
}
