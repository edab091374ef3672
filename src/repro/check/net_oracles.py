"""Message-passing property oracles, gated by failure-model applicability.

The net backend runs the same round-based algorithms as the synchronous one,
but under message-level failure models whose guarantees differ by *family*:
the paper's crash-model theorems (validity, k-agreement) are proved for
benign faults and say **nothing** under Byzantine value corruption, where a
corrupted channel can inject a proposal its receiver never saw proposed.
Each oracle therefore carries an applicability predicate over the checked
*failure-model family*, which it reads from the one
:class:`~repro.check.oracles.CheckContext` as ``context.space.adversary``, so
an exhaustive ``byzantine-corrupt`` check reports ``n/a`` for the crash-only
claims instead of fabricating a theorem the paper never made.

The registered oracles:

==================  ======================================================
name                claim (and when it applies)
==================  ======================================================
``net-validity``    every value decided by a non-faulty process was
                    proposed; applies to every family **except**
                    ``byzantine-corrupt`` (equivocation forwards another
                    process's genuine proposal, so decided ⊆ proposed still
                    holds vacuously — but the crash-model *claim* does not
                    transfer, and the gate documents that)
``net-agreement``   the non-faulty processes decide at most ``degree``
                    distinct values; same gate as ``net-validity``
``net-termination`` every non-faulty process decides within the round
                    bound (always applies — the net runtime has no
                    watchdog, so a never-deciding algorithm surfaces here
                    as a finding instead of an exception)
==================  ======================================================

Omission-faulty *victims* (the ``send-omission`` / ``receive-omission``
faulty sets) are excluded from the agreement and termination claims, exactly
as crashed processes are on the synchronous backend: the literature's
omission guarantees quantify over correct processes only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .oracles import CheckContext, PropertyOracle, _always

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import RunResult

__all__ = ["NET_ORACLES"]


def _applies_benign(context: CheckContext, result: "RunResult") -> bool:
    # The crash-model theorems transfer to the benign (omission/loss/delay)
    # models but claim nothing under value corruption.
    return context.space.adversary != "byzantine-corrupt"


def _check_validity(context: CheckContext, result: "RunResult") -> str | None:
    proposed = result.input_vector.val()
    if proposed.issuperset(result.decisions.values()):
        return None
    crashed = result.crashed
    for process_id, value in sorted(result.decisions.items()):
        if process_id not in crashed and value not in proposed:
            return (
                f"non-faulty process {process_id} decided {value!r}, "
                "which was never proposed"
            )
    return None


def _check_agreement(context: CheckContext, result: "RunResult") -> str | None:
    crashed = result.crashed
    decided = {value for pid, value in result.decisions.items() if pid not in crashed}
    if len(decided) > context.degree:
        return (
            f"{len(decided)} distinct values decided by non-faulty processes "
            f"({sorted(map(repr, decided))}), but the agreement degree is "
            f"{context.degree}"
        )
    return None


def _check_termination(context: CheckContext, result: "RunResult") -> str | None:
    if not result.terminated:
        undecided = sorted(result.correct_processes - set(result.decisions))
        return (
            f"non-faulty process(es) {undecided} never decided within the "
            f"{result.duration}-round bound under {context.space.adversary}"
        )
    return None


#: The net oracle registry, in evaluation (and report) order.
NET_ORACLES: dict[str, PropertyOracle] = {
    oracle.name: oracle
    for oracle in (
        PropertyOracle(
            "net-validity",
            "every value a non-faulty process decides was proposed "
            "(benign families only)",
            _applies_benign,
            _check_validity,
        ),
        PropertyOracle(
            "net-agreement",
            "non-faulty processes decide at most k distinct values "
            "(benign families only)",
            _applies_benign,
            _check_agreement,
        ),
        PropertyOracle(
            "net-termination",
            "every non-faulty process decides within the round bound",
            _always,
            _check_termination,
        ),
    )
}
