"""Early-deciding synchronous k-set agreement (Section 8 of the paper).

The paper notes that its condition-based algorithm can be combined with the
early-deciding technique of Mostéfaoui–Rajsbaum–Raynal so that, with ``f``
actual crashes, no process needs more than ``min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)``
rounds (the bound of Gafni–Guerraoui–Pochon).  This module implements the
standard early-deciding FloodMin variant used as the reference point of
experiment E10:

* every process floods its current estimate (the smallest value seen) together
  with an ``early`` flag;
* at the end of a round, a process raises its ``early`` flag when it perceived
  fewer than ``k`` *new* failures during the round (the number of processes it
  heard from dropped by less than ``k``), or when some received message
  already carried the flag;
* a process whose flag was raised before the send phase of round ``r`` decides
  its estimate at round ``r`` (it has just re-broadcast the estimate, so the
  remaining processes inherit it);
* everybody decides at the unconditional deadline ``⌊t/k⌋ + 1`` anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..exceptions import InvalidParameterError
from ..sync.process import RoundBasedProcess, SynchronousAlgorithm

__all__ = ["EarlyDecidingKSetAgreement", "EarlyDecidingProcess", "EarlyMessage"]


@dataclass(frozen=True)
class EarlyMessage:
    """The payload flooded by the early-deciding algorithm."""

    estimate: Any
    early: bool


class EarlyDecidingKSetAgreement(SynchronousAlgorithm):
    """Early-deciding FloodMin: ``min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)`` rounds."""

    def __init__(self, t: int, k: int) -> None:
        if t < 0:
            raise InvalidParameterError(f"t must be >= 0, got {t}")
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self._t = t
        self._k = k

    @property
    def t(self) -> int:
        """Maximum number of crashes."""
        return self._t

    @property
    def k(self) -> int:
        """Coordination degree."""
        return self._k

    @property
    def name(self) -> str:
        return f"early-deciding {self._k}-set agreement (t={self._t})"

    def agreement_degree(self) -> int:
        return self._k

    def last_round(self) -> int:
        """The unconditional decision deadline ``⌊t/k⌋ + 1``."""
        return self._t // self._k + 1

    def early_bound(self, f: int) -> int:
        """The adaptive bound ``min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)`` for ``f`` actual crashes."""
        return min(f // self._k + 2, self.last_round())

    def max_rounds(self, n: int, t: int) -> int:
        return self.last_round()

    def create_process(self, process_id: int, n: int, t: int) -> "EarlyDecidingProcess":
        return EarlyDecidingProcess(process_id, n, self._t, self)


class EarlyDecidingProcess(RoundBasedProcess):
    """One early-deciding FloodMin process."""

    reusable = True

    def __init__(
        self, process_id: int, n: int, t: int, algorithm: EarlyDecidingKSetAgreement
    ) -> None:
        super().__init__(process_id, n, t)
        self._algorithm = algorithm
        self._estimate: Any = None
        self._early = False
        self._early_at_send = False
        self._previous_heard = n  # before round 1 every process is presumed alive

    @property
    def estimate(self) -> Any:
        """The smallest value seen so far."""
        return self._estimate

    @property
    def early(self) -> bool:
        """Whether the early-decision flag is raised."""
        return self._early

    def on_initialize(self, proposal: Any) -> None:
        self._estimate = proposal

    def on_reset(self) -> None:
        self._estimate = None
        self._early = False
        self._early_at_send = False
        self._previous_heard = self._n

    def message_for_round(self, round_number: int) -> EarlyMessage:
        self._early_at_send = self._early
        return EarlyMessage(estimate=self._estimate, early=self._early)

    def receive_round(self, round_number: int, messages: Mapping[int, EarlyMessage]) -> None:
        # A process whose flag was raised before this round's send phase has
        # already re-broadcast its (final) estimate: it can decide now.
        if self._early_at_send:
            self.decide(self._estimate, round_number)
            return

        estimates = [message.estimate for message in messages.values()]
        estimates.append(self._estimate)
        self._estimate = min(estimates)

        heard = len(messages)
        inherited_flag = any(message.early for message in messages.values())
        few_new_failures = (self._previous_heard - heard) < self._algorithm.k
        if inherited_flag or few_new_failures:
            self._early = True
        self._previous_heard = heard

        if round_number == self._algorithm.last_round():
            self.decide(self._estimate, round_number)
