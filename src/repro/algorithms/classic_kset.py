"""Classical synchronous k-set agreement baseline (FloodMin).

This is the algorithm the paper's Figure 2 generalises (its ``d = t, l = 1``
special case): every process repeatedly broadcasts the smallest value it has
seen and decides it after ``⌊t/k⌋ + 1`` rounds.  With at most ``t`` crashes at
most ``k`` distinct values survive — the classical bound of Chaudhuri, Herlihy,
Lynch and Tuttle, which is also the lower bound, so this baseline is
round-optimal among condition-free algorithms.

The baseline serves two purposes in the reproduction:

* it is the comparison point of experiment E8 (the "dividing power" of
  conditions: how many rounds the condition-based algorithm saves);
* it validates the synchronous substrate independently of the condition
  machinery.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..exceptions import InvalidParameterError
from ..sync.process import RoundBasedProcess, SynchronousAlgorithm

__all__ = ["FloodMinKSetAgreement", "FloodMinProcess"]


class FloodMinKSetAgreement(SynchronousAlgorithm):
    """FloodMin: ``⌊t/k⌋ + 1`` rounds, at most ``k`` decided values.

    Parameters
    ----------
    t:
        Maximum number of crashes.
    k:
        Coordination degree (``k = 1`` gives the classical FloodSet consensus
        round count ``t + 1``).
    """

    def __init__(self, t: int, k: int) -> None:
        if t < 0:
            raise InvalidParameterError(f"t must be >= 0, got {t}")
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self._t = t
        self._k = k
        #: decision_round(), a subclass's override included, computed once.
        self._deciding_round = self.decision_round()

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
        return f"FloodMin {self._k}-set agreement (t={self._t})"

    def agreement_degree(self) -> int:
        return self._k

    def decision_round(self) -> int:
        """The unconditional decision round ``⌊t/k⌋ + 1``."""
        return self._t // self._k + 1

    def max_rounds(self, n: int, t: int) -> int:
        return self.decision_round()

    def create_process(self, process_id: int, n: int, t: int) -> "FloodMinProcess":
        return FloodMinProcess(process_id, n, self._t, self)


class FloodMinProcess(RoundBasedProcess):
    """One FloodMin process: broadcast the current estimate, keep the minimum."""

    reusable = True

    def __init__(self, process_id: int, n: int, t: int, algorithm: FloodMinKSetAgreement) -> None:
        super().__init__(process_id, n, t)
        self._algorithm = algorithm
        self._estimate: Any = None

    @property
    def estimate(self) -> Any:
        """The smallest value seen so far."""
        return self._estimate

    def on_initialize(self, proposal: Any) -> None:
        self._estimate = proposal

    def on_reset(self) -> None:
        self._estimate = None

    def message_for_round(self, round_number: int) -> Any:
        return self._estimate

    def receive_round(self, round_number: int, messages: Mapping[int, Any]) -> None:
        # The inbox holds the process's own message, so it is never empty.
        self._estimate = min(min(messages.values()), self._estimate)
        if round_number == self._algorithm._deciding_round:
            self.decide(self._estimate, round_number)
