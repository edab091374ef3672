"""Classical synchronous consensus baseline (FloodSet, ``t + 1`` rounds).

Consensus is 1-set agreement; this baseline floods the *set* of values seen so
far for ``t + 1`` rounds and decides a deterministic representative (the
minimum).  ``t + 1`` rounds are necessary and sufficient in the presence of up
to ``t`` crashes (Fischer–Lynch / Aguilera–Toueg), which is the bound the
condition-based consensus of experiment E9 improves on when the input vector
belongs to the condition.

Flooding the full value set (rather than a single estimate, as FloodMin does)
also lets the process detect *quiescence* when asked to: the
``early_stopping`` flag enables the classical early-decision rule — a process
raises a flag when two consecutive rounds deliver messages from exactly the
same senders (no failure can be hiding a value from it) or when a received
message already carries the flag, and it decides one round after raising it,
for a ``min(f + 2, t + 1)`` decision bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..exceptions import InvalidParameterError
from ..sync.process import RoundBasedProcess, SynchronousAlgorithm

__all__ = ["FloodSetConsensus", "FloodSetProcess", "FloodSetMessage"]


@dataclass(frozen=True)
class FloodSetMessage:
    """The payload flooded by FloodSet: the known values and the early flag."""

    values: frozenset[Any]
    early: bool = False


class FloodSetConsensus(SynchronousAlgorithm):
    """FloodSet consensus: ``t + 1`` rounds (or ``min(f + 2, t + 1)`` with early stopping)."""

    def __init__(self, t: int, early_stopping: bool = False) -> None:
        if t < 0:
            raise InvalidParameterError(f"t must be >= 0, got {t}")
        self._t = t
        self._early_stopping = early_stopping

    @property
    def t(self) -> int:
        """Maximum number of crashes."""
        return self._t

    @property
    def early_stopping(self) -> bool:
        """Whether the early-stopping rule is enabled."""
        return self._early_stopping

    @property
    def name(self) -> str:
        suffix = " (early stopping)" if self._early_stopping else ""
        return f"FloodSet consensus (t={self._t}){suffix}"

    def agreement_degree(self) -> int:
        return 1

    def decision_round(self) -> int:
        """The unconditional decision round ``t + 1``."""
        return self._t + 1

    def max_rounds(self, n: int, t: int) -> int:
        return self.decision_round()

    def create_process(self, process_id: int, n: int, t: int) -> "FloodSetProcess":
        return FloodSetProcess(process_id, n, self._t, self)


class FloodSetProcess(RoundBasedProcess):
    """One FloodSet process: flood the set of seen values, decide its minimum."""

    reusable = True

    def __init__(self, process_id: int, n: int, t: int, algorithm: FloodSetConsensus) -> None:
        super().__init__(process_id, n, t)
        self._algorithm = algorithm
        self._values: frozenset[Any] = frozenset()
        # Before round 1 every process is presumed alive, so a full first round
        # already counts as quiescent (this is what gives f + 2 and not f + 3).
        self._previous_senders: frozenset[int] | None = frozenset(range(n))
        self._early = False
        self._early_at_send = False

    @property
    def known_values(self) -> frozenset[Any]:
        """The set of proposed values the process has heard of."""
        return self._values

    @property
    def early(self) -> bool:
        """Whether the early-decision flag has been raised."""
        return self._early

    def on_initialize(self, proposal: Any) -> None:
        self._values = frozenset([proposal])

    def on_reset(self) -> None:
        self._values = frozenset()
        self._previous_senders = frozenset(range(self._n))
        self._early = False
        self._early_at_send = False

    def message_for_round(self, round_number: int) -> FloodSetMessage:
        self._early_at_send = self._early
        return FloodSetMessage(values=self._values, early=self._early)

    def receive_round(self, round_number: int, messages: Mapping[int, Any]) -> None:
        # A process whose flag was raised before this round's send has already
        # re-broadcast its (final) value set: it can decide now.
        if self._early_at_send:
            self.decide(min(self._values), round_number)
            return

        merged = set(self._values)
        for message in messages.values():
            merged.update(message.values)
        self._values = frozenset(merged)

        if round_number == self._algorithm.decision_round():
            self.decide(min(self._values), round_number)
            return

        if self._algorithm.early_stopping:
            senders = frozenset(messages)
            inherited = any(message.early for message in messages.values())
            quiescent = (
                self._previous_senders is not None and senders == self._previous_senders
            )
            if inherited or quiescent:
                # Either no failure was hidden between the last two rounds, or a
                # peer already concluded so: the flooded set is final and will be
                # decided right after being re-broadcast in the next round.
                self._early = True
            self._previous_senders = senders
