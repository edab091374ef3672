"""The generic condition-based synchronous k-set agreement algorithm (Figure 2).

The algorithm is instantiated with a condition ``C ∈ S^d_t[l]`` — i.e. a
``(t − d, l)``-legal condition — and solves k-set agreement among ``n``
processes of which at most ``t`` may crash, provided ``l <= k`` (otherwise the
condition encodes more values than the agreement allows).

Behaviour, as proved in Section 7 of the paper (Theorems 10–12):

* **Validity** — a decided value is a proposed value.
* **Agreement** — at most ``k`` distinct values are decided.
* **Termination / round complexity** —
  - input vector in ``C`` and at most ``t − d`` crashes during round 1:
    every process decides by round **2**;
  - input vector in ``C`` otherwise: every process decides by round
    ``⌊(d + l − 1)/k⌋ + 1``;
  - input vector outside ``C``: every process decides by round
    ``⌊t/k⌋ + 1`` (and by ``⌊(d + l − 1)/k⌋ + 1`` if more than ``t − d``
    processes crashed initially).

Round 1 (the *condition round*) uses the ordered send phase of the model: the
views obtained by the processes are ordered by containment, and each process
classifies its view ``V_i``:

* ``#_⊥(V_i) <= t − d`` and ``P(V_i)`` → the view may come from a vector of
  the condition: ``v_cond ← max(h_l(V_i))`` (the decoded value);
* ``#_⊥(V_i) <= t − d`` and ``¬P(V_i)`` → the input vector is certainly
  outside the condition: ``v_out ← max(V_i)``;
* ``#_⊥(V_i) > t − d`` → too many failures to tell (*tmf*):
  ``v_tmf ← max(V_i)``.

The later rounds flood the state triple ``(v_cond, v_tmf, v_out)`` and reduce
each class with ``max``; decisions follow the priority
``v_cond > v_tmf > v_out`` at the two deadline rounds (or immediately, one
round after ``v_cond`` becomes known).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..core.conditions import ConditionOracle
from ..core.hierarchy import rounds_in_condition, rounds_outside_condition
from ..core.values import BOTTOM, is_bottom
from ..core.vectors import View
from ..exceptions import InvalidParameterError
from ..sync.process import RoundBasedProcess, SynchronousAlgorithm

__all__ = ["ConditionBasedKSetAgreement", "ConditionKSetProcess", "StateTriple"]


@dataclass(frozen=True)
class StateTriple:
    """The agreement state ``(v_cond, v_tmf, v_out)`` flooded from round 2 on."""

    v_cond: Any = BOTTOM
    v_tmf: Any = BOTTOM
    v_out: Any = BOTTOM

    def priority_value(self) -> Any:
        """The value this state would decide, following the paper's priority."""
        if not is_bottom(self.v_cond):
            return self.v_cond
        if not is_bottom(self.v_tmf):
            return self.v_tmf
        return self.v_out

    def is_blank(self) -> bool:
        """``True`` when none of the three components carries a value."""
        return (
            is_bottom(self.v_cond) and is_bottom(self.v_tmf) and is_bottom(self.v_out)
        )


class ConditionBasedKSetAgreement(SynchronousAlgorithm):
    """Factory of Figure 2 processes.

    Parameters
    ----------
    condition:
        The condition oracle ``C``; its degree ``l`` is read from
        ``condition.ell``.  It must be ``(t − d, l)``-legal for the round
        bounds (and, when the input vector belongs to it, the fast decisions)
        to be meaningful; the algorithm does not re-verify legality.
    t:
        Maximum number of crashes.
    d:
        The degree of the condition (``x = t − d``).
    k:
        The coordination degree of the set agreement instance (at most ``k``
        distinct decided values).
    enforce_requirements:
        When ``True`` (default) the constructor enforces the paper's usage
        requirements ``l <= k`` and ``l <= t − d``.  Setting it to ``False``
        relaxes the second requirement only (``l <= k`` is always needed for
        agreement); this is how the classical ``d = t`` special case of the
        abstract is exercised, at the price of losing any condition speed-up.
    """

    def __init__(
        self,
        condition: ConditionOracle,
        t: int,
        d: int,
        k: int,
        enforce_requirements: bool = True,
    ) -> None:
        if t < 0:
            raise InvalidParameterError(f"t must be >= 0, got {t}")
        if not 0 <= d <= t:
            raise InvalidParameterError(f"the degree d must satisfy 0 <= d <= t, got d={d}, t={t}")
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        ell = condition.ell
        if ell > k:
            raise InvalidParameterError(
                f"the condition degree l={ell} exceeds k={k}: the condition may encode "
                "more values than k-set agreement allows (Section 6.1)"
            )
        if enforce_requirements and ell > t - d:
            raise InvalidParameterError(
                f"Section 6.1 requires l <= t − d (got l={ell}, t−d={t - d}); "
                "pass enforce_requirements=False to run the degenerate case anyway"
            )
        self._condition = condition
        self._t = t
        self._d = d
        self._k = k
        self._ell = ell

    # -- parameters -----------------------------------------------------------
    @property
    def condition(self) -> ConditionOracle:
        """The condition the algorithm is instantiated with."""
        return self._condition

    @property
    def t(self) -> int:
        """Maximum number of crashes."""
        return self._t

    @property
    def d(self) -> int:
        """Degree of the condition (``x = t − d``)."""
        return self._d

    @property
    def k(self) -> int:
        """Coordination degree of the agreement."""
        return self._k

    @property
    def ell(self) -> int:
        """Degree ``l`` of the condition's recognizing function."""
        return self._ell

    @property
    def x(self) -> int:
        """The legality parameter ``x = t − d`` used by the round-1 thresholds."""
        return self._t - self._d

    @property
    def name(self) -> str:
        return (
            f"condition-based {self._k}-set agreement "
            f"(d={self._d}, l={self._ell}, t={self._t})"
        )

    def agreement_degree(self) -> int:
        return self._k

    # -- round bounds -----------------------------------------------------------
    def condition_decision_round(self) -> int:
        """``⌊(d + l − 1)/k⌋ + 1`` (never below 2, never beyond the last round)."""
        return min(
            rounds_in_condition(self._d, self._ell, self._k),
            self.last_round(),
        )

    def last_round(self) -> int:
        """``⌊t/k⌋ + 1`` (never below 2): the unconditional deadline."""
        return rounds_outside_condition(self._t, self._k)

    def max_rounds(self, n: int, t: int) -> int:
        return self.last_round()

    # -- factory -----------------------------------------------------------------
    def create_process(self, process_id: int, n: int, t: int) -> "ConditionKSetProcess":
        if t != self._t:
            raise InvalidParameterError(
                f"the algorithm was configured for t={self._t} but the system uses t={t}"
            )
        return ConditionKSetProcess(
            process_id=process_id,
            n=n,
            algorithm=self,
        )


#: The state of a process before round 1 (triples are immutable).
_BLANK = StateTriple()


class ConditionKSetProcess(RoundBasedProcess):
    """One process executing the algorithm of Figure 2."""

    reusable = True

    def __init__(self, process_id: int, n: int, algorithm: ConditionBasedKSetAgreement) -> None:
        super().__init__(process_id, n, algorithm.t)
        self._algorithm = algorithm
        self._state = _BLANK
        #: Snapshot of the state at the latest send phase (needed by line 14:
        #: a process decides the value it has just *sent*, before reading).
        self._state_at_send = _BLANK
        self._view: View | None = None

    def on_reset(self) -> None:
        self._state = _BLANK
        self._state_at_send = _BLANK
        self._view = None

    # -- accessors used by tests ------------------------------------------------
    @property
    def state(self) -> StateTriple:
        """The current ``(v_cond, v_tmf, v_out)`` triple."""
        return self._state

    @property
    def view(self) -> View | None:
        """The round-1 view ``V_i`` of the input vector (``None`` before round 1)."""
        return self._view

    # -- protocol -----------------------------------------------------------------
    def message_for_round(self, round_number: int) -> Any:
        if round_number == 1:
            # Line 4: send the proposed value (ordered delivery is enforced by
            # the engine through the prefix rule of round-1 crash events).
            return self.proposal
        # Line 13: send the current state triple.
        self._state_at_send = self._state
        return self._state

    def receive_round(self, round_number: int, messages: Mapping[int, Any]) -> None:
        if round_number == 1:
            self._first_round(messages)
            return
        self._later_round(round_number, messages)

    # -- round 1 (lines 4–9) --------------------------------------------------------
    def _first_round(self, messages: Mapping[int, Any]) -> None:
        entries = [BOTTOM] * self.n
        entries[self.process_id] = self.proposal  # V_i[i] ← v_i (line 1)
        for sender, value in messages.items():
            entries[sender] = value
        view = View(entries)
        self._view = view

        threshold = self._algorithm.x  # t − d
        bottoms = view.bottom_count()
        condition = self._algorithm.condition
        if bottoms <= threshold:
            if condition.is_compatible(view):
                decoded_max = condition.decode_max(view)  # max(h_l(V_i)), line 6
                self._state = StateTriple(v_cond=decoded_max)
            else:
                self._state = StateTriple(v_out=view.max_value())  # line 7
        else:
            self._state = StateTriple(v_tmf=view.max_value())  # line 8

    # -- rounds >= 2 (lines 13–22) ----------------------------------------------------
    def _later_round(self, round_number: int, messages: Mapping[int, Any]) -> None:
        # Line 14: if the state sent this round already carried a condition
        # value, decide it immediately (without reading the received states).
        if not is_bottom(self._state_at_send.v_cond):
            self.decide(self._state_at_send.v_cond, round_number)
            return

        # Lines 15–17: reduce each class of values with max (⊥ < any value).
        received_states = list(messages.values())
        received_states.append(self._state)  # a process always hears itself
        v_cond = max((state.v_cond for state in received_states), default=BOTTOM)
        v_tmf = max((state.v_tmf for state in received_states), default=BOTTOM)
        v_out = max((state.v_out for state in received_states), default=BOTTOM)
        self._state = StateTriple(v_cond=v_cond, v_tmf=v_tmf, v_out=v_out)

        # Lines 18–22: decision deadlines.
        condition_round = self._algorithm.condition_decision_round()
        last_round = self._algorithm.last_round()
        early_deadline = (
            round_number == condition_round
            and not is_bottom(v_tmf)
            and is_bottom(v_out)
        )
        if early_deadline or round_number == last_round:
            if not is_bottom(v_cond):
                self.decide(v_cond, round_number)
            elif not is_bottom(v_tmf):
                self.decide(v_tmf, round_number)
            else:
                self.decide(v_out, round_number)
