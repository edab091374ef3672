"""Asynchronous condition-based l-set agreement (Section 4 of the paper).

Section 4 observes that the condition-based asynchronous *consensus* algorithm
of Mostéfaoui–Rajsbaum–Raynal (JACM 2003), designed for ``x``-legal
conditions, "can easily be generalized to solve the l-set agreement problem in
asynchronous systems prone to x process crashes, when the input vector belongs
to an (x, l)-legal condition".  This module is that generalisation, on the
shared-memory substrate of :mod:`repro.asynchronous`:

1. process ``p_i`` writes its proposal into ``PROP[i]``;
2. it repeatedly takes snapshots of ``PROP`` until the snapshot ``J`` contains
   at least ``n − x`` proposals (it cannot wait for more: up to ``x``
   processes may have crashed before writing);
3. if ``P(J)`` holds (``J`` can be completed into a vector of the condition),
   the process announces and decides ``max(h_l(J))`` — by Definition 4 and
   Theorem 1 the decoded set is non-empty and contained in ``h_l(I)`` for the
   actual input vector ``I``, so at most ``l`` values can ever be decided this
   way;
4. otherwise the input vector is outside the condition and the process can
   only *help-wait*: it keeps alternating snapshots of the decision board and
   of ``PROP`` and adopts any announced decision.

Guarantees (matching the paper's claim):

* validity and l-agreement always hold;
* termination of every correct process is guaranteed whenever the input vector
  belongs to the condition and at most ``x`` processes crash;
* when the input vector is outside the condition the execution may block —
  this is unavoidable (l-set agreement is unsolvable with ``l <= x`` crashes
  when all inputs are allowed) and experiment E12 measures exactly this
  dichotomy.
"""

from __future__ import annotations

from typing import Any

from ..asynchronous.process import AsynchronousProcess
from ..asynchronous.scheduler import AsyncExecutionResult, AsynchronousScheduler
from ..asynchronous.shared_memory import SharedMemory
from ..core.conditions import ConditionOracle
from ..core.vectors import InputVector
from ..exceptions import InvalidParameterError
from random import Random

__all__ = [
    "AsyncConditionSetAgreementProcess",
    "run_async_condition_set_agreement",
]


class AsyncConditionSetAgreementProcess(AsynchronousProcess):
    """One process of the asynchronous condition-based l-set agreement."""

    _PHASE_WRITE = "write"
    _PHASE_SNAPSHOT = "snapshot"
    _PHASE_WAIT_DECISION = "wait-decision"

    def __init__(
        self,
        process_id: int,
        n: int,
        memory: SharedMemory,
        condition: ConditionOracle,
        x: int,
    ) -> None:
        super().__init__(process_id, n, memory)
        if not 0 <= x < n:
            raise InvalidParameterError(f"x must satisfy 0 <= x < n, got x={x}, n={n}")
        self._condition = condition
        self._x = x
        self._phase = self._PHASE_WRITE

    @property
    def x(self) -> int:
        """Maximum number of crashes tolerated by the condition."""
        return self._x

    @property
    def phase(self) -> str:
        """Current phase of the state machine (useful in tests)."""
        return self._phase

    def on_reset(self) -> None:
        # Batched execution reuses the process pool: back to the write phase.
        self._phase = self._PHASE_WRITE

    def local_state(self) -> str:
        # The phase is all a step reads besides the memory and the fixed
        # proposal, n, x and condition.
        return self._phase

    def execute_step(self) -> None:
        if self._phase == self._PHASE_WRITE:
            self.memory.write_proposal(self.process_id, self.proposal)
            self._phase = self._PHASE_SNAPSHOT
            return

        if self._phase == self._PHASE_SNAPSHOT:
            view = self.memory.snapshot_proposals()
            if view.non_bottom_count() < self.n - self._x:
                # Not enough proposals visible yet; retry (asynchronous wait).
                return
            if self._condition.is_compatible(view):
                value = self._condition.decode_max(view)
                self.memory.write_decision(self.process_id, value)
                self.decide(value)
                return
            # The input vector is provably outside the condition: fall back to
            # adopting a decision announced by a luckier / faster process.
            self._phase = self._PHASE_WAIT_DECISION
            return

        # Wait-decision phase: adopt any announced decision; otherwise keep
        # watching the proposal array (a later, larger snapshot may satisfy P).
        decisions = self.memory.snapshot_decisions()
        announced = decisions.val()
        if announced:
            value = max(announced)
            self.memory.write_decision(self.process_id, value)
            self.decide(value)
            return
        self._phase = self._PHASE_SNAPSHOT


def run_async_condition_set_agreement(
    condition: ConditionOracle,
    x: int,
    input_vector: InputVector,
    crashed: tuple[int, ...] = (),
    seed: Random | int | None = 0,
    max_steps_per_process: int = 200,
    adversary=None,
    crash_steps=None,
) -> AsyncExecutionResult:
    """Convenience harness: run one asynchronous execution end to end.

    Parameters mirror the model of Section 4: *x* is the crash-resilience
    of the condition, *crashed* lists the processes that never take a step
    (at most ``x`` of them for the termination guarantee to apply), and the
    seed selects the interleaving.  *adversary* picks a scheduling strategy
    (an :class:`~repro.asynchronous.adversary.AsyncAdversary` or a registry
    name; ``None`` keeps the seed-driven default) and *crash_steps* injects
    mid-execution crash points (``pid -> steps before vanishing``).

    One-shot construction: batches should go through
    :class:`~repro.asynchronous.executor.AsyncExecutor` (or the engine),
    which reuses the substrate across runs.
    """
    n = len(input_vector)
    memory = SharedMemory(n)
    processes = [
        AsyncConditionSetAgreementProcess(pid, n, memory, condition, x)
        for pid in range(n)
    ]
    scheduler = AsynchronousScheduler(
        seed=seed, max_steps_per_process=max_steps_per_process, adversary=adversary
    )
    return scheduler.run(
        processes, list(input_vector), crashed=crashed, crash_steps=crash_steps
    )
