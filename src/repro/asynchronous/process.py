"""Process interface for the asynchronous shared-memory substrate.

An asynchronous process is a state machine advanced one *atomic step* at a
time by the scheduler; each step performs at most one shared-memory operation.
There is no bound on the relative speeds of the processes (the scheduler picks
any interleaving), which is exactly the asynchrony assumption of Section 4.

A process may also describe its local state through :meth:`local_state`: a
hashable value covering everything its steps read besides the shared memory
and the step count.  The scheduler compares these values to find cycles of
steps that repeat over an unchanged memory, and skips their repeats, crediting
them through :meth:`AsynchronousProcess.fast_forward`.  The default ``None``
keeps every step of the run executed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable
from typing import Any

from ..exceptions import ProtocolStateError
from .shared_memory import SharedMemory

__all__ = ["AsynchronousProcess"]


class AsynchronousProcess(ABC):
    """One process of an asynchronous shared-memory algorithm."""

    def __init__(self, process_id: int, n: int, memory: SharedMemory) -> None:
        if not 0 <= process_id < n:
            raise ProtocolStateError(
                f"process id {process_id} outside [0, {n}) for a {n}-process system"
            )
        self._process_id = process_id
        self._n = n
        self._memory = memory
        self._proposal: Any = None
        self._decision: Any = None
        self._decided = False
        self._steps_taken = 0

    # -- identity --------------------------------------------------------------
    @property
    def process_id(self) -> int:
        """The 0-based process identifier."""
        return self._process_id

    @property
    def n(self) -> int:
        """The number of processes."""
        return self._n

    @property
    def memory(self) -> SharedMemory:
        """The shared memory the process operates on."""
        return self._memory

    @property
    def proposal(self) -> Any:
        """The value proposed by this process."""
        return self._proposal

    @property
    def steps_taken(self) -> int:
        """Number of atomic steps the scheduler has granted this process."""
        return self._steps_taken

    # -- lifecycle ----------------------------------------------------------------
    def initialize(self, proposal: Any) -> None:
        """Install the proposed value before the first step."""
        self._proposal = proposal
        self.on_initialize(proposal)

    def on_initialize(self, proposal: Any) -> None:
        """Hook for subclasses."""

    def reset(self) -> None:
        """Return the process to its pre-initialize state (batched execution).

        The batched executor of :mod:`repro.asynchronous.executor` reuses one
        process pool across the runs of a batch instead of reallocating it
        per run; :meth:`reset` clears the per-execution state (proposal,
        decision, step count) and gives subclasses the :meth:`on_reset` hook
        for their own per-execution state (a phase, say).
        """
        self._proposal = None
        self._decision = None
        self._decided = False
        self._steps_taken = 0
        self.on_reset()

    def on_reset(self) -> None:
        """Hook for subclasses: clear algorithm-specific per-execution state."""

    def step(self) -> None:
        """Execute one atomic step (called by the scheduler)."""
        if self._decided:
            raise ProtocolStateError(
                f"process {self._process_id} was scheduled after deciding"
            )
        self._steps_taken += 1
        self.execute_step()

    @abstractmethod
    def execute_step(self) -> None:
        """One atomic step of the algorithm (at most one shared-memory operation)."""

    def local_state(self) -> Hashable | None:
        """Everything :meth:`execute_step` reads except the memory and the step count.

        Two equal values must mean that, over the same shared memory, the
        process takes the same next steps; what stays fixed for a whole
        execution (the proposal, ``n``) may be left out.  The scheduler
        fast-forwards a rotation adversary's repeating cycles by comparing
        these values (see :mod:`repro.asynchronous.scheduler`).  ``None``,
        the default, turns that off for the run: a process whose steps read
        :attr:`steps_taken`, or state it does not describe, keeps it.
        """
        return None

    def fast_forward(self, steps: int) -> None:
        """Count *steps* skipped atomic steps without executing them.

        Only the scheduler calls this, for steps of a cycle it proved would
        repeat with :meth:`local_state` unchanged and no decision.
        """
        self._steps_taken += steps

    # -- decision ---------------------------------------------------------------------
    def decide(self, value: Any) -> None:
        """Record the decision and stop (the scheduler will not schedule the process again)."""
        if self._decided:
            raise ProtocolStateError(
                f"process {self._process_id} attempted to decide twice"
            )
        self._decision = value
        self._decided = True

    def has_decided(self) -> bool:
        """``True`` once the process decided."""
        return self._decided

    @property
    def decision(self) -> Any:
        """The decided value (``None`` until decided)."""
        return self._decision

    def __repr__(self) -> str:
        state = "decided" if self._decided else "running"
        return f"{type(self).__name__}(id={self._process_id}, {state})"
