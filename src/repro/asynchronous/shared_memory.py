"""Asynchronous shared-memory substrate: atomic registers and snapshots.

Section 4 of the paper discusses conditions in *asynchronous* systems; the
reference algorithms of the condition-based literature (Mostéfaoui, Rajsbaum,
Raynal, JACM 2003) are written for a shared memory made of single-writer /
multi-reader atomic registers augmented with an atomic *snapshot* operation
(Afek et al., JACM 1993 — snapshots are wait-free implementable from
read/write registers, so assuming them costs no computational power).

The simulation keeps the memory in one Python object and serialises the
processes' steps through the scheduler of :mod:`repro.asynchronous.scheduler`,
so every ``write``/``snapshot`` is trivially linearizable: the linearization
order is the scheduler's step order.

A snapshot is an immutable :class:`~repro.core.vectors.View`, so the memory
hands out the same one for an array until that array's next write: repeated
snapshots of an unchanged array (a process waiting for proposals or for a
decision) share one view and its cached counts and hash, and only the
snapshot counter moves.  :meth:`SharedMemory.fast_forward` moves that counter
for snapshot steps the scheduler proved repeat and skipped.
"""

from __future__ import annotations

from typing import Any

from ..core.values import BOTTOM, is_bottom
from ..core.vectors import View
from ..exceptions import InvalidParameterError, SimulationError

__all__ = ["SharedMemory"]


class SharedMemory:
    """The shared objects used by the asynchronous algorithms.

    It exposes two single-writer arrays of ``n`` atomic registers:

    * ``PROP[i]`` — process ``i`` writes its proposal there;
    * ``DEC[i]``  — process ``i`` announces its decision there (the "helping"
      board that lets slow processes adopt an existing decision).

    and the corresponding snapshot operations.  Operation counters are kept so
    experiments can report step complexities.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise InvalidParameterError(f"the shared memory needs n >= 1, got {n}")
        self._n = n
        self._proposals: list[Any] = [BOTTOM] * n
        self._decisions: list[Any] = [BOTTOM] * n
        # The snapshot of each array, kept until that array's next write.
        self._proposal_view: View | None = None
        self._decision_view: View | None = None
        self._write_count = 0
        self._snapshot_count = 0

    @property
    def n(self) -> int:
        """Number of processes (and of registers per array)."""
        return self._n

    def reset(self) -> None:
        """Return every register to ⊥ and zero the operation counters.

        The batched executor reuses one memory across the runs of a batch
        instead of allocating ``2n`` fresh registers per run; a reset memory
        is indistinguishable from a newly constructed one.
        """
        for index in range(self._n):
            self._proposals[index] = BOTTOM
            self._decisions[index] = BOTTOM
        self._proposal_view = None
        self._decision_view = None
        self._write_count = 0
        self._snapshot_count = 0

    @property
    def write_count(self) -> int:
        """Total number of register writes performed so far."""
        return self._write_count

    @property
    def snapshot_count(self) -> int:
        """Total number of snapshot operations performed so far."""
        return self._snapshot_count

    def fast_forward(self, snapshots: int) -> None:
        """Count *snapshots* snapshots of skipped steps without taking them.

        The scheduler calls this when it skips repeats of a cycle of steps
        that wrote nothing, so :attr:`snapshot_count` ends as it would have.
        """
        self._snapshot_count += snapshots

    # -- proposal registers ------------------------------------------------
    def write_proposal(self, process_id: int, value: Any) -> None:
        """``PROP[process_id] ← value`` (single-writer register)."""
        self._check_pid(process_id)
        if is_bottom(value):
            raise SimulationError("a process cannot propose the ⊥ placeholder")
        self._proposals[process_id] = value
        self._proposal_view = None
        self._write_count += 1

    def snapshot_proposals(self) -> View:
        """An atomic snapshot of the proposal array, as a :class:`View`."""
        self._snapshot_count += 1
        if self._proposal_view is None:
            self._proposal_view = View(self._proposals)
        return self._proposal_view

    # -- decision registers --------------------------------------------------
    def write_decision(self, process_id: int, value: Any) -> None:
        """``DEC[process_id] ← value``: announce a decision to help the others."""
        self._check_pid(process_id)
        if is_bottom(value):
            raise SimulationError("a process cannot announce the ⊥ placeholder")
        self._decisions[process_id] = value
        self._decision_view = None
        self._write_count += 1

    def snapshot_decisions(self) -> View:
        """An atomic snapshot of the decision board."""
        self._snapshot_count += 1
        if self._decision_view is None:
            self._decision_view = View(self._decisions)
        return self._decision_view

    def registers(self) -> tuple[Any, ...]:
        """Every register as it stands, ``PROP[0..n-1]`` then ``DEC[0..n-1]``
        (no snapshot counted, no view built)."""
        return (*self._proposals, *self._decisions)

    def announced_decisions(self) -> frozenset[Any]:
        """The set of decisions currently visible on the board (no step counted)."""
        return frozenset(value for value in self._decisions if not is_bottom(value))

    # -- internals -------------------------------------------------------------
    def _check_pid(self, process_id: int) -> None:
        if not 0 <= process_id < self._n:
            raise SimulationError(
                f"process id {process_id} outside [0, {self._n}) for this memory"
            )
