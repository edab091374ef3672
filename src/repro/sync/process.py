"""Process and algorithm interfaces for the synchronous substrate.

The simulator drives objects implementing :class:`RoundBasedProcess`; an
algorithm (e.g. the Figure 2 condition-based k-set agreement) is a factory of
such processes implementing :class:`SynchronousAlgorithm`.

Lifecycle of a process, per round ``r = 1, 2, ...``:

1. the engine calls :meth:`RoundBasedProcess.message_for_round` and
   broadcasts the returned payload to every process (subject to the crash
   schedule — a crashing sender only reaches a prefix/subset of receivers);
2. the engine collects the messages addressed to the process and calls
   :meth:`RoundBasedProcess.receive_round` (the paper's receive + computation
   phases);
3. after the computation phase, the engine reads :meth:`decision` and
   :meth:`has_halted` to record decisions and stop simulating processes that
   returned from the algorithm.

A process that crashes in round ``r`` neither computes in round ``r`` nor
takes any later step, exactly as in the paper's failure model.

A process class may declare :attr:`RoundBasedProcess.reusable`: then a
system builds its processes once and, before every later run,
:meth:`~RoundBasedProcess.reset` returns each one to the state of a fresh
process.  The declaration holds for the exact class that makes it, so a
subclass with state of its own is built fresh for every run until it
declares it too.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Mapping

from ..exceptions import ProtocolStateError

__all__ = ["RoundBasedProcess", "SynchronousAlgorithm"]


class RoundBasedProcess(ABC):
    """One process of a synchronous round-based algorithm.

    Subclasses implement the two phase hooks; the bookkeeping of the decided
    value and of the halted state is shared here so the engine can interrogate
    any algorithm uniformly.

    :attr:`reusable` declares that :meth:`reset` gives a process equal to a
    fresh one, attribute for attribute: :meth:`on_reset` restores every
    per-run field the subclass adds.  A system then reuses the processes it
    built for its first run.  Only the class body that sets it counts; every
    other class reads ``False`` and is built fresh for each run, which is
    always safe.
    """

    #: Whether :meth:`reset` restores a fresh process (see above).
    reusable: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass may add per-run state its parent's on_reset() misses.
        if "reusable" not in cls.__dict__:
            cls.reusable = False

    def __init__(self, process_id: int, n: int, t: int) -> None:
        if not 0 <= process_id < n:
            raise ProtocolStateError(
                f"process id {process_id} outside [0, {n}) for a {n}-process system"
            )
        self._process_id = process_id
        self._n = n
        self._t = t
        self._proposal: Any = None
        self._decision: Any = None
        self._decided = False
        self._decision_round: int | None = None
        self._halted = False

    # -- identity -----------------------------------------------------------
    @property
    def process_id(self) -> int:
        """The 0-based identifier of the process (``p_{i+1}`` in the paper)."""
        return self._process_id

    @property
    def n(self) -> int:
        """The total number of processes."""
        return self._n

    @property
    def t(self) -> int:
        """The maximum number of processes that may crash."""
        return self._t

    @property
    def proposal(self) -> Any:
        """The value proposed by this process."""
        return self._proposal

    # -- lifecycle ------------------------------------------------------------
    def initialize(self, proposal: Any) -> None:
        """Install the proposed value before round 1."""
        self._proposal = proposal
        self.on_initialize(proposal)

    def on_initialize(self, proposal: Any) -> None:
        """Hook for subclasses; default does nothing beyond storing the proposal."""

    def reset(self) -> None:
        """Return the process to the state it had when it was built.

        Clears the proposal, the decision and the halted flag, then calls
        :meth:`on_reset` for the subclass's own per-run fields.  Every field
        is assigned by name: a process's attributes are never reached
        through ``vars()``, which would keep CPython from storing them
        inline and slow every later attribute access.
        """
        self._proposal = None
        self._decision = None
        self._decided = False
        self._decision_round = None
        self._halted = False
        self.on_reset()

    def on_reset(self) -> None:
        """Hook for subclasses: restore every per-run field set in ``__init__``."""

    @abstractmethod
    def message_for_round(self, round_number: int) -> Any:
        """The payload broadcast by the process during *round_number*'s send phase."""

    @abstractmethod
    def receive_round(self, round_number: int, messages: Mapping[int, Any]) -> None:
        """Receive + computation phases of *round_number*.

        *messages* maps sender id to payload and always includes the process's
        own message (a process hears itself, as assumed by the algorithm of
        Figure 2 at lines 15–17).
        """

    # -- decision bookkeeping ---------------------------------------------------
    def decide(self, value: Any, round_number: int, halt: bool = True) -> None:
        """Record the decision *value* taken during *round_number*.

        A second decision is rejected: the agreement algorithms decide at most
        once (the ``return`` statements of Figure 2).
        """
        if self._decided:
            raise ProtocolStateError(
                f"process {self._process_id} attempted to decide twice "
                f"({self._decision!r} then {value!r})"
            )
        self._decision = value
        self._decided = True
        self._decision_round = round_number
        if halt:
            self._halted = True

    def has_decided(self) -> bool:
        """``True`` once the process executed its ``return`` statement."""
        return self._decided

    @property
    def decision(self) -> Any:
        """The decided value (``None`` until :meth:`has_decided`)."""
        return self._decision

    @property
    def decision_round(self) -> int | None:
        """The round during which the process decided."""
        return self._decision_round

    def halt(self) -> None:
        """Stop participating in future rounds (without necessarily deciding)."""
        self._halted = True

    def has_halted(self) -> bool:
        """``True`` when the process takes no further step (returned from the algorithm)."""
        return self._halted

    def __repr__(self) -> str:
        state = "decided" if self._decided else ("halted" if self._halted else "running")
        return f"{type(self).__name__}(id={self._process_id}, {state})"


class SynchronousAlgorithm(ABC):
    """Factory of :class:`RoundBasedProcess` instances for one algorithm.

    An algorithm object is immutable and shareable: the same instance can be
    used to run many executions.  A system asks it for ``n`` processes for
    its first run; it reuses them, reset, for every later run when their
    classes declare :attr:`RoundBasedProcess.reusable`, and asks for fresh
    ones otherwise.
    """

    @property
    def name(self) -> str:
        """Human-readable name used in experiment tables."""
        return type(self).__name__

    @abstractmethod
    def create_process(self, process_id: int, n: int, t: int) -> RoundBasedProcess:
        """Instantiate the process with identifier *process_id*."""

    @abstractmethod
    def max_rounds(self, n: int, t: int) -> int:
        """A safe upper bound on the number of rounds of any execution.

        The engine uses it as a watchdog: exceeding it means the algorithm
        violates its own termination bound, which the property checkers
        report.
        """

    def agreement_degree(self) -> int | None:
        """The number ``k`` of values the algorithm may decide (``None`` = unknown)."""
        return None
