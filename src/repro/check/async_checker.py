"""The asynchronous adversary space: every bounded interleaving × every crash.

The synchronous space enumerates crash schedules; its asynchronous
counterpart :class:`AsyncSpace` enumerates **adversaries** of the
shared-memory model.  One adversary is a pair:

* a *crash assignment* — a faulty set of at most ``max_crashes`` processes,
  each with a crash point in ``[0, depth]`` (``0`` = initial crash, ``s >= 1``
  = the process takes ``s`` steps, its writes landing, then vanishes);
* an *interleaving prefix* — one choice sequence of ``{0..n-1}^depth``
  driving the first ``depth`` scheduling decisions through
  :class:`~repro.asynchronous.adversary.EnumeratedAdversary` (fair
  round-robin afterwards, so guaranteed executions still terminate within
  their budget).

The space is finite and its closed form —
``Σ_f C(n,f)·(depth+1)^f × n^depth`` — is cross-validated against the
generator on every run, mirroring the
:func:`~repro.sync.adversary.count_schedules` contract.
:func:`repro.check.checker.run_check` executes each adversary against the
deterministic input frontier and evaluates the asynchronous property oracles
of :mod:`repro.check.async_oracles`; violations become replayable
:class:`~repro.check.checker.Counterexample` records whose ``prefix`` and
``crash_steps`` keys carry the adversary.

Many adversaries realize the same execution, and :meth:`AsyncSpace.batch`
runs each class of identical executions at most once, stopping a run at the
first configuration an earlier run already explored (see
:class:`_ClassMemo`); the reference path (``vectorized=False``) executes
every adversary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Mapping, Sequence

from ..api.engine import RunKnobs
from ..api.spec import AgreementSpec, require_int
from ..asynchronous.adversary import (
    EnumeratedAdversary,
    count_interleavings,
    enumerate_interleavings,
)
from ..core.vectors import InputVector
from ..exceptions import InvalidParameterError
from .async_oracles import ASYNC_ORACLES
from .checker import FAILURE_FREE, CheckSpace
# Importable from every checker module: perfbench's traced run wraps it there.
from .frontier import input_frontier  # noqa: F401
from .oracles import CheckContext, PropertyOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.engine import Engine
    from ..sync.adversary import CrashSchedule

__all__ = [
    "AsyncSpace",
    "count_async_adversaries",
    "enumerate_async_adversaries",
]

#: The oracles whose outcome the class rules of :class:`_ClassMemo` keep:
#: the four registered at import.  They read decisions, the vector,
#: ``crashed``, ``terminated``, ``in_condition`` and step counts.
_MEMO_ORACLES = frozenset(ASYNC_ORACLES)


def count_async_adversaries(n: int, depth: int, max_crashes: int) -> int:
    """Closed-form size of the adversary space of :func:`enumerate_async_adversaries`.

    Every faulty set of at most *max_crashes* processes, one crash point in
    ``[0, depth]`` per faulty process, times the ``n^depth`` interleaving
    prefixes::

        ( Σ_{f=0}^{max_crashes}  C(n, f) · (depth + 1)^f )  ×  n^depth

    The generator cross-validation runs on **every** async check.
    """
    _validate_async_parameters(n, depth, max_crashes)
    crash_configurations = sum(
        math.comb(n, f) * (depth + 1) ** f for f in range(max_crashes + 1)
    )
    return crash_configurations * count_interleavings(n, depth)


def enumerate_async_adversaries(
    n: int, depth: int, max_crashes: int
) -> Iterator[tuple[dict[int, int], tuple[int, ...]]]:
    """Yield every ``(crash_steps, prefix)`` adversary of the bounded space.

    Deterministic order — faulty sets by size then lexicographically, crash
    points in product order, prefixes innermost in lexicographic order — so
    slicing the stream by index shards the space reproducibly (this is how
    ``workers=`` parallelises the asynchronous check).  The total count is
    :func:`count_async_adversaries`.
    """
    _validate_async_parameters(n, depth, max_crashes)
    for crash_count in range(max_crashes + 1):
        for victims in itertools.combinations(range(n), crash_count):
            for points in itertools.product(range(depth + 1), repeat=crash_count):
                crash_steps = dict(zip(victims, points))
                for prefix in enumerate_interleavings(n, depth):
                    yield dict(crash_steps), prefix


def _validate_async_parameters(n: int, depth: int, max_crashes: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if depth < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {depth}")
    if not 0 <= max_crashes < n:
        raise InvalidParameterError(
            f"max_crashes must satisfy 0 <= max_crashes < n, got "
            f"max_crashes={max_crashes}, n={n}"
        )


#: One point of the asynchronous space: the crash points and the adversary
#: replaying the interleaving prefix.
AsyncPoint = tuple[dict[int, int], EnumeratedAdversary]


@dataclass(frozen=True)
class AsyncSpace(CheckSpace):
    """Every bounded interleaving prefix × every crash assignment.

    *depth* is the length of the adversarial scheduling prefix (default
    ``spec.n``) and *max_crashes* the largest faulty set (default
    ``spec.x``); both spaces are exponential, so this is a tiny-system tool
    exactly like its synchronous sibling.
    """

    depth: int | None = None
    max_crashes: int | None = None

    backend: ClassVar[str] = "async"
    oracles: ClassVar[Mapping[str, PropertyOracle]] = ASYNC_ORACLES
    record_keys: ClassVar[tuple[str, ...]] = ("prefix", "crash_steps")

    def __post_init__(self) -> None:
        if self.depth is not None:
            require_int("depth", self.depth)
        if self.max_crashes is not None:
            require_int("max_crashes", self.max_crashes)

    def resolve(self, engine: "Engine") -> "AsyncSpace":
        self._require_backend(engine, "the bounded-interleaving check")
        spec = engine.spec
        return AsyncSpace(
            spec.n if self.depth is None else self.depth,
            spec.x if self.max_crashes is None else self.max_crashes,
        )

    def count(self, spec: AgreementSpec) -> int:
        return count_async_adversaries(spec.n, self.depth, self.max_crashes)

    def points(self, spec: AgreementSpec, start: int, stop: int | None) -> Iterator[AsyncPoint]:
        stream = islice(
            enumerate_async_adversaries(spec.n, self.depth, self.max_crashes),
            start,
            stop,
        )
        for crash_steps, prefix in stream:
            yield crash_steps, EnumeratedAdversary(prefix)

    def run_args(self, point: AsyncPoint) -> tuple[CrashSchedule, RunKnobs]:
        crash_steps, adversary = point
        return FAILURE_FREE, RunKnobs(
            "async", async_adversary=adversary, crash_steps=tuple(sorted(crash_steps.items()))
        )

    def point_record(self, point: AsyncPoint) -> dict[str, Any]:
        crash_steps, adversary = point
        return {
            "prefix": list(adversary.prefix),
            "crash_steps": {str(pid): step for pid, step in crash_steps.items()},
        }

    def point(self, spec: AgreementSpec, record: Mapping[str, Any]) -> AsyncPoint:
        crash_steps = {int(pid): step for pid, step in record["crash_steps"].items()}
        for pid, steps in crash_steps.items():
            require_int("a crash_steps process id", pid, 0)
            if pid >= spec.n:
                raise InvalidParameterError(
                    f"crash_steps names process {pid}, outside [0, {spec.n})"
                )
            require_int(f"the crash step of process {pid}", steps, 0)
        return crash_steps, EnumeratedAdversary(record["prefix"])

    def describe(self, record: Mapping[str, Any]) -> str:
        crashes = sorted((int(pid), step) for pid, step in record["crash_steps"].items())
        return f"prefix {list(record['prefix'])} crashes {dict(crashes)}"

    def header(self, count: int) -> dict[str, Any]:
        return {
            "backend": "async",
            "depth": self.depth,
            "max_crashes": self.max_crashes,
            "adversary_count": count,
        }

    def render_lines(self, algorithm: str, count: int) -> list[str]:
        return [
            f"algorithm        : {algorithm} [async]",
            f"adversary space  : {count} adversaries "
            f"(interleaving depth {self.depth}, <= {self.max_crashes} crashes, "
            f"closed form cross-validated)",
        ]

    def batch(self, engine, context, vectors, oracle_names):
        """A :class:`_ClassMemo`'s lane masks, or ``None`` when an oracle
        outside the four the class rules keep is asked for.

        The memo starts at most one reference run per class of identical
        executions, and stops it at the first configuration whose outcome
        an earlier run already gave.  Its rules keep every field the four
        oracles read (decisions, decision steps, steps per process,
        ``crashed`` and ``terminated``), but not the step sequence or its
        fingerprint, which no oracle reads; counterexamples are re-run on
        the reference path."""
        if not set(oracle_names) <= _MEMO_ORACLES:
            return None
        return _ClassMemo(self, engine, context, vectors, oracle_names).masks


#: A crash assignment as a key: its sorted ``(pid, crash point)`` items.
Assignment = tuple[tuple[int, int], ...]
#: One execution's oracle outcome, ``((applies, violated), ...)`` in oracle
#: order, and each process's decision step (``None``: undecided).
Outcome = tuple[tuple[tuple[bool, bool], ...], tuple[int | None, ...]]
#: A run's record, which every configuration it passed with its remaining
#: choices maps to: the outcome, the width read at each prefix step and the
#: configuration id before each step (``None`` where none was recorded).
#: From a configuration met before step ``s`` on, the run read
#: ``widths[s:]`` and met ``identities[s:]``.
Entry = tuple[Outcome, tuple[int, ...], tuple[int | None, ...]]


class _Known(Exception):
    """Ends a reference run at a configuration whose entry is kept."""

    def __init__(self, entry: Entry) -> None:
        super().__init__()
        self.entry = entry


class _ClassMemo:
    """One check slice's memo of asynchronous executions, one per class.

    A class is keyed per crash assignment and frontier lane, and three exact
    rules put two adversaries in one class:

    1. **Prefix aliasing.**  The enumerated adversary picks
       ``runnable[prefix[i] % width]`` at prefix step ``i``, and the width is
       fixed by the steps before it.  Prefixes whose choices agree modulo
       the widths one of them read realize the same steps.  Each assignment
       keeps a flat trie from lane and residues to widths and, at the end of
       the path, the outcome.
    2. **Non-binding crash points.**  If the assignment holds ``(p, s)``
       with ``s >= 1``, and in the run without ``p``'s crash (same prefix)
       ``p`` decides within its first ``s`` steps, the two runs are the same
       step for step: ``p`` never reaches its crash point.  The enumeration
       goes by crash count, so that run's entry was filled one tier earlier.
    3. **Equal configurations.**  Before step ``s`` with
       ``2 <= s <= depth`` (step ``depth`` is the first after the prefix),
       the configuration and the choices still to come, ``prefix[s:]``, fix
       the rest of the run: prefix steps do not move the rotation cursor,
       and the cycle skipper samples nothing before the prefix ends.  The
       configuration is the runnable tuple, each process's
       ``local_state()``, ``steps_taken``, ``has_decided()`` and
       ``decision``, and both register arrays.  The adversary's observer
       reports each run's configurations, each interned to an int, and the
       block keeps every (configuration, remaining choices) its runs passed
       with the run's :data:`Entry`.  A run that reaches a kept pair stops
       there and takes its outcome, and a point is served before any run
       when the deepest trie node its prefix reaches recorded a
       configuration whose pair with the point's own remaining choices is
       kept.  Either way the kept widths complete the point's trie path: an
       outcome at the shorter key would also serve later prefixes that
       differ after it.  Before step 1 the configuration is fixed by the
       residue of step 0, so rule 1 already serves any pair kept there.
       The rule is off for a run in which any process's ``local_state()``
       is ``None``, as the cycle skipper is.

    Every rule keeps the decisions, decision and per-process step counts,
    ``crashed`` and ``terminated``; the vector and ``in_condition`` are the
    lane's, and the step-budget oracle's crash-point clause still holds
    because ``p`` took at most ``s`` steps.  Rule 3 does not keep the step
    sequence or its fingerprint, which no oracle reads; a counterexample is
    re-run on the reference path.  The first run of a class is a reference
    execution (:meth:`AsyncSpace.execute`) whose oracles run as on the
    scalar path.  An assignment's trie is kept while its own block or the
    next crash-count tier can read it, its configurations only while its own
    block runs, and equal outcomes are one object.
    """

    def __init__(
        self,
        space: AsyncSpace,
        engine: "Engine",
        context: CheckContext,
        vectors: Sequence[InputVector],
        oracle_names: Sequence[str],
    ) -> None:
        self._space = space
        self._engine = engine
        self._context = context
        self._vectors = vectors
        self._oracles = [space.oracles[name] for name in oracle_names]
        self._n = engine.spec.n
        self._tries: dict[Assignment, dict[tuple[int, ...], int | Outcome]] = {}
        self._assignment: Assignment | None = None
        self._trie: dict[tuple[int, ...], int | Outcome] = {}
        self._outcomes: dict[Outcome, Outcome] = {}
        # Rule 3, for the current assignment only: one process's state ->
        # its id, configuration (lane, runnable tuple, process state ids,
        # registers) -> its id, ``id * n + pid`` -> the id after ``pid``
        # steps there, (id, remaining choices) -> entry, and trie node -> the
        # id of the configuration before that node's prefix step.
        self._process_states: dict[tuple, int] = {}
        self._configurations: dict[tuple, int] = {}
        self._moves: dict[int, int] = {}
        self._entries: dict[tuple[int, tuple[int, ...]], Entry] = {}
        self._nodes: dict[tuple[int, ...], int] = {}
        #: The current point's ``(schedule, knobs)``, or ``None`` until
        #: one of its lanes runs.
        self._run_args: tuple[CrashSchedule, RunKnobs] | None = None

    def masks(self, point: AsyncPoint) -> tuple[tuple[int, int], ...]:
        """``((applies, violations), ...)`` lane masks of *point*, per oracle."""
        crash_steps, adversary = point
        assignment = tuple(sorted(crash_steps.items()))
        if assignment != self._assignment:
            self._enter(assignment)
        prefix = adversary.prefix
        applies = [0] * len(self._oracles)
        violations = [0] * len(self._oracles)
        self._run_args = None  # built by the point's first reference run
        for lane, vector in enumerate(self._vectors):
            outcome, key = _find(self._trie, lane, prefix)
            if outcome is None:
                outcome = self._reuse(assignment, lane, prefix)
            if outcome is None:
                outcome = self._recall(prefix, key)
            if outcome is None:
                outcome = self._run(lane, vector, point)
            bit = 1 << lane
            for index, (applied, violated) in enumerate(outcome[0]):
                if applied:
                    applies[index] |= bit
                if violated:
                    violations[index] |= bit
        return tuple(zip(applies, violations))

    def _enter(self, assignment: Assignment) -> None:
        """Start *assignment*'s block: drop every trie no later block reads,
        and every configuration."""
        tier = len(assignment)
        last = self._space.max_crashes
        self._tries = {
            kept: trie
            for kept, trie in self._tries.items()
            if tier - 1 <= len(kept) < last
        }
        self._trie = self._tries[assignment] = {}
        self._assignment = assignment
        self._process_states = {}
        self._configurations = {}
        self._moves = {}
        self._entries = {}
        self._nodes = {}

    def _reuse(self, assignment: Assignment, lane: int, prefix: tuple[int, ...]) -> Outcome | None:
        """Rule 2: the entry of a run that never reaches one crash point."""
        for index, (pid, crash_point) in enumerate(assignment):
            if crash_point == 0:
                continue
            below = self._tries.get(assignment[:index] + assignment[index + 1:])
            if below is None:
                continue
            outcome, key = _find(below, lane, prefix)
            if outcome is None:
                continue
            decided = outcome[1][pid]
            if decided is not None and decided <= crash_point:
                # The same steps, so the same widths along the same path.
                for end in range(1, len(key)):
                    self._trie[key[:end]] = below[key[:end]]
                self._trie[key] = outcome
                return outcome
        return None

    def _recall(self, prefix: tuple[int, ...], key: tuple[int, ...]) -> Outcome | None:
        """Rule 3 before any run: the entry of the configuration recorded at
        the deepest trie node *prefix* reaches (*key* is the first node it
        misses), with *prefix*'s own remaining choices."""
        node = key[:-1]
        identity = self._nodes.get(node)
        if identity is None:
            return None
        step = len(node) - 1
        entry = self._entries.get((identity, prefix[step:]))
        if entry is None:
            return None
        outcome, widths, identities = entry
        self._plant(node, prefix, widths[step:], identities[step:], outcome)
        return outcome

    def _run(self, lane: int, vector: InputVector, point: AsyncPoint) -> Outcome:
        """The reference execution of a new class, its oracles and its entries.

        It is :meth:`AsyncSpace.execute`, with the point's run arguments
        built once for all its lanes, and it stops at the first prefix step
        whose configuration and remaining choices are kept (rule 3)."""
        if self._run_args is None:
            self._run_args = self._space.run_args(point)
        schedule, knobs = self._run_args
        adversary = point[1]
        prefix = adversary.prefix
        # The configuration id before each step the observer saw, kept from
        # step 2 on; emptied when rule 3 is off for the run.
        identities: list[int | None] = [None, None]
        adversary.observer = self._observer(lane, adversary, identities)
        try:
            result = self._engine._execute(vector, schedule, 0, knobs)
        except _Known as known:
            outcome, widths, later = known.entry
            passed = len(identities)
            widths = adversary.widths + widths[passed:]
            identities += later[passed:]
        else:
            context = self._context
            checks = []
            for oracle in self._oracles:
                applied = oracle.applies(context, result)
                checks.append((applied, applied and oracle.check(context, result) is not None))
            steps = tuple(result.decision_times.get(pid) for pid in range(self._n))
            outcome = (tuple(checks), steps)
            outcome = self._outcomes.setdefault(outcome, outcome)
            widths = adversary.widths
            passed = len(identities)
            if not passed:
                identities = [None] * len(widths)
        finally:
            adversary.observer = None
        identities = tuple(identities)
        self._plant((lane,), prefix, widths, identities, outcome)
        entry = (outcome, widths, identities)
        for step in range(2, passed):
            self._entries[identities[step], prefix[step:]] = entry
        return outcome

    def _observer(
        self, lane: int, adversary: EnumeratedAdversary, identities: list[int | None]
    ):
        """The run's observer: before each step from 2 to ``depth``, it stops
        the run if the configuration's pair with the remaining choices is
        kept, and appends the configuration's id to *identities* if not.

        A step is a function of the configuration and of the process that
        takes it, so each ``(configuration, process)`` move is built and
        interned once per block, and then looked up."""
        executor = self._engine._async_executor()  # the one the run uses
        processes = executor.processes
        registers = executor.memory.registers
        configurations = self._configurations
        moves = self._moves
        entries = self._entries
        process_states = self._process_states
        prefix = adversary.prefix
        n = self._n
        # The configuration before the latest step (the lane's initial one
        # is named by the lane alone) and the processes runnable there.
        latest: list = [configurations.setdefault((lane,), len(configurations)), ()]

        def observe(runnable: tuple[int, ...], step: int) -> None:
            if step:
                identity, before = latest
                move = identity * n + before[prefix[step - 1] % len(before)]
                identity = moves.get(move)
                if identity is None:
                    configuration = [lane, runnable]
                    for process in processes:
                        state = process.local_state()
                        if state is None:  # rule 3 is off for this run
                            adversary.observer = None
                            identities.clear()
                            return
                        state = (
                            state, process.steps_taken, process.has_decided(), process.decision
                        )
                        configuration.append(process_states.setdefault(state, len(process_states)))
                    configuration = (*configuration, *registers())
                    identity = moves[move] = configurations.setdefault(
                        configuration, len(configurations)
                    )
                latest[0] = identity
                if step > 1:
                    entry = entries.get((identity, prefix[step:]))
                    if entry is not None:
                        raise _Known(entry)
                    identities.append(identity)
            latest[1] = runnable

        return observe

    def _plant(
        self,
        key: tuple[int, ...],
        prefix: tuple[int, ...],
        widths: Sequence[int],
        identities: Sequence[int | None],
        outcome: Outcome,
    ) -> None:
        """Write *widths* and *identities*, from the prefix step of node
        *key* on, along *prefix*'s path, and *outcome* at its end.

        *identities* holds an id or ``None`` for each width, and may end with
        one more: the id before the first step after the prefix, whose node
        is the leaf."""
        trie = self._trie
        nodes = self._nodes
        for width, identity in zip(widths, identities):
            trie[key] = width
            if identity is not None:
                nodes[key] = identity
            key += (prefix[len(key) - 1] % width,)
        trie[key] = outcome


def _find(
    trie: Mapping[tuple[int, ...], int | Outcome], lane: int, prefix: Sequence[int]
) -> tuple[Outcome | None, tuple[int, ...]]:
    """The outcome *trie* holds for *prefix* on *lane* (``None``: not yet),
    and its key: the lane, then each residue modulo the width read."""
    key = (lane,)
    node = trie.get(key)
    while type(node) is int:
        key += (prefix[len(key) - 1] % node,)
        node = trie.get(key)
    return node, key
