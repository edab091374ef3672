"""The model checker: every property oracle × every adversary × the frontier.

:func:`run_check` is the engine behind :meth:`repro.api.Engine.check` on all
three backends.  For a bound ``(spec, algorithm)`` it enumerates the
**complete** adversary space (cross-validated against its closed form on
every run), executes the structured input frontier under each adversary, and
evaluates the space's property oracles on every execution.  The outcome is a
:class:`CheckReport`: per-oracle checked/violation tallies plus replayable
counterexample records for the first violations found.

The backends differ only in their space, a small frozen :class:`CheckSpace`:
:class:`SyncSpace` (here: every crash schedule of the Section 6.2 failure
model), :class:`~repro.check.net_checker.NetSpace` (every fault assignment of
one message-level failure model) and
:class:`~repro.check.async_checker.AsyncSpace` (every bounded interleaving ×
crash assignment of the shared-memory model).  Everything else exists once:
the slice loop :func:`check_slice`, :func:`run_check` itself, the shard
envelope of :mod:`repro.parallel`, the report, the :class:`Counterexample`
(whose point a space writes, rebuilds and describes) and the store's
counterexample writer and reader.

Determinism is the load-bearing property: points are enumerated in a fixed
order, the frontier is a fixed tuple, and oracles run in registry order — so
the report is a pure function of its inputs.  ``workers > 1`` shards
contiguous point-index ranges across the process pool of
:mod:`repro.parallel` and merges the shard outcomes in index order, which
makes the parallel report **byte-identical** to the serial one
(``report.to_record()`` compares equal).

A :class:`SyncSpace` with a *reference* algorithm is a differential check,
the drift detector: its one oracle, ``reference-decisions``, reruns the
reference on every checked execution and counts each one on which the two
decide differently, which catches a mutant (or a refactor) drifting from
the reference even where no absolute property is violated.  It runs in the
same loop, shards and stores like any other check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from importlib import import_module
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Mapping, Sequence

from ..api.engine import Engine, RunKnobs
from ..api.result import RunResult
from ..api.spec import AgreementSpec, RunConfig, require_int
from ..core.vectors import InputVector, normalise_proposals
from ..exceptions import (
    BackendError,
    InvalidParameterError,
    SimulationError,
)
from ..sync.adversary import CrashSchedule, count_schedules, enumerate_schedules
from .frontier import DEFAULT_ALL_VECTORS_LIMIT, DEFAULT_MAX_VECTORS, input_frontier
from .oracles import ORACLES, REFERENCE_ORACLES, CheckContext, PropertyOracle, _always

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store import ResultStore

__all__ = [
    "OracleTally",
    "Counterexample",
    "CheckSpace",
    "SyncSpace",
    "CheckReport",
    "run_check",
    "check_arguments",
    "check_slice",
    "space_from_bounds",
]

#: Default cap on the counterexamples a report materializes (violations are
#: always *counted* in full; only the stored records are capped).
DEFAULT_MAX_COUNTEREXAMPLES = 25

#: The crash schedule of the net and async executions: their adversary is
#: the fault assignment or the interleaving, never a crash round.
FAILURE_FREE = CrashSchedule()

#: The knobs of every sync check execution: the schedule is its adversary.
SYNC_KNOBS = RunKnobs("sync")


@dataclass
class OracleTally:
    """How one oracle fared over the checked executions."""

    oracle: str
    #: Executions the oracle applied to (its applicability predicate held).
    checked: int = 0
    violations: int = 0

    def to_record(self) -> dict[str, Any]:
        return {"oracle": self.oracle, "checked": self.checked, "violations": self.violations}


@dataclass
class Counterexample:
    """One replayable violation: the execution, the oracle, the evidence.

    *backend* names the space that found it and *adversary* is the point in
    record form, the space's :attr:`~CheckSpace.record_keys`: ``schedule``
    (sync), ``adversary`` and ``faults`` (net), ``prefix`` and
    ``crash_steps`` (async).
    """

    oracle: str
    algorithm: str
    detail: str
    spec: AgreementSpec
    vector: InputVector
    backend: str
    adversary: dict[str, Any]
    decisions: dict[int, Any] = field(default_factory=dict)
    duration: int = 0
    #: The execution's fingerprint (``None`` on sync, whose records omit it).
    fingerprint: str | None = None

    @classmethod
    def found(cls, engine, space, oracle, detail, vector, point, result) -> "Counterexample":
        """The counterexample of a violation *space* found at *point*."""
        return cls(
            oracle=oracle,
            algorithm=engine.algorithm_name,
            detail=detail,
            spec=engine.spec,
            vector=vector,
            backend=space.backend,
            adversary=space.point_record(point),
            decisions=dict(result.decisions),
            duration=result.duration,
            fingerprint=result.fingerprint,
        )

    @property
    def space(self) -> "CheckSpace":
        """The backend's space, bounds unset: it rebuilds, runs and describes
        the point."""
        return _space(self.backend)

    def to_record(self) -> dict[str, Any]:
        """The JSON-serializable record (used by :mod:`repro.store`)."""
        import dataclasses

        record = {
            "oracle": self.oracle,
            "algorithm": self.algorithm,
            "detail": self.detail,
            "spec": dataclasses.asdict(self.spec),
            "vector": list(self.vector.entries),
            **self.adversary,
            "decisions": {str(pid): value for pid, value in self.decisions.items()},
            "duration": self.duration,
        }
        if self.space.fingerprinted:
            record["fingerprint"] = self.fingerprint
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Counterexample":
        """Rebuild a counterexample from a :meth:`to_record` dictionary.

        The adversary keys tell the backend apart, and the space rebuilds the
        point once, so a record no replay could run is refused here.
        """
        try:
            spaces = [
                space
                for space in map(_space, _SPACE_TYPES)
                if all(key in record for key in space.record_keys)
            ]
            if len(spaces) != 1:
                raise InvalidParameterError(
                    f"the record's adversary keys match {len(spaces)} spaces, not one"
                )
            space = spaces[0]
            spec = AgreementSpec(**record["spec"])
            adversary = {key: record[key] for key in space.record_keys}
            space.point(spec, adversary)
            return cls(
                oracle=record["oracle"],
                algorithm=record["algorithm"],
                detail=record["detail"],
                spec=spec,
                vector=InputVector(record["vector"]),
                backend=space.backend,
                adversary=adversary,
                decisions={int(pid): value for pid, value in record["decisions"].items()},
                duration=record["duration"],
                fingerprint=record.get("fingerprint"),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise InvalidParameterError(
                f"malformed Counterexample record: {error!r}"
            ) from error

    def replay(self, config: RunConfig | None = None) -> RunResult:
        """Re-execute the checked execution through a fresh engine.

        The space rebuilds the point and runs it as the checker did, so the
        config's default schedule and crashes never apply.  The algorithm is
        resolved by registry key, so replaying a mutant's counterexample
        requires the mutant to be registered (see
        :func:`repro.check.mutants.register_mutants`).
        """
        engine = Engine(self.spec, self.algorithm, config)
        space = self.space
        space._require_backend(engine, "replaying a counterexample")
        point = space.point(self.spec, self.adversary)
        return space.execute(engine, normalise_proposals(self.vector, self.spec.n), point)

    def summary(self) -> str:
        """One line for CLI output and logs."""
        return (
            f"[{self.oracle}] {self.algorithm} on {list(self.vector.entries)} "
            f"under {self.space.describe(self.adversary)}: {self.detail}"
        )


#: The module and type of each backend's space.  The net and async modules
#: import this one, and a check on one backend loads no other backend.
_SPACE_TYPES = {
    "sync": (".checker", "SyncSpace"),
    "net": (".net_checker", "NetSpace"),
    "async": (".async_checker", "AsyncSpace"),
}


@cache
def _space(backend: str) -> "CheckSpace":
    """The unbounded space of *backend*, its module imported on first use."""
    module, name = _SPACE_TYPES[backend]
    return getattr(import_module(module, __package__), name)()


def space_from_bounds(backend: str, bounds: Mapping[str, Any]) -> "CheckSpace":
    """The space of *backend* with the *bounds* given (``None``: not given).

    A backend takes exactly the bounds that are fields of its space; any
    other bound given is refused, so no caller drops one silently.
    """
    space_type = type(_space(backend))
    taken = [bound.name for bound in fields(space_type)]
    refused = [name for name, value in bounds.items() if value is not None and name not in taken]
    if refused:
        raise InvalidParameterError(
            f"the {backend} check does not take {', '.join(refused)}; "
            f"it takes {', '.join(taken)}"
        )
    return space_type(**{name: bounds.get(name) for name in taken})


class CheckSpace:
    """One backend's adversary space: what :func:`run_check` enumerates.

    Each space is a frozen dataclass of its bounds (``None`` for a default)
    whose constructor validates them; it is picklable, so it rides in the
    shard envelope of :mod:`repro.parallel`.  It supplies:

    * ``resolve(engine)`` — the space with every default filled in, after
      refusing an engine that lacks the backend;
    * ``count(spec)`` / ``points(spec, start, stop)`` — the closed-form size
      and the slice ``[start, stop)`` of the deterministic point stream;
    * ``oracles`` — the oracle registry, read by name at check time (every
      oracle takes the one :class:`~repro.check.oracles.CheckContext`);
    * ``run_args(point)`` — the ``(schedule, knobs)`` the engine runs every
      vector under *point* with, built once per point; :meth:`execute` runs
      one vector with them;
    * ``point_record(point)`` / ``point(spec, record)`` /
      ``describe(record)`` — the point's part of a :class:`Counterexample`
      record (the keys :attr:`record_keys`, in order), its validating
      inverse, and its text in :meth:`Counterexample.summary`;
    * ``header(count)`` / ``render_lines(algorithm, count)`` — the space's
      part of the report record and of the rendered report;
    * :meth:`batch` — the optional batch hook.
    """

    #: The execution backend whose adversaries the space enumerates.
    backend: ClassVar[str]
    #: The oracle registry, in evaluation (and report) order.
    oracles: ClassVar[Mapping[str, PropertyOracle]]
    #: Column width of the oracle names in the rendered report.
    name_width: ClassVar[int] = 32
    #: The keys of a point's record part, which tell the spaces apart.
    record_keys: ClassVar[tuple[str, ...]]
    #: Whether the space's counterexample records carry a ``fingerprint``.
    fingerprinted: ClassVar[bool] = True
    #: The registry key of the algorithm every execution is compared with
    #: (only :class:`SyncSpace` takes one).
    reference: ClassVar[str | None] = None

    def _require_backend(self, engine: "Engine", check: str) -> None:
        if self.backend not in engine.backends():
            raise BackendError(
                f"{check} drives the {self.backend} backend, which algorithm "
                f"{engine.algorithm_name!r} does not support"
            )

    def execute(self, engine: "Engine", vector: InputVector, point: Any) -> RunResult:
        """One reference execution of *vector* under *point*, which the
        space enumerated or rebuilt, so its schedule is already checked."""
        schedule, knobs = self.run_args(point)
        return engine._execute(vector, schedule, 0, knobs)

    def batch(
        self,
        engine: "Engine",
        context: CheckContext,
        vectors: Sequence[InputVector],
        oracle_names: Sequence[str],
    ) -> Callable[[Any], tuple[tuple[int, int], ...]] | None:
        """The batch hook: ``point -> ((applies, violations), ...)`` lane
        masks (one per oracle, lane ``i`` = ``vectors[i]``), or ``None`` when
        it does not cover this engine, frontier and oracle set.  The sync
        space packs lanes (:mod:`repro.vec`), the async space runs each class
        of identical executions once, and the net space has no hook.
        ``vectorized=False`` skips the hook: the reference path."""
        return None


@dataclass(frozen=True)
class SyncSpace(CheckSpace):
    """Every crash schedule whose crashes fall in rounds ``[1, rounds]``.

    *rounds* defaults to the unconditional deadline ``⌊t/k⌋ + 1``: later
    crashes are unobservable.  *reference*, an algorithm registry key, makes
    the check differential: its one oracle, ``reference-decisions``, takes
    the place of :data:`~repro.check.oracles.ORACLES` and reruns the
    reference on every execution.
    """

    rounds: int | None = None
    reference: str | None = None

    backend: ClassVar[str] = "sync"
    name_width: ClassVar[int] = 26
    record_keys: ClassVar[tuple[str, ...]] = ("schedule",)
    fingerprinted: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.rounds is not None:
            require_int("rounds", self.rounds, 1)
        if self.reference is not None and not isinstance(self.reference, str):
            raise InvalidParameterError(
                f"reference must be an algorithm registry key, got {self.reference!r}"
            )

    @property
    def oracles(self) -> Mapping[str, PropertyOracle]:
        return ORACLES if self.reference is None else REFERENCE_ORACLES

    def resolve(self, engine: "Engine") -> "SyncSpace":
        self._require_backend(engine, "exhaustive checking")
        # Build the reference as the slice's context will: a reference whose
        # builder refuses the spec is refused here, before anything runs.
        if self.reference is not None and "sync" not in Engine(
            engine.spec, self.reference, engine.config
        ).backends():
            raise BackendError(
                f"the reference algorithm {self.reference!r} does not run on the "
                "sync backend"
            )
        if self.rounds is None:
            return SyncSpace(engine.spec.outside_condition_bound(), self.reference)
        return self

    def count(self, spec: AgreementSpec) -> int:
        return count_schedules(spec.n, spec.t, self.rounds)

    def points(self, spec: AgreementSpec, start: int, stop: int | None) -> Iterable[CrashSchedule]:
        return islice(enumerate_schedules(spec.n, spec.t, self.rounds), start, stop)

    def run_args(self, schedule: CrashSchedule) -> tuple[CrashSchedule, RunKnobs]:
        return schedule, SYNC_KNOBS

    def point_record(self, schedule: CrashSchedule) -> dict[str, Any]:
        return {"schedule": schedule.to_records()}

    def point(self, spec: AgreementSpec, record: Mapping[str, Any]) -> CrashSchedule:
        schedule = CrashSchedule.from_records(record["schedule"])
        schedule.validate(spec.n, spec.t)
        return schedule

    def describe(self, record: Mapping[str, Any]) -> str:
        return str(list(CrashSchedule.from_records(record["schedule"]).canonical()))

    def header(self, count: int) -> dict[str, Any]:
        header = {"rounds": self.rounds, "schedule_count": count}
        if self.reference is not None:
            header["reference"] = self.reference
        return header

    def render_lines(self, algorithm: str, count: int) -> list[str]:
        if self.reference is not None:
            algorithm = f"{algorithm} vs {self.reference}"
        return [
            f"algorithm        : {algorithm}",
            f"schedule space   : {count} schedules "
            f"(crash rounds 1..{self.rounds}, closed form cross-validated)",
        ]

    def batch(self, engine, context, vectors, oracle_names):
        """The :class:`~repro.vec.evaluator.BatchSyncEvaluator` of this slice,
        one call per schedule, or ``None`` when it refuses the engine."""
        from ..vec.evaluator import BatchSyncEvaluator

        evaluator = BatchSyncEvaluator.build(engine, context, vectors, oracle_names)
        if evaluator is None:
            return None
        n, t = engine.spec.n, engine.spec.t

        def masks(schedule: CrashSchedule) -> tuple[tuple[int, int], ...]:
            # Every enumerated schedule is seen once: validate it directly
            # instead of registering it with the engine.
            schedule.validate(n, t)
            return evaluator.check_schedule(schedule)

        return masks


@dataclass
class CheckReport:
    """The structured outcome of one exhaustive verification run."""

    spec: AgreementSpec
    algorithm: str
    #: The adversary space checked, every default resolved.
    space: CheckSpace
    #: Size of the enumerated space (= the space's closed-form count).
    adversary_count: int
    #: Size of the input frontier.
    vector_count: int
    #: Executions performed (= ``adversary_count × vector_count``).
    executions: int
    #: Per-oracle tallies, in oracle registry order.
    tallies: list[OracleTally] = field(default_factory=list)
    #: The first violations found, in execution order (capped).
    counterexamples: list[Counterexample] = field(default_factory=list)
    #: ``True`` when more violations were counted than counterexamples kept.
    truncated: bool = False

    @property
    def schedule_count(self) -> int:
        """The size of a :class:`SyncSpace`: its crash schedules."""
        return self.adversary_count

    @property
    def passed(self) -> bool:
        """Did every applicable oracle hold on every execution?"""
        return self.violation_count == 0

    @property
    def violation_count(self) -> int:
        """Total violations counted across all oracles."""
        return sum(tally.violations for tally in self.tallies)

    def __bool__(self) -> bool:
        return self.passed

    def tally(self, oracle: str) -> OracleTally:
        """The tally of one oracle by name."""
        for entry in self.tallies:
            if entry.oracle == oracle:
                return entry
        raise InvalidParameterError(
            f"no tally for oracle {oracle!r}; checked oracles: "
            f"{', '.join(t.oracle for t in self.tallies)}"
        )

    def to_record(self) -> dict[str, Any]:
        """The JSON-serializable record; byte-identical serial vs parallel."""
        import dataclasses

        return {
            "spec": dataclasses.asdict(self.spec),
            "algorithm": self.algorithm,
            **self.space.header(self.adversary_count),
            "vector_count": self.vector_count,
            "executions": self.executions,
            "tallies": [tally.to_record() for tally in self.tallies],
            "counterexamples": [ce.to_record() for ce in self.counterexamples],
            "truncated": self.truncated,
        }

    def render(self) -> str:
        """Readable report for the CLI."""
        lines = [
            f"spec             : {self.spec.describe()}",
            *self.space.render_lines(self.algorithm, self.adversary_count),
            f"input frontier   : {self.vector_count} vectors",
            f"executions       : {self.executions}",
            "oracles          :",
        ]
        width = self.space.name_width
        for tally in self.tallies:
            verdict = (
                "n/a    "
                if tally.checked == 0
                else ("PASS   " if tally.violations == 0 else "FAIL   ")
            )
            lines.append(
                f"  {verdict}{tally.oracle:<{width}} checked={tally.checked} "
                f"violations={tally.violations}"
            )
        if self.counterexamples:
            shown = self.counterexamples[:5]
            lines.append(f"counterexamples  : {self.violation_count} violation(s)")
            lines.extend(f"  {ce.summary()}" for ce in shown)
            remaining = self.violation_count - len(shown)
            if remaining > 0:
                lines.append(f"  ... and {remaining} more")
        lines.append(f"verdict          : {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_slice(
    engine: "Engine",
    space: CheckSpace,
    start: int,
    stop: int | None,
    vectors: Sequence[InputVector],
    oracle_names: Sequence[str],
    max_counterexamples: int,
    *,
    vectorized: bool = False,
) -> tuple[int, int, list[OracleTally], list[Counterexample]]:
    """Check one contiguous slice ``[start, stop)`` of *space*'s point stream.

    Shared verbatim by the serial path (one slice covering everything) and
    the worker side of :func:`repro.parallel.execute_check` (one slice per
    shard), which is what guarantees identical tallies and counterexample
    order whatever the worker count.  Returns ``(enumerated, executions,
    tallies, counterexamples)`` — *enumerated* counts the points actually
    generated for the slice, so the caller can cross-validate the generator
    against the closed form.  ``stop=None`` reads the stream to exhaustion:
    the slice that covers the tail must use it so that a generator producing
    *more* points than the closed form predicts is detected too (a capped
    slice could only catch under-production).

    With *vectorized* the slice routes through the space's batch hook
    when it covers this engine/frontier/oracle combination (and falls back
    to the scalar loop below otherwise).  Counterexamples are always decoded
    back through the reference object runtime, so the returned tuple is
    identical either way.

    *space* may leave bounds at their defaults: it is resolved against
    *engine* first, which also refuses an engine without its backend, and
    the slice's one :class:`~repro.check.oracles.CheckContext` is built from
    the two.
    """
    space = space.resolve(engine)
    context = CheckContext.from_engine(engine, space)
    if vectorized:
        masks = space.batch(engine, context, vectors, oracle_names)
        if masks is not None:
            return _check_slice_batch(
                engine,
                space,
                context,
                masks,
                start,
                stop,
                vectors,
                oracle_names,
                max_counterexamples,
            )
    tallies = [OracleTally(name) for name in oracle_names]
    # Per oracle: its tally, its applicability (None when it always applies:
    # that tally is counted once, below) and its check.
    plan = [
        (tally, None if oracle.applies is _always else oracle.applies, oracle.check)
        for tally, oracle in zip(tallies, (space.oracles[name] for name in oracle_names))
    ]
    counterexamples: list[Counterexample] = []
    enumerated = 0
    for point in space.points(engine.spec, start, stop):
        enumerated += 1
        schedule, knobs = space.run_args(point)
        engine._check_schedule(schedule, knobs.backend)
        for vector in vectors:
            result = engine._execute(vector, schedule, 0, knobs)
            for tally, applies, check in plan:
                if applies is not None:
                    if not applies(context, result):
                        continue
                    tally.checked += 1
                detail = check(context, result)
                if detail is None:
                    continue
                tally.violations += 1
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append(
                        Counterexample.found(
                            engine, space, tally.oracle, detail, vector, point, result
                        )
                    )
    executions = enumerated * len(vectors)
    for tally, applies, _ in plan:
        if applies is None:
            tally.checked = executions
    return enumerated, executions, tallies, counterexamples


def _check_slice_batch(
    engine: "Engine",
    space: CheckSpace,
    context: CheckContext,
    masks: Callable[[Any], tuple[tuple[int, int], ...]],
    start: int,
    stop: int | None,
    vectors: Sequence[InputVector],
    oracle_names: Sequence[str],
    max_counterexamples: int,
) -> tuple[int, int, list[OracleTally], list[Counterexample]]:
    """The batch twin of the scalar slice loop.

    One *masks* call covers every frontier vector under one point, and
    tallies are bit counts of the returned lane masks.  A hook may return
    one tuple for many points (the sync class memo returns the same tuple
    for every member of a class), so the slice keeps one entry per distinct
    answer, keyed by ``id()`` and holding the answer so that the id stays
    its own, and adds ``multiplicity × bit_count()`` to each tally once per
    entry: a repeated answer costs one lookup.  At most
    :data:`_ANSWERS_KEPT` entries are kept at a time, which bounds the
    memory of a hook that answers every point with a fresh tuple.

    Violating lanes — and only those — are re-executed through the
    reference object runtime to produce the exact scalar counterexample
    records, point by point in the scalar order (point, then lane = frontier
    position, then oracle).  A flagged lane the reference oracle does not
    confirm is a batch/reference drift and raises
    :class:`~repro.exceptions.SimulationError` rather than emitting an
    unverified report.
    """
    oracles = [space.oracles[name] for name in oracle_names]
    tallies = [OracleTally(name) for name in oracle_names]
    counterexamples: list[Counterexample] = []
    #: ``id(answer) -> [answer, points that got it, its violating lanes]``.
    answers: dict[int, list] = {}
    enumerated = 0
    for point in space.points(engine.spec, start, stop):
        enumerated += 1
        lanes = masks(point)
        entry = answers.get(id(lanes))
        if entry is None:
            if len(answers) == _ANSWERS_KEPT:
                _tally(tallies, answers)
            union = 0
            for _, violations in lanes:
                union |= violations
            entry = answers[id(lanes)] = [lanes, 0, union]
        entry[1] += 1
        union = entry[2]
        if union and len(counterexamples) < max_counterexamples:
            remaining = union
            while remaining and len(counterexamples) < max_counterexamples:
                low = remaining & -remaining
                remaining ^= low
                vector = vectors[low.bit_length() - 1]
                result = space.execute(engine, vector, point)
                for oracle, (applies, violations) in zip(oracles, lanes):
                    if not violations & low:
                        continue
                    detail = (
                        oracle.check(context, result)
                        if oracle.applies(context, result)
                        else None
                    )
                    if detail is None:
                        raise SimulationError(
                            f"the batch hook flagged {oracle.name!r} on vector "
                            f"{list(vector.entries)} under "
                            f"{space.describe(space.point_record(point))}, but the "
                            "reference runtime does not reproduce the violation"
                        )
                    if len(counterexamples) < max_counterexamples:
                        counterexamples.append(
                            Counterexample.found(
                                engine, space, oracle.name, detail, vector, point, result
                            )
                        )
    _tally(tallies, answers)
    return enumerated, enumerated * len(vectors), tallies, counterexamples


#: How many distinct batch-hook answers one slice tallies at a time.
_ANSWERS_KEPT = 4096


def _tally(tallies: list[OracleTally], answers: dict[int, list]) -> None:
    """Add every kept answer, times the points that got it, to *tallies*,
    and forget the answers."""
    for lanes, count, _ in answers.values():
        for tally, (applies, violations) in zip(tallies, lanes):
            tally.checked += count * applies.bit_count()
            tally.violations += count * violations.bit_count()
    answers.clear()


def _resolve_oracles(space: CheckSpace, oracles: Iterable[str] | None) -> tuple[str, ...]:
    if oracles is None:
        return tuple(space.oracles)
    names = tuple(oracles)
    if not names:
        raise InvalidParameterError("the oracle selection is empty: nothing to check")
    for name in names:
        if not isinstance(name, str) or name not in space.oracles:
            raise InvalidParameterError(
                f"unknown {space.backend} property oracle {name!r}; registered "
                f"oracles: {', '.join(space.oracles)}"
            )
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise InvalidParameterError(
            f"the oracle selection names {', '.join(map(repr, twice))} more than "
            "once; each oracle is tallied once"
        )
    return names


def _resolve_frontier(
    engine: "Engine",
    vectors,
    max_vectors: int,
    all_vectors_limit: int,
) -> tuple[InputVector, ...]:
    if vectors is not None:
        return tuple(normalise_proposals(vector, engine.spec.n) for vector in vectors)
    return input_frontier(
        engine.spec,
        engine.condition,
        max_vectors=max_vectors,
        all_vectors_limit=all_vectors_limit,
    )


def check_arguments(
    engine: "Engine",
    space: CheckSpace,
    *,
    oracles: Iterable[str] | None = None,
    workers: int | None = None,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
    max_vectors: int = DEFAULT_MAX_VECTORS,
    all_vectors_limit: int = DEFAULT_ALL_VECTORS_LIMIT,
) -> tuple[CheckSpace, int, tuple[str, ...]]:
    """:func:`run_check`'s checks of its parameters, which enumerate and
    execute nothing: ``(resolved space, worker count, oracle names)``.

    ``repro serve`` runs them before it charges a ``/check`` request's
    quota, so a request they refuse costs nothing.
    """
    space = space.resolve(engine)
    require_int("max_counterexamples", max_counterexamples, 0)
    require_int("max_vectors", max_vectors, 1)
    require_int("all_vectors_limit", all_vectors_limit)
    worker_count = engine._resolve_workers(workers)
    return space, worker_count, _resolve_oracles(space, oracles)


def run_check(
    engine: "Engine",
    space: CheckSpace,
    *,
    vectors: Iterable[InputVector | Sequence[Any]] | None = None,
    oracles: Iterable[str] | None = None,
    workers: int | None = None,
    store: "ResultStore | None" = None,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
    max_vectors: int = DEFAULT_MAX_VECTORS,
    all_vectors_limit: int = DEFAULT_ALL_VECTORS_LIMIT,
    vectorized: bool = True,
) -> CheckReport:
    """Verify the engine's algorithm over every adversary of *space*.

    See :meth:`repro.api.Engine.check` for the parameter contract.  This is
    the one validation path of the CLI, the library and ``/check``: the
    space's constructor has checked its bounds, and
    :func:`check_arguments` resolves the space and checks the parameters
    below, before anything is enumerated.
    """
    space, worker_count, oracle_names = check_arguments(
        engine,
        space,
        oracles=oracles,
        workers=workers,
        max_counterexamples=max_counterexamples,
        max_vectors=max_vectors,
        all_vectors_limit=all_vectors_limit,
    )
    frontier = _resolve_frontier(engine, vectors, max_vectors, all_vectors_limit)
    if not frontier:
        raise InvalidParameterError("the input frontier is empty: nothing to check")
    spec = engine.spec
    expected = space.count(spec)

    if worker_count == 1:
        enumerated, executions, tallies, counterexamples = check_slice(
            engine, space, 0, None, frontier, oracle_names, max_counterexamples,
            vectorized=vectorized,
        )
    else:
        from ..parallel import execute_check

        # Workers fork from here: build the runtime first, so that its
        # modules are imported once, not in every worker.
        engine._runtime(space.backend)
        enumerated = 0
        executions = 0
        tallies = [OracleTally(name) for name in oracle_names]
        counterexamples = []
        for outcome in execute_check(
            engine, space, expected, frontier, oracle_names, worker_count,
            max_counterexamples, vectorized=vectorized,
        ):
            enumerated += outcome.enumerated
            executions += outcome.executions
            for merged, partial in zip(tallies, outcome.tallies):
                merged.checked += partial.checked
                merged.violations += partial.violations
            counterexamples.extend(outcome.counterexamples)
        counterexamples = counterexamples[:max_counterexamples]

    # The generator/closed-form cross-validation, run on every check: a
    # drift between the two would silently void the "exhaustive" claim.
    if enumerated != expected:
        raise SimulationError(
            f"enumerating {space!r} produced {enumerated} adversaries but the "
            f"closed form predicts {expected} for n={spec.n}, t={spec.t}"
        )
    report = CheckReport(
        spec=spec,
        algorithm=engine.algorithm_name,
        space=space,
        adversary_count=expected,
        vector_count=len(frontier),
        executions=executions,
        tallies=tallies,
        counterexamples=counterexamples,
        truncated=sum(t.violations for t in tallies) > len(counterexamples),
    )
    if store is not None:
        for counterexample in report.counterexamples:
            store.append_counterexample(counterexample)
    return report

