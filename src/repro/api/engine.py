"""The :class:`Engine` façade: one call path for every algorithm and backend.

The engine binds an :class:`~repro.api.spec.AgreementSpec` to an algorithm
registry key and executes input vectors through a single dispatch path,
whatever the backend::

    >>> from repro.api import AgreementSpec, Engine
    >>> spec = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10)
    >>> engine = Engine(spec, "condition-kset")
    >>> result = engine.run([7, 7, 7, 3, 2, 7, 1, 7])
    >>> result.decided_values()
    frozenset({7})

Four levels of execution are offered:

* :meth:`Engine.run` — one vector, one schedule, one :class:`RunResult`;
* :meth:`Engine.run_batch` — many vectors in chunks, sharing memoized
  condition work (membership, the predicate ``P``, decoding) and validating
  each distinct crash schedule once; :meth:`Engine.iter_batch` is the same
  pipeline as a stream, yielding results as they complete;
* :meth:`Engine.sweep` — a parameter grid over spec fields, one batch per
  cell, aggregated into :class:`SweepCell` records;
* :meth:`Engine.check` — exhaustive verification: the **complete** crash
  schedule space × a structured input frontier, every execution evaluated by
  the property oracles of :mod:`repro.check`, returning a
  :class:`~repro.check.CheckReport` with replayable counterexamples.

Batches and sweeps scale across cores: ``workers > 1`` (per call or through
:attr:`~repro.api.spec.RunConfig.workers`) shards chunks / cells over the
process pool of :mod:`repro.parallel` with byte-identical results, and a
:class:`repro.store.ResultStore` passed as ``store=...`` persists every
result/cell as it is produced.

Memoization
-----------
Condition queries dominate the cost of condition-based runs: in a
failure-free synchronous round every one of the ``n`` processes decodes the
same full view, and across a batch the same vectors and views recur.  The
engine therefore wraps the spec's condition in :class:`MemoizedCondition`,
which caches ``contains`` / ``is_compatible`` / ``decode`` by view entries for
the lifetime of the engine.  :meth:`Engine.cache_stats` exposes the hit
counts; ``benchmarks/test_bench_engine_batch.py`` measures the resulting
batch speed-up over the naive per-vector loop.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import cache
from random import Random
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..core.conditions import ConditionOracle
from ..core.vectors import InputVector, View, normalise_proposals
from ..exceptions import BackendError, InvalidParameterError, ReproError
from ..registry import Registry
from ..sync.adversary import CrashSchedule
from ..sync.process import SynchronousAlgorithm
from ..sync.runtime import SynchronousSystem
from .registry import ALGORITHMS, SCHEDULES, AlgorithmEntry
from .result import RunResult
from .spec import AgreementSpec, RunConfig, require_backend, require_int

if TYPE_CHECKING:  # pragma: no cover - typing only; the backends load on first use
    from ..asynchronous.adversary import AsyncAdversary
    from ..asynchronous.executor import AsyncExecutor
    from ..net.adversary import NetAdversary
    from ..net.runtime import NetSystem
    from ..store import ResultStore

__all__ = [
    "BACKEND_KNOBS", "Engine", "MemoizedCondition", "CacheStats", "RunKnobs", "SweepCell"
]

#: The per-call run knobs each backend takes (the README's run-knob table).
#: A knob left at ``None`` keeps the config's default and is never refused;
#: any other knob a backend does not take is.
BACKEND_KNOBS: dict[str, tuple[str, ...]] = {
    "sync": (),
    "net": ("net_adversary",),
    "async": ("max_steps", "async_adversary", "crash_steps"),
}


@cache
def _adversary_registry(knob: str) -> tuple[type, Registry]:
    """The class an adversary object passed as run knob *knob* must be an
    instance of, and the registry that refuses an unknown name; its backend
    is imported on the first such knob."""
    if knob == "net_adversary":
        from ..net.adversary import NET_ADVERSARIES, NetAdversary

        return NetAdversary, NET_ADVERSARIES
    from ..asynchronous.adversary import ASYNC_ADVERSARIES, AsyncAdversary

    return AsyncAdversary, ASYNC_ADVERSARIES


@dataclass(frozen=True)
class RunKnobs:
    """The per-call knobs of one execution path, checked once.

    :meth:`Engine._run_knobs` builds it from a ``run``, batch or ``sweep``
    call after applying :data:`BACKEND_KNOBS` and the range checks, so
    holding one means the knobs were checked; the run path and the pool
    envelopes of :mod:`repro.parallel` carry it and nothing else about
    knobs.  ``None`` keeps the config's default.
    """

    backend: str
    max_steps: int | None = None
    async_adversary: "AsyncAdversary | str | None" = None
    #: Crash points as sorted ``(pid, steps)`` pairs.
    crash_steps: tuple[tuple[int, int], ...] | None = None
    net_adversary: "NetAdversary | str | None" = None


class CheckedCall(NamedTuple):
    """What :meth:`Engine._checked_call` accepted, ready to run."""

    knobs: RunKnobs
    chunk: int
    workers: int
    #: The call's vectors, normalised.
    vectors: list[InputVector]
    #: The schedule of the call's first run, when the call gave its seed.
    schedule: CrashSchedule | None


@dataclass
class CacheStats:
    """Hit/miss counters of one memoized query."""

    hits: int = 0
    misses: int = 0

    @property
    def calls(self) -> int:
        """Total number of queries."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of queries answered from the cache (0.0 when unused)."""
        return self.hits / self.calls if self.calls else 0.0


class MemoizedCondition(ConditionOracle):
    """A caching proxy around a :class:`ConditionOracle`.

    Views are immutable and hash by their entries, so every oracle query is a
    pure function of the view: the proxy answers repeats from dictionaries.
    One instance is shared by every run of an engine, which is what makes
    batches cheaper than isolated runs — the decode of a view computed in run
    17 is free in run 18.
    """

    def __init__(self, inner: ConditionOracle) -> None:
        self._inner = inner
        self._contains_cache: dict[tuple, bool] = {}
        self._compatible_cache: dict[tuple, bool] = {}
        self._decode_cache: dict[tuple, frozenset[Any]] = {}
        self.stats = {
            "contains": CacheStats(),
            "is_compatible": CacheStats(),
            "decode": CacheStats(),
        }

    #: Introspection surface forwarded to the wrapped oracle (when it has it):
    #: enumeration, sizing and structural attributes that the samplers, the
    #: algebra and the experiment tables read off a condition.
    _FORWARDED = (
        "enumerate_vectors",
        "size",
        "n",
        "domain",
        "recognizer",
        "x",
        "vectors",
        "vectors_containing",
        "with_recognizer",
        "is_subset_of",
        "to_explicit",
        "check_legality",
        "operands",
    )

    def __getattr__(self, name: str):
        if name in MemoizedCondition._FORWARDED:
            return getattr(self.__dict__["_inner"], name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def inner(self) -> ConditionOracle:
        """The wrapped oracle."""
        return self._inner

    # -- condition algebra ----------------------------------------------------
    # The algebra composes *real* oracles: operating on the memo proxy would
    # hide the operand's structure (its recognizer, enumeration, eager-union
    # fast paths) behind the cache.  Every operation therefore unwraps to the
    # inner oracle on both sides, so ``engine.condition | other`` behaves
    # exactly like composing the spec's condition directly.
    @staticmethod
    def _unwrap(oracle: ConditionOracle) -> ConditionOracle:
        return oracle.inner if isinstance(oracle, MemoizedCondition) else oracle

    def union(self, other: ConditionOracle) -> ConditionOracle:
        return self._inner.union(MemoizedCondition._unwrap(other))

    def intersection(self, other: ConditionOracle, **options) -> ConditionOracle:
        return self._inner.intersection(MemoizedCondition._unwrap(other), **options)

    def difference(self, other: ConditionOracle, **options) -> ConditionOracle:
        return self._inner.difference(MemoizedCondition._unwrap(other), **options)

    def restrict(self, predicate, **options) -> ConditionOracle:
        return self._inner.restrict(predicate, **options)

    @property
    def ell(self) -> int:
        return self._inner.ell

    @property
    def name(self) -> str:
        return self._inner.name

    def contains(self, vector: InputVector) -> bool:
        key = vector.entries
        cache = self._contains_cache
        if key in cache:
            self.stats["contains"].hits += 1
            return cache[key]
        self.stats["contains"].misses += 1
        answer = cache[key] = self._inner.contains(vector)
        return answer

    def is_compatible(self, view: View) -> bool:
        key = view.entries
        cache = self._compatible_cache
        if key in cache:
            self.stats["is_compatible"].hits += 1
            return cache[key]
        self.stats["is_compatible"].misses += 1
        answer = cache[key] = self._inner.is_compatible(view)
        return answer

    def decode(self, view: View) -> frozenset[Any]:
        key = view.entries
        cache = self._decode_cache
        if key in cache:
            self.stats["decode"].hits += 1
            return cache[key]
        self.stats["decode"].misses += 1
        answer = cache[key] = self._inner.decode(view)
        return answer

    # -- packed batch entry points (repro.vec) -------------------------------
    # Batch queries answer a whole block in one call, so there is nothing to
    # memoize per view: forward straight to the wrapped oracle.
    def contains_batch(self, block) -> int:
        return self._inner.contains_batch(block)

    def p_batch(self, block, positions) -> int:
        return self._inner.p_batch(block, positions)

    def clear(self) -> None:
        """Drop every cached answer (the statistics are kept)."""
        self._contains_cache.clear()
        self._compatible_cache.clear()
        self._decode_cache.clear()


@dataclass
class SweepCell:
    """One cell of a parameter sweep: a derived spec and its batch results."""

    spec: AgreementSpec
    results: list[RunResult] = field(default_factory=list)
    #: Why the cell could not run (invalid parameter combination), or ``None``.
    error: str | None = None
    #: The grid overrides that defined this cell.  Authoritative for errored
    #: cells: when the overrides cannot even form a valid spec, :attr:`spec`
    #: falls back to the base spec and only this field names the combination.
    overrides: dict[str, Any] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        """Number of executions in the cell."""
        return len(self.results)

    def worst_duration(self) -> int:
        """The largest duration (rounds or steps) over the cell's runs."""
        return max((r.duration for r in self.results), default=0)

    def max_distinct_decisions(self) -> int:
        """The largest number of distinct decided values over the cell's runs."""
        return max((r.distinct_decision_count() for r in self.results), default=0)

    def in_condition_count(self) -> int:
        """How many of the cell's input vectors belonged to the condition."""
        return sum(1 for r in self.results if r.in_condition)

    def all_terminated(self) -> bool:
        """Did every run of the cell terminate?"""
        return all(r.terminated for r in self.results)

    def to_record(self) -> dict[str, Any]:
        """The JSON-serializable record (the store's ``cell`` records and
        the ``/sweep`` response carry it)."""
        return {
            "overrides": dict(self.overrides),
            "error": self.error,
            "spec": dataclasses.asdict(self.spec),
            "results": [result.to_record() for result in self.results],
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SweepCell":
        """Rebuild a cell from a :meth:`to_record` dictionary."""
        return cls(
            spec=AgreementSpec(**record["spec"]),
            results=[RunResult.from_record(run) for run in record["results"]],
            error=record["error"],
            overrides=dict(record["overrides"]),
        )


class Engine:
    """One façade over every algorithm, backend and adversary.

    Parameters
    ----------
    spec:
        The agreement instance to solve.
    algorithm:
        A registry key (``"condition-kset"``, ``"floodmin"``, ...): every
        result, counterexample and store record names the algorithm by it,
        so each of them replays.  Anything else raises
        :class:`~repro.exceptions.RegistryError`; to run an algorithm of
        your own, register it (:func:`~repro.api.register_algorithm`).
    config:
        Execution defaults; ``None`` means ``RunConfig()``.
    """

    def __init__(
        self,
        spec: AgreementSpec,
        algorithm: str = "condition-kset",
        config: RunConfig | None = None,
    ) -> None:
        self._spec = spec
        self._config = config or RunConfig()
        self._system: SynchronousSystem | None = None
        self._net_system_cache = None
        # One asynchronous substrate (SharedMemory + process pool) per engine,
        # built lazily and reset between runs instead of reallocated per run.
        self._async_executor_cache: "AsyncExecutor | None" = None
        # id -> schedule, weak-valued: an entry lives exactly as long as its
        # schedule object, so a recycled address can never satisfy the lookup
        # (the old entry is purged when its object dies) and the cache cannot
        # outgrow the caller's live schedules.
        self._validated_schedules: "weakref.WeakValueDictionary[int, CrashSchedule]" = (
            weakref.WeakValueDictionary()
        )

        self._entry: AlgorithmEntry = ALGORITHMS.get(algorithm)
        self._algorithm_name = algorithm
        self._condition: MemoizedCondition | None = (
            MemoizedCondition(spec.condition_oracle()) if self._entry.uses_condition else None
        )
        # The net backend drives the same round-based process objects as
        # sync, so net-only entries (e.g. never-terminating mutants that the
        # sync watchdog would reject) still get a built algorithm.
        self._sync_algorithm = (
            self._entry.build(spec, self._condition)
            if self._entry.supports("sync") or self._entry.supports("net")
            else None
        )
        self._degree = self._entry.agreement_degree(spec)
        # Every result carries it: name it once, not once per execution.
        self._condition_name = None if self._condition is None else self._condition.name

    # -- introspection -------------------------------------------------------
    @property
    def spec(self) -> AgreementSpec:
        """The agreement instance the engine is bound to."""
        return self._spec

    @property
    def config(self) -> RunConfig:
        """The execution defaults."""
        return self._config

    @property
    def algorithm_name(self) -> str:
        """Registry key of the bound algorithm."""
        return self._algorithm_name

    @property
    def condition(self) -> ConditionOracle | None:
        """The (memoized) condition oracle, or ``None`` for unconditioned baselines."""
        return self._condition

    @property
    def algorithm(self) -> SynchronousAlgorithm | None:
        """The synchronous algorithm instance (``None`` for async-only entries).

        Exposed for bound formulas (``last_round``, ``early_bound``, ...); the
        execution itself always goes through :meth:`run`.
        """
        return self._sync_algorithm

    def agreement_degree(self, backend: str | None = None) -> int:
        """How many distinct values the runs may decide on *backend*."""
        backend = backend or self._config.backend
        if backend == "async":
            # The Section 4 algorithm solves l-set agreement.
            return self._spec.ell
        return self._degree

    def backends(self) -> tuple[str, ...]:
        """The backends the bound algorithm supports."""
        return tuple(sorted(self._entry.backends))

    def cache_stats(self) -> dict[str, CacheStats]:
        """Hit/miss counters of the memoized condition queries."""
        if self._condition is None:
            return {}
        return dict(self._condition.stats)

    # -- resource teardown ----------------------------------------------------
    def close(self) -> None:
        """Release the engine's cached execution substrates (idempotent).

        Tears down the per-spec :class:`~repro.asynchronous.executor.AsyncExecutor`
        (its shared memory and process pool) **deterministically** instead of
        leaving it to the garbage collector, drops the synchronous system and
        clears the memoized condition caches.  This is what the
        :class:`repro.serve.EngineCache` eviction path calls, and what keeps
        long-lived library users from accumulating warm substrates for specs
        they no longer run.

        A closed engine is still usable: the next run transparently rebuilds
        whatever substrate it needs (mirroring
        :class:`repro.store.ResultStore`'s reopen-on-write contract), so
        ``close()`` frees resources without invalidating the handle.  Engines
        are context managers — ``with Engine(spec) as engine: ...`` closes on
        exit.
        """
        executor = self._async_executor_cache
        if executor is not None:
            executor.close()
            self._async_executor_cache = None
        self._system = None
        self._net_system_cache = None
        self._validated_schedules.clear()
        if self._condition is not None:
            self._condition.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- single run ----------------------------------------------------------
    def run(
        self,
        vector: InputVector | Sequence[Any] | Mapping[int, Any],
        schedule: CrashSchedule | str | None = None,
        *,
        seed: int | None = None,
        backend: str | None = None,
        max_steps: int | None = None,
        async_adversary: "AsyncAdversary | str | None" = None,
        crash_steps: Mapping[int, int] | None = None,
        net_adversary: "NetAdversary | str | None" = None,
    ) -> RunResult:
        """Execute one vector and return the normalized :class:`RunResult`.

        *schedule* may be an explicit :class:`CrashSchedule`, a schedule
        registry name, or ``None`` (the config's default schedule name).
        *seed* feeds the named schedule factory and, on the asynchronous
        backend, the interleaving.  Which backend takes which of the
        remaining knobs is :data:`BACKEND_KNOBS` (the README's run-knob
        table); a knob the backend does not take raises
        :class:`InvalidParameterError`.  *max_steps* overrides the
        per-process step budget of the asynchronous backend.

        On the message-passing backend (``backend="net"``) the adversary is a
        *failure model* over individual messages: *net_adversary* is a
        registry name from :data:`repro.net.NET_ADVERSARIES`
        (``"fault-free"``, ``"send-omission"``, ``"message-loss"``, ...) or a
        :class:`~repro.net.NetAdversary` instance; ``None`` uses the config's
        default (``"fault-free"``).  *seed* feeds the seeded failure models,
        so one ``(vector, net_adversary, seed)`` triple is fully
        deterministic — the result's ``fingerprint`` digests the realized
        fault matrix.  The net backend takes no crash schedule either (pass
        ``None`` or an empty schedule).

        On the asynchronous backend the schedule's crash events project onto
        crash *points*: a process crashing in round ``r`` takes ``r - 1``
        atomic steps (plus one when its crash-round message was delivered to
        anyone — its write lands) and then vanishes, its earlier writes
        staying visible.  *crash_steps* (``pid -> steps before vanishing``)
        overrides or extends those points directly, and *async_adversary*
        picks the scheduling strategy (a registry name such as
        ``"round-robin"`` / ``"latency-skew"`` or an
        :class:`~repro.asynchronous.adversary.AsyncAdversary` instance;
        ``None`` uses the config's default).  Crashing more than ``spec.x``
        processes is allowed — the adversary may do it — but voids the
        Section 4 termination guarantee even for in-condition inputs: such
        runs typically exhaust their step budget and come back with
        ``terminated=False``.
        """
        if seed is None:
            seed = self._config.seed
        call = self._checked_call(
            schedule, vectors=(vector,), seed=seed, backend=backend,
            max_steps=max_steps, async_adversary=async_adversary,
            crash_steps=crash_steps, net_adversary=net_adversary,
        )
        return self._execute(call.vectors[0], call.schedule, seed, call.knobs)

    # -- batched runs --------------------------------------------------------
    def run_batch(
        self,
        vectors: Iterable[InputVector | Sequence[Any]],
        schedules: CrashSchedule | str | Iterable[CrashSchedule | str | None] | None = None,
        *,
        backend: str | None = None,
        chunk_size: int | None = None,
        workers: int | None = None,
        store: "ResultStore | None" = None,
        async_adversary: "AsyncAdversary | str | None" = None,
        crash_steps: Mapping[int, int] | None = None,
        net_adversary: "NetAdversary | str | None" = None,
        seeds: Iterable[int] | None = None,
    ) -> list[RunResult]:
        """Execute many vectors through one chunked, memoized pipeline.

        *schedules* may be ``None`` (config default for every run), a single
        schedule or name (applied to every run), or an iterable paired
        elementwise with *vectors* — including an infinite stream such as
        ``itertools.repeat(...)``.  When both sides are sized sequences their
        lengths must match (checked up front, nothing consumed); an unsized
        schedule stream merely has to cover every vector, surplus elements
        are left unconsumed where possible.  Run *i* derives its seed as
        ``config.seed + i``, so the whole batch is deterministic.

        *seeds* overrides that derivation with an explicit per-run seed
        stream (paired elementwise with *vectors*, sized-length-checked like
        *schedules*).  This is how callers that merge several logical batches
        into one call — the request coalescer of :mod:`repro.serve` — keep
        every merged segment byte-identical to running it alone:
        ``seeds=range(s, s + len(vectors))`` reproduces exactly the batch a
        config with base seed ``s`` would run.

        *chunk_size* is the number of runs staged and executed together; it
        must be an integer ``>= 1`` (``None`` means the config's default,
        anything else raises :class:`InvalidParameterError`).  Both *vectors*
        and elementwise *schedules* may be lazy iterables (e.g. generators):
        the batch consumes them ``chunk_size`` items at a time, so only one
        chunk of inputs is ever materialized — streaming a million-vector
        workload does not require holding it in memory.  Each chunk is
        *staged* before it is executed: its vectors are normalised and its
        schedules resolved and validated up front, so a malformed input
        aborts the chunk before any of its runs burn compute.

        *workers* (default: the config's ``workers``) shards the staged
        chunks across a process pool (:mod:`repro.parallel`) when greater
        than 1.  Seed derivation is identical to the serial path, so the
        returned list is the same whatever the worker count; the per-worker
        condition-cache statistics are merged back into
        :meth:`cache_stats`.  *store* appends every result to a
        :class:`repro.store.ResultStore` as it is produced, so an
        interrupted batch keeps what it already computed.

        *async_adversary*, *crash_steps* and *net_adversary* apply to every
        run of the batch, same contract as :meth:`run`; which backend takes
        which is :data:`BACKEND_KNOBS`, checked once per call (a seeded
        failure model is still re-seeded per run with that run's seed, so
        runs stay independent).  Parallel batches require either adversary
        as a registry name, since strategy instances do not travel to
        workers.

        Work shared across the batch: condition membership, the predicate
        ``P`` and view decoding (memoized for the engine's lifetime), the
        validation of each distinct crash schedule (done once, not per run)
        and — on the asynchronous backend — one reusable
        :class:`~repro.asynchronous.executor.AsyncExecutor` substrate instead
        of a fresh ``SharedMemory`` + process pool per run.
        """
        return list(
            self.iter_batch(
                vectors,
                schedules,
                backend=backend,
                chunk_size=chunk_size,
                workers=workers,
                store=store,
                async_adversary=async_adversary,
                crash_steps=crash_steps,
                net_adversary=net_adversary,
                seeds=seeds,
            )
        )

    def iter_batch(
        self,
        vectors: Iterable[InputVector | Sequence[Any]],
        schedules: CrashSchedule | str | Iterable[CrashSchedule | str | None] | None = None,
        *,
        backend: str | None = None,
        chunk_size: int | None = None,
        workers: int | None = None,
        store: "ResultStore | None" = None,
        async_adversary: "AsyncAdversary | str | None" = None,
        crash_steps: Mapping[int, int] | None = None,
        net_adversary: "NetAdversary | str | None" = None,
        seeds: Iterable[int] | None = None,
    ) -> Iterator[RunResult]:
        """Stream the batch: yield each :class:`RunResult` as it completes.

        Same arguments and same deterministic results as :meth:`run_batch`
        (which is ``list(iter_batch(...))``), but results are yielded
        incrementally — with ``workers > 1`` each parallel chunk is handed
        over as soon as its worker finishes it, in batch order, while later
        chunks are still executing.  Consuming lazily bounds memory on large
        sweeps and lets callers aggregate or persist on the fly.
        """
        knobs, chunk, worker_count, _, _ = self._checked_call(
            schedules, backend=backend, chunk_size=chunk_size, workers=workers,
            async_adversary=async_adversary, crash_steps=crash_steps,
            net_adversary=net_adversary,
        )
        if schedules is None or isinstance(schedules, (str, CrashSchedule)):
            pairing = itertools.repeat(schedules)
        else:
            pairing = self._paired(schedules, vectors, "schedules")
        if seeds is None:
            seed_stream: Iterator[int] = itertools.count(self._config.seed)
        else:
            seed_stream = self._paired(seeds, vectors, "explicit seeds")

        staged_chunks = self._staged_chunks(
            iter(vectors), pairing, chunk, seed_stream, knobs.backend
        )
        if worker_count == 1:
            results = self._iter_serial(staged_chunks, knobs)
        else:
            from ..parallel import BatchChunk, fan_out

            chunks = (BatchChunk(tuple(staged), knobs) for staged in staged_chunks)
            results = itertools.chain.from_iterable(fan_out(self, chunks, worker_count))
        return results if store is None else self._stored(results, store)

    @staticmethod
    def _paired(stream: Iterable[Any], vectors: Iterable[Any], what: str) -> Iterator[Any]:
        """*stream* as an iterator, once a sized pairing with *vectors* is
        checked for equal lengths (a lazy side pairs at runtime)."""
        try:
            count, vector_count = len(stream), len(vectors)  # type: ignore[arg-type]
        except TypeError:
            pass
        else:
            if count != vector_count:
                raise InvalidParameterError(
                    f"run_batch got {vector_count} vectors but {count} {what}"
                )
        return iter(stream)

    def _iter_serial(
        self,
        staged_chunks: Iterator[list[tuple[InputVector, CrashSchedule, int]]],
        knobs: RunKnobs,
    ) -> Iterator[RunResult]:
        for staged in staged_chunks:
            for normalised, crash_schedule, seed in staged:
                yield self._execute(normalised, crash_schedule, seed, knobs)

    @staticmethod
    def _stored(results: Iterator[RunResult], store: "ResultStore") -> Iterator[RunResult]:
        """*results*, each appended to *store* before it is handed over."""
        for result in results:
            store.append(result)
            yield result

    def _staged_chunks(
        self,
        vector_stream: Iterator[InputVector | Sequence[Any]],
        pairing: Iterator[CrashSchedule | str | None],
        chunk: int,
        seed_stream: Iterator[int],
        backend: str,
    ) -> Iterator[list[tuple[InputVector, CrashSchedule, int]]]:
        """Normalise, pair, seed and check the batch for *backend*, one chunk
        at a time: the runs execute unchecked."""
        exhausted = object()
        index = 0
        while True:
            chunk_vectors = list(itertools.islice(vector_stream, chunk))
            if not chunk_vectors:
                return
            staged: list[tuple[InputVector, CrashSchedule, int]] = []
            for vector in chunk_vectors:
                schedule = next(pairing, exhausted)
                if schedule is exhausted:
                    raise InvalidParameterError(
                        f"run_batch ran out of schedules after {index} runs "
                        "with vectors remaining"
                    )
                seed = next(seed_stream, exhausted)
                if seed is exhausted:
                    raise InvalidParameterError(
                        f"run_batch ran out of explicit seeds after {index} runs "
                        "with vectors remaining"
                    )
                require_int("an explicit seed", seed)
                crash_schedule = self._resolve_schedule(schedule, seed)
                self._check_schedule(crash_schedule, backend)
                staged.append(
                    (normalise_proposals(vector, self._spec.n), crash_schedule, seed)
                )
                index += 1
            yield staged

    def _checked_call(
        self,
        schedule: CrashSchedule | str | Iterable[Any] | None = None,
        *,
        vectors: Iterable[InputVector | Sequence[Any] | Mapping[int, Any]] = (),
        seed: int | None = None,
        backend: str | None = None,
        chunk_size: int | None = None,
        workers: int | None = 1,
        portable: bool = False,
        **knobs: Any,
    ) -> CheckedCall:
        """The checks :meth:`run`, :meth:`iter_batch` and :meth:`sweep` make
        before they run anything.

        The chunk size and worker count are resolved (``None``: the
        config's; a single run has one worker), the run knobs checked by
        :meth:`_run_knobs` (portable with more than one worker) and each of
        *vectors* normalised (a batch normalises its stream chunk by chunk
        as it runs).  *schedule*, as the call got it, is looked up in the
        schedule registry when it is a name or ``None`` (the config's name);
        an elementwise stream is resolved as the call runs.  A call that
        runs one schedule on this spec gives the *seed* of its first run:
        the schedule is then built for it and checked
        (:meth:`_check_schedule`), and the crash points' process ids are
        bounded by ``n``, so a factory's, the spec's or the backend's
        refusal comes first too (a sweep gives none, as its cells have
        specs of their own).  ``repro serve`` makes the same call
        before it charges a request's quota, so a request the engine
        refuses costs nothing.
        """
        chunk = self._resolve_chunk_size(chunk_size)
        worker_count = self._resolve_workers(workers)
        run_knobs = self._run_knobs(
            backend, portable=portable or worker_count > 1, **knobs
        )
        normalised = [normalise_proposals(vector, self._spec.n) for vector in vectors]
        crash_schedule = None
        if seed is not None:
            require_int("seed", seed)
            crash_schedule = self._resolve_schedule(schedule, seed)
            self._check_schedule(crash_schedule, run_knobs.backend)
            for pid, _ in run_knobs.crash_steps or ():
                if pid >= self._spec.n:
                    raise InvalidParameterError(
                        f"crashed process {pid} outside [0, {self._spec.n})"
                    )
        elif schedule is None or isinstance(schedule, str):
            SCHEDULES.get(self._config.schedule if schedule is None else schedule)
        return CheckedCall(run_knobs, chunk, worker_count, normalised, crash_schedule)

    def _checked_sweep(
        self,
        grid: Mapping[str, Iterable[Any]],
        runs_per_cell: int,
        *,
        vectors: str,
        seed: int | None,
        schedule: CrashSchedule | str | None,
        **call: Any,
    ) -> tuple[CheckedCall, dict[str, tuple[Any, ...]], int]:
        """The checks :meth:`sweep` makes before any cell runs: what
        :meth:`_checked_call` accepted of *schedule* and the *call* knobs,
        the grid's axes as tuples, and the number of cells (the product of
        the axis lengths; no cell is built here).

        A typo'd grid key, schedule or adversary name is a programming
        error, not a bad cell: the whole sweep fails up front rather than
        returning all-error cells.  ``repro serve`` makes the same call
        before it charges a ``/sweep`` request.
        """
        if seed is not None:
            require_int("seed", seed)
        if vectors not in ("in", "out", "random"):
            raise InvalidParameterError(
                f"vectors must be 'in', 'out' or 'random', got {vectors!r}"
            )
        require_int("runs_per_cell", runs_per_cell, 0)
        checked = self._checked_call(schedule, portable=True, **call)
        if not isinstance(grid, Mapping) or not grid:
            raise InvalidParameterError(
                f"a sweep needs a non-empty mapping of spec fields to values, got {grid!r}"
            )
        spec_fields = {f.name for f in dataclasses.fields(AgreementSpec)}
        unknown = sorted(set(grid) - spec_fields)
        if unknown:
            raise InvalidParameterError(
                f"unknown grid field(s) {', '.join(map(repr, unknown))}; "
                f"AgreementSpec fields are: {', '.join(sorted(spec_fields))}"
            )
        axes = {}
        for name, values in grid.items():
            # A string would sweep its characters, a mapping its keys.
            iterable = isinstance(values, Iterable) and not isinstance(values, (str, Mapping))
            axes[name] = tuple(values) if iterable else ()
            if not axes[name]:
                raise InvalidParameterError(
                    f"grid axis {name!r} needs a non-empty collection of values, got {values!r}"
                )
        return checked, axes, math.prod(map(len, axes.values()))

    def _resolve_chunk_size(self, chunk_size: int | None) -> int:
        if chunk_size is None:
            return self._config.chunk_size
        require_int("chunk_size", chunk_size, 1)
        return chunk_size

    def _resolve_workers(self, workers: int | None) -> int:
        if workers is None:
            return self._config.workers
        require_int("workers", workers, 1)
        return workers

    def _run_knobs(
        self, backend: str | None, *, portable: bool = False, **knobs: Any
    ) -> RunKnobs:
        """Check one call's knobs (the :class:`RunKnobs` fields) against
        :data:`BACKEND_KNOBS`, once.

        *backend* ``None`` is the config's backend.  An adversary name is
        looked up in its registry here, so an unknown one raises what a run
        would, before anything runs.  A *portable* call (a parallel batch,
        any sweep) needs its adversaries as registry names: strategy and
        failure-model objects do not travel to workers.
        """
        backend = backend or self._config.backend
        require_backend(backend)
        if backend not in self.backends():
            raise BackendError(
                f"algorithm {self._algorithm_name!r} does not run on the {backend!r} "
                f"backend (supported: {', '.join(self.backends())})"
            )
        given = {name: value for name, value in knobs.items() if value is not None}
        taken = BACKEND_KNOBS[backend]
        refused = [name for name in given if name not in taken]
        if refused:
            raise InvalidParameterError(
                f"the {backend} backend does not take {', '.join(refused)}; "
                f"it takes {', '.join(taken) or 'no run knobs'}"
            )
        for name in ("async_adversary", "net_adversary"):
            value = given.get(name)
            if value is None:
                continue
            kind, registry = _adversary_registry(name)
            if isinstance(value, str):
                registry.get(value)
                continue
            if not isinstance(value, kind):
                raise InvalidParameterError(
                    f"{name} must be a registry name or a {kind.__name__}, got {value!r}"
                )
            if portable:
                raise InvalidParameterError(
                    f"{name} must be a registry name here, got a "
                    f"{type(value).__name__}: adversary objects do not travel "
                    "to worker processes"
                )
        if "max_steps" in given:
            require_int("max_steps", given["max_steps"], 1)
        if "crash_steps" in given:
            crash_steps = given["crash_steps"]
            if not isinstance(crash_steps, Mapping):
                raise InvalidParameterError(
                    f"crash_steps must map process ids to steps, got {crash_steps!r}"
                )
            for pid, steps in crash_steps.items():
                require_int("a crash_steps process id", pid, 0)
                require_int(f"the crash step of process {pid}", steps, 0)
            given["crash_steps"] = tuple(sorted(crash_steps.items()))
        return RunKnobs(backend, **given)

    def _absorb_worker_stats(self, deltas: Mapping[str, tuple[int, int]]) -> None:
        """Merge per-worker cache hit/miss deltas into this engine's counters.

        Parallel chunks answer their condition queries from per-worker
        :class:`MemoizedCondition` caches; merging their counters keeps
        :meth:`cache_stats` an account of the *whole* batch, serial or not.
        """
        if self._condition is None:
            return
        for query, (hits, misses) in deltas.items():
            stats = self._condition.stats.get(query)
            if stats is not None:
                stats.hits += hits
                stats.misses += misses

    # -- exhaustive verification ---------------------------------------------
    def check(
        self,
        *,
        backend: str | None = None,
        rounds: int | None = None,
        depth: int | None = None,
        max_crashes: int | None = None,
        adversary: str | None = None,
        max_faults: int | None = None,
        reference: str | None = None,
        vectors: Iterable[InputVector | Sequence[Any]] | None = None,
        oracles: Iterable[str] | None = None,
        workers: int | None = None,
        store: "ResultStore | None" = None,
        max_counterexamples: int = 25,
        max_vectors: int = 12,
        all_vectors_limit: int = 100,
        vectorized: bool = True,
    ):
        """Verify the bound algorithm over **every** adversary of its model.

        Model checking, not sampling — one checker
        (:func:`repro.check.run_check`) over the adversary space of each of
        the three backends:

        * ``backend="sync"`` (the default, :class:`repro.check.SyncSpace`):
          the complete Section 6.2 schedule space for ``(spec.n, spec.t)``
          with crash rounds in ``[1, rounds]`` (default: the unconditional
          deadline ``⌊t/k⌋ + 1`` — later crashes are unobservable),
          enumerated through :func:`repro.sync.adversary.enumerate_schedules`
          and evaluated by the round-bound oracles of
          :mod:`repro.check.oracles`.
        * ``backend="async"`` (:class:`repro.check.AsyncSpace`): the
          bounded-interleaving space — every scheduling prefix of
          ``{0..n-1}^depth`` (default ``depth = n``), crossed with every
          crash assignment of at most *max_crashes* processes (default
          ``spec.x``) to crash points in ``[0, depth]`` — evaluated by the
          asynchronous oracles (validity, l-agreement, in-condition
          termination within budget, the per-process step budget).
        * ``backend="net"`` (:class:`repro.check.NetSpace`): the complete
          fault space of one message-level failure model — *adversary*
          names the family (:data:`repro.net.NET_ADVERSARIES`; default
          ``send-omission``) and *max_faults* bounds the fault count
          (default ``spec.t``): every static omission assignment of at most
          *max_faults* victims, or every set of at most *max_faults*
          dropped / delayed / corrupted channels over ``rounds`` rounds
          (default: the algorithm's round bound) — enumerated through
          :func:`repro.net.enumerate_faults` and evaluated by the
          applicability-gated net oracles (validity and agreement claim
          nothing under ``byzantine-corrupt``; termination always applies).

        *reference* (sync only) makes the check differential, the drift
        detector: it names a registered algorithm that reruns on every
        execution of the checked algorithm's frontier, and the space's one
        oracle, ``reference-decisions``, counts each execution on which the
        two decide differently, even where both satisfy every property.
        Its counterexamples replay the checked algorithm, and their detail
        names both decision maps.

        A backend takes exactly the bounds that are fields of its space
        (*rounds* and *reference* on sync, *rounds* on net, *depth* /
        *max_crashes* on async, *adversary* / *max_faults* on net); any
        other bound raises.  Every bound but *adversary* and *reference*
        must be an ``int`` (not a ``bool``), as must *max_counterexamples*,
        *max_vectors* and *all_vectors_limit*.

        Either way the space's closed form is cross-validated against its
        generator on every run, each adversary is executed against a
        deterministic input frontier (*vectors* if given; otherwise all
        ``m^n`` vectors when ``m^n <= all_vectors_limit``, else a structured
        frontier of at most *max_vectors* boundary / just-outside / sampled
        vectors), *oracles* selects a subset of the space's oracle registry
        (each at most once; default all), the returned
        :class:`repro.check.CheckReport` carries replayable counterexample
        records (at most *max_counterexamples*; violations are always
        counted in full), *workers* (default: the config's ``workers``)
        shards the adversary space across the process pool with a
        **byte-identical** report, and *store* persists the counterexamples
        as JSONL records.

        *vectorized* (default ``True``) routes the check through the
        space's batch hook whenever it covers the algorithm and oracles,
        transparently falling back to the reference object runtime
        otherwise: on sync, the packed batch evaluator of :mod:`repro.vec`;
        on async, a memo that runs each class of identical executions once;
        net has no hook.  ``vectorized=False`` forces the reference path,
        every adversary executed.  Either way the report is byte-identical.
        """
        from ..check.checker import run_check, space_from_bounds

        space = space_from_bounds(
            backend,
            rounds=rounds,
            depth=depth,
            max_crashes=max_crashes,
            adversary=adversary,
            max_faults=max_faults,
            reference=reference,
        )
        return run_check(
            self,
            space,
            vectors=vectors,
            oracles=oracles,
            workers=workers,
            store=store,
            max_counterexamples=max_counterexamples,
            max_vectors=max_vectors,
            all_vectors_limit=all_vectors_limit,
            vectorized=vectorized,
        )

    # -- parameter sweeps ----------------------------------------------------
    def sweep(
        self,
        grid: Mapping[str, Iterable[Any]],
        runs_per_cell: int = 4,
        *,
        vectors: str = "in",
        schedule: CrashSchedule | str | None = None,
        backend: str | None = None,
        workers: int | None = None,
        store: "ResultStore | None" = None,
        async_adversary: str | None = None,
        crash_steps: Mapping[int, int] | None = None,
        net_adversary: str | None = None,
        seed: int | None = None,
    ) -> list[SweepCell]:
        """Run a batch for every combination of the *grid* spec overrides.

        *grid* maps :class:`AgreementSpec` field names to candidate values,
        e.g. ``{"d": (1, 2, 3), "k": (2, 3)}`` — including the ``condition``
        field itself, so ``{"condition": ("max-legal", "hamming-ball")}``
        sweeps the same workload across condition families.  Each cell
        derives a spec, a sibling engine (same algorithm and config) and
        *runs_per_cell* input vectors: inside the condition
        (``vectors="in"``), outside (``"out"``), or uniform (``"random"``).
        Non-default families draw their vectors through the generic
        condition samplers of :mod:`repro.workloads.vectors`.  Invalid
        combinations — e.g. ``d > t`` or an unsatisfiable outside-vector
        request — yield a cell with :attr:`SweepCell.error` set instead of
        raising, so a grid may safely cross parameter ranges.  An empty grid,
        an axis that is empty, a string or a mapping, an unknown grid field,
        *vectors* mode, *schedule* or adversary name, or a negative
        *runs_per_cell* raises before any cell runs.

        *workers* (default: the config's ``workers``) shards whole cells
        across a process pool when greater than 1; every cell derives its
        vectors and seeds from the base seed plus its grid index, so the
        returned cells are identical to the serial sweep.  *store* appends
        every completed cell to a :class:`repro.store.ResultStore`, in cell
        order, so an interrupted sweep keeps its finished cells.
        *async_adversary*, *crash_steps* and *net_adversary* apply to every
        run of every cell, same contract as :meth:`run`; which backend takes
        which is :data:`BACKEND_KNOBS`, checked once before any cell runs,
        and both adversaries must be registry names (cells stay picklable).
        *seed* overrides the config's base seed for the whole sweep (cell
        *i* keeps deriving ``seed + i``), byte-identical to sweeping an
        engine whose config carries that seed — which is how
        :mod:`repro.serve` serves per-request seeds from one cached engine.
        """
        (knobs, _, worker_count, _, _), axes, _ = self._checked_sweep(
            grid, runs_per_cell, vectors=vectors, seed=seed, schedule=schedule,
            backend=backend, workers=workers, async_adversary=async_adversary,
            crash_steps=crash_steps, net_adversary=net_adversary,
        )
        if seed is None:
            seed = self._config.seed
        combos = (dict(zip(axes, combo)) for combo in itertools.product(*axes.values()))
        if worker_count == 1:
            cell_stream = (
                self._sweep_cell(overrides, index, runs_per_cell, vectors, schedule, knobs, seed)
                for index, overrides in enumerate(combos)
            )
        else:
            from ..parallel import CellTask, fan_out

            tasks = (
                CellTask(
                    index, tuple(overrides.items()), runs_per_cell, vectors, schedule, knobs, seed
                )
                for index, overrides in enumerate(combos)
            )
            cell_stream = fan_out(self, tasks, worker_count)
        # Persist each cell the moment it exists: an interrupted sweep must
        # keep its finished cells, not lose them to a final bulk write.
        cells: list[SweepCell] = []
        for cell in cell_stream:
            if store is not None:
                store.append_cell(cell)
            cells.append(cell)
        return cells

    def _sweep_cell(
        self,
        overrides: Mapping[str, Any],
        index: int,
        runs_per_cell: int,
        vectors: str,
        schedule: CrashSchedule | str | None,
        knobs: RunKnobs,
        seed: int,
    ) -> SweepCell:
        """Execute one sweep cell (shared by the serial and parallel paths):
        its vectors draw from ``seed + index`` and its runs seed from
        *seed* on."""
        from ..workloads.vectors import (
            random_vector,
            vector_in_condition,
            vector_in_max_condition,
            vector_outside_condition,
            vector_outside_max_condition,
        )

        overrides = dict(overrides)
        try:
            cell_overrides = dict(overrides)
            # Condition parameters belong to one family: when the sweep
            # moves the condition axis to a different family, the base
            # spec's params (e.g. a hamming-ball radius) would be rejected
            # by the new family's builder — reset them unless the grid
            # sets them explicitly.
            if (
                "condition" in cell_overrides
                and "condition_params" not in cell_overrides
                and cell_overrides["condition"] != self._spec.condition
            ):
                cell_overrides["condition_params"] = ()
            cell_spec = self._spec.replace(**cell_overrides)
            engine = Engine(cell_spec, self._algorithm_name, self._config)
            rng = Random(seed + index)
            default_family = cell_spec.condition == "max-legal"
            cell_oracle = None if default_family else cell_spec.condition_oracle()
            batch: list[InputVector] = []
            for _ in range(runs_per_cell):
                if vectors == "in":
                    if default_family:
                        batch.append(
                            vector_in_max_condition(
                                cell_spec.n, cell_spec.domain, cell_spec.x, cell_spec.ell, rng
                            )
                        )
                    else:
                        batch.append(
                            vector_in_condition(
                                cell_oracle, cell_spec.n, cell_spec.domain, rng
                            )
                        )
                elif vectors == "out":
                    if default_family:
                        batch.append(
                            vector_outside_max_condition(
                                cell_spec.n, cell_spec.domain, cell_spec.x, cell_spec.ell, rng
                            )
                        )
                    else:
                        batch.append(
                            vector_outside_condition(
                                cell_oracle, cell_spec.n, cell_spec.domain, rng
                            )
                        )
                else:
                    batch.append(random_vector(cell_spec.n, cell_spec.domain, rng))
            # Cells never fan out again themselves: sweep parallelism is at
            # cell granularity, so the cell batch runs serially even where
            # the config asks for workers.
            staged = engine._staged_chunks(
                iter(batch),
                itertools.repeat(schedule),
                self._config.chunk_size,
                itertools.count(seed),
                knobs.backend,
            )
            results = list(engine._iter_serial(staged, knobs))
        except ReproError as error:  # bad parameter combos report; bugs raise
            return SweepCell(
                spec=self._safe_cell_spec(overrides),
                error=f"{type(error).__name__}: {error}",
                overrides=overrides,
            )
        return SweepCell(spec=cell_spec, results=results, overrides=overrides)

    def _safe_cell_spec(self, overrides: Mapping[str, Any]) -> AgreementSpec:
        """Best-effort spec for an errored cell (falls back to the base spec).

        The cell's ``overrides`` field stays authoritative for what was asked.
        """
        try:
            return self._spec.replace(**overrides)
        except ReproError:
            return self._spec

    # -- internals -----------------------------------------------------------
    def _resolve_schedule(
        self, schedule: CrashSchedule | str | None, seed: int
    ) -> CrashSchedule:
        if isinstance(schedule, CrashSchedule):
            return schedule
        name = self._config.schedule if schedule is None else schedule
        factory = SCHEDULES.get(name)
        return factory(self._spec, self._config.crashes, seed)

    def _check_schedule(self, schedule: CrashSchedule, backend: str) -> None:
        """Refuse a schedule *backend* cannot run: any crash on net, or one
        the spec refuses (validated once per schedule object)."""
        if backend == "net" and len(schedule) > 0:
            raise InvalidParameterError(
                "the net backend takes no crash schedule — its failure model "
                "is the net adversary (crash-style omission is the "
                "'send-omission' family)"
            )
        key = id(schedule)
        if self._validated_schedules.get(key) is not schedule:
            schedule.validate(self._spec.n, self._spec.t)
            self._validated_schedules[key] = schedule

    def _runtime(self, backend: str) -> "SynchronousSystem | NetSystem | AsyncExecutor":
        """The engine's runtime of *backend*, built on first use."""
        return {
            "sync": self._sync_system, "net": self._net_system, "async": self._async_executor
        }[backend]()

    def _sync_system(self) -> SynchronousSystem:
        if self._system is None:
            if self._sync_algorithm is None:
                raise BackendError(
                    f"algorithm {self._algorithm_name!r} has no synchronous factory"
                )
            self._system = SynchronousSystem(
                n=self._spec.n,
                t=self._spec.t,
                algorithm=self._sync_algorithm,
                record_trace=self._config.record_trace,
            )
        return self._system

    def _net_system(self) -> "NetSystem":
        if self._net_system_cache is None:
            from ..net.runtime import NetSystem

            if self._sync_algorithm is None:
                raise BackendError(
                    f"algorithm {self._algorithm_name!r} has no round-based factory"
                )
            self._net_system_cache = NetSystem(
                n=self._spec.n,
                t=self._spec.t,
                algorithm=self._sync_algorithm,
            )
        return self._net_system_cache

    def _async_executor(self) -> "AsyncExecutor":
        """The engine's reusable asynchronous substrate (one per spec)."""
        if self._async_executor_cache is None:
            from ..algorithms.async_condition_set_agreement import (
                AsyncConditionSetAgreementProcess,
            )
            from ..asynchronous.executor import AsyncExecutor

            factory_builder = self._entry.async_factory
            if factory_builder is not None:
                factory = factory_builder(self._spec, self._condition)
            else:
                if self._condition is None:
                    raise BackendError(
                        f"algorithm {self._algorithm_name!r} carries no condition; "
                        "the asynchronous backend needs one"
                    )
                condition, x = self._condition, self._spec.x

                def factory(pid, n, memory):
                    return AsyncConditionSetAgreementProcess(pid, n, memory, condition, x)

            self._async_executor_cache = AsyncExecutor(
                self._spec.n, factory, self._config.max_steps_per_process
            )
        return self._async_executor_cache

    def _async_crash_steps(
        self,
        schedule: CrashSchedule,
        crash_steps: tuple[tuple[int, int], ...] | None,
    ) -> dict[int, int]:
        """Project the crash schedule onto asynchronous crash points.

        A process crashing in round ``r`` has completed ``r − 1`` rounds, one
        atomic step each, plus the crash-round send when anyone received it —
        so its crash point is ``(r − 1) + (1 if delivered else 0)``.  In
        particular a round-1 crash with no delivery is the initial crash
        (point ``0``, the historical modelling), while any later or
        delivering crash leaves the process's proposal visible in the shared
        memory.  Explicit *crash_steps* entries override the projection.
        """
        points = {
            event.process_id: (event.round_number - 1)
            + (1 if event.delivered_to else 0)
            for event in schedule
        }
        points.update(crash_steps or ())
        return points

    def _execute(
        self,
        vector: InputVector,
        schedule: CrashSchedule,
        seed: int,
        knobs: RunKnobs,
    ) -> RunResult:
        """One execution under already-checked *knobs* (see :meth:`_run_knobs`)
        and an already-checked *schedule* (see :meth:`_check_schedule`): each
        call path checks a schedule once, where it enters."""
        backend = knobs.backend
        condition = self._condition
        in_condition = None if condition is None else condition.contains(vector)
        condition_name = self._condition_name

        if backend == "sync":
            result = self._sync_system().run(vector, schedule, validate_schedule=False)
            return RunResult.from_sync(
                result, self._algorithm_name, in_condition, condition_name
            )

        if backend == "net":
            adversary = (
                self._config.net_adversary
                if knobs.net_adversary is None
                else knobs.net_adversary
            )
            result = self._net_system().run(vector, adversary, seed=seed)
            return RunResult.from_net(
                result, self._algorithm_name, in_condition, condition_name
            )

        # Asynchronous backend: the schedule projects onto crash points (a
        # round-r crash takes its r − 1 pre-crash steps and then vanishes,
        # its writes staying visible) and the adversary strategy owns the
        # interleaving.  More than spec.x faulty processes is legal but
        # guarantee-free: the run may block and report terminated=False (see
        # run()'s docstring).
        result = self._async_executor().run(
            list(vector),
            crash_steps=self._async_crash_steps(schedule, knobs.crash_steps),
            adversary=(
                self._config.async_adversary
                if knobs.async_adversary is None
                else knobs.async_adversary
            ),
            seed=seed,
            max_steps_per_process=knobs.max_steps,
        )
        return RunResult.from_async(
            result,
            vector,
            self._algorithm_name,
            t=self._spec.t,
            in_condition=in_condition,
            schedule=schedule,
            condition=condition_name,
        )
