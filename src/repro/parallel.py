"""Process-pool execution of engine batches and sweeps.

The synchronous simulator and the condition oracles are pure Python, so a
single interpreter caps batch throughput at one core.  This module shards
the work of :meth:`repro.api.Engine.run_batch` / :meth:`~repro.api.Engine.sweep`
/ :meth:`~repro.api.Engine.check` across a
:class:`concurrent.futures.ProcessPoolExecutor`:

* **Task envelopes are picklable by construction** — a batch chunk carries
  the frozen :class:`~repro.api.AgreementSpec`, the algorithm's registry key,
  the frozen :class:`~repro.api.RunConfig`, the staged
  ``(vector, schedule, seed)`` triples and the call's checked, frozen
  :class:`~repro.api.engine.RunKnobs`; a sweep cell carries the grid
  overrides, its index and the same knobs; a check shard carries the frozen
  adversary space of :mod:`repro.check` (sync schedules, net fault assignments or
  async interleavings) and a contiguous index range into its deterministic
  point stream (the worker re-derives the points).  Workers rebuild the
  engine from the envelope and
  cache it per ``(spec, algorithm, config)`` for the life of the worker
  process, so consecutive chunks of one batch share a warm
  :class:`~repro.api.engine.MemoizedCondition`.
* **Determinism is preserved** — staging (vector normalisation, schedule
  resolution, seed derivation ``config.seed + i``) happens in the parent
  exactly as on the serial path, so run *i* executes with the same schedule
  and seed whatever the worker count, and the result sequence is identical.
* **Cache statistics flow back** — each chunk returns the hit/miss *delta*
  its queries produced on the worker's memoized condition; the parent merges
  the deltas into :meth:`~repro.api.Engine.cache_stats`, which therefore
  keeps describing the whole batch.
* **Memory stays bounded** — chunks are submitted with a sliding window of
  ``2 × workers`` outstanding tasks, so a lazily generated million-vector
  workload is never materialized, and :func:`execute_batch` yields each
  chunk's results (in batch order) as soon as its worker finishes.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from .core.vectors import InputVector
from .sync.adversary import CrashSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only (engine imports us lazily)
    from .api.engine import Engine, RunKnobs, SweepCell
    from .api.result import RunResult
    from .api.spec import AgreementSpec, RunConfig
    from .check.checker import CheckSpace, Counterexample, OracleTally
    from .store import ResultStore

__all__ = [
    "BatchChunk",
    "CellTask",
    "CheckShard",
    "ChunkOutcome",
    "CheckOutcome",
    "execute_batch",
    "execute_sweep",
    "execute_check",
]

#: Outstanding tasks kept in flight per worker: enough to hide scheduling
#: gaps without materializing a lazy workload.
SUBMIT_WINDOW_PER_WORKER = 2


# ----------------------------------------------------------------------
# Task envelopes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchChunk:
    """One shard of a batch: fully staged runs plus the engine recipe."""

    spec: "AgreementSpec"
    algorithm: str
    config: "RunConfig"
    index: int
    runs: tuple[tuple[InputVector, CrashSchedule, int], ...]
    #: The batch's knobs, applied to every run of the chunk (adversaries
    #: travel as registry names; the engine refuses objects up front).
    knobs: "RunKnobs"


@dataclass(frozen=True)
class CellTask:
    """One sweep cell: the base engine recipe plus the cell's grid overrides."""

    spec: "AgreementSpec"
    algorithm: str
    config: "RunConfig"
    index: int
    # Grid-override values are arbitrary by design; Engine.sweep validates
    # them against the spec before any worker sees the task.
    overrides: tuple[tuple[str, Any], ...]  # repro: lint-ok[envelope-fields]
    runs_per_cell: int
    vectors: str
    schedule: CrashSchedule | str | None
    knobs: "RunKnobs"


@dataclass
class ChunkOutcome:
    """What a worker sends back for one chunk: results and cache-stat deltas."""

    index: int
    results: list["RunResult"]
    stats: dict[str, tuple[int, int]]


@dataclass(frozen=True)
class CheckShard:
    """One contiguous slice of an exhaustive check's adversary space.

    ``[start, stop)`` indexes into the deterministic point stream of
    *space* (:class:`~repro.check.SyncSpace`,
    :class:`~repro.check.NetSpace` or :class:`~repro.check.AsyncSpace`);
    the worker re-derives the points from the indices (points are cheap to
    enumerate, so shipping indices beats shipping thousands of pickled
    schedules or adversaries).
    """

    spec: "AgreementSpec"
    algorithm: str
    config: "RunConfig"
    #: The resolved space: its bounds travel, its oracles are looked up by
    #: name in the worker.
    space: "CheckSpace"
    start: int
    #: ``None`` on the final shard: it reads the stream to exhaustion so an
    #: over-producing generator is caught by the closed-form cross-check.
    stop: int | None
    vectors: tuple[InputVector, ...]
    oracle_names: tuple[str, ...]
    max_counterexamples: int
    index: int
    #: Route the slice through the space's batch hook (the worker
    #: falls back to the scalar loop whenever the hook declines the engine).
    vectorized: bool = False


@dataclass
class CheckOutcome:
    """What a worker sends back for one check shard."""

    index: int
    enumerated: int
    executions: int
    tallies: list["OracleTally"]
    #: The counterexamples, in execution order.
    counterexamples: list["Counterexample"]
    stats: dict[str, tuple[int, int]]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Engines rebuilt in this worker process, keyed by their (hashable) recipe.
#: Living for the whole worker lifetime, they give consecutive chunks of a
#: batch the same warm memoized condition the serial path enjoys.
_WORKER_ENGINES: dict[tuple, "Engine"] = {}


def _worker_engine(spec: "AgreementSpec", algorithm: str, config: "RunConfig") -> "Engine":
    from .api.engine import Engine

    key = (spec, algorithm, config)
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        engine = _WORKER_ENGINES[key] = Engine(spec, algorithm, config)
    return engine


def _stats_snapshot(engine: "Engine") -> dict[str, tuple[int, int]]:
    return {name: (stats.hits, stats.misses) for name, stats in engine.cache_stats().items()}


def _stats_delta(
    engine: "Engine", before: dict[str, tuple[int, int]]
) -> dict[str, tuple[int, int]]:
    """The cache hits and misses *engine* made since the *before* snapshot."""
    return {
        name: (hits - before[name][0], misses - before[name][1])
        for name, (hits, misses) in _stats_snapshot(engine).items()
    }


def _execute_chunk(chunk: BatchChunk) -> ChunkOutcome:
    """Run one staged chunk in the worker and report results + stat deltas."""
    engine = _worker_engine(chunk.spec, chunk.algorithm, chunk.config)
    before = _stats_snapshot(engine)
    results = [
        engine._execute(vector, schedule, seed, chunk.knobs)
        for vector, schedule, seed in chunk.runs
    ]
    return ChunkOutcome(chunk.index, results, _stats_delta(engine, before))


def _execute_cell(task: CellTask) -> "SweepCell":
    """Run one sweep cell in the worker (same code path as the serial sweep)."""
    engine = _worker_engine(task.spec, task.algorithm, task.config)
    return engine._sweep_cell(
        dict(task.overrides),
        task.index,
        task.runs_per_cell,
        task.vectors,
        task.schedule,
        task.knobs,
    )


def _execute_check_shard(shard: CheckShard) -> CheckOutcome:
    """Check one slice of the space in the worker (same code path as serial)."""
    from .api.registry import ALGORITHMS
    from .check.checker import check_slice

    if any(
        name is not None and name not in ALGORITHMS
        for name in (shard.algorithm, shard.space.reference)
    ):
        # Mutants are registered at runtime (never at import), so a worker
        # started via spawn/forkserver has a registry without them, whether
        # one is checked or is the reference; re-run the idempotent
        # registration instead of failing the shard.
        from .check.mutants import register_mutants

        register_mutants()
    engine = _worker_engine(shard.spec, shard.algorithm, shard.config)
    before = _stats_snapshot(engine)
    enumerated, executions, tallies, counterexamples = check_slice(
        engine,
        shard.space,
        shard.start,
        shard.stop,
        shard.vectors,
        shard.oracle_names,
        shard.max_counterexamples,
        vectorized=shard.vectorized,
    )
    return CheckOutcome(
        shard.index, enumerated, executions, tallies, counterexamples,
        _stats_delta(engine, before),
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def execute_batch(
    engine: "Engine",
    staged_chunks: Iterator[list[tuple[InputVector, CrashSchedule, int]]],
    knobs: "RunKnobs",
    workers: int,
    *,
    store: "ResultStore | None" = None,
) -> Iterator["RunResult"]:
    """Stream a staged batch through a process pool, in batch order.

    *staged_chunks* is the engine's staging generator (normalised vectors,
    resolved schedules, derived seeds), consumed lazily: at most
    ``SUBMIT_WINDOW_PER_WORKER × workers`` chunks are in flight.  Results are
    yielded chunk by chunk in submission order, each chunk as soon as its
    worker completes it; worker cache-stat deltas are merged into *engine*
    before the chunk's results are handed over, and *store* (when given)
    persists each result first.
    """
    window = SUBMIT_WINDOW_PER_WORKER * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: dict[int, "Future[ChunkOutcome]"] = {}
        next_to_submit = 0
        next_to_yield = 0
        exhausted = False
        while True:
            while not exhausted and len(pending) < window:
                staged = next(staged_chunks, None)
                if staged is None:
                    exhausted = True
                    break
                chunk = BatchChunk(
                    spec=engine.spec,
                    algorithm=engine.algorithm_name,
                    config=engine.config,
                    index=next_to_submit,
                    runs=tuple(staged),
                    knobs=knobs,
                )
                pending[next_to_submit] = pool.submit(_execute_chunk, chunk)
                next_to_submit += 1
            if next_to_yield not in pending:
                break
            outcome = pending.pop(next_to_yield).result()
            next_to_yield += 1
            engine._absorb_worker_stats(outcome.stats)
            for result in outcome.results:
                if store is not None:
                    store.append(result)
                yield result


def execute_sweep(
    engine: "Engine",
    combos: list[dict[str, Any]],
    runs_per_cell: int,
    vectors: str,
    schedule: CrashSchedule | str | None,
    knobs: "RunKnobs",
    workers: int,
) -> Iterator["SweepCell"]:
    """Shard the sweep's cells across a process pool, yielding in cell order.

    Cells are yielded as :meth:`Executor.map` hands them over, so the caller
    can persist each one before the sweep finishes.
    """
    tasks = [
        CellTask(
            spec=engine.spec,
            algorithm=engine.algorithm_name,
            config=engine.config,
            index=index,
            overrides=tuple(overrides.items()),
            runs_per_cell=runs_per_cell,
            vectors=vectors,
            schedule=schedule,
            knobs=knobs,
        )
        for index, overrides in enumerate(combos)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_execute_cell, tasks)


def execute_check(
    engine: "Engine",
    space: "CheckSpace",
    adversary_count: int,
    vectors: tuple[InputVector, ...],
    oracle_names: tuple[str, ...],
    workers: int,
    max_counterexamples: int,
    *,
    vectorized: bool = False,
) -> Iterator[CheckOutcome]:
    """Shard an exhaustive check's adversary space across a process pool.

    The space ``[0, adversary_count)`` is cut into
    ``workers × SUBMIT_WINDOW_PER_WORKER`` contiguous index ranges and
    outcomes are yielded **in shard order**, so the caller's merge reproduces
    the serial evaluation order exactly — tallies sum, counterexample lists
    concatenate into the serial list (each shard already caps at the global
    maximum, and only the first shards' entries survive the final cap).
    Worker cache-stat deltas are merged into *engine* before each outcome is
    handed over.
    """
    shard_target = max(1, workers * SUBMIT_WINDOW_PER_WORKER)
    shard_size = max(1, -(-adversary_count // shard_target))
    starts = list(range(0, adversary_count, shard_size))
    shards = [
        CheckShard(
            spec=engine.spec,
            algorithm=engine.algorithm_name,
            config=engine.config,
            space=space,
            start=start,
            # The last shard reads to exhaustion (stop=None) so that a
            # generator producing more points than the closed form
            # predicts is detected, not silently truncated.
            stop=None if start == starts[-1] else start + shard_size,
            vectors=vectors,
            oracle_names=oracle_names,
            max_counterexamples=max_counterexamples,
            index=index,
            vectorized=vectorized,
        )
        for index, start in enumerate(starts)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for outcome in pool.map(_execute_check_shard, shards):
            engine._absorb_worker_stats(outcome.stats)
            yield outcome
