"""Process-pool execution of engine batches, sweeps and checks.

The synchronous simulator and the condition oracles are pure Python, so a
single interpreter caps throughput at one core.  This module shards the work
of :meth:`repro.api.Engine.run_batch` / :meth:`~repro.api.Engine.sweep` /
:meth:`~repro.api.Engine.check` across a
:class:`concurrent.futures.ProcessPoolExecutor`, the same way for all three:

* **Envelopes** — a :class:`BatchChunk` carries staged
  ``(vector, schedule, seed)`` triples and the call's checked, frozen
  :class:`~repro.api.engine.RunKnobs`; a :class:`CellTask` carries one sweep
  cell's index, grid overrides and the same knobs; a :class:`CheckShard`
  carries the frozen adversary space of :mod:`repro.check` and a contiguous
  index range into its deterministic point stream (the worker re-derives
  the points).  Called with an engine, each runs the serial path's own code
  on it: ``Engine._execute``, ``Engine._sweep_cell`` or
  :func:`~repro.check.checker.check_slice`.  One :class:`WorkerTask`
  carries an envelope with the engine recipe (spec, algorithm registry key,
  config); all of them are frozen and picklable by construction.
* **One worker entry** — :func:`_run_task` rebuilds the engine and caches
  it per recipe for the life of the worker process, so consecutive tasks
  share a warm :class:`~repro.api.engine.MemoizedCondition`.  The mutants of
  :mod:`repro.check.mutants` are registered at runtime, never at import, so
  a worker that ``spawn`` or ``forkserver`` starts has none of them: the
  entry re-registers them whenever the algorithm or a check's reference is
  unknown.  It returns the envelope's output with the hit/miss *delta* of
  the worker's memoized condition.
* **One parent driver** — :func:`fan_out` keeps
  ``SUBMIT_WINDOW_PER_WORKER × workers`` tasks in flight, so a lazily
  generated million-vector workload is never materialized, and yields the
  outputs in submission order, each as soon as its worker finishes.  It
  merges each cache-stat delta into the parent engine first, so
  :meth:`~repro.api.Engine.cache_stats` describes the whole call.
  :func:`execute_check` is a check's shard plan over it.
* **Determinism** — staging (vector normalisation, schedule resolution,
  seed derivation ``config.seed + i``) happens in the parent exactly as on
  the serial path, a sweep cell seeds from its grid index, and shard
  outcomes merge in shard order, so every output is identical whatever the
  worker count.

The serial paths import nothing from here: this module loads
:mod:`multiprocessing`.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .core.vectors import InputVector
from .sync.adversary import CrashSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only (engine imports us lazily)
    from .api.engine import Engine, RunKnobs, SweepCell
    from .api.result import RunResult
    from .api.spec import AgreementSpec, RunConfig
    from .check.checker import CheckSpace, Counterexample, OracleTally

__all__ = [
    "BatchChunk",
    "CellTask",
    "CheckShard",
    "WorkerTask",
    "fan_out",
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
    """One shard of a batch: fully staged runs."""

    runs: tuple[tuple[InputVector, CrashSchedule, int], ...]
    #: The batch's knobs, applied to every run of the chunk (adversaries
    #: travel as registry names; the engine refuses objects up front).
    knobs: "RunKnobs"

    def __call__(self, engine: "Engine") -> list["RunResult"]:
        return [
            engine._execute(vector, schedule, seed, self.knobs)
            for vector, schedule, seed in self.runs
        ]


@dataclass(frozen=True)
class CellTask:
    """One sweep cell: its grid index and overrides, and the sweep's arguments."""

    index: int
    # Grid-override values are arbitrary by design; Engine.sweep validates
    # them against the spec before any worker sees the task.
    overrides: tuple[tuple[str, Any], ...]  # repro: lint-ok[envelope-fields]
    runs_per_cell: int
    vectors: str
    schedule: CrashSchedule | str | None
    knobs: "RunKnobs"
    #: The sweep's base seed, which may differ from the engine config's.
    seed: int

    def __call__(self, engine: "Engine") -> "SweepCell":
        return engine._sweep_cell(
            dict(self.overrides),
            self.index,
            self.runs_per_cell,
            self.vectors,
            self.schedule,
            self.knobs,
            self.seed,
        )


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
    #: Route the slice through the space's batch hook (the worker
    #: falls back to the scalar loop whenever the hook declines the engine).
    vectorized: bool

    def __call__(
        self, engine: "Engine"
    ) -> tuple[int, int, list["OracleTally"], list["Counterexample"]]:
        from .check.checker import check_slice

        return check_slice(
            engine,
            self.space,
            self.start,
            self.stop,
            self.vectors,
            self.oracle_names,
            self.max_counterexamples,
            vectorized=self.vectorized,
        )


@dataclass(frozen=True)
class WorkerTask:
    """One envelope and the recipe of the engine it runs on."""

    spec: "AgreementSpec"
    algorithm: str
    config: "RunConfig"
    task: BatchChunk | CellTask | CheckShard


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Engines rebuilt in this worker process, keyed by their (hashable) recipe.
#: Living for the whole worker lifetime, they give consecutive tasks of a
#: call the same warm memoized condition the serial path enjoys.
_WORKER_ENGINES: dict[tuple, "Engine"] = {}


def _stats_snapshot(engine: "Engine") -> dict[str, tuple[int, int]]:
    return {name: (stats.hits, stats.misses) for name, stats in engine.cache_stats().items()}


def _run_task(work: WorkerTask) -> tuple[Any, dict[str, tuple[int, int]]]:
    """The one worker entry: *work*'s envelope called with its engine, and
    the cache hits and misses the call made."""
    from .api.engine import Engine
    from .api.registry import ALGORITHMS

    task = work.task
    # A spawn or forkserver worker starts without the mutants, which are
    # registered at runtime; the registration is idempotent.
    reference = task.space.reference if isinstance(task, CheckShard) else None
    if any(name is not None and name not in ALGORITHMS for name in (work.algorithm, reference)):
        from .check.mutants import register_mutants

        register_mutants()
    recipe = (work.spec, work.algorithm, work.config)
    engine = _WORKER_ENGINES.get(recipe)
    if engine is None:
        engine = _WORKER_ENGINES[recipe] = Engine(*recipe)
    before = _stats_snapshot(engine)
    output = task(engine)
    return output, {
        name: (hits - before[name][0], misses - before[name][1])
        for name, (hits, misses) in _stats_snapshot(engine).items()
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def fan_out(
    engine: "Engine", tasks: Iterable[BatchChunk | CellTask | CheckShard], workers: int
) -> Iterator[Any]:
    """Run *tasks* on *engine*'s recipe across a pool of *workers*, and
    yield their outputs in submission order.

    *tasks* is consumed lazily: at most ``SUBMIT_WINDOW_PER_WORKER ×
    workers`` are in flight, and each output is handed over as soon as its
    worker completes it, while later tasks are still executing.  Worker
    cache-stat deltas are merged into *engine* before the output is.
    """
    recipe = (engine.spec, engine.algorithm_name, engine.config)
    window = SUBMIT_WINDOW_PER_WORKER * workers
    tasks = iter(tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque[Future] = deque()
        while True:
            for task in islice(tasks, window - len(pending)):
                pending.append(pool.submit(_run_task, WorkerTask(*recipe, task)))
            if not pending:
                return
            output, stats = pending.popleft().result()
            engine._absorb_worker_stats(stats)
            yield output


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
) -> Iterator[tuple[int, int, list["OracleTally"], list["Counterexample"]]]:
    """Shard an exhaustive check's adversary space across a process pool.

    The space ``[0, adversary_count)`` is cut into
    ``workers × SUBMIT_WINDOW_PER_WORKER`` contiguous index ranges, all in
    flight at once, and each shard's :func:`~repro.check.checker.check_slice`
    outcome is yielded **in shard order**, so the caller's merge reproduces
    the serial evaluation order exactly — tallies sum, counterexample lists
    concatenate into the serial list (each shard already caps at the global
    maximum, and only the first shards' entries survive the final cap).
    """
    shard_size = max(1, -(-adversary_count // (workers * SUBMIT_WINDOW_PER_WORKER)))
    starts = range(0, adversary_count, shard_size)
    shards = (
        CheckShard(
            space,
            start,
            # The last shard reads to exhaustion (stop=None) so that a
            # generator producing more points than the closed form
            # predicts is detected, not silently truncated.
            None if start == starts[-1] else start + shard_size,
            vectors,
            oracle_names,
            max_counterexamples,
            vectorized,
        )
        for start in starts
    )
    return fan_out(engine, shards, workers)
