"""Batched asynchronous execution: one substrate, many runs.

Building an asynchronous execution from scratch costs one
:class:`~repro.asynchronous.shared_memory.SharedMemory` (``2n`` registers)
plus ``n`` process state machines *per run* — pure allocation churn when a
batch runs thousands of executions over the same spec.  The
:class:`AsyncExecutor` allocates the substrate **once** and resets it between
runs: a reset memory/process pool is indistinguishable from a fresh one, so
results are identical to the per-run construction (the regression tests
assert it) while the batch skips the rebuild entirely.
``benchmarks/test_bench_async_batch.py`` pins the resulting speed-up.

The engine keeps one executor per spec (and each parallel worker keeps one
per rebuilt engine), which is what makes asynchronous ``run_batch`` /
``sweep`` / bounded-interleaving checks scale like their synchronous
counterparts.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..exceptions import InvalidParameterError, SimulationError
from .adversary import AsyncAdversary
from .process import AsynchronousProcess
from .scheduler import AsyncExecutionResult, AsynchronousScheduler
from .shared_memory import SharedMemory

__all__ = ["AsyncExecutor", "ProcessFactory"]

#: ``(process_id, n, memory) -> AsynchronousProcess`` — how the executor
#: builds its process pool (one call per process, once per executor).
ProcessFactory = Callable[[int, int, SharedMemory], AsynchronousProcess]


class AsyncExecutor:
    """A reusable asynchronous substrate: one memory + process pool, many runs.

    Parameters
    ----------
    n:
        Number of processes.
    process_factory:
        Builds process ``pid`` over the executor's shared memory; called
        exactly once per process id at construction.
    max_steps_per_process:
        Default per-process step budget of :meth:`run` (overridable per run).
    """

    def __init__(
        self,
        n: int,
        process_factory: ProcessFactory,
        max_steps_per_process: int = 200,
    ) -> None:
        if n < 1:
            raise InvalidParameterError(f"the executor needs n >= 1, got {n}")
        if max_steps_per_process < 1:
            raise InvalidParameterError(
                f"max_steps_per_process must be >= 1, got {max_steps_per_process}"
            )
        self._n = n
        self._max_steps_per_process = max_steps_per_process
        self._memory = SharedMemory(n)
        self._processes = [process_factory(pid, n, self._memory) for pid in range(n)]
        self._runs = 0
        self._closed = False

    @property
    def n(self) -> int:
        """Number of processes in the pool."""
        return self._n

    @property
    def memory(self) -> SharedMemory:
        """The shared memory reused across runs."""
        return self._memory

    @property
    def processes(self) -> tuple[AsynchronousProcess, ...]:
        """The process pool, in id order: read it, never step it (:meth:`run`
        resets every process before it starts)."""
        return tuple(self._processes)

    @property
    def runs_executed(self) -> int:
        """How many executions this substrate has served."""
        return self._runs

    @property
    def closed(self) -> bool:
        """Has the substrate been torn down?"""
        return self._closed

    def close(self) -> None:
        """Tear the substrate down deterministically (idempotent).

        The shared memory is wiped and the process pool released, so the
        ``2n`` registers and ``n`` state machines are reclaimable the moment
        the owner lets go of the executor — cache eviction and
        :meth:`repro.api.Engine.close` call this instead of waiting for the
        garbage collector.  A closed executor refuses further runs; the
        engine builds a fresh substrate if it is asked to execute again.
        """
        if self._closed:
            return
        self._closed = True
        self._memory.reset()
        self._processes.clear()

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        proposals: Mapping[int, Any] | Sequence[Any],
        *,
        crashed: Iterable[int] = (),
        crash_steps: Mapping[int, int] | None = None,
        adversary: AsyncAdversary | str | None = None,
        seed: Random | int | None = None,
        max_steps_per_process: int | None = None,
    ) -> AsyncExecutionResult:
        """Execute one run on the reset substrate; same contract as the scheduler.

        The memory and every process are reset first, so consecutive runs are
        fully independent — only the allocations are shared.
        """
        if self._closed:
            raise SimulationError(
                "this AsyncExecutor has been closed; build a fresh one "
                "(Engine rebuilds its substrate automatically after close())"
            )
        self._memory.reset()
        for process in self._processes:
            process.reset()
        scheduler = AsynchronousScheduler(
            seed=seed,
            max_steps_per_process=(
                self._max_steps_per_process
                if max_steps_per_process is None
                else max_steps_per_process
            ),
            adversary=adversary,
        )
        self._runs += 1
        return scheduler.run(
            self._processes, proposals, crashed=crashed, crash_steps=crash_steps
        )
