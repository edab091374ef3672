"""Asynchronous shared-memory substrate (the model of Section 4).

Atomic single-writer registers with snapshots, step-based processes, a
deterministic adversary subsystem (pluggable scheduling strategies, crash
points mid-execution, the enumerated bounded-interleaving space) and a
batched executor that reuses one substrate across the runs of a batch.
"""

from .._lazy import lazy_exports

__all__ = [
    "ASYNC_ADVERSARIES",
    "AsyncAdversary",
    "AsyncExecutionResult",
    "AsyncExecutor",
    "AsynchronousProcess",
    "AsynchronousScheduler",
    "CrashAtStepAdversary",
    "EnumeratedAdversary",
    "LatencySkewAdversary",
    "ProcessFactory",
    "RoundRobinAdversary",
    "SeededRandomAdversary",
    "SharedMemory",
    "available_async_adversaries",
    "count_interleavings",
    "enumerate_interleavings",
    "interleaving_fingerprint",
    "register_async_adversary",
    "resolve_async_adversary",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".adversary": (
            "ASYNC_ADVERSARIES",
            "AsyncAdversary",
            "CrashAtStepAdversary",
            "EnumeratedAdversary",
            "LatencySkewAdversary",
            "RoundRobinAdversary",
            "SeededRandomAdversary",
            "available_async_adversaries",
            "count_interleavings",
            "enumerate_interleavings",
            "register_async_adversary",
            "resolve_async_adversary",
        ),
        ".executor": ("AsyncExecutor", "ProcessFactory"),
        ".process": ("AsynchronousProcess",),
        ".scheduler": (
            "AsyncExecutionResult",
            "AsynchronousScheduler",
            "interleaving_fingerprint",
        ),
        ".shared_memory": ("SharedMemory",),
    },
)
