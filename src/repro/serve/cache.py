"""The spec-keyed engine cache: bounded LRU of warm :class:`~repro.api.Engine` instances.

PR 5 taught one engine to keep a warm per-spec
:class:`~repro.asynchronous.executor.AsyncExecutor` (shared memory + process
pool) and a populated :class:`~repro.api.engine.MemoizedCondition` for its
lifetime.  A server handles *many* specs over *many* requests, so this module
generalises that reuse into a cache: engines are keyed by their full recipe
``(spec, algorithm, config)``, kept warm across requests in LRU order, and —
crucially — **torn down deterministically on eviction** through
:meth:`~repro.api.Engine.close`, so a bounded cache cannot leak substrates.

Engines are not safe for concurrent execution (a run resets and drives the
shared asynchronous substrate), so every cache entry carries a lock; callers
execute under ``entry.lock`` and the server's request coalescer piggybacks on
the same lock to merge same-spec batches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

from ..api.engine import Engine
from ..api.spec import RunConfig
from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.spec import AgreementSpec

__all__ = ["EngineCache", "EngineCacheEntry"]


@dataclass
class EngineCacheEntry:
    """One warm engine plus the lock serialising execution on it."""

    key: Hashable
    engine: Engine
    #: Serialises execution: engines mutate their substrates while running.
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: How many times this entry was served from the cache.
    hits: int = 0


class EngineCache:
    """A bounded, thread-safe LRU cache of warm engines.

    Parameters
    ----------
    capacity:
        Maximum number of engines kept warm.  The least recently used entry
        is evicted (and its engine closed) when a miss would exceed it.

    Notes
    -----
    Eviction closes the engine *outside* the cache's own mutex but *under*
    the entry's execution lock, so a request currently running on the victim
    engine finishes first — and because :meth:`~repro.api.Engine.close` is
    recoverable, even a caller that raced its entry's eviction merely pays a
    substrate rebuild, never sees corruption.
    """

    def __init__(self, capacity: int = 8) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise InvalidParameterError(
                f"cache capacity must be an integer >= 1, got {capacity!r}"
            )
        self._capacity = capacity
        self._mutex = threading.Lock()
        self._entries: "OrderedDict[Hashable, EngineCacheEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of warm engines."""
        return self._capacity

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(
        self,
        spec: "AgreementSpec",
        algorithm: str = "condition-kset",
        config: "RunConfig | None" = None,
    ) -> EngineCacheEntry:
        """The warm entry for this recipe, building (and maybe evicting) on miss.

        The key is the full ``(spec, algorithm, config)`` recipe — both
        dataclasses are frozen and hashable, so two requests share an engine
        exactly when a rebuilt engine would be indistinguishable.  Callers
        that want per-request seeds on a shared engine normalise the seed out
        of the config and pass it per call (``Engine.run(seed=...)``,
        ``run_batch(seeds=...)``, ``sweep(seed=...)``), which is what
        :mod:`repro.serve.server` does.
        """
        key = (spec, algorithm, config or RunConfig())
        victim: EngineCacheEntry | None = None
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                entry.hits += 1
                return entry
            self._misses += 1
            entry = EngineCacheEntry(key, Engine(spec, algorithm, config))
            self._entries[key] = entry
            if len(self._entries) > self._capacity:
                _, victim = self._entries.popitem(last=False)
                self._evictions += 1
        if victim is not None:
            self._close_entry(victim)
        return entry

    def evict(self, key: Hashable) -> bool:
        """Explicitly evict one entry (closing its engine); ``False`` if absent."""
        with self._mutex:
            victim = self._entries.pop(key, None)
            if victim is None:
                return False
            self._evictions += 1
        self._close_entry(victim)
        return True

    def clear(self) -> int:
        """Evict every entry, closing each engine; returns how many were closed."""
        with self._mutex:
            victims = list(self._entries.values())
            self._entries.clear()
            self._evictions += len(victims)
        for victim in victims:
            self._close_entry(victim)
        return len(victims)

    @staticmethod
    def _close_entry(entry: EngineCacheEntry) -> None:
        # Wait out any in-flight run before tearing the substrate down.
        with entry.lock:
            entry.engine.close()

    def stats(self) -> dict[str, int]:
        """Occupancy and hit/miss/eviction counters (a consistent snapshot)."""
        with self._mutex:
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def entries(self) -> list[dict[str, Any]]:
        """Describe the cached engines, most recently used last (for /status)."""
        with self._mutex:
            snapshot = list(self._entries.values())
        return [
            {
                "algorithm": entry.engine.algorithm_name,
                "spec": entry.engine.spec.describe(),
                "hits": entry.hits,
            }
            for entry in snapshot
        ]
