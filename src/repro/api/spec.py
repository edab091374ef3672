"""Frozen configuration records of the unified API.

Two immutable dataclasses describe everything the :class:`repro.api.Engine`
needs to run an agreement instance:

* :class:`AgreementSpec` — the *problem*: system size ``n``, crash budget
  ``t``, coordination degree ``k``, the condition parameters ``d`` (degree)
  and ``ell`` (recognizing-function degree ``l``) over a ``domain`` of ``m``
  ordered values, and the *condition family*: a registry name
  (``condition``, default ``"max-legal"``) plus its parameters
  (``condition_params``).  The ``d`` / ``ell`` / ``domain`` knobs are sugar
  that every family reads through the derived ``x = t − d``; the default
  family resolves to exactly the seed's ``max_l`` oracle.
* :class:`RunConfig` — the *execution*: which backend (synchronous rounds,
  asynchronous shared memory or message-passing rounds), the default
  adversary schedule, seeds, step budgets and batching knobs.

Both are hashable, so they can key caches; :meth:`AgreementSpec.condition_oracle`
resolves the named family through the condition registry and is memoized per
spec, which is what lets a batch (or several engines over the same spec)
share one condition object and its legality structure instead of rebuilding
it per run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.hierarchy import rounds_in_condition, rounds_outside_condition
from ..exceptions import BackendError, InvalidParameterError, require_int

__all__ = ["AgreementSpec", "RunConfig", "require_backend", "require_int"]

#: Backends understood by the engine.
BACKENDS = ("sync", "async", "net")


def require_backend(backend: str) -> None:
    """Refuse a backend name that is not one of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise BackendError(f"unknown backend {backend!r}; known backends: {', '.join(BACKENDS)}")


def _freeze(value: Any) -> Any:
    """Recursively convert *value* into a hashable, canonical form.

    Mappings become sorted ``(key, frozen value)`` tuples, sequences become
    tuples, sets become frozensets — so condition parameters written as plain
    dicts and lists still leave the spec frozen, hashable and cache-keyable.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((str(key), _freeze(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class AgreementSpec:
    """The parameters of one condition-based agreement instance.

    Parameters
    ----------
    n:
        Number of processes.
    t:
        Maximum number of crashes (``0 <= t < n``).
    k:
        Coordination degree of the set agreement (at most ``k`` distinct
        decided values).
    d:
        Degree of the condition (``x = t − d``).  ``None`` defaults to ``t``,
        the degenerate classical regime in which the condition contains every
        vector.
    ell:
        Degree ``l`` of the recognizing function.
    domain:
        Size ``m`` of the ordered value domain ``{1, ..., m}``.
    condition:
        Name of the condition family in the condition registry
        (:data:`repro.api.CONDITIONS`).  The default, ``"max-legal"``,
        resolves the classical ``max_l`` condition from the ``d`` / ``ell`` /
        ``domain`` knobs, exactly as the seed API did.
    condition_params:
        Family-specific parameters (e.g. ``{"radius": 2}`` for
        ``"hamming-ball"``).  Accepts any mapping / sequence literal; it is
        canonicalised into a hashable tuple of ``(key, value)`` pairs so the
        spec stays frozen and cache-keyable.
    """

    n: int
    t: int
    k: int = 1
    d: int | None = None
    ell: int = 1
    domain: int = 10
    condition: str = "max-legal"
    condition_params: Any = ()

    def __post_init__(self) -> None:
        if self.d is None:
            object.__setattr__(self, "d", self.t)
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidParameterError(f"n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.t, int) or not 0 <= self.t < self.n:
            raise InvalidParameterError(
                f"t must satisfy 0 <= t < n, got t={self.t!r}, n={self.n}"
            )
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidParameterError(f"k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.d, int) or not 0 <= self.d <= self.t:
            raise InvalidParameterError(
                f"d must satisfy 0 <= d <= t, got d={self.d!r}, t={self.t}"
            )
        if not isinstance(self.ell, int) or self.ell < 1:
            raise InvalidParameterError(f"ell must be an integer >= 1, got {self.ell!r}")
        if not isinstance(self.domain, int) or self.domain < 1:
            raise InvalidParameterError(
                f"domain must be an integer >= 1, got {self.domain!r}"
            )
        if not self.condition or not isinstance(self.condition, str):
            raise InvalidParameterError(
                f"condition must be a registry name, got {self.condition!r}"
            )
        frozen_params = _freeze(self.condition_params)
        if not isinstance(frozen_params, tuple):
            raise InvalidParameterError(
                "condition_params must be a mapping or a sequence of (key, value) "
                f"pairs, got {self.condition_params!r}"
            )
        for pair in frozen_params:
            if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)):
                raise InvalidParameterError(
                    f"condition_params entries must be (name, value) pairs, got {pair!r}"
                )
        object.__setattr__(self, "condition_params", frozen_params)
        # Unknown family names fail at construction, not at the first run.
        from .conditions import CONDITIONS

        CONDITIONS.get(self.condition)

    # -- derived parameters --------------------------------------------------
    @property
    def x(self) -> int:
        """The legality parameter ``x = t − d``."""
        return self.t - self.d

    def condition_oracle(self):
        """The condition oracle named by :attr:`condition` (shared across equal specs).

        Resolution goes through the condition registry
        (:func:`repro.api.conditions.resolve_condition`) and is memoized per
        spec; the default ``"max-legal"`` family additionally shares one
        oracle per ``(n, m, x, l)`` tuple, exactly like the seed API.
        """
        from .conditions import resolve_condition

        return resolve_condition(self)

    def in_condition_bound(self) -> int:
        """Round bound when the input is in C.

        ``⌊(d + l − 1)/k⌋ + 1``, clamped by the unconditional deadline — in
        the degenerate ``d = t`` regime the formula can exceed ``⌊t/k⌋ + 1``,
        and the algorithm never runs past its last round.
        """
        return min(
            rounds_in_condition(self.d, self.ell, self.k),
            self.outside_condition_bound(),
        )

    def outside_condition_bound(self) -> int:
        """``⌊t/k⌋ + 1``: the unconditional round bound."""
        return rounds_outside_condition(self.t, self.k)

    def replace(self, **changes) -> "AgreementSpec":
        """A copy of the spec with *changes* applied (used by sweeps)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line description used in tables and logs."""
        base = (
            f"n={self.n} t={self.t} k={self.k} d={self.d} l={self.ell} "
            f"m={self.domain} (x={self.x})"
        )
        if self.condition != "max-legal":
            base += f" cond={self.condition}"
        return base


@dataclass(frozen=True)
class RunConfig:
    """How executions are carried out (backend, adversary, seeds, batching).

    Parameters
    ----------
    backend:
        ``"sync"`` — the round-based message-passing simulator of Section 6.2;
        ``"async"`` — the shared-memory snapshot model of Section 4;
        ``"net"`` — the same rounds over an explicit message matrix, with a
        message-level failure model (:attr:`net_adversary`) in place of the
        crash schedule.
    schedule:
        Name of the default adversary schedule in the schedule registry
        (resolved lazily per run; an explicit
        :class:`~repro.sync.adversary.CrashSchedule` passed to the engine
        always wins).
    crashes:
        Crash budget handed to the named schedule factory (e.g. how many
        round-1 crashes ``"round-one"`` injects).
    seed:
        Base seed: run *i* of a batch derives its seed as ``seed + i``, so a
        whole batch is a deterministic function of the config.
    record_trace:
        Record a full :class:`~repro.sync.trace.ExecutionTrace` on the
        synchronous backend.
    max_steps_per_process:
        Step budget per process on the asynchronous backend.
    async_adversary:
        Default scheduling strategy of the asynchronous backend, by registry
        name (:data:`repro.asynchronous.ASYNC_ADVERSARIES`).  The default,
        ``"random"``, is the classical seeded interleaver (the run's seed
        feeds it); ``"round-robin"`` and ``"latency-skew"`` are the regular
        and speed-skewed strategies.  An explicit adversary passed to the
        engine always wins.
    net_adversary:
        Default failure model of the message-passing backend, by registry
        name (:data:`repro.net.NET_ADVERSARIES`).  The default,
        ``"fault-free"``, delivers every message in its send round (the
        sync baseline); the fault models are ``"send-omission"``,
        ``"receive-omission"``, ``"message-loss"``, ``"bounded-delay"`` and
        ``"byzantine-corrupt"``.  An explicit adversary passed to the
        engine always wins.
    chunk_size:
        Number of runs processed per chunk by :meth:`repro.api.Engine.run_batch`.
    workers:
        Default number of worker processes for batched execution.  ``1``
        (the default) runs everything serially in the calling process;
        ``w > 1`` shards batch chunks and sweep cells across a process pool
        (see :mod:`repro.parallel`) with results identical to the serial
        path — run *i* still derives its seed as ``seed + i``.
    """

    backend: str = "sync"
    schedule: str = "none"
    crashes: int = 0
    seed: int = 0
    record_trace: bool = False
    max_steps_per_process: int = 200
    async_adversary: str = "random"
    net_adversary: str = "fault-free"
    chunk_size: int = 64
    workers: int = 1

    def __post_init__(self) -> None:
        require_backend(self.backend)
        require_int("crashes", self.crashes, 0)
        require_int("seed", self.seed)
        require_int("max_steps_per_process", self.max_steps_per_process, 1)
        require_int("chunk_size", self.chunk_size, 1)
        require_int("workers", self.workers, 1)
        # Unknown adversary names fail at construction, not at the first run;
        # a default name is built in, so its backend is not imported here.
        if self.async_adversary != RunConfig.async_adversary:
            from ..asynchronous.adversary import ASYNC_ADVERSARIES

            ASYNC_ADVERSARIES.get(self.async_adversary)
        if self.net_adversary != RunConfig.net_adversary:
            from ..net.adversary import NET_ADVERSARIES

            NET_ADVERSARIES.get(self.net_adversary)

    def replace(self, **changes) -> "RunConfig":
        """A copy of the config with *changes* applied."""
        return dataclasses.replace(self, **changes)
