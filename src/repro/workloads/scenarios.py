"""Named end-to-end scenarios: the paper's regimes as ready-made stories.

The examples, two experiments and some integration tests want ready-made
"stories" matching the regimes the paper distinguishes.  One frozen
:class:`Scenario` carries every story: a spec, its input vectors, its
adversary (a sync crash schedule, an async strategy with crash points, or a
net failure model), the adversary space its :meth:`~Scenario.check`
enumerates — whose backend is the scenario's — and the round bound the paper
predicts, where it predicts one.  The factories build the stories:

* :func:`fast_path_scenario`, :func:`degraded_path_scenario` and
  :func:`outside_condition_scenario` — the three sync regimes of Section
  6.1 — and :func:`condition_family_scenario`, the fast path over any
  registered condition family;
* :func:`async_scenario` — the Section 4 shared-memory regime;
* :func:`net_scenario` — a vector under a message-level failure model;
* :func:`exhaustive_scenario` — an input frontier over the complete crash
  schedule space.

This module imports :mod:`repro.check` and :mod:`repro.api` only inside the
functions that use them, and :mod:`repro.workloads` exports it lazily, so
the checker's input frontier loads the vector samplers without it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from random import Random
from typing import TYPE_CHECKING, Any, Mapping

from ..core.hierarchy import rounds_in_condition, rounds_outside_condition
from ..core.vectors import InputVector
from ..exceptions import InvalidParameterError
from ..sync.adversary import (
    CrashSchedule,
    count_schedules,
    crashes_in_round_one,
    no_crashes,
    staggered_schedule,
)
from .vectors import (
    vector_in_condition,
    vector_in_max_condition,
    vector_outside_max_condition,
)

if TYPE_CHECKING:
    from ..api import AgreementSpec
    from ..check import CheckSpace

__all__ = [
    "Scenario",
    "async_scenario",
    "condition_family_scenario",
    "exhaustive_scenario",
    "fast_path_scenario",
    "degraded_path_scenario",
    "net_scenario",
    "outside_condition_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """One story: a spec, its input vectors, its adversary, its check space.

    :meth:`run` executes the witness (the first of :attr:`vectors`) under
    the scenario's adversary, :meth:`batch` replays the regime over fresh
    in-condition vectors, and :meth:`check` model-checks every adversary of
    :attr:`space` against all of :attr:`vectors`.
    """

    name: str
    description: str
    spec: "AgreementSpec"
    #: One witness vector for a regime; the whole input frontier for
    #: :func:`exhaustive_scenario`.
    vectors: tuple[InputVector, ...]
    #: The sync crash schedule.
    schedule: CrashSchedule = field(default_factory=no_crashes)
    #: The async scheduling strategy or net failure-model registry name.
    adversary: str | None = None
    #: Async crash points as sorted ``(pid, steps before vanishing)`` pairs:
    #: ``0`` is an initial crash, ``s >= 1`` leaves the pre-crash writes
    #: visible.
    crash_steps: tuple[tuple[int, int], ...] = ()
    #: The adversary space :meth:`check` enumerates; ``None`` means
    #: ``SyncSpace()``.  The scenario's backend is the space's.
    space: "CheckSpace | None" = None
    #: The decision round the paper predicts; ``None`` where it gives none.
    predicted_round_bound: int | None = None
    #: The algorithm :meth:`run`, :meth:`batch` and :meth:`check` default to.
    algorithm: str = "condition-kset"

    @property
    def input_vector(self) -> InputVector:
        """The witness: the first of :attr:`vectors`."""
        return self.vectors[0]

    @property
    def backend(self) -> str:
        """The backend of :attr:`space` (``"sync"`` when it is ``None``)."""
        return "sync" if self.space is None else self.space.backend

    def run(
        self,
        algorithm: str | None = None,
        *,
        backend: str | None = None,
        record_trace: bool = False,
        seed: int = 0,
    ):
        """Execute the witness once; returns the normalized :class:`~repro.api.RunResult`.

        *backend* replays the story on another backend: the sync schedule's
        crash events then project onto async crash points.
        """
        engine, knobs = self._engine(
            algorithm, backend=backend, record_trace=record_trace, seed=seed
        )
        return engine.run(self.input_vector, self.schedule, **knobs)

    def batch(
        self,
        runs: int = 8,
        algorithm: str | None = None,
        *,
        workers: int = 1,
        seed: int = 0,
        store=None,
    ):
        """Run the regime *runs* times through one engine batch.

        Run 0 is the witness; run ``i`` draws a fresh vector from the spec's
        condition with ``Random(seed + i)``, all under the scenario's
        adversary — the regime replayed over a population of inputs.
        *workers* shards the batch across a process pool and *store*
        persists each :class:`~repro.api.RunResult` as it completes; the
        results are the same for any worker count.
        """
        from ..api.spec import require_int

        require_int("runs", runs, 1)
        oracle = self.spec.condition_oracle()
        vectors = [self.input_vector] + [
            vector_in_condition(oracle, self.spec.n, self.spec.domain, Random(seed + index))
            for index in range(1, runs)
        ]
        engine, knobs = self._engine(algorithm, seed=seed, workers=workers)
        return engine.run_batch(vectors, self.schedule, store=store, **knobs)

    def check(
        self,
        algorithm: str | None = None,
        *,
        workers: int = 1,
        store=None,
        oracles=None,
        max_counterexamples: int = 25,
        **bounds: Any,
    ):
        """Model-check the spec over every adversary of :attr:`space`.

        *bounds* override the space's fields (``rounds``, ``depth``,
        ``max_crashes``, ``adversary``, ``max_faults``); the engine refuses
        a bound the space does not take.  Returns a
        :class:`~repro.check.CheckReport`.
        """
        defaults = {} if self.space is None else asdict(self.space)
        engine, _ = self._engine(algorithm, workers=workers)
        return engine.check(
            backend=self.backend,
            vectors=self.vectors,
            oracles=oracles,
            store=store,
            max_counterexamples=max_counterexamples,
            **{**defaults, **bounds},
        )

    def _engine(self, algorithm: str | None, *, backend: str | None = None, **config: Any):
        """An engine for *algorithm* on *backend* (default: the scenario's),
        and the scenario's adversary as that backend's run knobs."""
        from ..api import Engine, RunConfig
        from ..api.namespaces import adversary_keyword

        backend = backend or self.backend
        engine = Engine(
            self.spec, algorithm or self.algorithm, RunConfig(backend=backend, **config)
        )
        knobs = {
            **adversary_keyword(backend, self.adversary),
            "crash_steps": dict(self.crash_steps) or None,
        }
        return engine, knobs


def _max_legal_spec(n: int, m: int, t: int, d: int, ell: int, k: int) -> "AgreementSpec":
    from ..api import AgreementSpec

    return AgreementSpec(n=n, t=t, k=k, d=d, ell=ell, domain=m)


def _round_one_crashes(n: int, count: int) -> CrashSchedule:
    """*count* round-1 crashes whose proposals reach half the processes."""
    if count == 0:
        return no_crashes()
    return crashes_in_round_one(n, count, delivered_prefix=n // 2)


def fast_path_scenario(
    n: int, m: int, t: int, d: int, ell: int, k: int, seed: int = 0
) -> Scenario:
    """Input vector in the condition, at most ``t − d`` crashes: 2 rounds."""
    spec = _max_legal_spec(n, m, t, d, ell, k)
    return Scenario(
        name="fast-path",
        description=(
            "input vector in the condition and at most t − d crashes during "
            "round 1: every process decides by round 2"
        ),
        spec=spec,
        vectors=(vector_in_max_condition(n, m, spec.x, ell, Random(seed)),),
        schedule=_round_one_crashes(n, spec.x),
        predicted_round_bound=2,
    )


def degraded_path_scenario(
    n: int, m: int, t: int, d: int, ell: int, k: int, seed: int = 0
) -> Scenario:
    """Input vector in the condition, more than ``t − d`` round-1 crashes."""
    if t - d + 1 > t:
        raise InvalidParameterError("degraded path needs d >= 1 (so that t − d + 1 <= t)")
    spec = _max_legal_spec(n, m, t, d, ell, k)
    return Scenario(
        name="degraded-path",
        description=(
            "input vector in the condition but more than t − d crashes: decisions "
            "by round ⌊(d + l − 1)/k⌋ + 1"
        ),
        spec=spec,
        vectors=(vector_in_max_condition(n, m, spec.x, ell, Random(seed)),),
        schedule=crashes_in_round_one(n, spec.x + 1, delivered_prefix=0),
        predicted_round_bound=max(2, rounds_in_condition(d, ell, k)),
    )


def outside_condition_scenario(
    n: int, m: int, t: int, d: int, ell: int, k: int, seed: int = 0
) -> Scenario:
    """Input vector outside the condition under the staggered adversary."""
    spec = _max_legal_spec(n, m, t, d, ell, k)
    return Scenario(
        name="outside-condition",
        description=(
            "input vector outside the condition: the classical ⌊t/k⌋ + 1 bound applies"
        ),
        spec=spec,
        vectors=(vector_outside_max_condition(n, m, spec.x, ell, Random(seed)),),
        schedule=staggered_schedule(n, t, per_round=k),
        predicted_round_bound=rounds_outside_condition(t, k),
    )


def condition_family_scenario(
    family: str,
    n: int,
    m: int,
    t: int,
    d: int,
    ell: int,
    k: int,
    params: Mapping[str, Any] | None = None,
    seed: int = 0,
) -> Scenario:
    """A fast-path scenario over an arbitrary registered condition family.

    The condition is resolved through the :data:`repro.api.CONDITIONS`
    registry exactly as an engine would, the input vector is drawn from
    inside it with the generic sampler, and at most ``t − d`` round-1 crashes
    are injected — the regime in which the paper predicts decisions by round
    2 for any (x, l)-legal condition.
    """
    from ..api import AgreementSpec

    spec = AgreementSpec(
        n=n,
        t=t,
        k=k,
        d=d,
        ell=ell,
        domain=m,
        condition=family,
        condition_params=dict(params or {}),
    )
    return Scenario(
        name=f"family-{family}",
        description=(
            f"input vector inside the {family!r} condition with at most t − d "
            "round-1 crashes: decisions by round 2 when the family is (x, l)-legal"
        ),
        spec=spec,
        vectors=(vector_in_condition(spec.condition_oracle(), n, m, Random(seed)),),
        schedule=_round_one_crashes(n, spec.x),
        predicted_round_bound=2,
    )


def async_scenario(
    n: int,
    m: int,
    x: int,
    ell: int,
    *,
    adversary: str = "random",
    crash_steps: Mapping[int, int] | None = None,
    seed: int = 0,
) -> Scenario:
    """The Section 4 regime: an in-condition vector under an async adversary.

    *adversary* names a scheduling strategy of
    :data:`repro.asynchronous.ASYNC_ADVERSARIES`.  The spec mirrors
    experiment E12 (``t = x``, ``d = 0``, ``k = l``: the condition's
    resilience is the whole crash budget).  *crash_steps* defaults to the
    ``x`` highest-numbered processes crashing after one atomic step each —
    their proposals land in the shared memory before they vanish, the
    mid-execution regime the initial-crash modelling could not express.
    With at most ``x`` crashes, every live process decides at most ``l``
    values, whatever the strategy does.
    """
    from ..api import AgreementSpec
    from ..check import AsyncSpace

    spec = AgreementSpec(n=n, t=x, k=ell, d=0, ell=ell, domain=m)
    if crash_steps is None:
        crash_steps = {pid: 1 for pid in range(n - x, n)}
    frozen = tuple(sorted(crash_steps.items()))
    return Scenario(
        name=f"async-{adversary}",
        description=(
            f"input vector inside the (x={x}, l={ell})-legal condition under "
            f"the {adversary!r} strategy with crash points "
            f"{dict(frozen)}: every live process decides at most {ell} values"
        ),
        spec=spec,
        vectors=(vector_in_condition(spec.condition_oracle(), n, m, Random(seed)),),
        adversary=adversary,
        crash_steps=frozen,
        space=AsyncSpace(),
    )


def net_scenario(
    n: int,
    m: int,
    t: int,
    k: int,
    *,
    adversary: str = "send-omission",
    seed: int = 0,
) -> Scenario:
    """The message-passing regime: an in-condition vector under a failure model.

    *adversary* names the :data:`repro.net.NET_ADVERSARIES` family the
    scenario injects (an unknown name raises
    :class:`~repro.exceptions.InvalidParameterError`); the vector is drawn
    from inside the spec's (default ``max_l``-legal) condition so the same
    story also exercises condition-based algorithms on the benign families.
    The classical claim for the benign regime: FloodMin under at most ``t``
    omitted or lost messages still k-agrees, because every correct process
    relays the learned minimum.
    """
    from ..api import AgreementSpec
    from ..check import NetSpace

    space = NetSpace(adversary)
    spec = AgreementSpec(n=n, t=t, k=k, domain=m)
    return Scenario(
        name=f"net-{adversary}",
        description=(
            f"input vector under the {adversary!r} failure model on the "
            f"explicit message plane: FloodMin decides at most {k} values "
            f"whenever the benign fault budget stays within t={t}"
        ),
        spec=spec,
        vectors=(vector_in_condition(spec.condition_oracle(), n, m, Random(seed)),),
        adversary=adversary,
        space=space,
        algorithm="floodmin",
    )


def exhaustive_scenario(
    n: int,
    m: int,
    t: int,
    d: int,
    ell: int,
    k: int,
    *,
    rounds: int | None = None,
    max_vectors: int = 12,
    all_vectors_limit: int = 100,
) -> Scenario:
    """Not one story but *all* of them: every crash schedule × the input frontier.

    The frontier is the deterministic vector set of
    :func:`repro.check.input_frontier` (all ``m^n`` vectors when the domain
    is tiny, boundary/just-outside/sampled vectors otherwise); *rounds*
    defaults to the unconditional decision deadline ``⌊t/k⌋ + 1``, beyond
    which a crash cannot be observed.  :meth:`Scenario.check` verifies the
    property oracles of :mod:`repro.check` over every execution.
    """
    from ..check import SyncSpace, input_frontier

    spec = _max_legal_spec(n, m, t, d, ell, k)
    if rounds is None:
        rounds = spec.outside_condition_bound()
    frontier = input_frontier(
        spec,
        spec.condition_oracle(),
        max_vectors=max_vectors,
        all_vectors_limit=all_vectors_limit,
    )
    schedule_count = count_schedules(n, t, rounds)
    return Scenario(
        name="exhaustive",
        description=(
            f"all {schedule_count} crash schedules (rounds 1..{rounds}) x "
            f"{len(frontier)} frontier vectors: the complete execution space "
            "of the Section 6.2 model"
        ),
        spec=spec,
        vectors=frontier,
        space=SyncSpace(rounds),
    )
