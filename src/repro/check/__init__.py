"""``repro.check`` — exhaustive adversary verification (model checking).

Where the test suite *samples* adversaries (random schedules, hand-written
worst cases), this subsystem *enumerates* them: for small ``(n, t)`` the
Section 6.2 failure model — which round each faulty process crashes in, and
which prefix/subset of its messages is delivered — is a finite space, so the
paper's properties can be verified over **every** execution instead of
spot-checked.

The pieces:

* :mod:`repro.check.checker` — the one checker: :func:`run_check` (the
  engine behind :meth:`repro.api.Engine.check`, sharded over workers with
  byte-identical reports), its :func:`check_slice` loop and the
  :class:`CheckReport`;
* three adversary spaces, one per backend, each a small frozen
  :class:`CheckSpace` that supplies its closed-form count and point stream,
  its oracles, how one point executes, and the point's part of a
  counterexample record:

  - :class:`SyncSpace` — every crash schedule of the Section 6.2 model
    (:func:`repro.sync.adversary.enumerate_schedules`), with a packed batch
    hook through :mod:`repro.vec`; given a *reference* algorithm it is a
    differential check, two algorithms on identical executions with their
    decisions compared;
  - :class:`AsyncSpace` (:mod:`repro.check.async_checker`) — every bounded
    interleaving prefix × every crash assignment of the shared-memory model,
    with a batch hook that runs each class of identical executions once;
  - :class:`NetSpace` (:mod:`repro.check.net_checker`) — every fault
    assignment of a net failure-model family (omission sets, lost-message
    subsets, delay/corruption maps);
* the property oracles, one :class:`PropertyOracle` type in three
  registries: :mod:`repro.check.oracles` (validity, agreement, termination,
  the Theorem 10 round bounds in/out of the condition, the Section 8
  early-deciding bound, and the differential check's
  ``reference-decisions``), :mod:`repro.check.async_oracles` (validity,
  ``l``-agreement, in-condition termination within budget, the per-process
  step budget) and :mod:`repro.check.net_oracles` (applicability-gated, so
  crash-only theorems are reported ``n/a`` under ``byzantine-corrupt``).
  Every oracle takes one :class:`CheckContext`, which :func:`check_slice`
  builds from the engine and the resolved space the same way on every
  backend;
* :mod:`repro.check.frontier` — the deterministic input frontier: all
  vectors when the domain is tiny, boundary / just-outside / sampled
  vectors otherwise;
* :mod:`repro.check.mutants` — deliberately broken algorithms proving the
  checker can fail.

Every space's closed form is cross-validated against its generator on every
run, and every counterexample is one :class:`Counterexample` whatever its
``backend``: it replays the checked execution through its space on a fresh
engine and reloads from a store with
:meth:`repro.store.ResultStore.load_counterexamples`.

Entry points::

    report = Engine(spec, "condition-kset").check(workers=4)
    assert report.passed, report.render()

    async_report = Engine(spec, "condition-kset").check(
        backend="async", depth=3, workers=4
    )

    net_report = Engine(spec, "floodmin").check(
        backend="net", adversary="send-omission", workers=4
    )

    diff = Engine(spec, "mutant-hasty-floodmin").check(reference="floodmin")
"""

from .._lazy import lazy_exports

__all__ = [
    "ASYNC_ORACLES",
    "AsyncSpace",
    "CheckContext",
    "CheckReport",
    "CheckSpace",
    "Counterexample",
    "EcholessFloodMin",
    "HastyAsyncProcess",
    "HastyFloodMin",
    "MUTANT_ECHOLESS_FLOODMIN",
    "MUTANT_HASTY_ASYNC",
    "MUTANT_HASTY_FLOODMIN",
    "MUTANT_SILENT_FLOODMIN",
    "NET_ORACLES",
    "NetSpace",
    "ORACLES",
    "OracleTally",
    "PropertyOracle",
    "SilentFloodMin",
    "SyncSpace",
    "check_slice",
    "count_async_adversaries",
    "enumerate_async_adversaries",
    "input_frontier",
    "packed_frontier",
    "register_mutants",
    "run_check",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".async_checker": (
            "AsyncSpace",
            "count_async_adversaries",
            "enumerate_async_adversaries",
        ),
        ".async_oracles": ("ASYNC_ORACLES",),
        ".checker": (
            "CheckReport",
            "CheckSpace",
            "Counterexample",
            "OracleTally",
            "SyncSpace",
            "check_slice",
            "run_check",
        ),
        ".frontier": ("input_frontier", "packed_frontier"),
        ".mutants": (
            "MUTANT_ECHOLESS_FLOODMIN",
            "MUTANT_HASTY_ASYNC",
            "MUTANT_HASTY_FLOODMIN",
            "MUTANT_SILENT_FLOODMIN",
            "EcholessFloodMin",
            "HastyAsyncProcess",
            "HastyFloodMin",
            "SilentFloodMin",
            "register_mutants",
        ),
        ".net_checker": ("NetSpace",),
        ".net_oracles": ("NET_ORACLES",),
        ".oracles": ("ORACLES", "CheckContext", "PropertyOracle"),
    },
)
