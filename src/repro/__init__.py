"""repro — a reproduction of Bonnet & Raynal, *Conditions for Set Agreement
with an Application to Synchronous Systems* (ICDCS 2008).

The package is organised as follows:

* :mod:`repro.core` — the conditions framework: input vectors, views,
  (x, l)-legality, recognizing functions, counting formulas, the lattice of
  condition classes (Sections 2–5 of the paper);
* :mod:`repro.sync` — a synchronous round-based message-passing simulator
  with crash failures (the model of Section 6.2);
* :mod:`repro.asynchronous` — an asynchronous shared-memory simulator with
  atomic snapshots (the model of Section 4);
* :mod:`repro.algorithms` — the condition-based synchronous k-set agreement
  algorithm of Figure 2 plus the classical baselines it generalises;
* :mod:`repro.workloads` — input-vector and crash-scenario generators;
* :mod:`repro.analysis` — agreement property checkers, round-complexity
  measurements and the experiment harness used by the benchmarks;
* :mod:`repro.api` — the unified entry point: frozen specs, string-keyed
  algorithm/schedule registries and the :class:`~repro.api.Engine` façade
  with single, batched and swept execution on both backends.

The names this package and its subpackages re-export are imported on first
access (:mod:`repro._lazy`): ``import repro`` loads that helper and
:mod:`repro.exceptions`, and an engine loads only the backend it runs.

Quickstart (the unified API)
----------------------------

>>> from repro import AgreementSpec, Engine
>>> spec = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10)
>>> engine = Engine(spec, "condition-kset")
>>> result = engine.run([7, 7, 7, 3, 2, 7, 1, 7])
>>> sorted(result.decided_values())
[7]

Quickstart (the underlying layers)
----------------------------------

>>> from repro import (
...     MaxLegalCondition, ConditionBasedKSetAgreement, SynchronousSystem,
...     InputVector,
... )
>>> n, t, d, ell, k = 8, 4, 2, 1, 2
>>> condition = MaxLegalCondition(n=n, domain=10, x=t - d, ell=ell)
>>> vector = InputVector([7, 7, 7, 3, 2, 7, 1, 5])
>>> condition.contains(vector)
True
>>> algorithm = ConditionBasedKSetAgreement(condition=condition, t=t, d=d, k=k)
>>> system = SynchronousSystem(n=n, t=t, algorithm=algorithm)
>>> result = system.run(vector)
>>> sorted(set(result.decisions.values()))
[7]
"""

from ._lazy import lazy_exports
from .exceptions import (
    AdversaryError,
    AgreementViolationError,
    BackendError,
    DecodingError,
    EmptyConditionError,
    InvalidParameterError,
    InvalidVectorError,
    LegalityError,
    ProtocolStateError,
    RegistryError,
    ReproError,
    SimulationError,
    StoreError,
)

__version__ = "1.0.0"

__all__ = [
    "AdversaryError",
    "AgreementViolationError",
    "AllVectorsOracle",
    "BOTTOM",
    "BackendError",
    "ConditionLattice",
    "ConditionOracle",
    "DecodingError",
    "EmptyConditionError",
    "ExplicitCondition",
    "FrequencyGapCondition",
    "HammingBallCondition",
    "InputVector",
    "InvalidParameterError",
    "InvalidVectorError",
    "LegalityClass",
    "LegalityError",
    "MaxLegalCondition",
    "MaxValues",
    "MinLegalCondition",
    "MinValues",
    "ProtocolStateError",
    "RegistryError",
    "ReproError",
    "SimulationError",
    "StoreError",
    "SynchronousClass",
    "ValueDomain",
    "View",
    "max_condition_size",
    "nb_consensus_condition",
    "rounds_in_condition",
    "rounds_outside_condition",
    "table1_condition",
    "__version__",
]

#: Everything else is imported on first access: ``import repro`` loads the
#: exceptions alone, and ``repro.Engine`` the unified API and what it runs.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".core": (
            "BOTTOM",
            "AllVectorsOracle",
            "ConditionLattice",
            "ConditionOracle",
            "ExplicitCondition",
            "FrequencyGapCondition",
            "HammingBallCondition",
            "InputVector",
            "LegalityClass",
            "MaxLegalCondition",
            "MaxValues",
            "MinLegalCondition",
            "MinValues",
            "SynchronousClass",
            "ValueDomain",
            "View",
            "max_condition_size",
            "nb_consensus_condition",
            "rounds_in_condition",
            "rounds_outside_condition",
            "table1_condition",
        ),
        ".sync": (
            "CrashSchedule",
            "ExecutionResult",
            "SynchronousSystem",
            "count_schedules",
            "enumerate_schedules",
        ),
        ".algorithms": (
            "ConditionBasedConsensus",
            "ConditionBasedKSetAgreement",
            "EarlyDecidingKSetAgreement",
            "FloodMinKSetAgreement",
            "FloodSetConsensus",
        ),
        # The unified API: one façade over every algorithm and backend, and
        # the condition registry.
        ".api": (
            "AgreementSpec",
            "ConditionFamily",
            "Engine",
            "RunConfig",
            "RunResult",
            "available_algorithms",
            "available_conditions",
            "available_schedules",
            "register_condition",
        ),
        ".store": ("ResultStore",),
        # The model checker.
        ".check": (
            "CheckReport",
            "Counterexample",
            "input_frontier",
            "register_mutants",
        ),
    },
)
