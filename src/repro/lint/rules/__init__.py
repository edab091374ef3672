"""The built-in rule set, one module per rule group.

Importing this package registers every rule in
:data:`repro.lint.engine.LINT_RULES` — the engine imports it lazily on the
first lint run, mirroring how the algorithm registry is populated by the
import of :mod:`repro.api.registry`.

=====================  ========================  =====================================
group                  rule ids                  invariant
=====================  ========================  =====================================
determinism            unseeded-random           no ambient RNG in result paths
                       wall-clock                no wall-clock reads in result paths
                       set-iteration             no bare-set iteration feeding order
registry               registry-entry            registered entries are complete
                       mutant-registration       mutants stay out of import time
                       adversary-namespace       async/net adversary names disjoint
serialization          record-parity-keys        to_record keys are real fields
                       record-parity-fields      every field reaches the record
                       store-kinds               each store kind has writer + reader
parallel-safety        envelope-frozen           worker envelopes are frozen
                       envelope-fields           envelope fields statically picklable
exceptions             raise-builtin             raises use the repro hierarchy
oracles                oracle-applicability      every oracle declares applicability
dependencies           stdlib-imports            imports stay in repro and the stdlib
=====================  ========================  =====================================
"""

from . import (  # noqa: F401  (imported for their registration side effect)
    dependencies,
    determinism,
    exception_hygiene,
    oracle_rules,
    parallel_safety,
    registry_rules,
    serialization,
)

__all__ = [
    "dependencies",
    "determinism",
    "exception_hygiene",
    "oracle_rules",
    "parallel_safety",
    "registry_rules",
    "serialization",
]
