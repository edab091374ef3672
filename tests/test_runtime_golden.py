"""Golden digests of the two reference round runtimes.

``SynchronousSystem`` and ``NetSystem`` are the reference implementations
every packed or sharded path is checked against, so their raw results are
pinned here field by field, not only through the reports built on them:

* sync: every ``ExecutionResult`` field, and with ``record_trace`` every
  round record (senders, delivered inboxes, crashes, decisions, active
  processes), over every crash schedule of two cells × the frontier, plus
  the watchdog's error text under a ``max_rounds`` override;
* net: the fingerprint, the fault-event audit trail, the delivered count,
  the adversary's description and faulty set, decisions, decision rounds
  and rounds, over every enumerated fault assignment of every family, the
  seeded families and every registry builder over seeds 0–5.

Dicts are hashed as their items in insertion order, so the order in which
a runtime records decisions, crashes and inbox entries is pinned too.  A
change to any digest is a change to what the reference runtimes compute.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import AgreementSpec, Engine
from repro.check import (
    MUTANT_ECHOLESS_FLOODMIN,
    MUTANT_HASTY_FLOODMIN,
    MUTANT_SILENT_FLOODMIN,
    input_frontier,
    register_mutants,
)
from repro.exceptions import SimulationError
from repro.net import (
    BoundedDelayAdversary,
    ByzantineCorruptAdversary,
    MessageLossAdversary,
    NetSystem,
    available_net_adversaries,
    enumerate_faults,
    resolve_net_adversary,
)
from repro.sync.adversary import enumerate_schedules
from repro.sync.runtime import SynchronousSystem

#: Sync cells: (spec, schedule rounds, frontier cap).  The n=4 cell keeps
#: every schedule but only the last two vectors of its structured frontier
#: (mixed ones: the first two are unanimous).  The net cell runs the whole
#: structured frontier.  Both trims keep this file within a few seconds.
SYNC_CELLS = {
    "n3t1": (AgreementSpec(n=3, t=1, k=1, d=1, domain=3), 3, None),
    "n4t2": (AgreementSpec(n=4, t=2, k=2, d=1, domain=2), 2, 2),
}

NET_SPEC = AgreementSpec(n=3, t=1, k=1, d=1, domain=3)
NET_MAX_FAULTS = 2
SEEDS = range(6)

SYNC_DIGESTS = {
    ("n3t1", "condition-kset"): "e88319c973015a5acaebb9d63f0bdfc974c1d3655a8049c44118cef07e89b3b3",
    ("n3t1", "floodmin"): "60fe1ec527ce0b176235180dbfa8506434f564b46d3cfdf96bf0c403558dc6ad",
    ("n3t1", "early-deciding"): "0cfbd2e1ec6c184dff40cffdd25d0f6028c51b514e7421c7a0be1c315c783efd",
    ("n3t1", MUTANT_HASTY_FLOODMIN): (
        "4003059766590fc123da67e25553c8d62b15b976fd93d77cbc297b0ed398ec5e"
    ),
    ("n4t2", "condition-kset"): "11d513bc834436369b5c0dfd9c3df4cfc1444d58d42c1e90b8a764b87d845542",
    ("n4t2", "floodmin"): "273ea05a7cbc29a66a00bcdb1c54a99ba92a08d2c227564d359e60cc99ca231b",
    ("n4t2", "early-deciding"): "577989f0ac83a3560ca3aca65f42e9c8a5403ca174294c96bf3bb94eab89016e",
    ("n4t2", MUTANT_HASTY_FLOODMIN): (
        "07809a94ec9f82f6f7c0a7fe76ab5cccfbe62e8375893ebeecdd16a655d45b55"
    ),
}

NET_DIGESTS = {
    "floodmin": "2c577e6533d9abaa6f332917f2b83c1cdcb4b399cc5b35116d42b4f9c9299143",
    "early-deciding": "34cf86ac7a0ce81e750356aee9993f579a1d53a2cb4685801e08a6ea1640cb24",
    MUTANT_ECHOLESS_FLOODMIN: "56c2dcd40c2fa4aced799e47a8fd358744152a7ee15194d066eb0c463a668332",
    MUTANT_SILENT_FLOODMIN: "aa17b6c30385694136d976bece7f78200aa85a9a05bdedd0d4847adbfaaf73be",
}


def _engine(spec: AgreementSpec, algorithm: str) -> Engine:
    register_mutants()
    return Engine(spec, algorithm)


def _frontier(engine: Engine, cap: int | None):
    if cap is None:
        return input_frontier(engine.spec, engine.condition)
    return input_frontier(engine.spec, engine.condition, all_vectors_limit=0)[-cap:]


def _sync_record(result) -> tuple:
    trace = None
    if result.trace is not None:
        trace = tuple(
            (
                record.round_number,
                record.senders,
                tuple(
                    (receiver, tuple(inbox.items()))
                    for receiver, inbox in record.delivered.items()
                ),
                record.crashed,
                tuple(record.decisions.items()),
                record.active_after,
            )
            for record in result.trace
        )
    return (
        result.n,
        result.t,
        result.input_vector.entries,
        tuple(result.decisions.items()),
        tuple(result.decision_rounds.items()),
        tuple(result.crash_rounds.items()),
        result.rounds_executed,
        result.schedule.to_records(),
        trace,
    )


def _net_record(result) -> tuple:
    return (
        result.n,
        result.t,
        result.input_vector.entries,
        result.adversary_family,
        result.adversary_description,
        tuple(sorted(result.faulty)),
        tuple(result.decisions.items()),
        tuple(result.decision_rounds.items()),
        result.rounds_executed,
        result.delivered_count,
        tuple(event.to_tuple() for event in result.fault_events),
        result.fingerprint,
    )


def sync_digest(cell: str, algorithm: str) -> str:
    spec, rounds, cap = SYNC_CELLS[cell]
    engine = _engine(spec, algorithm)
    vectors = _frontier(engine, cap)
    schedules = list(enumerate_schedules(spec.n, spec.t, rounds))
    digest = hashlib.sha256()
    for record_trace in (False, True):
        system = SynchronousSystem(spec.n, spec.t, engine.algorithm, record_trace=record_trace)
        for schedule in schedules:
            for vector in vectors:
                digest.update(repr(_sync_record(system.run(vector, schedule))).encode())
    watchdog = SynchronousSystem(spec.n, spec.t, engine.algorithm, max_rounds=1)
    for schedule in schedules:
        for vector in vectors:
            try:
                outcome = _sync_record(watchdog.run(vector, schedule))
            except SimulationError as error:
                outcome = str(error)
            digest.update(repr(outcome).encode())
    return digest.hexdigest()


def _net_adversaries(rounds: int):
    """``(run seed, adversary)`` for every point the net digest covers."""
    for family in available_net_adversaries():
        for adversary in enumerate_faults(family, NET_SPEC.n, rounds, NET_MAX_FAULTS):
            yield 0, adversary
    for seed in SEEDS:
        for family in available_net_adversaries():
            yield seed, resolve_net_adversary(family, NET_SPEC.n, NET_SPEC.t, seed)
        yield seed, MessageLossAdversary(p=0.3)
        yield seed, BoundedDelayAdversary(d_max=2)
        yield seed, ByzantineCorruptAdversary(limit=2, p=0.3)


def net_digest(algorithm: str) -> str:
    engine = _engine(NET_SPEC, algorithm)
    vectors = input_frontier(NET_SPEC, engine.condition, all_vectors_limit=0)
    system = NetSystem(NET_SPEC.n, NET_SPEC.t, engine.algorithm)
    rounds = engine.algorithm.max_rounds(NET_SPEC.n, NET_SPEC.t)
    digest = hashlib.sha256()
    for seed, adversary in _net_adversaries(rounds):
        for vector in vectors:
            result = system.run(vector, adversary, seed=seed)
            digest.update(repr(_net_record(result)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("cell, algorithm", sorted(SYNC_DIGESTS))
def test_sync_runtime_matches_golden_digest(cell, algorithm):
    assert sync_digest(cell, algorithm) == SYNC_DIGESTS[cell, algorithm]


@pytest.mark.parametrize("algorithm", sorted(NET_DIGESTS))
def test_net_runtime_matches_golden_digest(algorithm):
    assert net_digest(algorithm) == NET_DIGESTS[algorithm]
