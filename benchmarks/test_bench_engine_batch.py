"""Engine batching — ``run_batch`` throughput vs the naive per-vector loop.

The naive loop is the seed idiom that predates ``repro.api``: every run
rebuilds the condition, the algorithm and the synchronous system, re-validates
the crash schedule and re-answers every condition query from scratch.  The
engine batch shares all of that: one spec-cached condition wrapped in a
memoizing oracle (membership, the predicate ``P`` and view decoding are
answered once per distinct view across the whole batch) and one validation per
distinct schedule.

The workload is deliberately shaped like production traffic: a few distinct
proposal vectors repeated many times (requests from a prior coordination step
cluster heavily), half the runs failure-free, half under a round-1 crash
batch.  The benchmark asserts the two paths decide identically and that the
batch is strictly faster, seeding the performance trajectory for later
backend/caching PRs.
"""

from __future__ import annotations

import os

import snapshot
from timing import best_of_alternating
from repro.api import AgreementSpec, Engine
from repro.algorithms import ConditionBasedKSetAgreement
from repro.core import MaxLegalCondition
from repro.sync import SynchronousSystem, crashes_in_round_one, no_crashes
from repro.workloads import vector_in_max_condition

SPEC = AgreementSpec(n=24, t=8, k=2, d=4, ell=2, domain=12)
DISTINCT_VECTORS = 8
REPEATS = 5
TIMING_ROUNDS = 3


def _workload():
    """(vectors, schedules): DISTINCT_VECTORS × REPEATS runs, half crashy."""
    vectors = [
        vector_in_max_condition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell, seed)
        for seed in range(DISTINCT_VECTORS)
    ]
    crashy = crashes_in_round_one(SPEC.n, SPEC.x, delivered_prefix=SPEC.n // 2)
    paired = []
    for repeat in range(REPEATS):
        for index, vector in enumerate(vectors):
            schedule = no_crashes() if (repeat + index) % 2 == 0 else crashy
            paired.append((vector, schedule))
    return paired


def _naive_loop(paired):
    """The pre-API idiom: fresh condition/algorithm/system per run."""
    outcomes = []
    for vector, schedule in paired:
        condition = MaxLegalCondition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell)
        algorithm = ConditionBasedKSetAgreement(
            condition=condition, t=SPEC.t, d=SPEC.d, k=SPEC.k
        )
        system = SynchronousSystem(n=SPEC.n, t=SPEC.t, algorithm=algorithm)
        in_condition = condition.contains(vector)
        result = system.run(vector, schedule)
        outcomes.append((result.decisions, result.rounds_executed, in_condition))
    return outcomes


def _engine_batch(paired):
    """One engine, one chunked batch, memoized condition work."""
    engine = Engine(SPEC, "condition-kset")
    results = engine.run_batch(
        [vector for vector, _ in paired],
        [schedule for _, schedule in paired],
    )
    return [(r.decisions, r.duration, r.in_condition) for r in results]


def test_engine_batch_beats_naive_loop(capsys):
    paired = _workload()

    (naive_seconds, naive_outcomes), (batch_seconds, batch_outcomes) = best_of_alternating(
        (lambda: _naive_loop(paired), lambda: _engine_batch(paired)), TIMING_ROUNDS
    )

    # Same decisions, same durations, same membership annotations.
    assert batch_outcomes == naive_outcomes

    runs = len(paired)
    speedup = naive_seconds / batch_seconds
    with capsys.disabled():
        print(
            f"\n[engine-batch] {runs} runs ({DISTINCT_VECTORS} distinct vectors × "
            f"{REPEATS}): naive {runs / naive_seconds:,.0f} runs/s, "
            f"batch {runs / batch_seconds:,.0f} runs/s, speed-up ×{speedup:.2f}"
        )
    snapshot.record(
        "engine_batch",
        {
            "runs": runs,
            "naive_runs_per_s": round(runs / naive_seconds, 1),
            "batch_runs_per_s": round(runs / batch_seconds, 1),
            "speedup": round(speedup, 3),
        },
    )

    # The memoized batch must beat the naive per-vector loop outright.  On
    # shared CI runners wall-clock comparisons are noisy (CPU steal, GC
    # pauses), so there the bar is "not slower" with headroom; locally the
    # observed speed-up is ×2–3 and the strict inequality must hold.
    tolerance = 1.5 if os.environ.get("CI") else 1.0
    assert batch_seconds < naive_seconds * tolerance, (
        f"run_batch ({batch_seconds:.4f}s) is not faster than the naive loop "
        f"({naive_seconds:.4f}s) on {runs} runs"
    )


def test_engine_batch_memoization_is_visible():
    """The speed-up has a mechanism: condition queries collapse across runs."""
    paired = _workload()
    engine = Engine(SPEC, "condition-kset")
    engine.run_batch(
        [vector for vector, _ in paired],
        [schedule for _, schedule in paired],
    )
    stats = engine.cache_stats()
    assert stats["contains"].misses == DISTINCT_VECTORS
    assert stats["contains"].hits == DISTINCT_VECTORS * (REPEATS - 1)
    # Decoding dominates the synchronous fast path: with n processes sharing a
    # handful of distinct views per run, almost every decode is a cache hit.
    assert stats["decode"].hit_rate() > 0.8
