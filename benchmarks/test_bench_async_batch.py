"""Asynchronous batching — one reused substrate vs per-run reconstruction.

The tentpole claim of the async adversary subsystem: a batch of asynchronous
executions through one engine reuses a single ``SharedMemory`` + process pool
(:class:`repro.asynchronous.AsyncExecutor`) and one warm memoized condition
oracle, where the pre-subsystem shape — the
:func:`run_async_condition_set_agreement` harness — rebuilt the condition,
the memory and every process state machine for each run.  This benchmark
pins that speed-up:

* **determinism** — the batched results carry the same decisions, step
  counts and interleaving fingerprints as the per-run harness under the same
  seeds (``config.seed + i``), so the reuse is pure mechanics, not a
  behaviour change;
* **throughput** — the batch must be at least 1.1× the per-run harness on a
  128-run workload (×1.4 typical on a 1-core container; the asserted floor
  is deliberately conservative so scheduler noise cannot flake tier-1).  The
  two sides alternate round by round (:mod:`timing`), so a slow stretch of
  the machine lands on both.
"""

from __future__ import annotations

import pytest

import snapshot
from timing import best_of_alternating
from repro.algorithms.async_condition_set_agreement import (
    run_async_condition_set_agreement,
)
from repro.api import AgreementSpec, Engine, RunConfig
from repro.core.conditions import MaxLegalCondition
from repro.workloads import vector_in_max_condition

SPEC = AgreementSpec(n=12, t=3, k=1, d=0, ell=1, domain=12)
CONFIG = RunConfig(backend="async", seed=0)
RUNS = 128
TIMING_ROUNDS = 3


def _vectors():
    return [
        vector_in_max_condition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell, seed)
        for seed in range(RUNS)
    ]


def _batched(vectors):
    return Engine(SPEC, "condition-kset", CONFIG).run_batch(vectors)


def _per_run_harness(vectors):
    # The pre-subsystem shape: a fresh condition oracle, shared memory and
    # process pool per execution, seeds matching the batch's
    # ``config.seed + i`` contract.
    results = []
    for index, vector in enumerate(vectors):
        condition = MaxLegalCondition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell)
        results.append(
            run_async_condition_set_agreement(
                condition, SPEC.x, vector, seed=CONFIG.seed + index
            )
        )
    return results


@pytest.mark.bench
def test_async_batch_reuse_matches_and_beats_per_run(capsys):
    vectors = _vectors()
    (harness_seconds, harness_results), (batched_seconds, batched_results) = (
        best_of_alternating(
            (lambda: _per_run_harness(vectors), lambda: _batched(vectors)),
            TIMING_ROUNDS,
        )
    )

    # Identical executions: the reused substrate changes nothing.
    assert [r.decisions for r in batched_results] == [
        r.decisions for r in harness_results
    ]
    assert [r.fingerprint for r in batched_results] == [
        r.fingerprint for r in harness_results
    ]
    assert [r.duration for r in batched_results] == [
        r.total_steps for r in harness_results
    ]

    speedup = harness_seconds / batched_seconds
    with capsys.disabled():
        print(
            f"\n[async-batch] {RUNS} runs: per-run harness "
            f"{RUNS / harness_seconds:,.0f} runs/s, batched "
            f"{RUNS / batched_seconds:,.0f} runs/s, speed-up ×{speedup:.2f}"
        )
    snapshot.record(
        "async_batch",
        {
            "runs": RUNS,
            "per_run_harness_runs_per_s": round(RUNS / harness_seconds, 1),
            "batched_runs_per_s": round(RUNS / batched_seconds, 1),
            "speedup": round(speedup, 3),
        },
    )
    assert speedup >= 1.1, (
        f"the batched async path gave ×{speedup:.2f} over per-run "
        f"reconstruction on {RUNS} runs; expected at least ×1.1"
    )
