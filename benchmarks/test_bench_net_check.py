"""Net model checking — ``Engine.check(backend="net", workers=4)`` vs serial.

The message-passing checker enumerates one failure model's complete fault
space (here ``send-omission`` with up to ``t`` static victims) and crosses it
with the input frontier, so like the crash-schedule checker its workload is
embarrassingly parallel: contiguous index ranges of the deterministic
adversary stream shard across a process pool with no coordination beyond the
final merge.  The workload is one real verification cell — FloodMin on
``n=4, t=2`` under every send-omission assignment — big enough that fork +
IPC overhead has to be amortized, small enough for a benchmark.

Two properties are asserted:

* **parity** — the parallel report is byte-identical to the serial one
  (``to_record()`` compares equal), the correctness contract of
  :func:`repro.parallel.execute_check`;
* **throughput** — on a machine with at least 4 usable cores, 4 workers must
  reach at least 2× the serial checked-executions/second.  On smaller
  machines the speed-up assertion is skipped, exactly like the other
  parallel benchmarks; the parity assertion always runs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import snapshot
from repro.api import AgreementSpec, Engine
from repro.net import count_faults

SPEC = AgreementSpec(n=4, t=2, k=2, domain=3)
ADVERSARY = "send-omission"
WORKERS = 4
TIMING_ROUNDS = 2


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _best_of(workers: int, rounds: int = TIMING_ROUNDS):
    best = float("inf")
    report = None
    for _ in range(rounds):
        engine = Engine(SPEC, "floodmin")  # fresh caches per round
        start = time.perf_counter()
        report = engine.check(backend="net", adversary=ADVERSARY, workers=workers)
        best = min(best, time.perf_counter() - start)
    return best, report


@pytest.mark.bench
def test_net_check_parallel_matches_and_beats_serial(capsys):
    serial_seconds, serial_report = _best_of(1)
    parallel_seconds, parallel_report = _best_of(WORKERS)

    # Byte-identical verification verdicts whatever the worker count.
    assert json.dumps(parallel_report.to_record(), sort_keys=True) == json.dumps(
        serial_report.to_record(), sort_keys=True
    )
    assert serial_report.passed
    # The enumerated fault space must match its closed form.
    space = serial_report.space
    assert serial_report.adversary_count == count_faults(
        ADVERSARY, SPEC.n, space.rounds, space.max_faults
    )

    executions = serial_report.executions
    cores = _usable_cores()
    speedup = serial_seconds / parallel_seconds
    with capsys.disabled():
        print(
            f"\n[net-check] {serial_report.adversary_count} {ADVERSARY} faults x "
            f"{serial_report.vector_count} vectors = {executions} executions: "
            f"serial {executions / serial_seconds:,.0f} exec/s, {WORKERS} workers "
            f"{executions / parallel_seconds:,.0f} exec/s, speed-up ×{speedup:.2f} "
            f"({cores} usable core(s))"
        )
    snapshot.record(
        "net_check",
        {
            "adversary": ADVERSARY,
            "faults": serial_report.adversary_count,
            "executions": executions,
            "serial_exec_per_s": round(executions / serial_seconds, 1),
            "parallel_exec_per_s": round(executions / parallel_seconds, 1),
            "workers": WORKERS,
            "speedup": round(speedup, 3),
        },
    )

    if cores < WORKERS:
        # Too few cores for 4 simulators at once; the run above still proved
        # parity and that the sharded path works end to end.
        return
    assert speedup >= 2.0, (
        f"workers={WORKERS} gave ×{speedup:.2f} over serial on {executions} "
        f"checked executions ({cores} cores); expected at least ×2"
    )
