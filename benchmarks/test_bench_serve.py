"""Serving — warm spec-keyed engine cache vs cold-start, plus HTTP throughput.

The tentpole claim of :mod:`repro.serve`: a request for a spec the server has
already seen executes on a *warm* engine — populated
:class:`~repro.api.engine.MemoizedCondition`, live
:class:`~repro.asynchronous.executor.AsyncExecutor` substrate — while a cold
request pays engine construction, condition building and (on the
asynchronous backend) a fresh shared memory + process pool.  Two benchmarks:

* **cache warm vs cold** (pinned): the same asynchronous batch through a
  cache hit vs a miss-execute-evict cycle, byte-identical results required,
  warm at least 1.2× cold (×1.3–1.5 typical on a 1-core container; the
  floor is deliberately conservative so scheduler noise cannot flake
  tier-1).  This is the cache's whole reason to exist, measured at the
  layer that isolates it — no HTTP, no JSON.
* **HTTP round-trip throughput** (reported, not pinned): full-stack
  client → daemon → warm engine → client batches.  On a 1-core container
  the HTTP/JSON overhead dominates small batches, so a wall-clock floor
  here would pin the socket stack, not the serving architecture; the
  number is printed and snapshotted so its trajectory is tracked instead.
"""

from __future__ import annotations

import time

import pytest

import snapshot
from timing import best_of_alternating
from repro.api import AgreementSpec, RunConfig
from repro.serve import EngineCache, ReproServer, ServeClient
from repro.workloads import vector_in_max_condition

SPEC = AgreementSpec(n=12, t=3, k=1, d=0, ell=1, domain=12)
CONFIG = RunConfig()  # the server's shape: seed-free key, backend per call
BATCH = 8
TIMING_ROUNDS = 5
HTTP_REQUESTS = 6


def _vectors(count: int = BATCH):
    return [
        vector_in_max_condition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell, seed)
        for seed in range(count)
    ]


@pytest.mark.bench
def test_warm_cache_beats_cold_start(capsys):
    vectors = _vectors()

    def cold():
        # What every request would pay without the cache: build, run, tear
        # down (the miss-evict cycle of a capacity-starved server).
        cache = EngineCache(capacity=1)
        entry = cache.get(SPEC, "condition-kset", CONFIG)
        with entry.lock:
            results = entry.engine.run_batch(
                vectors, backend="async", seeds=range(BATCH)
            )
        cache.clear()
        return results

    warm_cache = EngineCache(capacity=1)

    def warm():
        entry = warm_cache.get(SPEC, "condition-kset", CONFIG)
        with entry.lock:
            return entry.engine.run_batch(
                vectors, backend="async", seeds=range(BATCH)
            )

    warm()  # prime: first call populates the memo and builds the substrate
    (cold_seconds, cold_results), (warm_seconds, warm_results) = best_of_alternating(
        (cold, warm), TIMING_ROUNDS
    )

    # Warm serving changes wall-clock only, never a result byte.
    assert [r.fingerprint for r in warm_results] == [
        r.fingerprint for r in cold_results
    ]
    assert warm_cache.stats()["hits"] >= TIMING_ROUNDS

    speedup = cold_seconds / warm_seconds
    with capsys.disabled():
        print(
            f"\n[serve-cache] {BATCH}-run async batch: cold "
            f"{BATCH / cold_seconds:,.0f} runs/s, warm "
            f"{BATCH / warm_seconds:,.0f} runs/s, speed-up ×{speedup:.2f}"
        )
    snapshot.record(
        "serve_cache",
        {
            "batch": BATCH,
            "cold_runs_per_s": round(BATCH / cold_seconds, 1),
            "warm_runs_per_s": round(BATCH / warm_seconds, 1),
            "speedup": round(speedup, 3),
        },
    )
    assert speedup >= 1.2, (
        f"the warm cached engine gave ×{speedup:.2f} over cold start on a "
        f"{BATCH}-run async batch; expected at least ×1.2"
    )


@pytest.mark.bench
def test_http_round_trip_throughput(capsys):
    vectors = [list(v.entries) for v in _vectors()]
    with ReproServer(port=0) as server:
        client = ServeClient(*server.address)
        client.run_batch(SPEC, vectors, seed=0)  # prime the server's cache

        start = time.perf_counter()
        for request in range(HTTP_REQUESTS):
            client.run_batch(SPEC, vectors, seed=request)
        elapsed = time.perf_counter() - start

        status = client.status()
    # Every request after the primer was served from the warm engine.
    assert status["cache"]["hits"] >= HTTP_REQUESTS
    assert status["cache"]["misses"] == 1

    runs = HTTP_REQUESTS * BATCH
    with capsys.disabled():
        print(
            f"\n[serve-http] {HTTP_REQUESTS} batch requests × {BATCH} runs: "
            f"{HTTP_REQUESTS / elapsed:,.1f} req/s, {runs / elapsed:,.0f} runs/s "
            f"end to end (client → daemon → warm engine → client)"
        )
    snapshot.record(
        "serve_http",
        {
            "requests": HTTP_REQUESTS,
            "batch": BATCH,
            "requests_per_s": round(HTTP_REQUESTS / elapsed, 2),
            "runs_per_s": round(runs / elapsed, 1),
        },
    )
