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
  client → daemon → warm engine → client batches, in rounds of at least
  ``ROUND_SECONDS`` of back-to-back requests on one kept connection,
  alternating with the same batches on a direct engine.  The HTTP/JSON
  overhead dominates small batches, so a wall-clock floor here would pin
  the socket stack, not the serving architecture; the rounds' spread is
  printed and snapshotted so the trajectory is tracked instead.  What is
  pinned is a count: every request of the client's one thread rides one
  connection.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

import snapshot
from timing import alternating_rounds, best_of_alternating
from repro.api import AgreementSpec, Engine, RunConfig
from repro.serve import EngineCache, ReproServer, ServeClient
from repro.workloads import vector_in_max_condition

SPEC = AgreementSpec(n=12, t=3, k=1, d=0, ell=1, domain=12)
CONFIG = RunConfig()  # the server's shape: seed-free key, backend per call
BATCH = 8
TIMING_ROUNDS = 5
#: A timed HTTP round sends at least this many seconds of requests.
ROUND_SECONDS = 0.3
HTTP_ROUNDS = 5


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
    engine = Engine(SPEC, "condition-kset", CONFIG)
    with ReproServer(port=0) as server, ServeClient(*server.address) as client:
        client.run_batch(SPEC, vectors, seed=0)  # prime the server's cache
        # Size a round: as many requests as fill ROUND_SECONDS.
        requests, start = 0, time.perf_counter()
        while time.perf_counter() - start < ROUND_SECONDS:
            client.run_batch(SPEC, vectors, seed=requests)
            requests += 1

        def served():
            return [
                client.run_batch(SPEC, vectors, seed=seed) for seed in range(requests)
            ]

        def direct():
            return [
                engine.run_batch(vectors, seeds=range(seed, seed + BATCH))
                for seed in range(requests)
            ]

        direct()  # prime the direct engine's memo, as the primer did the server's
        (served_seconds, served_batches), (direct_seconds, direct_batches) = (
            alternating_rounds((served, direct), HTTP_ROUNDS)
        )
        status = client.status()

    # Served batches are the direct engine's, byte for byte.
    assert [
        [json.dumps(r.to_record(), sort_keys=True) for r in batch]
        for batch in served_batches
    ] == [
        [json.dumps(r.to_record(), sort_keys=True) for r in batch]
        for batch in direct_batches
    ]
    # Every request after the primer was served from the warm engine...
    assert status["cache"]["misses"] == 1
    assert status["cache"]["hits"] >= HTTP_ROUNDS * requests
    # ...and every request of this one thread rode one kept connection.
    assert status["connections"]["opened"] == 1, status["connections"]

    rates = sorted(requests / seconds for seconds in served_seconds)
    served_rate = statistics.median(rates)
    direct_rate = statistics.median(requests / seconds for seconds in direct_seconds)
    overhead_ms = 1000 * (1 / served_rate - 1 / direct_rate)
    with capsys.disabled():
        print(
            f"\n[serve-http] {HTTP_ROUNDS} rounds of {requests} batch requests × "
            f"{BATCH} runs on one connection: median {served_rate:,.0f} req/s "
            f"({BATCH * served_rate:,.0f} runs/s; rounds {rates[0]:,.0f}–"
            f"{rates[-1]:,.0f}), direct engine {direct_rate:,.0f} batches/s, "
            f"serving adds {overhead_ms:.2f} ms per request"
        )
    snapshot.record(
        "serve_http",
        {
            "batch": BATCH,
            "rounds": HTTP_ROUNDS,
            "requests_per_round": requests,
            "connections_opened": status["connections"]["opened"],
            "requests_per_s": round(served_rate, 1),
            "requests_per_s_min": round(rates[0], 1),
            "requests_per_s_max": round(rates[-1], 1),
            "runs_per_s": round(BATCH * served_rate, 1),
            "direct_batches_per_s": round(direct_rate, 1),
            "overhead_ms_per_request": round(overhead_ms, 3),
        },
    )
