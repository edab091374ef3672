"""Tests for :mod:`repro.serve` — the agreement-as-a-service daemon.

Covers the serving stack layer by layer and then end to end against a live
server:

* deterministic engine teardown (:meth:`~repro.api.Engine.close`, the
  :class:`~repro.asynchronous.executor.AsyncExecutor` lifecycle) and the
  explicit-seed plumbing (``run_batch(seeds=...)``, ``sweep(seed=...)``)
  that lets one warm engine serve many per-request seeds byte-identically;
* the spec-keyed :class:`~repro.serve.EngineCache` (hit/miss/LRU eviction,
  eviction closes engines);
* :class:`~repro.serve.AdmissionController` and
  :class:`~repro.serve.TenantQuotas` (bounded concurrency, bounded queue,
  429-style rejections, budgets);
* the :class:`~repro.serve.BatchCoalescer` (load-adaptive merging, error
  propagation);
* a live :class:`~repro.serve.ReproServer` driven through
  :class:`~repro.serve.ServeClient`: every endpoint, byte-identity with the
  direct engine on both backends, warm-cache hits, eviction under a tiny
  bound, quota and admission rejection, request coalescing, per-tenant
  result stores, streaming batches and graceful shutdown;
* kept HTTP/1.1 connections: one per client thread, never out of step after
  an early answer, replaced when the daemon restarts, and ended by
  :meth:`~repro.serve.ReproServer.close`.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time

import pytest

from repro.api import AgreementSpec, Engine, RunConfig
from repro.cli import build_parser
from repro.exceptions import (
    AdmissionError,
    InvalidParameterError,
    QuotaExceededError,
    ServeError,
    SimulationError,
)
from repro.serve import (
    AdmissionController,
    BatchCoalescer,
    EngineCache,
    ReproServer,
    ServeClient,
    TenantQuotas,
)
from repro.store import ResultStore
from repro.workloads.vectors import vector_in_max_condition

SPEC = AgreementSpec(n=4, t=2, k=2, d=1, ell=1, domain=5)
OTHER_SPEC = AgreementSpec(n=5, t=2, k=2, d=1, ell=1, domain=5)
CHECK_SPEC = AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2)


def _vectors(count: int, spec: AgreementSpec = SPEC) -> list[list[int]]:
    return [
        list(vector_in_max_condition(spec.n, spec.domain, spec.x, spec.ell, seed).entries)
        for seed in range(count)
    ]


def _canon(results) -> list[str]:
    return [json.dumps(result.to_record(), sort_keys=True) for result in results]


def _post(client: ServeClient, path: str, fields: dict) -> tuple[int, dict]:
    """``(status, body)`` of a raw request on the three-process check spec."""
    payload = {"spec": {"n": 3, "t": 1, "k": 1, "d": 1, "domain": 2}, **fields}
    connection, response = client._open("POST", path, payload)
    try:
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture
def server():
    with ReproServer(port=0) as instance:
        yield instance


@pytest.fixture
def client(server):
    return ServeClient(*server.address)


class TestEngineTeardown:
    """Satellite: deterministic resource teardown on the engine facade."""

    def test_close_tears_down_the_async_substrate(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async"))
        engine.run(_vectors(1)[0])
        executor = engine._async_executor_cache
        assert executor is not None and not executor.closed
        engine.close()
        assert executor.closed
        assert engine._async_executor_cache is None

    def test_closed_executor_refuses_to_run(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async"))
        engine.run(_vectors(1)[0])
        executor = engine._async_executor_cache
        engine.close()
        with pytest.raises(SimulationError, match="closed"):
            executor.run(_vectors(1)[0])

    def test_executor_close_is_idempotent(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async"))
        engine.run(_vectors(1)[0])
        executor = engine._async_executor_cache
        engine.close()
        executor.close()
        assert executor.closed

    def test_close_is_recoverable(self):
        """A closed engine rebuilds its substrate on the next run, identically."""
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async"))
        vector = _vectors(1)[0]
        before = engine.run(vector)
        engine.close()
        after = engine.run(vector)
        assert engine._async_executor_cache is not None
        assert _canon([after]) == _canon([before])

    def test_context_manager_closes(self):
        with Engine(SPEC, "condition-kset", RunConfig(backend="async")) as engine:
            engine.run(_vectors(1)[0])
            executor = engine._async_executor_cache
        assert executor.closed

    def test_close_clears_sync_state_too(self):
        engine = Engine(SPEC, "condition-kset")
        engine.run(_vectors(1)[0])
        assert engine._system is not None
        engine.close()
        assert engine._system is None
        assert engine.run(_vectors(1)[0]).terminated


class TestExplicitSeeds:
    """Satellite: per-call seeds make warm engines shareable without drift."""

    def test_seeds_reproduce_a_sibling_config(self):
        vectors = _vectors(4)
        direct = Engine(SPEC, "condition-kset", RunConfig(seed=9)).run_batch(vectors)
        shared = Engine(SPEC, "condition-kset", RunConfig(seed=0)).run_batch(
            vectors, seeds=range(9, 13)
        )
        assert _canon(shared) == _canon(direct)

    def test_seeds_reproduce_async_batches(self):
        vectors = _vectors(4)
        direct = Engine(
            SPEC, "condition-kset", RunConfig(backend="async", seed=7)
        ).run_batch(vectors)
        shared = Engine(SPEC, "condition-kset").run_batch(
            vectors, backend="async", seeds=range(7, 11)
        )
        assert _canon(shared) == _canon(direct)

    def test_sized_seed_mismatch_raises(self):
        with pytest.raises(InvalidParameterError, match="explicit seeds"):
            Engine(SPEC, "condition-kset").run_batch(_vectors(3), seeds=[1, 2])

    def test_lazy_seed_exhaustion_raises(self):
        with pytest.raises(InvalidParameterError, match="ran out"):
            Engine(SPEC, "condition-kset").run_batch(
                _vectors(3), seeds=iter([1, 2])
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_seed_override_matches_sibling(self, workers):
        grid = {"d": (1, 2)}
        direct = Engine(SPEC, "condition-kset", RunConfig(seed=5)).sweep(grid, 2)
        shared = Engine(SPEC, "condition-kset").sweep(grid, 2, seed=5, workers=workers)
        assert [
            _canon(cell.results) for cell in shared
        ] == [_canon(cell.results) for cell in direct]


class TestEngineCache:
    def test_hit_returns_the_same_entry(self):
        cache = EngineCache(capacity=2)
        first = cache.get(SPEC)
        second = cache.get(SPEC)
        assert first is second
        assert cache.stats() == {
            "size": 1, "capacity": 2, "hits": 1, "misses": 1, "evictions": 0,
        }
        assert second.hits == 1

    def test_distinct_recipes_are_distinct_entries(self):
        cache = EngineCache(capacity=4)
        assert cache.get(SPEC) is not cache.get(OTHER_SPEC)
        assert cache.get(SPEC) is not cache.get(SPEC, config=RunConfig(crashes=1))
        assert len(cache) == 3

    def test_lru_eviction_closes_the_victim(self):
        cache = EngineCache(capacity=1)
        victim = cache.get(SPEC, config=RunConfig(backend="async"))
        victim.engine.run(_vectors(1)[0])
        executor = victim.engine._async_executor_cache
        cache.get(OTHER_SPEC)  # evicts SPEC's engine
        assert executor.closed
        stats = cache.stats()
        assert stats["size"] == 1 and stats["evictions"] == 1

    def test_lru_order_respects_recency(self):
        cache = EngineCache(capacity=2)
        a = cache.get(SPEC)
        cache.get(OTHER_SPEC)
        cache.get(SPEC)  # refresh A: OTHER becomes the LRU victim
        cache.get(CHECK_SPEC)
        assert cache.get(SPEC) is a  # still cached: a hit, not a rebuild
        assert cache.stats()["evictions"] == 1

    def test_explicit_evict_and_clear(self):
        cache = EngineCache(capacity=4)
        entry = cache.get(SPEC)
        assert cache.evict(entry.key)
        assert not cache.evict(entry.key)
        cache.get(SPEC)
        cache.get(OTHER_SPEC)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(InvalidParameterError):
            EngineCache(capacity=0)

    def test_entries_describe_engines(self):
        cache = EngineCache()
        cache.get(SPEC)
        (described,) = cache.entries()
        assert described["algorithm"] == "condition-kset"
        assert described["spec"] == SPEC.describe()


class TestAdmissionController:
    def test_rejects_when_slots_and_queue_are_full(self):
        admission = AdmissionController(max_inflight=1, max_queue=0)
        admission.acquire()
        with pytest.raises(AdmissionError, match="capacity"):
            admission.acquire()
        admission.release()
        admission.acquire()  # a freed slot admits again
        admission.release()
        stats = admission.stats()
        assert stats["admitted"] == 2 and stats["rejected"] == 1
        assert stats["in_flight"] == 0

    def test_queued_request_waits_for_a_slot(self):
        admission = AdmissionController(max_inflight=1, max_queue=1)
        admission.acquire()
        admitted = threading.Event()

        def waiter():
            with admission:
                admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        while admission.stats()["queued"] < 1:
            time.sleep(0.001)
        assert not admitted.is_set()
        # Queue full now: a third arrival is rejected while one waits.
        with pytest.raises(AdmissionError):
            admission.acquire()
        admission.release()
        thread.join(timeout=5)
        assert admitted.is_set()

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            AdmissionController(max_inflight=0)
        with pytest.raises(InvalidParameterError):
            AdmissionController(max_queue=-1)


class TestTenantQuotas:
    def test_refund_gives_a_charge_back(self):
        quotas = TenantQuotas(default_limit=4)
        quotas.charge("a", 4)
        quotas.refund("a", 3)
        quotas.charge("a", 3)
        assert quotas.usage() == {"a": {"used": 4, "limit": 4}}
        with pytest.raises(InvalidParameterError, match="refund"):
            quotas.refund("a", 5)  # more than was charged
        with pytest.raises(InvalidParameterError, match="refund"):
            quotas.refund("a", -1)

    def test_charges_accumulate_and_reject_over_budget(self):
        quotas = TenantQuotas(default_limit=10)
        quotas.charge("a", 6)
        quotas.charge("a", 4)
        with pytest.raises(QuotaExceededError, match="'a'"):
            quotas.charge("a", 1)
        quotas.charge("b", 10)  # budgets are per tenant
        assert quotas.usage() == {
            "a": {"used": 10, "limit": 10},
            "b": {"used": 10, "limit": 10},
        }
        assert quotas.rejected == 1

    def test_rejected_charge_charges_nothing(self):
        quotas = TenantQuotas(default_limit=5)
        quotas.charge("a", 3)
        with pytest.raises(QuotaExceededError):
            quotas.charge("a", 3)
        quotas.charge("a", 2)  # the failed charge left the budget intact

    def test_overrides_and_unlimited_tracking(self):
        quotas = TenantQuotas(default_limit=5, limits={"big": 100, "free": None})
        quotas.charge("big", 50)
        quotas.charge("free", 10_000)
        assert quotas.limit_of("big") == 100
        assert quotas.limit_of("free") is None
        assert quotas.usage()["free"] == {"used": 10_000, "limit": None}

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            TenantQuotas(default_limit=-1)
        with pytest.raises(InvalidParameterError):
            TenantQuotas(limits={"a": -2})
        with pytest.raises(InvalidParameterError):
            TenantQuotas().charge("a", -1)


class TestBatchCoalescer:
    def test_lone_request_executes_immediately(self):
        coalescer = BatchCoalescer()
        result = coalescer.submit(
            "key", "a", threading.RLock(), lambda batch: [p.upper() for p in batch]
        )
        assert result == "A"
        assert coalescer.stats() == {
            "batches_executed": 1,
            "requests_seen": 1,
            "requests_merged": 0,
            "largest_merge": 1,
        }

    def _run_contended(self, runner, names=("a", "b", "c")):
        """Submit *names* concurrently while the engine lock is held."""
        coalescer = BatchCoalescer()
        lock = threading.RLock()
        outcomes: dict[str, object] = {}

        def submit(name):
            try:
                outcomes[name] = coalescer.submit("key", name, lock, runner)
            except Exception as error:  # noqa: BLE001 - recorded for assertions
                outcomes[name] = error

        lock.acquire()  # simulate a busy engine: the leader must wait
        threads = [threading.Thread(target=submit, args=(n,)) for n in names]
        for thread in threads:
            thread.start()
        while coalescer.stats()["requests_seen"] < len(names):
            time.sleep(0.001)
        lock.release()
        for thread in threads:
            thread.join(timeout=5)
        return coalescer, outcomes

    def test_contended_requests_merge_into_one_call(self):
        calls = []

        def runner(batch):
            calls.append(list(batch))
            return [payload.upper() for payload in batch]

        coalescer, outcomes = self._run_contended(runner)
        assert outcomes == {"a": "A", "b": "B", "c": "C"}
        assert len(calls) == 1 and sorted(calls[0]) == ["a", "b", "c"]
        stats = coalescer.stats()
        assert stats["batches_executed"] == 1
        assert stats["requests_merged"] == 2
        assert stats["largest_merge"] == 3

    def test_runner_failure_reaches_every_merged_request(self):
        def runner(batch):
            raise ValueError("engine exploded")

        _, outcomes = self._run_contended(runner)
        assert all(isinstance(o, ValueError) for o in outcomes.values())

    def test_runner_length_mismatch_is_reported(self):
        _, outcomes = self._run_contended(lambda batch: ["only-one"])
        assert all(isinstance(o, RuntimeError) for o in outcomes.values())


class TestServerEndToEnd:
    def test_run_matches_direct_engine(self, client):
        vector = _vectors(1)[0]
        served = client.run(SPEC, vector, seed=5)
        direct = Engine(SPEC, "condition-kset", RunConfig(seed=5)).run(vector)
        assert _canon([served]) == _canon([direct])

    def test_batch_is_byte_identical_on_both_backends(self, client):
        vectors = _vectors(6)
        for backend in ("sync", "async"):
            served = client.run_batch(SPEC, vectors, seed=3, backend=backend)
            direct = Engine(
                SPEC, "condition-kset", RunConfig(backend=backend, seed=3)
            ).run_batch(vectors)
            assert _canon(served) == _canon(direct), backend

    def test_second_batch_is_served_warm(self, server, client):
        vectors = _vectors(3)
        client.run_batch(SPEC, vectors, seed=0)
        before = client.status()["cache"]
        client.run_batch(SPEC, vectors, seed=1)
        after = client.status()["cache"]
        assert before["misses"] == 1
        assert after["misses"] == 1  # no new engine was built
        assert after["hits"] >= before["hits"] + 1
        assert after["size"] == 1

    def test_streaming_batch_matches_buffered(self, client):
        vectors = _vectors(5)
        buffered = client.run_batch(SPEC, vectors, seed=2)
        streamed = list(client.iter_batch(SPEC, vectors, seed=2))
        assert _canon(streamed) == _canon(buffered)

    def test_sweep_matches_direct_engine(self, client):
        grid = {"d": [1, 2], "k": [2]}
        served = client.sweep(SPEC, grid, 2, seed=4)
        direct = Engine(SPEC, "condition-kset", RunConfig(seed=4)).sweep(grid, 2)
        assert [cell["overrides"] for cell in served] == [
            dict(cell.overrides) for cell in direct
        ]
        assert [
            [json.dumps(r, sort_keys=True) for r in cell["results"]]
            for cell in served
        ] == [_canon(cell.results) for cell in direct]

    def test_check_runs_the_model_checker(self, client):
        verdict = client.check(CHECK_SPEC)
        direct = Engine(CHECK_SPEC, "condition-kset").check()
        assert verdict["passed"] is True
        assert verdict["report"] == json.loads(json.dumps(direct.to_record()))
        assert "executions" in verdict["render"]

    def test_async_check_over_the_wire(self, client):
        verdict = client.check(CHECK_SPEC, backend="async", depth=2)
        assert verdict["passed"] is True
        assert verdict["backend"] == "async"

    def test_status_reports_the_whole_surface(self, client):
        client.run(SPEC, _vectors(1)[0])
        status = client.status()
        assert status["cache"]["size"] == 1
        assert status["cache"]["engines"][0]["spec"] == SPEC.describe()
        assert status["requests"]["by_endpoint"]["/run"] == 1
        assert status["runs_served"] == 1
        assert status["admission"]["in_flight"] == 0
        assert status["tenants"] == {"default": {"used": 1, "limit": None}}
        assert status["coalescer"]["requests_seen"] == 0
        assert status["uptime_seconds"] >= 0

    def test_eviction_under_a_tiny_bound(self):
        with ReproServer(port=0, cache_capacity=1) as server:
            client = ServeClient(*server.address)
            vectors = _vectors(2)
            first = client.run_batch(SPEC, vectors, seed=0)
            client.run_batch(OTHER_SPEC, _vectors(2, OTHER_SPEC), seed=0)
            again = client.run_batch(SPEC, vectors, seed=0)  # rebuilt after eviction
            assert _canon(again) == _canon(first)
            stats = client.status()["cache"]
            assert stats["capacity"] == 1 and stats["size"] == 1
            assert stats["evictions"] >= 2

    def test_quota_rejection_is_a_quota_error(self):
        with ReproServer(port=0, default_quota=4) as server:
            client = ServeClient(*server.address)
            client.run_batch(SPEC, _vectors(3), seed=0)
            with pytest.raises(QuotaExceededError, match="quota"):
                client.run_batch(SPEC, _vectors(3), seed=0)
            client.run(SPEC, _vectors(1)[0])  # 1 run still fits the budget
            status = client.status()
            assert status["requests"]["rejected_quota"] == 1
            assert status["tenants"]["default"]["used"] == 4

    def test_admission_rejection_refunds_the_quota_charge(self):
        """A request turned away at the door ran nothing, so it keeps no
        charge: after the slot frees, the tenant's budget is whole."""
        with ReproServer(
            port=0, default_quota=3, max_inflight=1, max_queue=0
        ) as server, ServeClient(*server.address) as client:
            vector = _vectors(1)[0]
            server.admission.acquire()  # occupy the only execution slot
            try:
                for _ in range(3):
                    with pytest.raises(AdmissionError):
                        client.run(SPEC, vector)
                assert server.status()["tenants"]["default"]["used"] == 0
            finally:
                server.admission.release()
            for seed in range(3):  # the whole budget of 3 is still there
                assert client.run(SPEC, vector, seed=seed).terminated
            with pytest.raises(QuotaExceededError):
                client.run(SPEC, vector)
            status = server.status()
            assert status["tenants"]["default"] == {"used": 3, "limit": 3}
            assert status["requests"]["rejected_admission"] == 3
            assert status["runs_served"] == 3

    def test_refused_requests_are_charged_nothing(self):
        """Knobs or bounds the engine refuses end a request before it runs
        anything, so they cost no quota: the whole budget is left after."""
        with ReproServer(port=0, default_quota=2) as server, ServeClient(
            *server.address
        ) as client:
            vector = _vectors(1)[0]
            for _ in range(2):
                with pytest.raises(ServeError, match="does not take"):
                    client.run(SPEC, vector, adversary="round-robin")
            with pytest.raises(ServeError, match="does not take"):
                client.run_batch(SPEC, _vectors(2), adversary="round-robin")
            with pytest.raises(ServeError, match="does not take"):
                client.sweep(SPEC, {"k": [1]}, backend="sync", adversary="latency-skew")
            with pytest.raises(ServeError, match="does not take"):
                client.check(CHECK_SPEC, backend="sync", adversary="send-omission")
            with pytest.raises(ServeError, match="does not support"):
                client.check(CHECK_SPEC, algorithm="floodmin", backend="async")
            # run_check's own parameter checks, and the engine's schedule
            # name, chunk size and worker count checks, come first too.
            with pytest.raises(ServeError, match="max_vectors must be an integer"):
                client.check(CHECK_SPEC, max_vectors="12")
            with pytest.raises(ServeError, match="max_counterexamples must be >= 0"):
                client.check(CHECK_SPEC, max_counterexamples=-1)
            with pytest.raises(ServeError, match="workers must be >= 1"):
                client.check(CHECK_SPEC, workers=0)
            with pytest.raises(ServeError, match="unknown schedule 'no-such-schedule'"):
                client.run(SPEC, vector, schedule="no-such-schedule")
            with pytest.raises(ServeError, match="chunk_size must be >= 1"):
                client.run_batch(SPEC, _vectors(2), chunk_size=0)
            with pytest.raises(ServeError, match="workers must be >= 1"):
                client.run_batch(SPEC, _vectors(2), workers=0)
            with pytest.raises(ServeError, match="unknown schedule 'no-such-schedule'"):
                client.sweep(SPEC, {"k": [1]}, schedule="no-such-schedule")
            # So do vector normalisation, the frontier's bound, the named
            # schedule's factory and the spec's check of the schedule.
            with pytest.raises(ServeError, match="expected 4 proposals, got 2"):
                client.run(SPEC, [1, 2])
            with pytest.raises(ServeError, match="expected 4 proposals, got 2"):
                client.run_batch(SPEC, _vectors(1) + [[1, 2]])
            with pytest.raises(ServeError, match="max_vectors must be >= 1"):
                client.check(CHECK_SPEC, max_vectors=0)
            with pytest.raises(ServeError, match="cannot crash 5 processes out of 4"):
                client.run(SPEC, vector, schedule="round-one", crashes=5)
            with pytest.raises(ServeError, match="AdversaryError"):
                client.run_batch(SPEC, _vectors(2), schedule="round-one", crashes=3)
            with pytest.raises(ServeError, match="takes no crash schedule"):
                client.run(SPEC, vector, backend="net", schedule="round-one", crashes=1)
            with pytest.raises(ServeError, match=r"crashed process 9 outside \[0, 4\)"):
                client.run(SPEC, vector, backend="async", crash_steps={9: 1})
            # And so does each adversary name's registry.
            with pytest.raises(ServeError, match="unknown net adversary 'no-such'"):
                client.run(SPEC, vector, backend="net", adversary="no-such")
            with pytest.raises(ServeError, match="unknown async adversary 'no-such'"):
                client.run_batch(SPEC, _vectors(3), backend="async", adversary="no-such")
            with pytest.raises(ServeError, match="unknown net adversary 'no-such'"):
                client.sweep(SPEC, {"k": [1, 2]}, backend="net", adversary="no-such")
            # And so do the sweep's own checks of its vectors mode and grid.
            with pytest.raises(ServeError, match="vectors must be 'in', 'out' or 'random'"):
                client.sweep(SPEC, {"k": [1, 2]}, vectors_mode="nope")
            with pytest.raises(ServeError, match="unknown grid field"):
                client.sweep(SPEC, {"nope": [1, 2]})
            assert "default" not in server.status()["tenants"]
            for seed in range(2):
                assert client.run(SPEC, vector, seed=seed).terminated
            with pytest.raises(QuotaExceededError):
                client.run(SPEC, vector)
            status = server.status()
            assert status["tenants"]["default"] == {"used": 2, "limit": 2}
            assert status["requests"]["errors"]["bad-request"] == 25

    def test_a_sweep_is_checked_and_charged_from_its_axes(self, monkeypatch):
        def no_cells(*axes):
            raise AssertionError("a sweep cell was built")

        # A body of a few KB whose axes multiply out to about 7e14 cells.
        grid = {field: list(range(300)) for field in ("n", "t", "k", "d", "ell", "domain")}
        with ReproServer(port=0, default_quota=2) as server:
            client = ServeClient(*server.address)
            with monkeypatch.context() as patch:
                patch.setattr(itertools, "product", no_cells)
                with pytest.raises(QuotaExceededError, match=f"{300 ** 6 * 4} requested"):
                    client.sweep(SPEC, grid)
            with pytest.raises(ServeError, match="grid axis 'k' needs a non-empty"):
                client.sweep(SPEC, {"k": "12"})
            # A sweep of no runs still costs a unit per cell, so a tenant
            # whose quota is spent cannot sweep for free.
            for seed in range(2):
                assert client.run(SPEC, _vectors(1)[0], seed=seed).terminated
            with pytest.raises(QuotaExceededError, match="2 used \\+ 2 requested"):
                client.sweep(SPEC, {"k": [1, 2]}, runs_per_cell=0)
            assert server.status()["tenants"]["default"] == {"used": 2, "limit": 2}

    def test_tenant_quota_overrides(self):
        with ReproServer(
            port=0, default_quota=1, tenant_quotas={"gold": 100}
        ) as server:
            gold = ServeClient(*server.address, tenant="gold")
            broke = ServeClient(*server.address, tenant="broke")
            gold.run_batch(SPEC, _vectors(5), seed=0)
            with pytest.raises(QuotaExceededError):
                broke.run_batch(SPEC, _vectors(5), seed=0)

    def test_admission_rejection_when_saturated(self):
        with ReproServer(port=0, max_inflight=1, max_queue=0) as server:
            client = ServeClient(*server.address)
            server.admission.acquire()  # occupy the only execution slot
            try:
                with pytest.raises(AdmissionError, match="capacity"):
                    client.run(SPEC, _vectors(1)[0])
                # Monitoring stays reachable while execution is saturated.
                assert client.status()["admission"]["rejected"] == 1
            finally:
                server.admission.release()
            assert client.run(SPEC, _vectors(1)[0]).terminated

    def test_concurrent_batches_coalesce_into_one_engine_call(self, server):
        vectors = _vectors(2)
        client = ServeClient(*server.address)
        client.run_batch(SPEC, vectors, seed=0)  # build the engine (miss)
        entry = server.cache.get(SPEC, "condition-kset", RunConfig())
        outcomes: dict[int, list] = {}

        def request(seed):
            outcomes[seed] = ServeClient(*server.address).run_batch(
                SPEC, vectors, seed=seed
            )

        seen_before = server.coalescer.stats()["requests_seen"]
        with entry.lock:  # hold the engine: concurrent requests must pool
            threads = [
                threading.Thread(target=request, args=(seed,)) for seed in (10, 20, 30)
            ]
            for thread in threads:
                thread.start()
            while server.coalescer.stats()["requests_seen"] < seen_before + 3:
                time.sleep(0.001)
        for thread in threads:
            thread.join(timeout=10)

        stats = server.coalescer.stats()
        assert stats["largest_merge"] >= 2  # at least two rode together
        # Merged or not, every response is byte-identical to a direct batch.
        for seed, results in outcomes.items():
            direct = Engine(
                SPEC, "condition-kset", RunConfig(seed=seed)
            ).run_batch(vectors)
            assert _canon(results) == _canon(direct)

    def test_tenant_stores_are_namespaced_files(self, tmp_path):
        with ReproServer(port=0, store_dir=str(tmp_path)) as server:
            alpha = ServeClient(*server.address, tenant="alpha")
            beta = ServeClient(*server.address, tenant="beta")
            alpha.run_batch(SPEC, _vectors(2), seed=0)
            beta.run(SPEC, _vectors(1)[0])
        alpha_store = ResultStore.for_tenant(tmp_path, "alpha")
        beta_store = ResultStore.for_tenant(tmp_path, "beta")
        assert len(alpha_store.load_results()) == 2
        assert len(beta_store.load_results()) == 1
        for record in alpha_store.iter_records():
            assert record["tenant"] == "alpha"

    @pytest.mark.parametrize(
        "fields",
        [
            {"rounds": "2"},
            {"rounds": True},
            {"max_counterexamples": "5"},
            {"max_vectors": "12"},
            {"all_vectors_limit": 100.0},
            {"backend": "async", "depth": "2"},
            {"backend": "async", "max_crashes": True},
            {"backend": "net", "algorithm": "floodmin", "max_faults": "1"},
        ],
    )
    def test_malformed_check_parameters_are_400s(self, client, fields):
        status, body = _post(client, "/check", fields)
        assert (status, body["code"]) == (400, "bad-request"), body
        assert "must be an integer" in body["error"]

    @pytest.mark.parametrize(
        "path, fields",
        [
            ("/sweep", {"grid": {"k": [1]}, "backend": "sync", "adversary": "latency-skew"}),
            (
                "/sweep",
                {"grid": {"k": [1]}, "backend": "net", "algorithm": "floodmin",
                 "crash_steps": {"0": 1}},
            ),
            ("/check", {"backend": "sync", "adversary": "send-omission"}),
            ("/check", {"backend": "async", "adversary": "latency-skew"}),
        ],
    )
    def test_knobs_the_backend_does_not_take_are_400s(self, client, path, fields):
        """/sweep and /check refuse what /run and /batch refuse, instead of
        dropping the knob."""
        status, body = _post(client, path, fields)
        assert (status, body["code"]) == (400, "bad-request"), body
        assert "InvalidParameterError" in body["error"]

    @pytest.mark.parametrize(
        "path, fields",
        [
            ("/run", {"vector": [1, 1, 1], "backend": "async", "crash_steps": {"a": 1}}),
            ("/run", {"vector": [1, 1, 1], "crashes": "x"}),
            ("/run", {"vector": [1, 1, 1], "max_steps": "x"}),
            ("/run", {"vector": [1, 1, 1], "schedule": "round-one", "crashes": 1.5}),
            ("/batch", {"vectors": [[1, 1, 1]], "backend": "async", "crash_steps": {"1": [1]}}),
            ("/batch", {"vectors": [[1, 1, 1]], "workers": True}),
            ("/batch", {"vectors": [[1, 1, 1]], "chunk_size": [2]}),
            ("/sweep", {"grid": {"k": [1]}, "runs_per_cell": True}),
            ("/run", {"vector": [1, 1, 1], "algorithm": ["floodmin"]}),
        ],
    )
    def test_malformed_run_parameters_are_400s(self, client, path, fields):
        status, body = _post(client, path, fields)
        assert (status, body["code"]) == (400, "bad-request"), body

    def test_bad_requests_are_400s_not_crashes(self, client):
        with pytest.raises(ServeError, match="spec"):
            client.run({"n": 4}, [1, 2, 3, 4])  # t is missing
        with pytest.raises(ServeError, match="vector"):
            client._call("POST", "/run", {"spec": {"n": 4, "t": 2}})
        with pytest.raises(ServeError, match="unknown endpoint"):
            client._call("POST", "/nope", {})
        with pytest.raises(ServeError, match="adversary"):
            client.run(SPEC, _vectors(1)[0], adversary="round-robin")  # sync

    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_malformed_content_length_is_a_400(self, server, client, declared):
        """A Content-Length that is not a non-negative integer is the
        client's error: a 400, not a 500, and not a handler blocked in
        ``rfile.read(-1)`` until the client hangs up."""
        request = (
            "POST /run HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {declared}\r\n\r\n{{}}"
        )
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(request.encode("ascii"))
            status_line = raw.makefile("rb").readline()
        assert status_line.split()[1] == b"400", status_line
        assert "internal" not in client.status()["requests"]["errors"]

    def test_shutdown_endpoint_stops_the_server(self):
        server = ReproServer(port=0)
        server.start()
        client = ServeClient(*server.address)
        client.shutdown()
        server._thread.join(timeout=5)
        assert not server._thread.is_alive()
        server.close()

    def test_unreachable_server_raises_serve_error(self):
        client = ServeClient("127.0.0.1", 9, timeout=0.5)  # discard port
        with pytest.raises(ServeError, match="cannot reach"):
            client.status()


def _read_to_eof(raw: socket.socket) -> tuple[bytes, dict[str, str], bytes]:
    """``(status line, headers, body)`` of the one response before EOF."""
    data = b""
    while chunk := raw.recv(65536):
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.split(b"\r\n")
    headers = dict(
        line.decode("latin-1").split(": ", 1) for line in header_lines
    )
    return status_line, {k.lower(): v for k, v in headers.items()}, body


class TestKeptConnections:
    """HTTP/1.1 keep-alive: one connection per client thread, reused."""

    def test_sequential_calls_share_one_connection(self, server):
        with ServeClient(*server.address) as client:
            vectors = _vectors(3)
            for seed in range(4):
                client.run(SPEC, vectors[0], seed=seed)
                client.run_batch(SPEC, vectors, seed=seed)
            client.check(CHECK_SPEC)
            connections = client.status()["connections"]
        assert connections == {"opened": 1, "open": 1}

    def test_threads_sharing_a_client_keep_one_connection_each(self, server):
        vectors = _vectors(4)
        served: dict[int, list] = {}
        with ServeClient(*server.address) as client:

            def calls(seed):
                served[seed] = [
                    client.run_batch(SPEC, vectors, seed=seed),
                    [client.run(SPEC, vectors[1], seed=seed)],
                    client.run_batch(SPEC, vectors, seed=seed, backend="async"),
                ]

            threads = [threading.Thread(target=calls, args=(s,)) for s in (3, 4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert server.status()["connections"]["opened"] == 2
        engine = Engine(SPEC, "condition-kset")
        for seed, (batch, run, async_batch) in served.items():
            assert _canon(batch) == _canon(
                engine.run_batch(vectors, seeds=range(seed, seed + 4))
            )
            assert _canon(run) == _canon([engine.run(vectors[1], seed=seed)])
            assert _canon(async_batch) == _canon(
                engine.run_batch(vectors, seeds=range(seed, seed + 4), backend="async")
            )

    def test_an_ended_thread_closes_its_connection(self, server):
        client = ServeClient(*server.address)
        thread = threading.Thread(target=client.status)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        deadline = time.monotonic() + 10
        while server.status()["connections"]["open"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.status()["connections"] == {"opened": 1, "open": 0}

    def test_a_404_leaves_the_connection_in_step(self, server):
        with ServeClient(*server.address) as client:
            for method in ("POST", "GET"):
                with pytest.raises(ServeError, match="unknown endpoint"):
                    client._call(method, "/nope", {"spec": {"n": 4, "t": 2}})
                vector = _vectors(1)[0]
                served = client.run(SPEC, vector, seed=2)
                direct = Engine(SPEC, "condition-kset").run(vector, seed=2)
                assert _canon([served]) == _canon([direct])
            assert client.status()["connections"]["opened"] == 1

    def test_restarted_server_serves_a_held_connection_once(self):
        vector = _vectors(1)[0]
        first = ReproServer(port=0)
        host, port = first.start()
        with ServeClient(host, port) as client:
            client.run(SPEC, vector)  # the connection is now kept
            first.close()
            with ReproServer(port=port) as second:
                served = client.run(SPEC, vector, seed=6)
                status = second.status()
        direct = Engine(SPEC, "condition-kset").run(vector, seed=6)
        assert _canon([served]) == _canon([direct])
        assert status["runs_served"] == 1
        assert status["requests"]["by_endpoint"] == {"/run": 1}
        assert status["connections"]["opened"] == 1

    def test_close_ends_idle_connections_and_their_threads(self):
        server = ReproServer(port=0)
        server.start()
        before = set(threading.enumerate())
        with ServeClient(*server.address) as client:
            client.run(SPEC, _vectors(1)[0])
            handlers = set(threading.enumerate()) - before
            assert len(handlers) == 1 and server.status()["connections"]["open"] == 1
            server.close()  # while the client still holds the connection
            assert not [thread for thread in handlers if thread.is_alive()]
            assert server.status()["connections"] == {"opened": 1, "open": 0}

    def test_shutdown_leaves_a_held_connection_in_step_until_close(self):
        server = ReproServer(port=0)
        server.start()
        with ServeClient(*server.address) as client:
            client.shutdown()
            server._thread.join(timeout=5)
            assert not server._thread.is_alive()
            # /shutdown read its body: the kept connection still answers.
            assert client.status()["connections"] == {"opened": 1, "open": 1}
            server.close()
            assert server.status()["connections"]["open"] == 0
            with pytest.raises(ServeError, match="cannot reach"):
                client.status()

    def test_http_10_gets_one_response_then_eof(self, server):
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(b"GET /status HTTP/1.0\r\n\r\n")
            status_line, headers, body = _read_to_eof(raw)
        assert status_line.split()[1] == b"200", status_line
        assert int(headers["content-length"]) == len(body)
        assert json.loads(body)["ok"] is True

    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_malformed_content_length_closes_the_connection(self, server, declared):
        request = (
            "POST /run HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {declared}\r\n\r\n{{}}"
        )
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(request.encode("ascii"))
            status_line, headers, body = _read_to_eof(raw)
        assert status_line.split()[1] == b"400", status_line
        assert headers["connection"] == "close"
        assert json.loads(body)["code"] == "bad-request"

    def test_kept_connection_answers_back_to_back_raw_requests(self, server):
        """Two pipelined requests on one raw HTTP/1.1 connection each get
        their own response, read by Content-Length."""
        body = json.dumps({"spec": {"n": 3, "t": 1, "k": 1, "d": 1, "domain": 2},
                           "vector": [1, 1, 2]}).encode("ascii")
        request = (
            b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
            b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%s" % (len(body), body, len(body), body)
        )
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(request)
            reader = raw.makefile("rb")
            statuses = []
            for _ in range(2):
                statuses.append(reader.readline().split()[1])
                length = 0
                while (line := reader.readline()) != b"\r\n":
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                json.loads(reader.read(length))
            assert reader.read() == b""  # Connection: close ends it
        assert statuses == [b"404", b"200"]


class TestServeCLI:
    def test_parser_accepts_serve_options(self):
        arguments = build_parser().parse_args(
            [
                "serve", "--port", "0", "--cache-capacity", "2",
                "--max-inflight", "1", "--max-queue", "0",
                "--quota", "100", "--tenant-quota", "ci=50",
                "--store-dir", "stores",
            ]
        )
        assert arguments.command == "serve"
        assert arguments.cache_capacity == 2
        assert arguments.tenant_quota == ["ci=50"]

    def test_malformed_tenant_quota_is_rejected(self, capsys):
        from repro.cli import main

        status = main(["serve", "--port", "0", "--tenant-quota", "nonsense"])
        assert status == 2
        assert "TENANT=RUNS" in capsys.readouterr().err
