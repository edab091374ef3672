"""Golden digests of batch and sweep output, one cell per run knob.

:mod:`tests.test_check_golden` pins what the checker produces; these digests
pin what the run path produces when every per-backend knob is in play:

* a sync batch whose crash schedule comes from the config, with derived
  seeds;
* an async batch with a scheduling strategy, a crash point and explicit
  seeds;
* a net batch under a seeded failure model;
* an async sweep with both async knobs in every cell, persisted to a store.

A batch digest is the SHA-256 of ``json.dumps([r.to_record() for r in
results], sort_keys=True)``; the sweep digest is the SHA-256 of the store
file's bytes after ``store.close()``.  Each digest must be the same for one
worker and for two.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import AgreementSpec, Engine, RunConfig
from repro.store import ResultStore

SPEC = AgreementSpec(n=4, t=2, k=2, d=1, ell=1, domain=4)
VECTORS = [[1, 2, 3, 4], [4, 4, 4, 1], [2, 2, 3, 3], [3, 1, 3, 3], [1, 1, 1, 1], [4, 3, 2, 1]]

BATCHES = {
    "sync": (
        lambda workers: Engine(
            SPEC, "condition-kset", RunConfig(schedule="round-one", crashes=1, seed=5)
        ).run_batch(VECTORS, chunk_size=2, workers=workers),
        "c2cf6a0d65f60bf9c0fd621e6ff25aee399693461852368f550fc73d3a7ce19f",
    ),
    "async": (
        lambda workers: Engine(SPEC, "condition-kset").run_batch(
            VECTORS,
            backend="async",
            async_adversary="latency-skew",
            crash_steps={3: 1},
            seeds=range(7, 13),
            chunk_size=2,
            workers=workers,
        ),
        "b7fa90b9426c685ff211c4af80545bcfa83baf387bd8c905445b1e2a7ff14f7d",
    ),
    "net": (
        lambda workers: Engine(SPEC, "floodmin").run_batch(
            VECTORS,
            backend="net",
            net_adversary="message-loss",
            chunk_size=2,
            workers=workers,
        ),
        "12b1b4875575921c85472448b43460cee2e4f7f2b24ef0ad1c91053a797561c0",
    ),
}

SWEEP_DIGEST = "82da62e25120fa79cbbee5ee9eef9b2fcbb9e41f5dc9c676145f0cddbfb1138a"


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cell", sorted(BATCHES))
def test_batch_matches_golden_digest(cell, workers):
    run, digest = BATCHES[cell]
    results = run(workers)
    assert len(results) == len(VECTORS)
    assert _sha256(json.dumps([r.to_record() for r in results], sort_keys=True)) == digest


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_store_matches_golden_digest(workers, tmp_path):
    store = ResultStore(tmp_path / "cells.jsonl")
    cells = Engine(
        SPEC, "condition-kset", RunConfig(backend="async", seed=3)
    ).sweep(
        {"k": (1, 2), "d": (1, 2)},
        3,
        async_adversary="round-robin",
        crash_steps={3: 1},
        store=store,
        workers=workers,
    )
    store.close()
    assert [cell.error for cell in cells] == [None] * 4
    assert _sha256(store.path.read_bytes()) == SWEEP_DIGEST
