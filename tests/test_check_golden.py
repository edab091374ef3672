"""Golden digests of failing check reports, one cell per backend.

The parity tests elsewhere compare two paths of the *same* code (serial vs
sharded, packed vs scalar), and the benchmark pins digests of passing cells
only.  These digests were recorded once and pin what a failing check
produces on each of the three adversary spaces:

* the report record, as ``json.dumps(report.to_record(), sort_keys=True)``;
* the rendered report;
* the bytes of the store file the counterexamples are written to.

A change to any of them is a change to the checker's output, serial or
sharded.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import AgreementSpec, Engine
from repro.check import (
    MUTANT_ECHOLESS_FLOODMIN,
    MUTANT_HASTY_ASYNC,
    MUTANT_HASTY_FLOODMIN,
    register_mutants,
)
from repro.store import ResultStore

CELLS = {
    "sync": (
        MUTANT_HASTY_FLOODMIN,
        AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2),
        {},
        (296, 4),
        (
            "0681697298976e1e8e721a3638456941c53bab82be59b55de773df1b0dae9c6c",
            "e6ebe97c9dbae72a25b982cf8943223efd8d1f9152c4a23cbecdb8aa60bf9669",
            "79aca751a8d5597f40f8da4e6b2b9a629f20df50bc54dec6604abbbdb4473161",
        ),
    ),
    "net": (
        MUTANT_ECHOLESS_FLOODMIN,
        AgreementSpec(n=3, t=1, k=1, domain=3),
        {"backend": "net", "adversary": "send-omission"},
        (270, 25),
        (
            "be0539a68086395b662bb76400c211c802c07e7e310bcaa4484c1301f0671576",
            "9dda1fd8c5ffb41f56e37e8f5be8351e82e954d27c8fbe501a81277e3dc6279d",
            "c6a809b43f32fe05696d90842ae85ec34355f0d24123587e33d0cf6ee26217bf",
        ),
    ),
    "async": (
        MUTANT_HASTY_ASYNC,
        AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=3),
        {"backend": "async", "depth": 4, "max_crashes": 0, "vectors": [[3, 1, 1]]},
        (81, 16),
        (
            "69a5c6194193af263415d8a112f6fdfad87ed810bee35ee8091217c22aad9d11",
            "c8444572380fbba7c279988cc2d03a40a5721b4e0e16514a6ada81604181dfc4",
            "69f7a7de7750f913bed6eb70c462b9e38ce9d05d16af5c2ffff7e703193f6add",
        ),
    ),
}


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_failing_report_matches_golden_digests(cell, workers, tmp_path):
    register_mutants()
    algorithm, spec, options, (executions, kept), digests = CELLS[cell]
    store = ResultStore(tmp_path / "counterexamples.jsonl")
    with store:
        report = Engine(spec, algorithm).check(workers=workers, store=store, **options)
    assert not report.passed
    assert (report.executions, len(report.counterexamples)) == (executions, kept)
    record = json.dumps(report.to_record(), sort_keys=True)
    assert (
        _sha256(record),
        _sha256(report.render()),
        _sha256(store.path.read_bytes()),
    ) == digests
