"""Golden digests of two passing checks beyond n <= 4 (the ``slow`` tier).

The tier-1 checks stop at n = 4 on sync and at interleaving depth 4 on
async.  These two cells check every adversary of a larger space, and their
report digests were recorded once, as in ``tests/test_check_golden.py``:

* ``condition-kset`` on n=6 t=3 k=2 d=1 m=2, serial: 7,234,262 crash
  schedules x 64 vectors, 462,992,768 executions (about 65-75 s on a 2-vCPU
  Xeon at 2.0 GHz, Python 3.11.7);
* ``async-condition`` on n=4 t=1 d=0 m=2 at depth 5: 25,600 adversaries x
  16 vectors, 409,600 executions (about 20-25 s on the same machine).

Both pass, so each report is pinned by its record and its render.  Run them
with ``pytest -m slow tests/test_check_large_cells.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import AgreementSpec, Engine

CELLS = {
    "sync-n6": (
        "condition-kset",
        AgreementSpec(n=6, t=3, k=2, d=1, ell=1, domain=2),
        {},
        (7_234_262, 64, 462_992_768),
        (
            "77c9204146c82edb08f614b90dd0eba1dd1f419e79383ccf393c7a3432d12fa0",
            "9cc7e5fea4445a90210b2a0c3db18517e9f7ad987e2c35fb020e94306d5db2af",
        ),
    ),
    "async-n4-depth5": (
        "async-condition",
        AgreementSpec(n=4, t=1, k=1, d=0, ell=1, domain=2),
        {"backend": "async", "depth": 5},
        (25_600, 16, 409_600),
        (
            "72295d370a33edc26c2d0a878e720fa7182f6b53cfc67da6dcc3dcf29a89d377",
            "c9f1f5ce9da4e677abf29f99aeafd9e3db55b7955b22ea6514d261adec2c6590",
        ),
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.slow
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_large_cell_passes_with_golden_digests(cell):
    algorithm, spec, options, sizes, digests = CELLS[cell]
    report = Engine(spec, algorithm).check(**options)
    assert report.passed, report.render()
    assert (report.adversary_count, report.vector_count, report.executions) == sizes
    record = json.dumps(report.to_record(), sort_keys=True)
    assert (_sha256(record), _sha256(report.render())) == digests
