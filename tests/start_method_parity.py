"""Sharded batches, sweeps and checks of a mutant under one start method.

The mutants of :mod:`repro.check.mutants` are registered at runtime, never
at import, so a pool worker that a ``spawn`` or ``forkserver`` start method
starts (it imports ``repro`` afresh instead of inheriting the parent's
registry) has none of them.  This script registers them in the parent, runs
``run_batch``, ``sweep`` and ``check`` of ``mutant-hasty-floodmin`` with
``workers=2`` under the start method its argument names (default
``forkserver``), and asserts that each gives the records of its serial run.

Run it as a file, not from stdin: ``spawn`` and ``forkserver`` children
re-import ``__main__`` from its path::

    PYTHONPATH=src python tests/start_method_parity.py forkserver
"""

from __future__ import annotations

import multiprocessing
import sys

from repro.api import AgreementSpec, Engine
from repro.check import MUTANT_HASTY_FLOODMIN, register_mutants

SPEC = AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2)


def records(workers: int) -> dict[str, object]:
    """The batch, sweep and check records of the mutant on *workers*."""
    engine = Engine(SPEC, MUTANT_HASTY_FLOODMIN)
    batch = engine.run_batch([[1, 2, 2], [2, 1, 1], [1, 1, 2]] * 3, chunk_size=2, workers=workers)
    sweep = engine.sweep({"domain": (2, 3)}, runs_per_cell=3, vectors="random", workers=workers)
    check = engine.check(workers=workers)
    assert not check.passed, check.render()
    return {
        "batch": [result.to_record() for result in batch],
        "sweep": [cell.to_record() for cell in sweep],
        "check": check.to_record(),
    }


if __name__ == "__main__":
    method = sys.argv[1] if len(sys.argv) > 1 else "forkserver"
    multiprocessing.set_start_method(method)
    register_mutants()
    serial = records(1)
    sharded = records(2)
    for kind, record in serial.items():
        assert sharded[kind] == record, f"sharded {kind} differs from serial under {method}"
    print(f"{method}: sharded batch, sweep and check of {MUTANT_HASTY_FLOODMIN} match serial")
