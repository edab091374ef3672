"""Persist benchmark outcomes as ``BENCH_<topic>.json`` snapshot records.

The timing benchmarks print their numbers to the terminal and assert
conservative floors — good for catching regressions, useless for tracking the
performance *trajectory* across PRs.  This module gives each benchmark a
one-line way to persist what it measured::

    from snapshot import record
    record("async_batch", {"runs": 128, "speedup": 1.42, ...})

which (over)writes ``benchmarks/BENCH_async_batch.json`` with the metrics
plus enough environment context (python version, platform, usable cores) to
interpret them.  The files are committed, so ``git log -p
benchmarks/BENCH_*.json`` is the performance history of the repository —
every PR that moves a number leaves a diff.

Recording is an explicit opt-in: :func:`record` writes only when the
environment sets ``REPRO_BENCH_RECORD=1``, and is a no-op otherwise, so a
plain test run keeps every floor and parity assertion of the benchmarks but
leaves the committed snapshots untouched.  Re-record them with::

    REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest benchmarks/

Snapshots are best-effort by design: a read-only checkout (or any OSError)
silently skips the write, because a benchmark must never fail tier-1 over
bookkeeping.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

__all__ = ["RECORD_ENV", "record", "snapshot_path"]

#: Where the snapshot files live (next to the benchmarks themselves).
BENCH_DIR = Path(__file__).resolve().parent

#: The environment variable that opts in to writing snapshots (value ``1``).
RECORD_ENV = "REPRO_BENCH_RECORD"


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def snapshot_path(topic: str) -> Path:
    """Where :func:`record` writes the *topic*'s snapshot."""
    return BENCH_DIR / f"BENCH_{topic}.json"


def record(topic: str, metrics: Mapping[str, Any]) -> Path | None:
    """Write the *topic*'s snapshot file; returns its path (``None`` if skipped).

    The write happens only when ``REPRO_BENCH_RECORD=1`` (see
    :data:`RECORD_ENV`).  *metrics* must be JSON-serialisable; floats are
    kept at full precision (round them at the call site if the number is
    noisy enough that diffs would churn).
    """
    if os.environ.get(RECORD_ENV) != "1":
        return None
    payload = {
        "topic": topic,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": _usable_cores(),
        "metrics": dict(metrics),
    }
    path = snapshot_path(topic)
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        return None
    return path
