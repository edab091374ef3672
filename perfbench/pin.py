"""Recompute the report digests pinned in ``workloads.json``.

    python3 perfbench/pin.py            # print them; exit 1 if any pin differs
    python3 perfbench/pin.py --write    # store them in workloads.json

A digest is the SHA-256 of ``json.dumps(report.to_record(), sort_keys=True)``.
Before one is accepted, every synchronous cell is re-checked on the scalar
reference runtime (``vectorized=False``) and a sharded cell against its
serial twin; each must give the identical record.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import HERE, layout_ok, load_workloads, record_digest

if not layout_ok():
    sys.exit("pin.py: run from a checkout holding src/repro and BENCHMARK.json")

from checks import new_engine  # noqa: E402


def pinned_digest(work: dict) -> str:
    report = new_engine(work).check(backend=work["backend"], **work["options"])
    if not report.passed:
        raise SystemExit(f"the {work['algorithm']} cell does not pass:\n{report.render()}")
    digest = record_digest(report.to_record())
    twins = []
    if work["backend"] == "sync":
        twins.append(("vectorized=False", dict(work, workers=1), {"vectorized": False}))
    if work["workers"] > 1:
        twins.append(("workers=1", dict(work, workers=1), {}))
    for label, twin, extra in twins:
        other = new_engine(twin).check(backend=twin["backend"], **twin["options"], **extra)
        if record_digest(other.to_record()) != digest:
            raise SystemExit(f"{label} gives a different report for {work['algorithm']}")
    return digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the digests")
    arguments = parser.parse_args()
    workloads = load_workloads()
    stale = 0
    for name, work in workloads.items():
        if work["kind"] != "check":
            continue
        digest = pinned_digest(work)
        stale += digest != work["digest"]
        print(f"{name:<20} {digest}{'' if digest == work['digest'] else '  (changed)'}")
        work["digest"] = digest
    if arguments.write:
        (HERE / "workloads.json").write_text(json.dumps(workloads, indent=2) + "\n")
        return 0
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
