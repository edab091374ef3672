"""Compare two sides of benchmark results, one row per (metric, workload).

    python3 perfbench/compare.py BASE.json [BASE.json ...] --vs NEW.json [NEW.json ...]

Each file is one written by ``run.py --out`` and holds one or more passes;
the runs of all files on one side are that side's samples.  For every
end-to-end metric of ``BENCHMARK.json`` and every workload the row gives each
side's median and quartiles, then a verdict:

* ``unresolved`` - the run-to-run spread (quartile distance over median, the
  wider side; inclusive quartiles, as ``common.percentile`` takes them)
  exceeds the metric's bound, and the sides overlap: neither has every run
  better than every run of the other;
* ``regressed`` - the new median is worse than the base median by more than
  the bound;
* ``improved`` - it is better by more than the bound;
* ``unchanged`` - otherwise.

``error_rate`` (failed over attempted, pooled per side) has bound zero: any
rise is a regression, and so is a workload missing from the new side.  The
exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from common import load_benchmark


def samples(paths) -> dict:
    """``workload -> {"metrics": {name: [values]}, "attempted": n, "failed": n}``."""
    merged: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            passes = json.load(handle)["passes"]
        for results in passes:
            for workload, result in results.items():
                entry = merged.setdefault(workload, {"metrics": {}, "attempted": 0, "failed": 0})
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    entry["metrics"].setdefault(name, []).append(metric["value"])
    return merged


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile.  Inclusive, so that a side of
    two or three runs is never stretched beyond its own smallest and largest
    value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, median, third


def verdict(base, new, better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)``; worsening > 0 means *new* is worse."""
    b1, base_median, b3 = quartiles(base)
    n1, new_median, n3 = quartiles(new)
    if better == "lower":
        worsening = (new_median - base_median) / base_median
        new_wins_all, base_wins_all = max(new) < min(base), max(base) < min(new)
    else:
        worsening = (base_median - new_median) / base_median
        new_wins_all, base_wins_all = min(new) > max(base), min(base) > max(new)
    spread = max((b3 - b1) / base_median, (n3 - n1) / new_median)
    if spread > bound and not (new_wins_all or base_wins_all):
        return "unresolved", worsening, spread
    if worsening > bound:
        return "regressed", worsening, spread
    if -worsening > bound:
        return "improved", worsening, spread
    return "unchanged", worsening, spread


def compare(base: dict, new: dict, metrics: list[dict]) -> list[dict]:
    rows = []
    for workload in base:
        if workload not in new:
            rows.append({"workload": workload, "metric": "*", "verdict": "regressed"})
            continue
        for spec in metrics:
            name = spec["name"]
            before, after = base[workload]["metrics"].get(name), new[workload]["metrics"].get(name)
            if not before or not after:
                continue
            outcome, worsening, spread = verdict(before, after, spec["better"], spec["bound"])
            rows.append({
                "workload": workload, "metric": name, "verdict": outcome,
                "base": quartiles(before), "new": quartiles(after),
                "worsening": worsening, "spread": spread, "bound": spec["bound"],
            })
        rate_before = base[workload]["failed"] / base[workload]["attempted"]
        rate_after = new[workload]["failed"] / new[workload]["attempted"]
        rows.append({
            "workload": workload, "metric": "error_rate",
            "verdict": "regressed" if rate_after > rate_before else "unchanged",
            "base": (rate_before,) * 3, "new": (rate_after,) * 3,
            "worsening": rate_after - rate_before, "spread": 0.0, "bound": 0.0,
        })
    return rows


def render(row: dict) -> str:
    if "base" not in row:
        return f"{row['workload']:<18} {row['metric']:<15} missing from the new side  {row['verdict']}"

    def side(q):
        return f"{q[1]:>12.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    return (
        f"{row['workload']:<18} {row['metric']:<15} base {side(row['base'])}  "
        f"new {side(row['new'])}  worse {100 * row['worsening']:+6.2f}%  "
        f"spread {100 * row['spread']:5.2f}%  bound {100 * row['bound']:g}%  {row['verdict']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark result sets")
    parser.add_argument("base", nargs="+", help="result files of the base side")
    parser.add_argument("--vs", nargs="+", required=True, help="result files of the new side")
    arguments = parser.parse_args(argv)
    rows = compare(samples(arguments.base), samples(arguments.vs), load_benchmark()["end_to_end"])
    for row in rows:
        print(render(row))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
