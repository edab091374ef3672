"""One-command benchmark of ``repro check`` and ``repro serve``.

    python3 perfbench/run.py                            # every workload, once
    python3 perfbench/run.py --workload sync-kset       # one workload
    python3 perfbench/run.py --trace 1                  # per-layer metrics
    python3 perfbench/run.py --repeat 3 --out sets.json # result sets for compare.py

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` every end-to-end metric of ``BENCHMARK.json``,
with ``--trace 1`` every per-layer metric (``0`` for a layer the workload does
not use).  Without ``--workload`` each workload runs in a child process of its
own, so caches and peak memory do not leak between workloads.  The exit code
is 1 when any output was wrong, 2 when the checkout holds no program.

``--seed`` drives only the serve-mix request draw; the check workloads run
fixed cells.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from datetime import datetime, timezone
from time import perf_counter

from common import HERE, OUT, layout_ok, load_benchmark, load_workloads


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload in this process: the result object, and
    everything measured (which can hold more than the result's metrics)."""
    import checks
    import serve_mix
    from tracing import Tracer

    benchmark = load_benchmark()
    work = load_workloads()[name]
    start = perf_counter()
    if trace:
        tracer = Tracer(f"{name}-{seed}-{os.getpid()}")
        if work["kind"] == "check":
            measured, attempted, failed = checks.measure_traced(work, seconds, tracer)
        else:
            measured, attempted, failed = serve_mix.measure_traced(work, seed, seconds, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}.spans.jsonl")
        specs = benchmark["per_layer"]
    else:
        if work["kind"] == "check":
            measured, attempted, failed = checks.measure(work, seconds)
        else:
            measured, attempted, failed = serve_mix.measure(work, seed, seconds)
        specs = benchmark["end_to_end"]
    wall = perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    measured["peak_rss_mb"] = (own.ru_maxrss + children.ru_maxrss) / 1024
    measured["proc.cpu_util"] = (
        own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    ) / wall
    metrics = {
        spec["name"]: {"value": measured.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in specs
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, measured


def describe(name: str, result: dict, measured: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit, then the
    machine's speed the times were scaled by, where they were."""
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    lines = [
        f"{name}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} error_rate={rate:g}"
    ]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    if "proc.speed" in measured and "proc.speed" not in result["metrics"]:
        lines.append(f"  {'(proc.speed)':<34} {measured['proc.speed']:>16.6g} ratio")
    return lines


def run_child(name: str, arguments) -> dict | None:
    """One workload in a child interpreter; ``None`` when it printed no result."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
         "--trace", str(arguments.trace)],
        capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: no result (exit code {done.returncode})")
        return None
    print("\n".join(lines[:-1]), flush=True)
    return result


def main(argv=None) -> int:
    if not layout_ok():
        print("run.py: this checkout holds no src/repro to measure", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description="benchmark repro check and repro serve")
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="full passes (no --workload)")
    parser.add_argument("--out", help="write the result sets to this JSON file")
    arguments = parser.parse_args(argv)

    passes = []
    pass_seconds = []
    if arguments.workload is not None:
        result, measured = run_workload(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
        )
        passes.append({arguments.workload: result})
        print("\n".join(describe(arguments.workload, result, measured)))
        print(json.dumps(result), flush=True)
    else:
        for _ in range(arguments.repeat):
            start = perf_counter()
            results = {}
            for workload in benchmark["workloads"]:
                result = run_child(workload["name"], arguments)
                if result is not None:
                    results[workload["name"]] = result
            passes.append(results)
            pass_seconds.append(perf_counter() - start)
            print(f"full pass: {pass_seconds[-1]:.1f} s", flush=True)
    if arguments.out:
        meta = {
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": arguments.seed,
            "seconds": arguments.seconds,
            "trace": arguments.trace,
            # Wall of each full pass, child start-ups included.
            "pass_seconds": pass_seconds,
        }
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "passes": passes}, handle, indent=1)
            handle.write("\n")
    expected = 1 if arguments.workload else len(benchmark["workloads"])
    complete = all(len(results) == expected for results in passes)
    ok = complete and all(r["correct"] for results in passes for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
