"""The benchmark's own contract: its schema, its verdicts, its traced pipeline.

* ``BENCHMARK.json`` follows the format ``run.py`` and ``compare.py`` read,
  and every metric it names is one the workloads produce;
* ``compare.py`` gives the documented verdicts on synthetic result sets;
* a traced ``Engine.check`` gives the untraced report record exactly, on
  tiny cells of all three checkers and the sharded path, and removes its
  hooks afterwards.
"""

from __future__ import annotations

import json
import re

import pytest

import checks
import compare
import serve_mix
from checks import layer_metrics, run_check, traced_check
from common import ROOT, load_benchmark, load_workloads, record_digest
from tracing import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PER_LAYER = {metric["name"] for metric in load_benchmark()["per_layer"]}


def test_benchmark_json_schema():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark["paths"] == ["perfbench"]
    assert benchmark["command"][1] == "perfbench/run.py"
    assert 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    names = []
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert UNIT.fullmatch(metric["unit"])
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
    assert set(load_workloads()) == {w["name"] for w in benchmark["workloads"]}


def _synthetic(tmp_path, label, exec_per_s, failed=0):
    passes = [
        {"w": {"correct": not failed, "attempted": 10, "failed": failed,
               "metrics": {"exec_per_s": {"value": value, "unit": "1/s"}}}}
        for value in exec_per_s
    ]
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"meta": {}, "passes": passes}))
    return str(path)


@pytest.mark.parametrize(
    "new, expected",
    [
        ([100, 101, 99, 100], "unchanged"),
        ([80, 81, 79, 80], "regressed"),
        ([130, 131, 129, 130], "improved"),
        ([60, 140, 100, 90], "unresolved"),
        # A wide spread still resolves when every new run beats every base run.
        ([150, 200, 170, 260], "improved"),
        # Two runs: inclusive quartiles stay inside [95, 105], a 5% spread.
        ([95, 105], "unchanged"),
    ],
)
def test_compare_verdicts(tmp_path, new, expected):
    base = _synthetic(tmp_path, "base", [100, 100.5, 99.5, 100])
    rows = compare.compare(
        compare.samples([base]),
        compare.samples([_synthetic(tmp_path, "new", new)]),
        [{"name": "exec_per_s", "better": "higher", "bound": 0.1}],
    )
    assert [row["verdict"] for row in rows] == [expected, "unchanged"]


def test_compare_exit_code_and_error_rate(tmp_path, capsys):
    base = _synthetic(tmp_path, "base", [100, 100])
    assert compare.main([base, "--vs", base]) == 0
    worse = _synthetic(tmp_path, "worse", [100, 100], failed=1)
    assert compare.main([base, "--vs", worse]) == 1
    assert "error_rate" in capsys.readouterr().out


TINY = {
    "sync-vectorized": {"algorithm": "condition-kset", "backend": "sync", "options": {},
                        "spec": {"n": 3, "t": 1, "k": 1, "d": 1, "ell": 1, "domain": 2}},
    "sync-scalar": {"algorithm": "floodmin", "backend": "sync", "options": {},
                    "spec": {"n": 3, "t": 1, "k": 1, "d": 1, "ell": 1, "domain": 2}},
    "sync-sharded": {"algorithm": "condition-kset", "backend": "sync", "options": {}, "workers": 2,
                     "spec": {"n": 3, "t": 1, "k": 1, "d": 1, "ell": 1, "domain": 2}},
    "net": {"algorithm": "floodmin", "backend": "net", "options": {"adversary": "send-omission"},
            "spec": {"n": 3, "t": 1, "k": 1, "d": 1, "ell": 1, "domain": 2}},
    "async": {"algorithm": "async-condition", "backend": "async", "options": {"depth": 2},
              "spec": {"n": 3, "t": 1, "k": 1, "d": 0, "ell": 1, "domain": 2}},
}


def _hooked_objects():
    """Everything the traced check wraps, as it stands now."""
    objects = [getattr(module, attribute) for module, attribute, _, _ in checks.ENUMERATORS]
    objects += [vars(runtime)["run"] for runtime, _ in checks.RUNTIMES]
    objects += [vars(checks.BatchSyncEvaluator)[name] for name in ("build", "check_schedule")]
    objects += [vars(checks.Engine)["_execute"], vars(checks.CrashSchedule)["validate"]]
    objects += [checks.parallel.execute_check, checks.checker.input_frontier]
    objects += list(checks.ORACLES.values())
    return objects


def _traced_metrics(work: dict):
    """``(untraced report, traced report, per-layer metrics)`` of one cell."""
    report = run_check(work)
    tracer = Tracer("test")
    traced_report = traced_check(work, tracer)
    metrics = layer_metrics(tracer, traced_report.vector_count, [1.0], [1.0], [1.0])
    return report, traced_report, metrics


@pytest.mark.parametrize("cell", sorted(TINY))
def test_traced_check_reproduces_engine_check(cell):
    before = _hooked_objects()
    report, traced_report, metrics = _traced_metrics({"workers": 1, **TINY[cell]})
    assert record_digest(traced_report.to_record()) == record_digest(report.to_record())
    assert all(now is then for now, then in zip(_hooked_objects(), before))

    assert set(metrics) <= PER_LAYER
    assert 0 < metrics["trace.coverage"] <= 1
    # The predictions of the README: floodmin never reaches the packed
    # evaluator, and the packed path never decodes a lane on the scalar runtime.
    if cell == "sync-scalar":
        assert (metrics["vec.evaluator.calls"], metrics["vec.evaluator.fallbacks"]) == (0, 1)
        assert metrics["sync.runtime.runs"] == report.executions
    if cell == "sync-vectorized":
        assert metrics["vec.evaluator.calls"] == report.schedule_count
        assert (metrics["sync.runtime.runs"], metrics["vec.evaluator.fallbacks"]) == (0, 0)
    if cell == "net":
        assert metrics["net.runtime.runs"] == report.executions
    if cell == "async":
        assert metrics["asynchronous.adversaries"] == report.adversary_count
    if cell == "sync-sharded":
        # The shards run in pool workers, out of the tracer's sight.
        assert metrics["vec.evaluator.calls"] == 0
        assert metrics["parallel.first_result_s"] > 0


def test_short_traced_serve_loop_matches_direct_engines():
    work = load_workloads()["serve-mix"]
    metrics, attempted, failed = serve_mix.measure_traced(work, 0, 0.4, Tracer("serve"))
    assert attempted > 0 and failed == 0
    _report, _traced, check_metrics = _traced_metrics({"workers": 1, **TINY["sync-scalar"]})
    # Every per-layer metric is produced by some workload ("proc.cpu_util" by
    # run.py, "proc.speed" by checks.measure_traced).
    assert set(metrics) | set(check_metrics) | {"proc.cpu_util", "proc.speed"} == PER_LAYER


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sync-kset"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
