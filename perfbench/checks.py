"""The five check workloads: one exhaustive ``repro check`` cell each.

Untraced, a run times fresh ``Engine`` + ``check`` calls in this process
(``exec_per_s``, ``latency_p50_ms``) and cold set-ups in fresh interpreters
(``setup_s``), in reference seconds (``common.SpeedProbe``), and checks
every report against the digest pinned in ``workloads.json``.  A
``python -m repro check`` process costs about one set-up plus one check.

Traced, a run times the same ``Engine`` + ``check`` call with the checker's
own layer functions wrapped in place (:func:`layer_hooks`), so every span
covers a call the untraced check makes too.  The hooks are removed after
each traced check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from time import perf_counter

from common import ROOT, SpeedProbe, child_env, median, record_digest, use_source_tree
from tracing import Tracer, traced, traced_items

use_source_tree()

from repro import AgreementSpec, Engine, RunConfig  # noqa: E402
from repro import parallel  # noqa: E402
from repro.asynchronous.executor import AsyncExecutor  # noqa: E402
from repro.check import async_checker, checker, net_checker  # noqa: E402
from repro.check.async_oracles import ASYNC_ORACLES  # noqa: E402
from repro.check.net_oracles import NET_ORACLES  # noqa: E402
from repro.check.oracles import ORACLES  # noqa: E402
from repro.net.runtime import NetSystem  # noqa: E402
from repro.sync.adversary import CrashSchedule  # noqa: E402
from repro.sync.runtime import SynchronousSystem  # noqa: E402
from repro.vec.evaluator import BatchSyncEvaluator  # noqa: E402

#: Rounds a run always makes, however short ``--seconds`` is.
MIN_ROUNDS = 2
#: Cold set-ups a run always makes; ``setup_s`` is their median.
MIN_SETUPS = 3

#: Enumerators the checkers call by these module-level names: the span of
#: each fetched item, and the count of items.
ENUMERATORS = (
    (checker, "enumerate_schedules", "sync.adversary.enumerate", "sync.adversary.schedules"),
    (net_checker, "enumerate_faults", "net.adversary.enumerate", "net.adversary.faults"),
    (async_checker, "enumerate_async_adversaries", "asynchronous.enumerate",
     "asynchronous.adversaries"),
)
#: The three runtimes ``Engine._execute`` dispatches to.
RUNTIMES = (
    (SynchronousSystem, "sync.runtime.run"),
    (NetSystem, "net.runtime.run"),
    (AsyncExecutor, "asynchronous.executor.run"),
)

_SETUP_PROGRAM = """
import json, sys
from repro import AgreementSpec, Engine, RunConfig
from repro.check import packed_frontier
work = json.loads(sys.argv[1])
engine = Engine(AgreementSpec(**work["spec"]), work["algorithm"], RunConfig(workers=work["workers"]))
packed_frontier(engine.spec, engine.condition)
"""


def new_engine(work: dict) -> Engine:
    return Engine(AgreementSpec(**work["spec"]), work["algorithm"], RunConfig(workers=work["workers"]))


def cold_setup(work: dict) -> None:
    """A fresh interpreter importing repro and building engine + frontier."""
    # No timeout: waiting with one polls the child every 50 ms, which would
    # round every measured wall up to that grid.
    subprocess.run(
        [sys.executable, "-c", _SETUP_PROGRAM, json.dumps(work)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )


def run_check(work: dict):
    """The report of one fresh ``Engine`` + ``check`` call."""
    return new_engine(work).check(backend=work["backend"], **work["options"])


def pin_serial(work: dict) -> set[int]:
    """Keep a serial workload, and the set-up interpreters it starts, on one
    vCPU; returns the vCPUs the workload runs on, the ones to probe.

    The vCPUs change speed independently, so a probe on one vCPU says
    nothing about the other.  A sharded workload needs every vCPU for its
    pool and is left free.
    """
    cpus = os.sched_getaffinity(0)
    if work["workers"] == 1:
        cpus = {min(cpus)}
        os.sched_setaffinity(0, cpus)
    return cpus


def report_ok(work: dict, report) -> bool:
    return report.passed and record_digest(report.to_record()) == work["digest"]


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(work: dict, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics, attempted and failed checks of one run.

    A round is one check and one cold set-up, so both sample the same
    stretch of the run.  After :data:`MIN_ROUNDS` rounds, the run stops
    before a round that, as long as the last one, would end past *seconds*;
    then it makes :data:`MIN_SETUPS` set-ups if the rounds made fewer.
    """
    walls: list[float] = []
    rates: list[float] = []
    setups: list[float] = []
    failed = 0
    start = perf_counter()
    round_wall = 0.0
    with SpeedProbe(pin_serial(work)) as probe:
        while len(walls) < MIN_ROUNDS or perf_counter() - start + round_wall <= seconds:
            round_start = perf_counter()
            wall, report = probe.time(run_check, work)
            failed += not report_ok(work, report)
            walls.append(wall)
            rates.append(report.executions / wall)
            setups.append(probe.time(cold_setup, work)[0])
            round_wall = perf_counter() - round_start
        while len(setups) < MIN_SETUPS:
            setups.append(probe.time(cold_setup, work)[0])
    metrics = {
        "exec_per_s": median(rates),
        "latency_p50_ms": 1000 * median(walls),
        "setup_s": median(setups),
        "proc.speed": median(probe.speeds),
    }
    return metrics, len(walls), failed


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def _patch(stack: ExitStack, owner, attribute: str, value) -> None:
    """Set *owner*'s *attribute* (an item, for a dict) until *stack* closes."""
    if isinstance(owner, dict):
        stack.callback(owner.__setitem__, attribute, owner[attribute])
        owner[attribute] = value
        return
    if attribute in vars(owner):
        stack.callback(setattr, owner, attribute, vars(owner)[attribute])
    else:
        stack.callback(delattr, owner, attribute)
    setattr(owner, attribute, value)


def _shard_outcomes(tracer: Tracer, execute_check):
    """``execute_check`` wrapped: the wait for each shard outcome, and
    ``run_check``'s merge of it, which runs while the outcome is yielded."""

    def outcomes(iterable):
        iterator = iter(iterable)
        stage = "parallel.first_result"
        while True:
            with tracer.span(stage):
                outcome = next(iterator, None)
            if outcome is None:
                return
            stage = "parallel.wait"
            with tracer.span("parallel.merge"):
                yield outcome

    def call(*args, **kwargs):
        return outcomes(execute_check(*args, **kwargs))

    return call


def _counting_build(tracer: Tracer, build):
    """``BatchSyncEvaluator.build`` that counts its refusals."""

    def call(*args, **kwargs):
        evaluator = build(*args, **kwargs)
        if evaluator is None:
            tracer.count("vec.evaluator.fallbacks")
        return evaluator

    return call


@contextmanager
def layer_hooks(tracer: Tracer):
    """Wrap the layer functions every checker calls; yields a function that
    wraps the batch queries of one engine's condition too."""
    with ExitStack() as stack:
        for module, attribute, stage, counter in ENUMERATORS:
            _patch(stack, module, attribute,
                   traced_items(tracer, stage, counter, getattr(module, attribute)))
        for module in (checker, net_checker, async_checker):
            _patch(stack, module, "input_frontier",
                   traced(tracer, "check.frontier", module.input_frontier))
        _patch(stack, BatchSyncEvaluator, "build", staticmethod(traced(
            tracer, "vec.evaluator.build", _counting_build(tracer, BatchSyncEvaluator.build)
        )))
        _patch(stack, BatchSyncEvaluator, "check_schedule", traced(
            tracer, "vec.evaluator.check_schedule", BatchSyncEvaluator.check_schedule
        ))
        _patch(stack, CrashSchedule, "validate",
               traced(tracer, "sync.adversary.validate", CrashSchedule.validate))
        _patch(stack, Engine, "_execute", traced(tracer, "api.engine.execute", Engine._execute))
        for runtime, stage in RUNTIMES:
            _patch(stack, runtime, "run", traced(tracer, stage, runtime.run))
        for registry in (ORACLES, NET_ORACLES, ASYNC_ORACLES):
            for name, oracle in list(registry.items()):
                _patch(stack, registry, name, replace(
                    oracle, check=traced(tracer, "check.oracles.check", oracle.check)
                ))
        _patch(stack, parallel, "execute_check", _shard_outcomes(tracer, parallel.execute_check))

        def watch_condition(condition) -> None:
            if condition is not None:
                for query in ("contains_batch", "p_batch"):
                    _patch(stack, condition, query, traced(
                        tracer, f"core.conditions.{query}", getattr(condition, query)
                    ))

        yield watch_condition


def traced_check(work: dict, tracer: Tracer):
    """The report of one ``Engine`` + ``check`` call under a root span named
    ``check``, with the layer functions wrapped."""
    with layer_hooks(tracer) as watch_condition:
        with tracer.span("check"):
            with tracer.span("api.engine.build"):
                engine = new_engine(work)
            watch_condition(engine.condition)
            report = engine.check(backend=work["backend"], **work["options"])
    for stats in engine.cache_stats().values():
        tracer.count("memo_hits", stats.hits)
        tracer.count("memo_queries", stats.calls)
    return report


def measure_traced(work: dict, seconds: float, tracer: Tracer):
    """Per-layer metrics of one traced run, attempted and failed checks.

    Each round times one untraced check and one traced check; both must hash
    to the pinned digest.  A sharded workload also times an untraced serial
    check of the same cell, the base of ``parallel.speedup``.  After the
    first round, the run stops before a round that, as long as the last one,
    would end past *seconds*.
    """
    serial_work = dict(work, workers=1) if work["workers"] > 1 else None
    untraced: list[float] = []
    traced_walls: list[float] = []
    speedups: list[float] = []
    attempted = failed = 0
    start = perf_counter()
    round_wall = 0.0
    with SpeedProbe(pin_serial(work)) as probe:
        while not traced_walls or perf_counter() - start + round_wall <= seconds:
            round_start = perf_counter()
            wall, report = probe.time(run_check, work)
            untraced.append(wall)
            failed += not report_ok(work, report)
            if serial_work is not None:
                serial_wall, serial_report = probe.time(run_check, serial_work)
                failed += not report_ok(serial_work, serial_report)
                speedups.append(serial_wall / wall)
                attempted += 1
            wall, report = probe.time(traced_check, work, tracer)
            traced_walls.append(wall)
            failed += not report_ok(work, report)
            attempted += 2
            round_wall = perf_counter() - round_start
    metrics = layer_metrics(tracer, report.vector_count, untraced, traced_walls, speedups)
    metrics["proc.speed"] = median(probe.speeds)
    return metrics, attempted, failed


def layer_metrics(tracer: Tracer, vectors: int, untraced, traced_walls, speedups) -> dict:
    """Per-layer metrics, per traced check."""
    summary, counts, rounds = tracer.summary(), tracer.counts, len(traced_walls)

    def seconds(*names):
        return sum(summary.get(name, {}).get("total", 0.0) for name in names) / rounds

    def calls(name):
        return summary.get(name, {}).get("count", 0) // rounds

    def per_call_us(name):
        entry = summary.get(name)
        return 1e6 * entry["total"] / entry["count"] if entry else 0.0

    check_schedule_s = seconds("vec.evaluator.check_schedule")
    root = summary["check"]
    return {
        "api.engine.build_s": seconds("api.engine.build"),
        "sync.adversary.enumerate_s": seconds("sync.adversary.enumerate"),
        "sync.adversary.schedules": counts["sync.adversary.schedules"] // rounds,
        "sync.adversary.validate_s": seconds("sync.adversary.validate"),
        "check.frontier.s": seconds("check.frontier"),
        "check.frontier.vectors": vectors,
        "core.conditions.batch_s": seconds(
            "core.conditions.contains_batch", "core.conditions.p_batch"
        ),
        "core.conditions.memo_hit_ratio": (
            counts["memo_hits"] / counts["memo_queries"] if counts["memo_queries"] else 0.0
        ),
        "vec.evaluator.build_s": seconds("vec.evaluator.build"),
        "vec.evaluator.check_schedule_s": check_schedule_s,
        "vec.evaluator.calls": calls("vec.evaluator.check_schedule"),
        "vec.evaluator.lanes_per_s": (
            calls("vec.evaluator.check_schedule") * vectors / check_schedule_s
            if check_schedule_s else 0.0
        ),
        "vec.evaluator.fallbacks": counts["vec.evaluator.fallbacks"] // rounds,
        "sync.runtime.run_s": seconds("sync.runtime.run"),
        "sync.runtime.runs": calls("sync.runtime.run"),
        "sync.runtime.us_per_run": per_call_us("sync.runtime.run"),
        "check.oracles.eval_s": seconds("check.oracles.applies", "check.oracles.check"),
        "check.oracles.evaluations": calls("check.oracles.applies"),
        "net.adversary.enumerate_s": seconds("net.adversary.enumerate"),
        "net.adversary.faults": counts["net.adversary.faults"] // rounds,
        "net.runtime.run_s": seconds("net.runtime.run"),
        "net.runtime.runs": calls("net.runtime.run"),
        "net.runtime.us_per_run": per_call_us("net.runtime.run"),
        "asynchronous.enumerate_s": seconds("asynchronous.enumerate"),
        "asynchronous.adversaries": counts["asynchronous.adversaries"] // rounds,
        "asynchronous.executor.run_s": seconds("asynchronous.executor.run"),
        "asynchronous.executor.us_per_run": per_call_us("asynchronous.executor.run"),
        "parallel.first_result_s": seconds("parallel.first_result"),
        "parallel.wait_s": seconds("parallel.wait"),
        "parallel.merge_s": seconds("parallel.merge"),
        "parallel.speedup": median(speedups) if speedups else 0.0,
        "trace.coverage": 1.0 - root["self"] / root["total"],
        "trace.overhead": median(traced_walls) / median(untraced) - 1.0,
    }
