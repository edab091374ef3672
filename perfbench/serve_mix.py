"""The serve-mix workload: a seeded closed loop against a ``repro serve`` daemon.

Two client threads each send their next request only after the previous
reply arrived (a closed loop), drawing from one seeded request stream.
Requests come in shuffled blocks with exact shares (``workloads.json``
``mix``), and the specs of runs and batches in shuffled blocks with Zipf(s=1)
counts over twelve specs.  With the ``/check`` spec that makes thirteen
engines against the daemon's default cache of eight, so the cache both hits
and evicts.

The mix is synthetic.  No recorded ``repro serve`` traffic exists to draw
the shares, the spec popularity or the client count from; they are chosen
so that every request path and the cache's hits and evictions are
exercised.  A gain on this workload is a gain on this mix, not evidence
about real traffic.

After the loop, a seeded sample of the completed requests is replayed on a
direct ``Engine`` and must match the served records byte for byte.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from random import Random
from time import perf_counter

from common import (
    OUT, ROOT, SpeedProbe, child_env, median, percentile, record_digest, use_source_tree,
)
from tracing import Tracer

use_source_tree()

from repro import AgreementSpec, Engine  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.store import ResultStore  # noqa: E402

#: Daemon spawns per run; ``setup_s`` is the median spawn-to-first-200 time.
SETUPS = 5
#: The replayed sample is drawn from the first this-many requests.
SAMPLE_WINDOW = 1000
#: Vectors per request of each kind (``check`` carries none).
SIZES = {"run": 1, "batch": 8, "async_batch": 8, "net_batch": 4, "check": 0}
#: Copies of the most popular spec in one block of specs.
SPEC_COPIES = 20


def shuffled_blocks(block: list, rng: Random):
    """*block*'s items, endlessly, each pass through it in a fresh order."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def request_stream(work: dict, seed: int):
    """The endless seeded request sequence of one run.

    Kinds and specs come in shuffled blocks with exact counts, so the seed
    changes the order and the input vectors, never the mix.
    """
    rng = Random(seed)
    kinds = shuffled_blocks(
        [kind for kind, share in work["mix"].items() for _ in range(share)], rng
    )
    # Zipf(s=1) over the specs, rounded to whole copies: 20, 10, 7, 5, ...
    specs = shuffled_blocks(
        [spec for rank, spec in enumerate(work["specs"], 1)
         for _ in range(round(SPEC_COPIES / rank))],
        rng,
    )
    for kind in kinds:
        if kind == "check":
            yield {"kind": kind, "spec": work["check_spec"]}
            continue
        spec = next(specs)
        vectors = [
            [rng.randint(1, spec["domain"]) for _ in range(spec["n"])]
            for _ in range(SIZES[kind])
        ]
        yield {"kind": kind, "spec": spec, "vectors": vectors, "seed": rng.randrange(1 << 20)}


def _backend(work: dict, kind: str) -> tuple[str | None, str | None]:
    """``(backend, net adversary)`` of a batch request kind."""
    if kind == "net_batch":
        return "net", work["net_adversary"]
    return {"async_batch": "async"}.get(kind), None


def send(client: ServeClient, work: dict, request: dict):
    """``(executions, records, run_results)`` of one served request."""
    kind, spec = request["kind"], request["spec"]
    if kind == "check":
        report = client.check(spec)["report"]
        return report["executions"], [report], []
    if kind == "run":
        results = [client.run(spec, request["vectors"][0], seed=request["seed"])]
    else:
        backend, adversary = _backend(work, kind)
        results = client.run_batch(
            spec, request["vectors"], seed=request["seed"], backend=backend, adversary=adversary
        )
    return len(results), [result.to_record() for result in results], results


def replay(work: dict, request: dict) -> list:
    """The records a direct ``Engine`` produces for *request*."""
    kind = request["kind"]
    engine = Engine(AgreementSpec(**request["spec"]), "condition-kset")
    if kind == "check":
        return [engine.check().to_record()]
    if kind == "run":
        return [engine.run(request["vectors"][0], seed=request["seed"]).to_record()]
    backend, adversary = _backend(work, kind)
    seeds = range(request["seed"], request["seed"] + len(request["vectors"]))
    results = engine.run_batch(
        request["vectors"], seeds=seeds, backend=backend, net_adversary=adversary
    )
    return [result.to_record() for result in results]


class Daemon:
    """One ``python -m repro serve`` process, ready once ``GET /status`` answers."""

    def __init__(self, store_dir, capacity: int) -> None:
        self.spawned_at = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store-dir", str(store_dir), "--cache-capacity", str(capacity)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("repro serve listening on http://"):
                raise RuntimeError(f"repro serve did not start: {line!r}")
            host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
            self.client = ServeClient(host, int(port), timeout=60)
            self.client.status()
        except BaseException:
            self._stop()
            raise
        self.ready_at = perf_counter()

    def _stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def close(self) -> None:
        try:
            self.client.shutdown()
            self.process.wait(timeout=30)
        except (ReproError, subprocess.TimeoutExpired):
            pass
        self._stop()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def closed_loop(client, work: dict, seed: int, seconds: float, keep: set[int] | None,
                tracer: Tracer | None = None):
    """Run the loop for *seconds*; returns ``(completed, kept, failures, start, end)``.

    *completed* holds ``(kind, sent, done, executions)`` per answered request;
    *kept* maps the index of every answered request in *keep* (of all of
    them when *keep* is ``None``) to ``(request, records, run_results)``.
    """
    stream = enumerate(request_stream(work, seed))
    lock = threading.Lock()
    completed: list[tuple] = []
    kept: dict[int, tuple] = {}
    failures: list[int] = []
    crashes: list[Exception] = []
    start = perf_counter()
    stop_at = start + seconds

    def client_thread() -> None:
        try:
            while perf_counter() < stop_at:
                with lock:
                    index, request = next(stream)
                sent = perf_counter()
                try:
                    executions, records, results = send(client, work, request)
                except ReproError:
                    failures.append(index)
                    continue
                done = perf_counter()
                if tracer is not None:
                    tracer.add("serve." + request["kind"], sent, done)
                completed.append((request["kind"], sent, done, executions))
                if keep is None or index in keep:
                    kept[index] = (request, records, results)
        except Exception as error:  # reported by the main thread after join
            crashes.append(error)

    threads = [threading.Thread(target=client_thread) for _ in range(work["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    return completed, kept, len(failures), start, perf_counter()


def sample_indices(work: dict, seed: int) -> set[int]:
    """The seeded request indices whose replies are replayed directly."""
    return set(Random(seed).sample(range(SAMPLE_WINDOW), work["samples"]))


def mismatches(work: dict, kept: dict, sample: set[int]) -> int:
    """Replay the answered sampled requests directly; count differing ones."""
    differing = 0
    for index in sorted(sample & kept.keys()):
        request, records, _results = kept[index]
        direct = replay(work, request)
        differing += [record_digest(r) for r in records] != [record_digest(r) for r in direct]
    return differing


def _scratch() -> Path:
    path = OUT / f"serve-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(work: dict, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics, attempted and failed requests of one run.

    The daemon spawns and the closed loop share the *seconds*: the loop runs
    on the last daemon for what the spawns left over, and for at least half
    the *seconds*.  Times are in reference seconds: each spawn, each
    request and the loop as a whole is scaled by the speed of both vCPUs
    while it ran (``common.SpeedProbe``), since the daemon and the clients
    run on either.
    """
    start = perf_counter()
    scratch = _scratch()
    sample = sample_indices(work, seed)
    setups = []
    try:
        with SpeedProbe(os.sched_getaffinity(0)) as probe:
            for index in range(SETUPS):
                daemon = Daemon(scratch / f"store-{index}", work["cache_capacity"])
                setups.append(
                    (daemon.ready_at - daemon.spawned_at)
                    * probe.speed(daemon.spawned_at, daemon.ready_at)
                )
                if index < SETUPS - 1:
                    daemon.close()
            with daemon:
                left = seconds - (perf_counter() - start)
                completed, kept, failed, loop_start, loop_end = closed_loop(
                    daemon.client, work, seed, max(left, seconds / 2), sample
                )
            speed = probe.speed(loop_start, loop_end)
        failed += mismatches(work, kept, sample)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    latencies = [(done - sent) * probe.speed(sent, done) for _kind, sent, done, _ in completed]
    metrics = {
        "exec_per_s": sum(executions for *_request, executions in completed)
        / ((loop_end - loop_start) * speed),
        "latency_p50_ms": 1000 * median(latencies),
        "setup_s": median(setups),
        "proc.speed": speed,
    }
    return metrics, len(completed) + failed, failed


def measure_traced(work: dict, seed: int, seconds: float, tracer: Tracer) -> tuple[dict, int, int]:
    """Per-layer metrics: half the time untraced, half traced, fresh daemons."""
    scratch = _scratch()
    sample = sample_indices(work, seed)
    try:
        with Daemon(scratch / "untraced", work["cache_capacity"]) as daemon:
            plain, _kept, plain_failed, plain_start, plain_end = closed_loop(
                daemon.client, work, seed, seconds / 2, sample
            )
        with Daemon(scratch / "traced", work["cache_capacity"]) as daemon:
            before = daemon.client.status()
            completed, kept, failed, start, end = closed_loop(
                daemon.client, work, seed, seconds / 2, None, tracer
            )
            after = daemon.client.status()
        failed += plain_failed + mismatches(work, kept, sample)
        with ResultStore(scratch / "scratch.jsonl") as store:
            for _request, _records, results in kept.values():
                for result in results:
                    tracer.open("store.append")
                    store.append(result)
                    tracer.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = tracer.summary()

    def delta(section, key):
        return after[section][key] - before[section][key]

    def p50_ms(kind):
        latencies = [done - sent for entry_kind, sent, done, _ in completed if entry_kind == kind]
        return 1000 * median(latencies) if latencies else 0.0

    lookups = delta("cache", "hits") + delta("cache", "misses")
    served = sum(summary[name]["total"] for name in summary if name.startswith("serve."))
    appended = summary.get("store.append", {"count": 0, "total": 0.0})
    metrics = {
        "store.append_us": 1e6 * appended["total"] / appended["count"] if appended["count"] else 0.0,
        "store.records": appended["count"],
        "serve.cache.hit_ratio": delta("cache", "hits") / lookups if lookups else 0.0,
        "serve.cache.evictions": delta("cache", "evictions"),
        "serve.coalescer.merged": delta("coalescer", "requests_merged"),
        "serve.admission.rejected": delta("admission", "rejected"),
        "serve.run.p50_ms": p50_ms("run"),
        "serve.batch.p50_ms": p50_ms("batch"),
        "serve.async_batch.p50_ms": p50_ms("async_batch"),
        "serve.net_batch.p50_ms": p50_ms("net_batch"),
        "serve.check.p50_ms": p50_ms("check"),
        "serve.p99_ms": 1000 * percentile([done - sent for _, sent, done, _ in completed], 99),
        "trace.coverage": served / (work["clients"] * (end - start)),
        # Per-request wall, traced over untraced.
        "trace.overhead": ((end - start) / len(completed))
        / ((plain_end - plain_start) / len(plain)) - 1.0,
    }
    return metrics, len(plain) + len(completed) + failed, failed
