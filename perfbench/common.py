"""Paths, workload parameters and small helpers shared by the benchmark files."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for span files, daemon stores and result stores.  It lives
#: inside the checkout because the benchmark writes nowhere else.
OUT = HERE / "out"


def layout_ok() -> bool:
    """Does the checkout hold the program the benchmark measures?"""
    return (SRC / "repro" / "__init__.py").is_file() and (ROOT / "BENCHMARK.json").is_file()


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src/`` tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def record_digest(record) -> str:
    """SHA-256 of a report or run record in canonical JSON form."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


#: A round figure for what :func:`reference_chunk` takes on the machine the
#: bounds were set on (2 vCPU Xeon at 2.0 GHz, Python 3.11.7) at its faster
#: speed.  A time in reference seconds is the wall the operation would take
#: on that machine while a chunk takes this.
CHUNK_SECONDS = 0.0009
#: Pause between two chunks of one probe thread.
PROBE_INTERVAL = 0.01
#: The shortest stretch :meth:`SpeedProbe.speed` averages over, in seconds.
MIN_SPAN = 0.5


def reference_chunk() -> float:
    """Wall of a fixed unit of pure-Python work, under a millisecond.

    The mix resembles the checkers' inner loops: dictionary stores, list
    appends, small-integer arithmetic and big-integer masks.  It does not
    touch ``repro``, so no change to the program moves it.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    items: list[int] = []
    mask = 1
    total = 0
    for i in range(4_000):
        table[i & 1023] = i
        total += (i * i) >> 3
        if i & 7 == 0:
            items.append(total & 255)
        if i & 63 == 0:
            mask = ((mask << 5) ^ i) & ((1 << 512) - 1)
            total += mask.bit_count()
    return perf_counter() - start


class SpeedProbe:
    """The speed of the vCPUs measured operations run on, sampled while they run.

    The machine the benchmark runs on slows one vCPU at a time, by up to
    1.7x, for one to a few seconds, and every workload slows with it.  So
    while the probe is open, one thread per vCPU in *cpus*, pinned there,
    times :func:`reference_chunk` every :data:`PROBE_INTERVAL` seconds.
    :meth:`time` scales an operation's wall by the speed during it:
    :data:`CHUNK_SECONDS` over the mean chunk wall sampled while it ran.
    The chunks take about a tenth of each probed vCPU, the same share on
    any commit.
    """

    def __init__(self, cpus) -> None:
        #: ``(time, chunk wall)`` of every chunk run so far.
        self.samples: list[tuple[float, float]] = []
        #: The speed during every operation :meth:`time` timed.
        self.speeds: list[float] = []
        self._ordered: list[tuple[float, float]] = []
        self._times: list[float] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True) for cpu in sorted(cpus)
        ]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PROBE_INTERVAL):
            self.samples.append((perf_counter(), reference_chunk()))

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        while len(self.samples) < len(self._threads):
            self._stop.wait(PROBE_INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def speed(self, start: float, end: float) -> float:
        """The speed from *start* to *end*, from the chunks sampled then.

        A stretch shorter than :data:`MIN_SPAN` is widened to it around its
        middle: one chunk's wall varies by ±25% around the vCPU's speed, and
        the speed itself holds for a second or more.
        """
        if end - start < MIN_SPAN:
            middle = (start + end) / 2
            start, end = middle - MIN_SPAN / 2, middle + MIN_SPAN / 2
        if len(self._ordered) != len(self.samples):
            self._ordered = sorted(self.samples)
            self._times = [at for at, _wall in self._ordered]
        low, high = bisect_left(self._times, start), bisect_right(self._times, end)
        chunks = self._ordered[low:high] or self._ordered
        return CHUNK_SECONDS / statistics.fmean(wall for _at, wall in chunks)

    def time(self, function, *args, **kwargs):
        """``(reference seconds, result)`` of one call."""
        start = perf_counter()
        result = function(*args, **kwargs)
        end = perf_counter()
        speed = self.speed(start, end)
        self.speeds.append(speed)
        return (end - start) * speed, result


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """The *q*-th percentile (1..99) by :func:`statistics.quantiles`."""
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])
