"""In-memory spans recorded by the benchmark around calls into the program.

The program itself is not instrumented.  For a traced run the benchmark
wraps functions of the program in place (:func:`traced`,
:func:`traced_items`), so each call opens a span when it starts and closes it
when it returns, and a layer's time is measured at its boundary.

A span has an id (the order it was opened in), a parent id (``-1`` for a
root), a name, a start and an end; every span of one workload run carries the
tracer's trace id.  A span's *self time* is its duration minus the time its
child spans cover; a child covers its parent until its own recording is
done, so the tracer's bookkeeping for a child is not counted as the parent's
self time.  Count, total and self time are summed per name as each
span closes, because an exhaustive check makes hundreds of thousands of
calls; only the first :data:`KEEP` spans are kept whole for
:meth:`Tracer.write`.

Spans opened with :meth:`Tracer.open` / :meth:`Tracer.close` nest on one
thread; :meth:`Tracer.add` records an already-timed root span and is safe to
call from several threads.  A wrapped function called in a forked child,
such as a process-pool worker, runs untraced: its spans could never reach
the parent's tracer.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

__all__ = ["KEEP", "Tracer", "traced", "traced_items"]

#: Spans kept whole (by id) for :meth:`Tracer.write`.
KEEP = 50_000

_pid = os.getpid()


def _after_fork() -> None:
    global _pid
    _pid = os.getpid()


os.register_at_fork(after_in_child=_after_fork)


class Tracer:
    """Spans of one workload run, summed per name and kept in memory."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.pid = os.getpid()
        #: The kept spans, ``[span, parent, name, start, end]`` each.
        self.spans: list[list] = []
        #: Spans opened so far; the next span's id.
        self.opened = 0
        #: Things the wrappers counted besides spans, such as yielded items.
        self.counts: Counter = Counter()
        self._totals: dict[str, list] = {}
        # Open spans, innermost last: [span, name, start, time covered by children].
        self._stack: list[list] = []
        self._lock = threading.Lock()

    def open(self, name: str) -> None:
        """Start a span whose parent is the innermost open span."""
        self._stack.append([self.opened, name, perf_counter(), 0.0])
        self.opened += 1

    def close(self) -> None:
        """End the innermost open span.

        The parent is charged as covered until this call returns, so the
        cost of recording a child does not count as the parent's self time.
        """
        end = perf_counter()
        span, name, start, covered = self._stack.pop()
        if not self._stack:
            self._finish(span, -1, name, start, end, covered)
            return
        parent = self._stack[-1]
        self._finish(span, parent[0], name, start, end, covered)
        parent[3] += perf_counter() - start

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished root span (thread-safe)."""
        with self._lock:
            span = self.opened
            self.opened += 1
            self._finish(span, -1, name, start, end, 0.0)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def _finish(self, span, parent, name, start, end, covered) -> None:
        entry = self._totals.get(name)
        if entry is None:
            entry = self._totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered
        if span < KEEP:
            self.spans.append([span, parent, name, start, end])

    def summary(self) -> dict[str, dict[str, float]]:
        """``name -> {"count", "total", "self"}`` over every closed span."""
        return {
            name: {"count": count, "total": total, "self": own}
            for name, (count, total, own) in self._totals.items()
        }

    def write(self, path) -> None:
        """Write a header line, then every kept span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "trace": self.trace_id,
                "fields": ["span", "parent", "name", "start", "end"],
                "opened": self.opened,
                "kept": len(self.spans),
            }
            handle.write(json.dumps(header) + "\n")
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")


def traced(tracer: Tracer, name: str, function):
    """*function* wrapped so that every call records a span named *name*."""

    pid, open_span, close_span = tracer.pid, tracer.open, tracer.close

    def call(*args, **kwargs):
        if _pid != pid:
            return function(*args, **kwargs)
        open_span(name)
        try:
            return function(*args, **kwargs)
        finally:
            close_span()

    return call


def traced_items(tracer: Tracer, name: str, counter: str, function):
    """*function*, which returns an iterable, wrapped so that fetching each
    item records a span named *name* and counts one *counter*."""

    def items(iterable):
        iterator = iter(iterable)
        while True:
            tracer.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close()
            tracer.count(counter)
            yield item

    def call(*args, **kwargs):
        if _pid != tracer.pid:
            return function(*args, **kwargs)
        return items(function(*args, **kwargs))

    return call
