"""The agreement-as-a-service daemon: HTTP endpoints over warm engines.

:class:`ReproServer` wraps the whole library behind a long-lived
:class:`~http.server.ThreadingHTTPServer` so many concurrent clients can
submit work without paying engine cold-start per invocation:

========  =======  ==========================================================
endpoint  method   what it does
========  =======  ==========================================================
/run      POST     one vector through :meth:`~repro.api.Engine.run`
/batch    POST     many vectors through :meth:`~repro.api.Engine.run_batch`;
                   ``"stream": true`` switches to an NDJSON response built on
                   :meth:`~repro.api.Engine.iter_batch` (one record per line,
                   written as results complete)
/sweep    POST     a parameter grid through :meth:`~repro.api.Engine.sweep`
/check    POST     exhaustive verification through :meth:`~repro.api.Engine.check`
/status   GET      cache occupancy + hit/miss/eviction counts, coalescer
                   counters, queue depth, per-tenant usage, request totals,
                   connections opened and open
/shutdown POST     graceful stop (used by CI and the examples)
========  =======  ==========================================================

The heart of the server is the spec-keyed
:class:`~repro.serve.cache.EngineCache`: every execution request resolves its
``(spec, algorithm, config)`` recipe to a warm engine — with its populated
:class:`~repro.api.engine.MemoizedCondition` and, for asynchronous specs, its
live :class:`~repro.asynchronous.executor.AsyncExecutor` substrate — and a
request for a spec the server has seen before skips the cold start entirely.
The cache is bounded; eviction tears the engine down through
:meth:`~repro.api.Engine.close`.

Determinism survives the sharing because the cache key *normalises the seed
out of the config* and passes each request's seed per call: ``/run`` uses
``Engine.run(seed=...)``, ``/batch`` hands ``seeds=range(seed, seed + B)`` to
``run_batch`` and ``/sweep`` uses ``sweep(seed=...)``, so every response is
byte-identical to calling the engine directly with a config carrying that
seed.  Concurrent same-spec ``/batch`` requests are merged by the
:class:`~repro.serve.coalescer.BatchCoalescer` into one ``run_batch`` call
(per-segment seeds keep the merge invisible in the results), admission
control and per-tenant quotas guard the door
(:mod:`repro.serve.quotas`), and a ``--store-dir`` deployment persists every
tenant's results into its own namespaced
:class:`~repro.store.ResultStore` file.

The daemon speaks HTTP/1.1 with persistent connections: a client such as
:class:`~repro.serve.client.ServeClient` keeps one connection open across
its requests instead of paying a TCP handshake and a handler thread for
each, and every response leaves in one write.  A kept connection never goes
out of step: every request's body is read in full before its answer (a 404
and ``/shutdown`` included), and a request whose body has no readable length
(a malformed ``Content-Length``), an HTTP/1.0 request and the NDJSON stream
are answered with ``Connection: close``.  There is no idle timeout: a kept
connection holds its handler thread until the client closes it or
:meth:`ReproServer.close` ends it, which waits for every handler thread.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator, Mapping

from ..api.engine import CheckedCall, Engine
from ..api.namespaces import adversary_keyword
from ..api.registry import ALGORITHMS
from ..api.spec import AgreementSpec, RunConfig, require_int
from ..check.checker import check_arguments, space_from_bounds
from ..exceptions import (
    AdmissionError,
    InvalidParameterError,
    QuotaExceededError,
    ReproError,
    ServeError,
)
from ..store import ResultStore
from .cache import EngineCache, EngineCacheEntry
from .coalescer import BatchCoalescer
from .quotas import DEFAULT_TENANT, AdmissionController, TenantQuotas

__all__ = ["ReproServer"]

#: Endpoints that execute agreement work (and therefore pass admission).
EXECUTION_ENDPOINTS = ("/run", "/batch", "/sweep", "/check")

#: Seconds between the serving loop's checks for a shutdown request, which
#: is how long :meth:`ReproServer.close` waits for the loop at most (the
#: stdlib's default is 0.5 s).
_POLL_INTERVAL = 0.05


class _ParsedRequest:
    """One execution request, decoded and validated once."""

    def __init__(self, payload: Mapping[str, Any]) -> None:
        if not isinstance(payload, Mapping):
            raise InvalidParameterError("the request body must be a JSON object")
        spec_fields = payload.get("spec")
        if not isinstance(spec_fields, Mapping):
            raise InvalidParameterError(
                'the request needs a "spec" object (AgreementSpec fields)'
            )
        try:
            self.spec = AgreementSpec(**spec_fields)
        except TypeError as error:
            raise InvalidParameterError(f"bad spec: {error}") from None
        self.algorithm = payload.get("algorithm", "condition-kset")
        ALGORITHMS.get(self.algorithm)  # unknown names fail here, as a 400
        self.backend = payload.get("backend", "sync")
        self.schedule = payload.get("schedule")
        if self.schedule is not None and not isinstance(self.schedule, str):
            raise InvalidParameterError(
                f"schedule must be a registry name or null, got {self.schedule!r}"
            )
        self.seed = payload.get("seed", 0)
        require_int("seed", self.seed)
        self.tenant = payload.get("tenant", DEFAULT_TENANT)
        ResultStore._validate_tenant(self.tenant)
        self.adversary = payload.get("adversary")
        self.workers = payload.get("workers", 1)
        self.chunk_size = payload.get("chunk_size")
        crash_steps = payload.get("crash_steps")
        if crash_steps is not None:
            try:
                crash_steps = {int(pid): steps for pid, steps in crash_steps.items()}
            except (AttributeError, ValueError):
                raise InvalidParameterError(
                    f"crash_steps must map process ids to steps, got {crash_steps!r}"
                ) from None
        self.crash_steps = crash_steps
        # The cache key's config: the seed is normalised to 0 (it travels per
        # call instead) so every same-recipe request shares one warm engine.
        self.config = RunConfig(
            crashes=payload.get("crashes", 0),
            max_steps_per_process=payload.get("max_steps", 200),
        )

    def engine_key(self) -> tuple:
        return (self.spec, self.algorithm, self.config)

    def call_knobs(self) -> dict[str, Any]:
        """Per-call keyword arguments shared by run/batch/sweep: every knob,
        forwarded for the engine to check."""
        return {
            "backend": self.backend,
            "crash_steps": self.crash_steps,
            **adversary_keyword(self.backend, self.adversary),
        }


class _Handler(BaseHTTPRequestHandler):
    """Request handler: thin HTTP plumbing around :class:`ReproServer`."""

    server_version = "repro-serve/1.0"
    # Persistent connections; an HTTP/1.0 request still gets one response
    # and then EOF (the stdlib sets ``close_connection`` from its version).
    protocol_version = "HTTP/1.1"
    # A buffered wfile holds the headers until the body joins them, so a
    # response up to the buffer's size leaves in one write (flushed once the
    # method returns), and no Nagle delay holds a packet back for an ACK.
    wbufsize = 1 << 16
    disable_nagle_algorithm = True

    @property
    def state(self) -> "ReproServer":
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.state.verbose:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------
    def _read_body(self) -> bytes:
        """The request body, read in full so that the next request on a kept
        connection starts right after it.

        A body whose end the headers do not give is never read past: the
        connection closes after the response instead.
        """
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
        declared = self.headers.get("Content-Length", "0").strip()
        # Only a non-negative integer: ``rfile.read(-1)`` would block until
        # the client hangs up.
        if not declared.isdecimal():
            self.close_connection = True
            raise InvalidParameterError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        return self.rfile.read(length) if length else b""

    def _skip_body(self) -> None:
        """Read past a body the answer does not use (a 404, ``/shutdown``)."""
        try:
            self._read_body()
        except InvalidParameterError:
            pass  # its length is unknown: the connection closes instead

    def _read_payload(self) -> Mapping[str, Any]:
        body = self._read_body()
        if not body:
            raise InvalidParameterError("the request body must be a JSON object")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(f"malformed JSON body: {error.msg}") from None
        if not isinstance(payload, dict):
            raise InvalidParameterError("the request body must be a JSON object")
        return payload

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self.state._count_error(code)
        self._send_json(status, {"ok": False, "code": code, "error": message})

    # -- dispatch ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._skip_body()
        if self.path == "/status":
            self.state._count_request("/status")
            self._send_json(200, {"ok": True, **self.state.status()})
            return
        self._send_error_json(404, "not-found", f"unknown endpoint {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/shutdown":
            self._skip_body()
            self.state._count_request("/shutdown")
            self._send_json(200, {"ok": True, "message": "shutting down"})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if self.path not in EXECUTION_ENDPOINTS:
            self._skip_body()
            self._send_error_json(404, "not-found", f"unknown endpoint {self.path!r}")
            return
        self.state._count_request(self.path)
        try:
            payload = self._read_payload()
            request = _ParsedRequest(payload)
            if self.path == "/run":
                self._handle_run(request, payload)
            elif self.path == "/batch":
                self._handle_batch(request, payload)
            elif self.path == "/sweep":
                self._handle_sweep(request, payload)
            else:
                self._handle_check(request, payload)
        except QuotaExceededError as error:
            self._send_error_json(429, "quota", str(error))
        except AdmissionError as error:
            self._send_error_json(429, "admission", str(error))
        except ReproError as error:
            self._send_error_json(400, "bad-request", f"{type(error).__name__}: {error}")
        except BrokenPipeError:  # client went away mid-response
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 — a daemon must not die per request
            self._send_error_json(500, "internal", f"{type(error).__name__}: {error}")

    # -- endpoints ---------------------------------------------------------
    def _handle_run(self, request: _ParsedRequest, payload: Mapping[str, Any]) -> None:
        vector = payload.get("vector")
        if not isinstance(vector, (list, tuple)):
            raise InvalidParameterError('"/run" needs a "vector" array')
        state = self.state
        entry, checked = state._checked_entry(
            request, vectors=(vector,), seed=request.seed, schedule=request.schedule
        )
        with state._admitted(request.tenant, 1):
            with entry.lock:
                result = entry.engine.run(
                    checked.vectors[0],
                    request.schedule,
                    seed=request.seed,
                    **request.call_knobs(),
                )
        store = state.tenant_store(request.tenant)
        if store is not None:
            store.append(result)
        state._count_runs(1)
        self._send_json(200, {"ok": True, "result": result.to_record()})

    def _handle_batch(self, request: _ParsedRequest, payload: Mapping[str, Any]) -> None:
        vectors = payload.get("vectors")
        if not isinstance(vectors, list) or not vectors:
            raise InvalidParameterError('"/batch" needs a non-empty "vectors" array')
        if payload.get("stream"):
            self._stream_batch(request, vectors)
            return
        state = self.state
        entry, checked = state._checked_batch_entry(request, vectors)
        with state._admitted(request.tenant, len(vectors)):
            results = state.execute_batch(request, checked.vectors, entry)
        store = state.tenant_store(request.tenant)
        if store is not None:
            store.extend(results)
        state._count_runs(len(results))
        self._send_json(
            200, {"ok": True, "results": [result.to_record() for result in results]}
        )

    def _stream_batch(self, request: _ParsedRequest, vectors: list) -> None:
        """NDJSON response: one run record per line, written as it completes.

        Streaming bypasses the coalescer (results must flow while the batch
        executes) but still runs on the warm cached engine, under its lock.
        The stream has no ``Content-Length``: its end is the end of the
        connection, so this response closes it.
        """
        state = self.state
        entry, checked = state._checked_batch_entry(request, vectors)
        with state._admitted(request.tenant, len(vectors)):
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.flush()  # the status line goes out before the first run
            store = state.tenant_store(request.tenant)
            served = 0
            with entry.lock:
                try:
                    stream = entry.engine.iter_batch(
                        checked.vectors,
                        request.schedule,
                        seeds=range(request.seed, request.seed + len(vectors)),
                        workers=request.workers,
                        chunk_size=request.chunk_size,
                        **request.call_knobs(),
                    )
                    for result in stream:
                        if store is not None:
                            store.append(result)
                        line = json.dumps(result.to_record()) + "\n"
                        self.wfile.write(line.encode("utf-8"))
                        self.wfile.flush()
                        served += 1
                except ReproError as error:
                    # The status line is long gone: report in-band instead.
                    failure = json.dumps(
                        {"__error__": f"{type(error).__name__}: {error}"}
                    )
                    self.wfile.write((failure + "\n").encode("utf-8"))
            state._count_runs(served)

    def _handle_sweep(self, request: _ParsedRequest, payload: Mapping[str, Any]) -> None:
        state = self.state
        entry = state.cache.get(request.spec, request.algorithm, request.config)
        sweep = {
            "grid": payload.get("grid"),
            "runs_per_cell": payload.get("runs_per_cell", 4),
            "vectors": payload.get("vectors_mode", "in"),
            "schedule": request.schedule,
            "workers": request.workers,
            "seed": request.seed,
            **request.call_knobs(),
        }
        _, _, cell_count = entry.engine._checked_sweep(**sweep)
        # A cell builds a spec and an engine even with no runs: one unit.
        with state._admitted(request.tenant, cell_count * max(sweep["runs_per_cell"], 1)):
            with entry.lock:
                cells = entry.engine.sweep(**sweep)
        store = state.tenant_store(request.tenant)
        executed = 0
        for cell in cells:
            if store is not None:
                store.append_cell(cell)
            executed += cell.runs
        state._count_runs(executed)
        self._send_json(
            200, {"ok": True, "cells": [cell.to_record() for cell in cells]}
        )

    def _handle_check(self, request: _ParsedRequest, payload: Mapping[str, Any]) -> None:
        state = self.state
        bounds = {
            "rounds": payload.get("rounds"),
            "depth": payload.get("depth"),
            "max_crashes": payload.get("max_crashes"),
            "adversary": request.adversary,
            "max_faults": payload.get("max_faults"),
        }
        arguments = {
            "workers": request.workers,
            "max_counterexamples": payload.get("max_counterexamples", 25),
            "max_vectors": payload.get("max_vectors", 12),
            "all_vectors_limit": payload.get("all_vectors_limit", 100),
        }
        entry = state.cache.get(request.spec, request.algorithm, request.config)
        # What the engine refuses costs nothing: the space and run_check's
        # parameters are checked first.
        check_arguments(entry.engine, space_from_bounds(request.backend, **bounds), **arguments)
        # A check's execution count is only known once the space is
        # enumerated; it is charged as one quota unit (admission still
        # bounds how many run concurrently).
        with state._admitted(request.tenant, 1):
            with entry.lock:
                report = entry.engine.check(
                    backend=request.backend,
                    **bounds,
                    store=state.tenant_store(request.tenant),
                    **arguments,
                )
        state._count_runs(report.executions)
        self._send_json(
            200,
            {
                "ok": True,
                "passed": report.passed,
                "backend": request.backend,
                "report": report.to_record(),
                "render": report.render(),
            },
        )


class _ServeHTTPServer(ThreadingHTTPServer):
    """The stdlib threading server, telling its :class:`ReproServer` about
    every connection it accepts and closes (``/status``'s ``connections``,
    and :meth:`ReproServer.close` ending the kept ones)."""

    #: Backref to the owning :class:`ReproServer` (set right after creation).
    state: "ReproServer"

    def process_request(self, request: socket.socket, client_address) -> None:
        """Serve an accepted connection from a handler thread of its own (a
        daemon thread: a process that never closes its server still exits)."""
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-serve-connection",
            daemon=True,
        )
        self.state._connection_opened(request, thread)
        thread.start()

    def close_request(self, request: socket.socket) -> None:
        self.state._connection_closed(request)
        super().close_request(request)


class ReproServer:
    """The long-lived serving daemon (see the module docstring for the API).

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    cache_capacity:
        Bound of the spec-keyed engine cache.
    max_inflight, max_queue:
        Admission control: concurrent executions and bounded wait queue.
    default_quota, tenant_quotas:
        Per-tenant run budgets (``None`` = unlimited, usage still tracked).
    store_dir:
        When set, every tenant's results/cells/counterexamples are appended
        to ``<store_dir>/<tenant>.jsonl`` (a namespaced
        :class:`~repro.store.ResultStore` per tenant).
    verbose:
        Log one line per HTTP request to stderr.

    Usage::

        server = ReproServer(port=0)
        host, port = server.start()        # background thread
        ...                                # drive it with repro.serve.client
        server.close()

    or blocking (the ``repro serve`` CLI)::

        ReproServer(port=8765).run_forever()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_capacity: int = 8,
        max_inflight: int = 4,
        max_queue: int = 16,
        default_quota: int | None = None,
        tenant_quotas: Mapping[str, int | None] | None = None,
        store_dir: str | None = None,
        verbose: bool = False,
    ) -> None:
        self._host = host
        self._requested_port = port
        self.verbose = verbose
        self.cache = EngineCache(cache_capacity)
        self.coalescer = BatchCoalescer()
        self.admission = AdmissionController(max_inflight, max_queue)
        self.quotas = TenantQuotas(default_quota, tenant_quotas)
        self._store_dir = store_dir
        self._stores: dict[str, ResultStore] = {}
        self._stores_mutex = threading.Lock()
        self._counters_mutex = threading.Lock()
        self._requests_by_endpoint: dict[str, int] = {}
        self._errors_by_code: dict[str, int] = {}
        self._runs_served = 0
        # Every open connection's handler thread, and how many were opened.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_opened = 0
        self._started_at: float | None = None
        self._http: _ServeHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    def _bind(self) -> _ServeHTTPServer:
        if self._http is not None:
            raise ServeError("the server is already running")
        http = _ServeHTTPServer((self._host, self._requested_port), _Handler)
        http.state = self
        self._http = http
        self._started_at = time.monotonic()
        return http

    def start(self) -> tuple[str, int]:
        """Bind and serve from a daemon thread; returns ``(host, port)``."""
        http = self._bind()
        self._thread = threading.Thread(
            target=http.serve_forever,
            args=(_POLL_INTERVAL,),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def run_forever(self) -> None:
        """Bind and serve on the calling thread until shutdown (CLI mode)."""
        http = self._bind()
        try:
            http.serve_forever(_POLL_INTERVAL)
        finally:
            self.close()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        if self._http is None:
            raise ServeError("the server is not running")
        return self._http.server_address[:2]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self.address[1]

    def close(self) -> None:
        """Stop serving, end every connection, close every tenant store and
        tear every engine down.

        A kept connection waiting for its next request is ended at once; a
        request in flight is answered first.  Every handler thread has ended
        when this returns.
        """
        http, self._http = self._http, None
        if http is not None:
            http.shutdown()
            http.server_close()
            self._end_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        with self._stores_mutex:
            stores, self._stores = dict(self._stores), {}
        for store in stores.values():
            store.close()
        self.cache.clear()

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _end_connections(self) -> None:
        """End every open connection, then wait for its handler thread.

        ``SHUT_RD`` turns an idle handler's wait for the next request into
        EOF, while a handler mid-request still writes its response and ends
        at its next read.
        """
        with self._counters_mutex:
            connections = dict(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # its handler closed it meanwhile
                pass
        for thread in connections.values():
            thread.join()

    # -- execution helpers -------------------------------------------------
    @contextmanager
    def _admitted(self, tenant: str, runs: int) -> Iterator[None]:
        """Charge *runs* to *tenant*, then hold an execution slot.

        The quota is checked first, so a tenant over budget never takes a
        slot; a request that admission control turns away runs nothing and
        gets its charge back.  A request reaches this point only after the
        engine's own checks accepted its arguments (:meth:`_checked_entry`,
        ``Engine._checked_sweep``, :func:`~repro.check.checker.check_arguments`),
        so a refused request is never charged; one that fails once its work
        has started keeps its charge.
        """
        self.quotas.charge(tenant, runs)
        try:
            self.admission.acquire()
        except AdmissionError:
            self.quotas.refund(tenant, runs)
            raise
        try:
            yield
        finally:
            self.admission.release()

    def tenant_store(self, tenant: str) -> ResultStore | None:
        """The tenant's namespaced store, or ``None`` when persistence is off."""
        if self._store_dir is None:
            return None
        with self._stores_mutex:
            store = self._stores.get(tenant)
            if store is None:
                store = self._stores[tenant] = ResultStore.for_tenant(
                    self._store_dir, tenant
                )
            return store

    def _checked_entry(
        self, request: _ParsedRequest, **call: Any
    ) -> tuple[EngineCacheEntry, CheckedCall]:
        """The request's warm engine entry and what its engine accepted: the
        request's run knobs and the *call* arguments it forwards (the
        engine's own pre-check, ``Engine._checked_call``), with the
        vectors normalised."""
        entry = self.cache.get(request.spec, request.algorithm, request.config)
        return entry, entry.engine._checked_call(**call, **request.call_knobs())

    def _checked_batch_entry(
        self, request: _ParsedRequest, vectors: list
    ) -> tuple[EngineCacheEntry, CheckedCall]:
        """:meth:`_checked_entry` for a ``/batch`` request's arguments."""
        return self._checked_entry(
            request,
            vectors=vectors,
            seed=request.seed,
            schedule=request.schedule,
            chunk_size=request.chunk_size,
            workers=request.workers,
        )

    def execute_batch(
        self, request: _ParsedRequest, vectors: list, entry: EngineCacheEntry
    ) -> list:
        """Run one ``/batch`` request through the coalescer on its warm engine.

        Concurrent requests with the same coalescing key (engine recipe plus
        every per-call knob except vectors/seed) pool while the engine is
        busy and execute as **one** ``run_batch`` call; each request's
        segment keeps its own ``range(seed, seed + B)`` seeds, so merged
        results equal solo results exactly.
        """
        knobs = request.call_knobs()
        # The knobs enter the key as canonical JSON, hashable whatever the
        # payload held (the engine accepted them in _checked_entry).
        key = (
            request.engine_key(),
            json.dumps(
                [
                    request.backend,
                    request.schedule,
                    request.adversary,
                    request.crash_steps,
                    request.workers,
                    request.chunk_size,
                ],
                sort_keys=True,
            ),
        )
        seeds = list(range(request.seed, request.seed + len(vectors)))

        def run_segment(segment_vectors: list, segment_seeds: list) -> list:
            return entry.engine.run_batch(
                segment_vectors,
                request.schedule,
                seeds=segment_seeds,
                workers=request.workers,
                chunk_size=request.chunk_size,
                **knobs,
            )

        def runner(payloads):
            if len(payloads) == 1:
                segment_vectors, segment_seeds = payloads[0]
                return [run_segment(segment_vectors, segment_seeds)]
            merged_vectors = [v for segment, _ in payloads for v in segment]
            merged_seeds = [s for _, seeds_ in payloads for s in seeds_]
            try:
                merged = run_segment(merged_vectors, merged_seeds)
            except ReproError:
                # One poisoned segment must not fail its co-riders: fall back
                # to per-request execution and let each fail (or not) alone.
                outputs = []
                for segment_vectors, segment_seeds in payloads:
                    try:
                        outputs.append(run_segment(segment_vectors, segment_seeds))
                    except ReproError as error:
                        outputs.append(error)
                return outputs
            outputs, cursor = [], 0
            for segment_vectors, _ in payloads:
                outputs.append(merged[cursor : cursor + len(segment_vectors)])
                cursor += len(segment_vectors)
            return outputs

        outcome = self.coalescer.submit(key, (vectors, seeds), entry.lock, runner)
        if isinstance(outcome, ReproError):
            raise outcome
        return outcome

    # -- bookkeeping -------------------------------------------------------
    def _count_request(self, endpoint: str) -> None:
        with self._counters_mutex:
            self._requests_by_endpoint[endpoint] = (
                self._requests_by_endpoint.get(endpoint, 0) + 1
            )

    def _count_error(self, code: str) -> None:
        with self._counters_mutex:
            self._errors_by_code[code] = self._errors_by_code.get(code, 0) + 1

    def _count_runs(self, runs: int) -> None:
        with self._counters_mutex:
            self._runs_served += runs

    def _connection_opened(
        self, connection: socket.socket, thread: threading.Thread
    ) -> None:
        with self._counters_mutex:
            self._connections_opened += 1
            self._connections[connection] = thread

    def _connection_closed(self, connection: socket.socket) -> None:
        with self._counters_mutex:
            self._connections.pop(connection, None)

    def status(self) -> dict[str, Any]:
        """The monitoring snapshot served by ``GET /status``."""
        with self._counters_mutex:
            by_endpoint = dict(self._requests_by_endpoint)
            by_error = dict(self._errors_by_code)
            runs_served = self._runs_served
            connections = {
                "opened": self._connections_opened,
                "open": len(self._connections),
            }
        uptime = (
            0.0 if self._started_at is None else time.monotonic() - self._started_at
        )
        return {
            "uptime_seconds": round(uptime, 3),
            "requests": {
                "total": sum(by_endpoint.values()),
                "by_endpoint": by_endpoint,
                "errors": by_error,
                "rejected_admission": self.admission.stats()["rejected"],
                "rejected_quota": self.quotas.rejected,
            },
            "runs_served": runs_served,
            "connections": connections,
            "cache": {**self.cache.stats(), "engines": self.cache.entries()},
            "coalescer": self.coalescer.stats(),
            "admission": self.admission.stats(),
            "tenants": self.quotas.usage(),
            "store_dir": self._store_dir,
        }
