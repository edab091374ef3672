"""A stdlib client for the serving daemon (:mod:`repro.serve.server`).

:class:`ServeClient` speaks the daemon's JSON protocol over
:mod:`http.client` — no third-party dependencies — and translates both ways:

* requests take the same vocabulary as the :class:`~repro.api.Engine` facade
  (spec fields, ``backend=``, ``schedule=``, ``seed=``, ...), so switching
  between direct and served execution is a one-line change;
* responses come back as real library objects — run and batch results are
  rebuilt into :class:`~repro.api.RunResult` via
  :meth:`~repro.api.RunResult.from_record` — and server-side rejections are
  re-raised as the library's own exceptions
  (:class:`~repro.exceptions.AdmissionError` on back-pressure,
  :class:`~repro.exceptions.QuotaExceededError` over budget,
  :class:`~repro.exceptions.ServeError` for everything else).

The daemon speaks HTTP/1.1, and the client keeps one connection open per
calling thread and reuses it for that thread's next call, so one client
instance may be shared across threads and a loop of calls pays one TCP
handshake.  Before a kept connection carries a request it is probed: if the
daemon has closed it (a restart, :meth:`ReproServer.close
<repro.serve.server.ReproServer.close>`), it is dropped and a new one opened,
so a request is never sent on a connection known to be dead.
:meth:`iter_batch` streams on a connection of its own, which the stream's
end closes.  :meth:`ServeClient.close` (or a ``with`` block) closes every
kept connection.

A connection-*refused* socket (the daemon still binding, a supervisor
restarting it) is retried a bounded number of times with exponential backoff
before giving up — refusal happens before the request is sent, so the retry
can never double-execute work.  Any failure once the request is on its way
stays fail-fast: the daemon may have executed it, so it is never re-sent.
"""

from __future__ import annotations

import dataclasses
import json
import select
import socket
import threading
import time
import weakref
from http.client import HTTPConnection, HTTPException, HTTPResponse
from typing import Any, Iterator, Mapping, Sequence

from ..api.result import RunResult
from ..api.spec import AgreementSpec
from ..exceptions import AdmissionError, QuotaExceededError, ServeError

__all__ = ["ServeClient"]

#: Error codes the server emits, mapped back onto library exceptions.
_ERROR_TYPES = {
    "admission": AdmissionError,
    "quota": QuotaExceededError,
}


def _readable(sock: socket.socket) -> bool:
    """Whether *sock* has something to read right now.

    An idle kept connection has nothing to read unless the daemon closed it
    (EOF) or it is out of step, and either way it cannot carry a request.
    """
    if hasattr(select, "poll"):  # select() refuses descriptors >= FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _spec_fields(spec: AgreementSpec | Mapping[str, Any]) -> dict[str, Any]:
    """The JSON shape of a spec (accepts a real spec or a plain dict)."""
    if isinstance(spec, AgreementSpec):
        fields = dataclasses.asdict(spec)
        params = fields.get("condition_params")
        if params:
            fields["condition_params"] = dict(params)
        else:
            fields.pop("condition_params", None)
        return fields
    return dict(spec)


class ServeClient:
    """Drive a running :class:`~repro.serve.server.ReproServer` over HTTP.

    Parameters
    ----------
    host, port:
        Where the daemon listens (e.g. the pair :meth:`ReproServer.start
        <repro.serve.server.ReproServer.start>` returned).
    tenant:
        Tenant name stamped on every request (quota accounting and, with a
        ``store_dir`` deployment, the result-store namespace).  ``None``
        uses the server's default tenant.
    timeout:
        Socket timeout per connect, send or receive, in seconds.
    connect_retries:
        How many times a *connection-refused* socket is retried before the
        call fails with :class:`~repro.exceptions.ServeError`.  Refusal
        happens before any bytes are sent, so retrying is always safe;
        every other socket error fails immediately.
    retry_backoff:
        Base sleep (seconds) between connection retries; attempt *i* waits
        ``retry_backoff * 2**i``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        tenant: str | None = None,
        timeout: float = 120.0,
        connect_retries: int = 3,
        retry_backoff: float = 0.05,
    ) -> None:
        if connect_retries < 0:
            raise ServeError(
                f"connect_retries must be >= 0, got {connect_retries}"
            )
        if retry_backoff < 0:
            raise ServeError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self._host = host
        self._port = port
        self._tenant = tenant
        self._timeout = timeout
        self._connect_retries = connect_retries
        self._retry_backoff = retry_backoff
        # The calling thread's kept connection; when a thread ends its slot
        # goes, and a finalizer closes the socket.
        self._local = threading.local()
        # Every thread's kept connection, for close().
        self._kept: weakref.WeakSet[HTTPConnection] = weakref.WeakSet()
        self._kept_mutex = threading.Lock()

    def __repr__(self) -> str:
        tenant = f", tenant={self._tenant!r}" if self._tenant else ""
        return f"ServeClient({self._host}:{self._port}{tenant})"

    def close(self) -> None:
        """Close every thread's kept connection.

        Call it when no call is in flight.  The client stays usable: a later
        call opens a new connection.
        """
        with self._kept_mutex:
            kept = list(self._kept)
        for connection in kept:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        """A new connection to the daemon, retrying a refused connect."""
        attempts = self._connect_retries + 1
        refused: ConnectionRefusedError | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._retry_backoff * 2 ** (attempt - 1))
            connection = HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            try:
                connection.connect()
                return connection
            except ConnectionRefusedError as error:
                # Refusal precedes the request bytes: retrying cannot
                # double-execute anything on the server.
                refused = error
            except OSError as error:
                raise ServeError(
                    f"cannot reach repro serve at {self._host}:{self._port}: {error}"
                ) from None
        raise ServeError(
            f"cannot reach repro serve at {self._host}:{self._port} after "
            f"{attempts} attempt(s): {refused}"
        ) from None

    def _kept_connection(self) -> HTTPConnection:
        """The calling thread's kept connection, opened or replaced as needed.

        A connection that was closed, or that the daemon closed, is replaced
        before anything is sent on it.
        """
        connection = getattr(self._local, "connection", None)
        if connection is not None and (
            connection.sock is None or _readable(connection.sock)
        ):
            connection.close()
            connection = None
        if connection is None:
            connection = self._local.connection = self._connect()
            weakref.finalize(connection, connection.sock.close)
            with self._kept_mutex:
                self._kept.add(connection)
        return connection

    def _open(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None,
        *,
        keep: bool = True,
    ) -> tuple[HTTPConnection, HTTPResponse]:
        """Send one request; ``(connection, response)`` with the body unread.

        With *keep*, the request goes out on the calling thread's kept
        connection; otherwise on a new one that the caller closes.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._kept_connection() if keep else self._connect()
        try:
            connection.request(method, path, body=body, headers=headers)
            return connection, connection.getresponse()
        except (OSError, HTTPException) as error:
            # The daemon may have executed the request: never re-send it.
            connection.close()
            raise ServeError(
                f"{method} {path} to repro serve at {self._host}:{self._port} "
                f"failed: {error}"
            ) from None

    @staticmethod
    def _raise_for_error(status: int, payload: Mapping[str, Any]) -> None:
        if status == 200 and payload.get("ok"):
            return
        message = payload.get("error", f"server returned HTTP {status}")
        error_type = _ERROR_TYPES.get(payload.get("code"), ServeError)
        raise error_type(message)

    def _call(self, method: str, path: str, payload: Mapping[str, Any] | None = None):
        connection, response = self._open(method, path, payload)
        try:
            raw = response.read()
        except (OSError, HTTPException) as error:
            connection.close()
            raise ServeError(
                f"{method} {path} to repro serve at {self._host}:{self._port} "
                f"failed mid-response: {error}"
            ) from None
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError:
            raise ServeError(
                f"malformed response from {path} (HTTP {response.status})"
            ) from None
        self._raise_for_error(response.status, decoded)
        return decoded

    def _request_payload(self, spec, **fields: Any) -> dict[str, Any]:
        payload: dict[str, Any] = {"spec": _spec_fields(spec)}
        if self._tenant is not None:
            payload["tenant"] = self._tenant
        payload.update(
            (name, value) for name, value in fields.items() if value is not None
        )
        return payload

    # -- endpoints ---------------------------------------------------------
    def run(
        self,
        spec: AgreementSpec | Mapping[str, Any],
        vector: Sequence[Any],
        *,
        algorithm: str | None = None,
        backend: str | None = None,
        schedule: str | None = None,
        seed: int | None = None,
        crashes: int | None = None,
        max_steps: int | None = None,
        adversary: str | None = None,
        crash_steps: Mapping[int, int] | None = None,
    ) -> RunResult:
        """``POST /run``: one vector on the server's warm engine."""
        payload = self._request_payload(
            spec,
            vector=list(vector),
            algorithm=algorithm,
            backend=backend,
            schedule=schedule,
            seed=seed,
            crashes=crashes,
            max_steps=max_steps,
            adversary=adversary,
            crash_steps=crash_steps,
        )
        decoded = self._call("POST", "/run", payload)
        return RunResult.from_record(decoded["result"])

    def run_batch(
        self,
        spec: AgreementSpec | Mapping[str, Any],
        vectors: Sequence[Sequence[Any]],
        *,
        algorithm: str | None = None,
        backend: str | None = None,
        schedule: str | None = None,
        seed: int | None = None,
        crashes: int | None = None,
        max_steps: int | None = None,
        adversary: str | None = None,
        crash_steps: Mapping[int, int] | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
    ) -> list[RunResult]:
        """``POST /batch``: many vectors in one request.

        Concurrent same-recipe calls may be coalesced server-side into one
        engine batch; results are byte-identical either way (run *i* uses
        seed ``seed + i``, exactly like a direct
        :meth:`~repro.api.Engine.run_batch` with base seed *seed*).
        """
        payload = self._request_payload(
            spec,
            vectors=[list(vector) for vector in vectors],
            algorithm=algorithm,
            backend=backend,
            schedule=schedule,
            seed=seed,
            crashes=crashes,
            max_steps=max_steps,
            adversary=adversary,
            crash_steps=crash_steps,
            workers=workers,
            chunk_size=chunk_size,
        )
        decoded = self._call("POST", "/batch", payload)
        return [RunResult.from_record(record) for record in decoded["results"]]

    def iter_batch(
        self,
        spec: AgreementSpec | Mapping[str, Any],
        vectors: Sequence[Sequence[Any]],
        **options: Any,
    ) -> Iterator[RunResult]:
        """``POST /batch`` with ``stream=true``: yield results as NDJSON lines.

        Results arrive (and are yielded) while the server is still executing
        the tail of the batch.  The stream runs on a connection of its own,
        closed at its end.  Takes the same keyword options as
        :meth:`run_batch`.
        """
        payload = self._request_payload(
            spec,
            vectors=[list(vector) for vector in vectors],
            stream=True,
            **{name: value for name, value in options.items() if value is not None},
        )
        connection, response = self._open("POST", "/batch", payload, keep=False)
        try:
            if response.status != 200:
                decoded = json.loads(response.read())
                self._raise_for_error(response.status, decoded)
            yield from self._read_stream(response)
        finally:
            connection.close()

    @staticmethod
    def _read_stream(response: HTTPResponse) -> Iterator[RunResult]:
        for line in response:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "__error__" in record:
                raise ServeError(f"batch failed mid-stream: {record['__error__']}")
            yield RunResult.from_record(record)

    def sweep(
        self,
        spec: AgreementSpec | Mapping[str, Any],
        grid: Mapping[str, Sequence[Any]],
        runs_per_cell: int = 4,
        *,
        algorithm: str | None = None,
        backend: str | None = None,
        schedule: str | None = None,
        seed: int | None = None,
        vectors_mode: str | None = None,
        workers: int | None = None,
        adversary: str | None = None,
    ) -> list[dict[str, Any]]:
        """``POST /sweep``: a parameter grid; returns plain cell records.

        Each record has the persisted cell shape: ``overrides``, ``error``,
        ``spec`` and ``results`` (run records).
        """
        # ``list`` would split a string or mapping axis the daemon refuses.
        axes = {
            name: values if isinstance(values, (str, Mapping)) else list(values)
            for name, values in grid.items()
        }
        payload = self._request_payload(
            spec,
            grid=axes,
            runs_per_cell=runs_per_cell,
            algorithm=algorithm,
            backend=backend,
            schedule=schedule,
            seed=seed,
            vectors_mode=vectors_mode,
            workers=workers,
            adversary=adversary,
        )
        return self._call("POST", "/sweep", payload)["cells"]

    def check(
        self,
        spec: AgreementSpec | Mapping[str, Any],
        *,
        algorithm: str | None = None,
        backend: str | None = None,
        rounds: int | None = None,
        depth: int | None = None,
        max_crashes: int | None = None,
        adversary: str | None = None,
        max_faults: int | None = None,
        max_vectors: int | None = None,
        all_vectors_limit: int | None = None,
        max_counterexamples: int | None = None,
        workers: int | None = None,
    ) -> dict[str, Any]:
        """``POST /check``: exhaustive verification on the server.

        ``adversary``/``max_faults`` select the failure-model family and
        fault budget of a ``backend="net"`` check.  Returns ``{"passed":
        bool, "backend": ..., "report": <report record>, "render": <human
        summary>}``.
        """
        payload = self._request_payload(
            spec,
            algorithm=algorithm,
            backend=backend,
            rounds=rounds,
            depth=depth,
            max_crashes=max_crashes,
            adversary=adversary,
            max_faults=max_faults,
            max_vectors=max_vectors,
            all_vectors_limit=all_vectors_limit,
            max_counterexamples=max_counterexamples,
            workers=workers,
        )
        decoded = self._call("POST", "/check", payload)
        return {
            "passed": decoded["passed"],
            "backend": decoded["backend"],
            "report": decoded["report"],
            "render": decoded["render"],
        }

    def status(self) -> dict[str, Any]:
        """``GET /status``: the server's monitoring snapshot."""
        decoded = self._call("GET", "/status")
        decoded.pop("ok", None)
        return decoded

    def shutdown(self) -> None:
        """``POST /shutdown``: ask the daemon to stop gracefully."""
        self._call("POST", "/shutdown", {})
