"""A lightweight persistent result store (JSONL append + reload).

Large batches and sweeps are long-running; losing everything to an
interruption at cell 190 of 200 is the difference between "re-run the night"
and "resume after breakfast".  :class:`ResultStore` persists execution
records as **append-only JSON Lines**: one self-describing JSON object per
line, written and flushed as each result completes, so a killed process
loses at most the record being written.  The torn trailing line such a kill
can leave is skipped on read, and cut off before the next append, so a
resumed writer never appends onto the fragment.

Five record kinds are stored:

* ``"run"`` — one :class:`~repro.api.RunResult`, serialized through
  :meth:`~repro.api.RunResult.to_record` (everything round-trips except the
  backend-native ``raw``/``trace`` drill-down objects, which reload as
  ``None``);
* ``"cell"`` — one :class:`~repro.api.engine.SweepCell`: its grid overrides,
  its derived spec (as field values) and its batch of run records;
* ``"counterexample"`` / ``"net-counterexample"`` /
  ``"async-counterexample"`` — one violation found by the exhaustive model
  checker (``Engine.check(..., store=...)``) over the sync, net or async
  adversary space: a :class:`~repro.check.Counterexample`, whose adversary
  keys hold the crash schedule, the exact fault assignment (which channels
  dropped / delayed / corrupted what) or the interleaving prefix and crash
  points.  :meth:`ResultStore.append_counterexample` writes it under the
  kind of its ``backend``, and :meth:`ResultStore.load_counterexamples`
  reloads all three kinds, refusing a record whose kind disagrees with its
  adversary keys; each replays through its ``replay()``.  The kind strings
  are the on-disk format.  A counterexample record is the durable form of a
  found bug — the workflow is to commit the store file as a regression
  fixture and replay it in a test.

The engine integrates the store directly — ``run_batch(..., store=...)`` /
``iter_batch(..., store=...)`` append every result as it is produced and
``sweep(..., store=...)`` appends every completed cell — and the resume
pattern is seed arithmetic, no bookkeeping: batch run *i* always executes
with seed ``config.seed + i``, so :meth:`ResultStore.resume_index` (the
number of persisted run records) is exactly how many input vectors to skip
and how much to shift the base seed when continuing an interrupted batch::

    store = ResultStore("batch.jsonl")
    done = store.resume_index()
    engine = Engine(spec, "condition-kset", config.replace(seed=config.seed + done))
    engine.run_batch(vectors[done:], store=store)   # picks up where it stopped
    results = store.load_results()                  # the full batch, merged

Stores are plain files: aggregate them offline with ``load_results()`` /
``load_cells()`` / ``iter_records()``, concatenate shards with ``cat``, and
version them like any other artifact.

Appends are serialised by a lock, so many threads (e.g. the request handlers
of :mod:`repro.serve`) can share one store without corrupting the JSONL
framing, and a ``tenant`` namespace (see :meth:`ResultStore.for_tenant`)
stamps and filters records per tenant for multi-tenant deployments.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .exceptions import InvalidParameterError, StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api.engine import SweepCell
    from .api.result import RunResult
    from .check.checker import Counterexample

__all__ = [
    "ResultStore",
    "RUN_KIND",
    "CELL_KIND",
    "COUNTEREXAMPLE_KIND",
    "ASYNC_COUNTEREXAMPLE_KIND",
    "NET_COUNTEREXAMPLE_KIND",
]

#: Record kinds written by the store.
RUN_KIND = "run"
CELL_KIND = "cell"
COUNTEREXAMPLE_KIND = "counterexample"
ASYNC_COUNTEREXAMPLE_KIND = "async-counterexample"
NET_COUNTEREXAMPLE_KIND = "net-counterexample"


def _json_default(value: Any) -> Any:
    """Serialize the non-JSON containers the records may carry."""
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    # The json.dumps default-hook protocol requires TypeError for unhandled
    # values; StoreError here would break the encoder's own error path.
    raise TypeError(  # repro: lint-ok[raise-builtin]
        f"value {value!r} of type {type(value).__name__} is not JSON-serializable"
    )


class ResultStore:
    """An append-only JSONL store of run results and sweep cells.

    Parameters
    ----------
    path:
        The backing file.  Parent directories are created on the first
        write; a missing file reads as an empty store.
    tenant:
        Optional namespace: when set, every written record is stamped with a
        ``"tenant"`` field and the reading methods only surface records of
        that tenant, so several tenants can safely share one file (or — the
        layout :func:`ResultStore.for_tenant` builds — one directory of
        per-tenant files).  ``None`` keeps the historical single-tenant
        behaviour: nothing is stamped, everything is read.

    Notes
    -----
    The appending file handle is opened on the first write and kept open —
    one open/close cycle per record would dominate a streamed million-run
    batch.  Every record is still flushed as it is written, so the crash
    guarantee is per record; :meth:`close` (or using the store as a context
    manager) releases the handle, and a closed store transparently reopens
    on the next write.

    Appends are **thread-safe**: a lock serialises the open-and-write of
    every record, so concurrent writers (the worker threads of
    :mod:`repro.serve`, or any threaded harness) can share one store without
    ever interleaving partial JSONL lines.
    """

    #: Tenant names must be safe as both record values and file stems.
    _TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

    def __init__(self, path: str | os.PathLike, tenant: str | None = None) -> None:
        self._path = Path(path)
        self._handle = None
        self._tenant = self._validate_tenant(tenant) if tenant is not None else None
        # Serialises handle management and record writes across threads: one
        # record, one atomic append, whatever the writer count.
        self._write_lock = threading.Lock()

    @staticmethod
    def _validate_tenant(tenant: str) -> str:
        if not isinstance(tenant, str) or not ResultStore._TENANT_PATTERN.match(tenant):
            raise InvalidParameterError(
                f"tenant names must match [A-Za-z0-9][A-Za-z0-9._-]*, got {tenant!r}"
            )
        return tenant

    @classmethod
    def for_tenant(cls, directory: str | os.PathLike, tenant: str) -> "ResultStore":
        """A tenant-namespaced store: ``<directory>/<tenant>.jsonl``.

        The per-tenant-file layout the :mod:`repro.serve` daemon uses: each
        tenant appends to its own file (no cross-tenant write contention, a
        tenant's data can be shipped or deleted as one file) and every record
        is still stamped with the tenant, so files concatenated across
        tenants remain separable.
        """
        tenant = cls._validate_tenant(tenant)
        return cls(Path(directory) / f"{tenant}.jsonl", tenant=tenant)

    @property
    def path(self) -> Path:
        """The backing JSONL file."""
        return self._path

    @property
    def tenant(self) -> str | None:
        """The namespace the store writes and reads, or ``None`` (all records)."""
        return self._tenant

    def __repr__(self) -> str:
        # No record count here: computing it re-reads the whole backing file
        # (and would make repr itself fail on a corrupt store).
        namespace = "" if self._tenant is None else f", tenant={self._tenant!r}"
        return f"ResultStore(path={str(self._path)!r}{namespace})"

    def __len__(self) -> int:
        """Total number of records (of any kind) in the store."""
        return sum(1 for _ in self.iter_records())

    def close(self) -> None:
        """Release the appending handle (reopened automatically on next write)."""
        with self._write_lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing -----------------------------------------------------------
    def _append_handle(self):
        if self._handle is None or self._handle.closed:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._end_on_record_boundary()
            self._handle = self._path.open("a", encoding="utf-8")
        return self._handle

    def _end_on_record_boundary(self) -> None:
        """Make the file end with a newline before the first append.

        A writer killed mid-record leaves an unterminated last line.  If it
        parses, only its newline was lost, and that is restored; otherwise
        the torn fragment is cut off.  Either way the next record starts a
        line of its own.  This assumes no other writer is mid-record on the
        same file.
        """
        try:
            handle = self._path.open("rb+")
        except FileNotFoundError:
            return
        with handle:
            end = handle.seek(0, os.SEEK_END)
            start = end  # becomes the offset of the last line
            while start > 0:
                step = min(start, 1 << 16)
                handle.seek(start - step)
                newline = handle.read(step).rfind(b"\n")
                if newline != -1:
                    start -= step - newline - 1
                    break
                start -= step
            if start == end:
                return  # empty, or already ends with a newline
            handle.seek(start)
            try:
                json.loads(handle.read())
            except ValueError:
                handle.truncate(start)
            else:
                handle.write(b"\n")

    def _write_lines(self, records: Iterable[dict[str, Any]]) -> int:
        written = 0
        try:
            with self._write_lock:
                handle = self._append_handle()
                for record in records:
                    if self._tenant is not None:
                        record.setdefault("tenant", self._tenant)
                    handle.write(json.dumps(record, default=_json_default) + "\n")
                    handle.flush()
                    written += 1
        except TypeError as error:
            raise StoreError(f"cannot serialize record to JSON: {error}") from error
        except OSError as error:
            raise StoreError(f"cannot write to {self._path}: {error}") from error
        return written

    def append(self, result: "RunResult") -> None:
        """Persist one run result (flushed immediately)."""
        record = result.to_record()
        record["kind"] = RUN_KIND
        self._write_lines([record])

    def extend(self, results: Iterable["RunResult"]) -> int:
        """Persist many run results in one file session; returns the count."""

        def records():
            for result in results:
                record = result.to_record()
                record["kind"] = RUN_KIND
                yield record

        return self._write_lines(records())

    def append_cell(self, cell: "SweepCell") -> None:
        """Persist one sweep cell (its overrides, spec and run records)."""
        self._write_lines([{"kind": CELL_KIND, **cell.to_record()}])

    def append_counterexample(self, counterexample: "Counterexample") -> None:
        """Persist one model-checker counterexample of any backend (flushed
        immediately), under the record kind of its backend."""
        from .check.checker import Counterexample

        if not isinstance(counterexample, Counterexample):
            raise StoreError(
                f"cannot store {type(counterexample).__name__!r}: not a "
                "model-checker counterexample"
            )
        record = counterexample.to_record()
        record["kind"] = {
            "sync": COUNTEREXAMPLE_KIND,
            "net": NET_COUNTEREXAMPLE_KIND,
            "async": ASYNC_COUNTEREXAMPLE_KIND,
        }[counterexample.backend]
        self._write_lines([record])

    # -- reading -----------------------------------------------------------
    def iter_records(self, all_tenants: bool = False) -> Iterator[dict[str, Any]]:
        """Yield every record of the file as a dict, in write order.

        A tenant-namespaced store only yields its own tenant's records;
        *all_tenants* lifts the filter (for offline aggregation across a
        shared file).  An unparsable last line with no terminating newline
        is the record a killed writer was writing, and is skipped; any other
        unparsable line raises :class:`~repro.exceptions.StoreError`.
        """
        if not self._path.exists():
            return
        try:
            with self._path.open("r", encoding="utf-8") as handle:
                for line_number, raw in enumerate(handle, start=1):
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as error:
                        if not raw.endswith("\n"):
                            return  # the torn trailing record
                        raise StoreError(
                            f"{self._path}:{line_number}: malformed JSON record "
                            f"({error.msg})"
                        ) from error
                    if not isinstance(record, dict) or "kind" not in record:
                        raise StoreError(
                            f"{self._path}:{line_number}: record has no 'kind' field"
                        )
                    if (
                        not all_tenants
                        and self._tenant is not None
                        and record.get("tenant") != self._tenant
                    ):
                        continue
                    yield record
        except OSError as error:
            raise StoreError(f"cannot read {self._path}: {error}") from error

    def counts(self) -> dict[str, int]:
        """Number of records per kind, e.g. ``{"run": 120, "cell": 6}``."""
        totals: dict[str, int] = {}
        for record in self.iter_records():
            totals[record["kind"]] = totals.get(record["kind"], 0) + 1
        return totals

    def load_results(self) -> list["RunResult"]:
        """Rebuild every ``"run"`` record (top-level runs, not cell runs)."""
        from .api.result import RunResult
        from .exceptions import ReproError

        results: list[RunResult] = []
        for record in self.iter_records():
            if record["kind"] != RUN_KIND:
                continue
            try:
                results.append(RunResult.from_record(record))
            except (KeyError, TypeError, ReproError) as error:
                raise StoreError(f"malformed run record: {error!r}") from error
        return results

    def load_cells(self) -> list["SweepCell"]:
        """Rebuild every ``"cell"`` record into a :class:`SweepCell`."""
        from .api.engine import SweepCell
        from .exceptions import ReproError

        cells: list[SweepCell] = []
        for record in self.iter_records():
            if record["kind"] != CELL_KIND:
                continue
            try:
                cells.append(SweepCell.from_record(record))
            except (KeyError, TypeError, ReproError) as error:
                raise StoreError(f"malformed cell record: {error!r}") from error
        return cells

    def load_counterexamples(self) -> list["Counterexample"]:
        """Rebuild every counterexample record, of all three kinds, in write
        order; each replays.  A record whose kind is not that of the backend
        its adversary keys name is refused."""
        from .check.checker import Counterexample
        from .exceptions import ReproError

        backends = {
            COUNTEREXAMPLE_KIND: "sync",
            NET_COUNTEREXAMPLE_KIND: "net",
            ASYNC_COUNTEREXAMPLE_KIND: "async",
        }
        counterexamples: list[Counterexample] = []
        for record in self.iter_records():
            kind = record["kind"]
            if kind not in backends:
                continue
            try:
                counterexample = Counterexample.from_record(record)
            except (KeyError, TypeError, ReproError) as error:
                raise StoreError(f"malformed {kind} record: {error!r}") from error
            if counterexample.backend != backends[kind]:
                raise StoreError(
                    f"malformed {kind} record: it holds a {counterexample.backend} adversary"
                )
            counterexamples.append(counterexample)
        return counterexamples

    def resume_index(self) -> int:
        """How many top-level runs are already persisted.

        Combined with the engine's deterministic seed derivation
        (run *i* uses ``config.seed + i``) this is everything a resume
        needs: skip this many vectors and shift the base seed by it.
        """
        return sum(1 for record in self.iter_records() if record["kind"] == RUN_KIND)

    def clear(self) -> None:
        """Delete the backing file (the store then reads as empty)."""
        self.close()
        try:
            self._path.unlink(missing_ok=True)
        except OSError as error:
            raise StoreError(f"cannot delete {self._path}: {error}") from error
