"""Tests for parallel batch execution, the result store, and the PR's bugfixes.

Covers the two fixed defects — the condition algebra now composes with the
engine's :class:`~repro.api.MemoizedCondition` oracle, and
``run_batch(chunk_size=...)`` rejects values below 1 loudly — plus the
parallel subsystem's contract: ``workers=4`` produces the exact
:class:`~repro.api.RunResult` sequence of the serial path on both backends,
also under the ``spawn`` and ``forkserver`` start methods, worker cache
statistics merge back into the parent engine, and
:class:`~repro.store.ResultStore` round-trips results and sweep cells
exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import AgreementSpec, Engine, MemoizedCondition, RunConfig, RunResult
from repro.api.conditions import resolve_condition
from repro.core import ExplicitCondition, InputVector
from repro.core.algebra import UnionCondition
from repro.exceptions import InvalidParameterError, StoreError
from repro.store import ResultStore
from repro.workloads.scenarios import fast_path_scenario
from repro.workloads.vectors import vector_in_max_condition

SPEC = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10)
SMALL = AgreementSpec(n=6, t=3, k=2, d=2, ell=1, domain=4)


def _vectors(count: int, spec: AgreementSpec = SPEC) -> list[InputVector]:
    return [
        vector_in_max_condition(spec.n, spec.domain, spec.x, spec.ell, seed)
        for seed in range(count)
    ]


def _records(results) -> list[dict]:
    return [result.to_record() for result in results]


class TestMemoizedConditionAlgebra:
    """Bugfix: the condition algebra works on the engine's memoized oracle."""

    def test_union_operator_on_engine_condition(self):
        engine = Engine(SMALL, "condition-kset")
        other = resolve_condition(SMALL.replace(condition="min-legal"))
        union = engine.condition | other
        assert isinstance(union, UnionCondition)
        # The union composes the *wrapped* oracles, not the memo proxy.
        assert engine.condition.inner in union.operands
        vector = InputVector([4, 4, 4, 4, 1, 2])
        assert union.contains(vector)

    def test_reflected_union(self):
        engine = Engine(SMALL, "condition-kset")
        other = resolve_condition(SMALL.replace(condition="min-legal"))
        assert isinstance(other | engine.condition, UnionCondition)

    def test_intersection_and_difference_operators(self):
        engine = Engine(SMALL, "condition-kset")
        other = resolve_condition(SMALL.replace(condition="min-legal"))
        intersection = engine.condition & other
        difference = engine.condition - other
        assert isinstance(intersection, ExplicitCondition)
        assert isinstance(difference, ExplicitCondition)
        assert len(intersection) + len(difference) == engine.condition.size()
        for vector in list(difference)[:16]:
            assert engine.condition.contains(vector) and not other.contains(vector)

    def test_restrict_delegates_to_wrapped_oracle(self):
        engine = Engine(SMALL, "condition-kset")
        restricted = engine.condition.restrict(lambda v: max(v.entries) == 4)
        assert all(max(v.entries) == 4 for v in restricted)

    def test_both_operands_memoized(self):
        left = Engine(SMALL, "condition-kset").condition
        right = Engine(SMALL.replace(condition="min-legal"), "condition-kset").condition
        union = left | right
        assert isinstance(union, UnionCondition)
        assert not any(isinstance(op, MemoizedCondition) for op in union.operands)

    def test_forwarded_attributes_cover_samplers_and_algebra(self):
        oracle = Engine(SMALL, "condition-kset").condition
        assert oracle.n == SMALL.n
        assert oracle.x == SMALL.x
        assert oracle.domain.size == SMALL.domain
        assert oracle.recognizer is oracle.inner.recognizer
        assert oracle.size() == oracle.inner.size()
        assert next(iter(oracle.enumerate_vectors())) in oracle.inner
        explicit = oracle.to_explicit()
        assert len(explicit) == oracle.size()

    def test_unknown_attribute_still_raises(self):
        oracle = Engine(SMALL, "condition-kset").condition
        with pytest.raises(AttributeError):
            oracle.no_such_attribute

    def test_operator_with_non_oracle_raises_type_error(self):
        oracle = Engine(SMALL, "condition-kset").condition
        with pytest.raises(TypeError):
            oracle | 42


class TestChunkSizeValidation:
    """Bugfix: chunk_size below 1 is rejected, not silently defaulted."""

    @pytest.mark.parametrize("bad", [0, -1, -64, 2.5, "8"])
    def test_invalid_chunk_size_rejected(self, bad):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError, match="chunk_size"):
            engine.run_batch(_vectors(2), chunk_size=bad)

    def test_none_uses_config_default(self):
        engine = Engine(SPEC, "condition-kset")
        assert len(engine.run_batch(_vectors(3), chunk_size=None)) == 3

    def test_chunk_size_one_is_valid(self):
        engine = Engine(SPEC, "condition-kset")
        assert len(engine.run_batch(_vectors(3), chunk_size=1)) == 3


class TestWorkersValidation:
    def test_config_workers_validated(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            RunConfig(workers=0)
        with pytest.raises(InvalidParameterError, match="workers"):
            RunConfig(workers=-2)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_call_workers_validated(self, bad):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError, match="workers"):
            engine.run_batch(_vectors(2), workers=bad)


class TestParallelDeterminism:
    """workers=4 returns the byte-identical result sequence of the serial path."""

    def test_sync_backend_parity(self):
        vectors = _vectors(12)
        serial = Engine(SPEC, "condition-kset").run_batch(
            vectors, "round-one", chunk_size=3
        )
        parallel = Engine(SPEC, "condition-kset").run_batch(
            vectors, "round-one", chunk_size=3, workers=4
        )
        assert _records(serial) == _records(parallel)

    def test_async_backend_parity(self):
        vectors = _vectors(8)
        config = RunConfig(backend="async")
        serial = Engine(SPEC, "condition-kset", config).run_batch(vectors, chunk_size=2)
        parallel = Engine(SPEC, "condition-kset", config).run_batch(
            vectors, chunk_size=2, workers=4
        )
        assert _records(serial) == _records(parallel)

    def test_config_workers_used_as_default(self):
        vectors = _vectors(6)
        serial = Engine(SPEC, "condition-kset").run_batch(vectors)
        parallel = Engine(SPEC, "condition-kset", RunConfig(workers=2)).run_batch(vectors)
        assert _records(serial) == _records(parallel)

    def test_worker_cache_stats_merge_back(self):
        vectors = _vectors(10)
        engine = Engine(SPEC, "condition-kset")
        engine.run_batch(vectors, workers=2, chunk_size=2)
        stats = engine.cache_stats()
        # Every run answers membership + per-round oracle queries somewhere;
        # with merged worker deltas the parent's counters see all of them.
        assert stats["contains"].calls == len(vectors)
        assert stats["decode"].calls > 0

    def test_iter_batch_streams_in_order(self):
        vectors = _vectors(9)
        engine = Engine(SPEC, "condition-kset")
        expected = _records(engine.run_batch(vectors, chunk_size=2))
        streamed = []
        for result in engine.iter_batch(vectors, chunk_size=2, workers=3):
            assert isinstance(result, RunResult)
            streamed.append(result)
        assert _records(streamed) == expected

    def test_sweep_parity(self):
        grid = {"d": (1, 2), "k": (1, 2)}
        serial = Engine(SMALL, "condition-kset").sweep(grid, runs_per_cell=2)
        parallel = Engine(SMALL, "condition-kset").sweep(grid, runs_per_cell=2, workers=3)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.overrides == b.overrides
            assert a.error == b.error
            assert _records(a.results) == _records(b.results)

    def test_sweep_parity_includes_error_cells(self):
        grid = {"d": (1, 9)}  # d=9 > t is an invalid combination
        serial = Engine(SMALL, "condition-kset").sweep(grid, runs_per_cell=1)
        parallel = Engine(SMALL, "condition-kset").sweep(grid, runs_per_cell=1, workers=2)
        assert [c.error for c in serial] == [c.error for c in parallel]
        assert serial[1].error is not None

    def test_sweep_takes_any_iterable_axis_and_refuses_a_malformed_grid(self):
        engine = Engine(SMALL, "condition-kset")
        expected = engine.sweep({"d": (1, 2), "k": (1, 2)}, runs_per_cell=1)
        lazy = engine.sweep({"d": (d for d in (1, 2)), "k": range(1, 3)}, runs_per_cell=1)
        assert [cell.overrides for cell in lazy] == [cell.overrides for cell in expected]
        malformed = [{}, {"d": ()}, {"d": "12"}, {"d": {1: "a"}}, {"d": 1}]
        for grid in malformed:
            with pytest.raises(InvalidParameterError):
                engine.sweep(grid, runs_per_cell=1)
        with pytest.raises(InvalidParameterError, match="runs_per_cell must be >= 0"):
            engine.sweep({"d": (1,)}, runs_per_cell=-1)

    def test_scenario_batch_parity(self):
        scenario = fast_path_scenario(n=8, m=10, t=4, d=2, ell=1, k=2)
        assert _records(scenario.batch(5)) == _records(scenario.batch(5, workers=2))


class TestResultRecordRoundTrip:
    def test_sync_record_round_trip(self):
        engine = Engine(SPEC, "condition-kset")
        result = engine.run(_vectors(1)[0], "round-one", seed=3)
        reloaded = RunResult.from_record(result.to_record())
        assert reloaded.to_record() == result.to_record()
        assert reloaded.decisions == result.decisions
        assert reloaded.input_vector == result.input_vector
        assert reloaded.crashed == result.crashed
        assert reloaded.schedule.events == result.schedule.events
        assert reloaded.raw is None and reloaded.trace is None

    def test_async_record_round_trip(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(backend="async"))
        result = engine.run(_vectors(1)[0])
        reloaded = RunResult.from_record(result.to_record())
        assert reloaded.to_record() == result.to_record()
        assert reloaded.time_unit == "steps"

    def test_malformed_record_raises(self):
        with pytest.raises(InvalidParameterError, match="malformed"):
            RunResult.from_record({"algorithm": "x"})


class TestResultStore:
    def test_write_then_load_preserves_results_exactly(self, tmp_path):
        engine = Engine(SPEC, "condition-kset")
        results = engine.run_batch(_vectors(6), "round-one")
        store = ResultStore(tmp_path / "runs.jsonl")
        assert store.extend(results) == 6
        assert _records(store.load_results()) == _records(results)
        assert store.resume_index() == 6
        assert len(store) == 6

    def test_engine_appends_while_running(self, tmp_path):
        store = ResultStore(tmp_path / "nested" / "runs.jsonl")
        engine = Engine(SPEC, "condition-kset")
        results = engine.run_batch(_vectors(4), store=store)
        assert _records(store.load_results()) == _records(results)

    def test_parallel_batch_persists_in_order(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        engine = Engine(SPEC, "condition-kset")
        results = engine.run_batch(_vectors(8), chunk_size=2, workers=3, store=store)
        assert _records(store.load_results()) == _records(results)

    def test_resume_pattern_completes_the_batch(self, tmp_path):
        vectors = _vectors(10)
        store = ResultStore(tmp_path / "runs.jsonl")
        full = Engine(SPEC, "condition-kset").run_batch(vectors)
        # First attempt dies after 4 runs...
        Engine(SPEC, "condition-kset").run_batch(vectors[:4], store=store)
        # ...the resume shifts the base seed by what is already persisted.
        done = store.resume_index()
        assert done == 4
        config = RunConfig(seed=done)
        Engine(SPEC, "condition-kset", config).run_batch(vectors[done:], store=store)
        assert _records(store.load_results()) == _records(full)

    def test_sweep_cells_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "cells.jsonl")
        cells = Engine(SMALL, "condition-kset").sweep(
            {"d": (1, 9)}, runs_per_cell=2, store=store
        )
        loaded = store.load_cells()
        assert len(loaded) == len(cells) == 2
        for original, reloaded in zip(cells, loaded):
            assert reloaded.spec == original.spec
            assert reloaded.overrides == original.overrides
            assert reloaded.error == original.error
            assert _records(reloaded.results) == _records(original.results)
        assert store.counts() == {"cell": 2}

    def test_interrupted_sweep_keeps_finished_cells(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cells.jsonl")
        engine = Engine(SMALL, "condition-kset")
        original = Engine._sweep_cell

        def dies_on_second_cell(self, overrides, index, *args, **kwargs):
            if index == 1:
                raise RuntimeError("simulated interruption")
            return original(self, overrides, index, *args, **kwargs)

        monkeypatch.setattr(Engine, "_sweep_cell", dies_on_second_cell)
        with pytest.raises(RuntimeError):
            engine.sweep({"d": (1, 2, 3)}, runs_per_cell=1, store=store)
        persisted = store.load_cells()
        assert len(persisted) == 1
        assert persisted[0].overrides == {"d": 1}

    def test_context_manager_closes_handle(self, tmp_path):
        results = Engine(SPEC, "condition-kset").run_batch(_vectors(2))
        with ResultStore(tmp_path / "runs.jsonl") as store:
            store.extend(results)
        assert store._handle is None
        store.append(results[0])  # a closed store reopens transparently
        assert store.resume_index() == 3

    def test_missing_file_reads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert store.load_results() == []
        assert store.resume_index() == 0
        assert len(store) == 0

    def test_malformed_line_raises_store_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "run"\nnot json\n')
        with pytest.raises(StoreError, match="malformed JSON"):
            list(ResultStore(path).iter_records())

    def test_corrupt_run_record_raises_store_error(self, tmp_path):
        import json

        engine = Engine(SPEC, "condition-kset", RunConfig(crashes=2))
        record = engine.run(_vectors(1)[0], "round-one", seed=1).to_record()
        record["kind"] = "run"
        record["schedule"][0]["process_id"] = -1  # valid JSON, invalid domain
        path = tmp_path / "corrupt.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="malformed run record"):
            ResultStore(path).load_results()

    def test_record_without_kind_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"algorithm": "x"}\n')
        with pytest.raises(StoreError, match="kind"):
            list(ResultStore(path).iter_records())

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.extend(Engine(SPEC, "condition-kset").run_batch(_vectors(2)))
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


class TestTornTrailingRecord:
    """A writer killed mid-record leaves a torn last line: reads skip it, and
    the next append starts on a fresh line instead of extending the fragment."""

    def test_truncation_at_every_offset_of_the_last_record(self, tmp_path):
        results = Engine(SPEC, "condition-kset").run_batch(_vectors(3))
        path = tmp_path / "runs.jsonl"
        with ResultStore(path) as store:
            store.extend(results)
        data = path.read_bytes()
        last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(last_start, len(data)):
            path.write_bytes(data[:cut])
            # Only the cut that drops nothing but the newline keeps the record.
            kept = results if cut == len(data) - 1 else results[:2]
            store = ResultStore(path)
            assert store.resume_index() == len(kept), cut
            assert _records(store.load_results()) == _records(kept), cut
            store.append(results[0])
            store.close()
            assert path.read_bytes().endswith(b"\n")
            reread = ResultStore(path).load_results()
            assert _records(reread) == _records([*kept, results[0]]), cut

    def test_interior_corruption_still_raises(self, tmp_path):
        results = Engine(SPEC, "condition-kset").run_batch(_vectors(2))
        path = tmp_path / "runs.jsonl"
        with ResultStore(path) as store:
            store.extend(results)
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first[: len(first) // 2] + b"\n" + second)
        with pytest.raises(StoreError, match=":1: malformed JSON"):
            ResultStore(path).resume_index()
        # A torn line that kept its newline is corruption too, even when last.
        path.write_bytes(first + second[: len(second) // 2] + b"\n")
        with pytest.raises(StoreError, match=":2: malformed JSON"):
            ResultStore(path).resume_index()


class TestResultStoreConcurrency:
    """Regression: concurrent appends must never interleave or drop lines.

    The serving daemon appends to one store from many handler threads; before
    the store grew its write lock, two threads flushing at once could split a
    JSON line.  The hammer drives enough threads through one store that a
    missing lock fails reliably, then proves every record landed intact.
    """

    def test_threaded_append_hammer(self, tmp_path):
        import threading

        store = ResultStore(tmp_path / "hammer.jsonl")
        results = Engine(SPEC, "condition-kset").run_batch(_vectors(8))
        per_thread, thread_count = 25, 8
        errors = []

        def hammer(offset):
            try:
                for index in range(per_thread):
                    store.append(results[(offset + index) % len(results)])
            except Exception as error:  # noqa: BLE001 - surfaced by the assert
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in range(thread_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # Every line parses and every record survived: no torn writes.
        reloaded = store.load_results()
        assert len(reloaded) == per_thread * thread_count
        expected = {_records([result])[0]["fingerprint"] for result in results}
        assert {record.fingerprint for record in reloaded} <= expected

    def test_tenant_stamp_and_filtering(self, tmp_path):
        plain = ResultStore(tmp_path / "mixed.jsonl")
        tenant_store = ResultStore(tmp_path / "mixed.jsonl", tenant="alice")
        results = Engine(SPEC, "condition-kset").run_batch(_vectors(2))
        plain.append(results[0])
        tenant_store.append(results[1])
        # The tenant-scoped view filters; all_tenants (and the plain store) see both.
        assert len(tenant_store.load_results()) == 1
        assert len(list(tenant_store.iter_records(all_tenants=True))) == 2
        assert len(plain.load_results()) == 2

    def test_for_tenant_layout_and_validation(self, tmp_path):
        store = ResultStore.for_tenant(tmp_path, "ci")
        assert store.path == tmp_path / "ci.jsonl"
        assert store.tenant == "ci"
        with pytest.raises(InvalidParameterError, match="tenant names"):
            ResultStore.for_tenant(tmp_path, "../escape")


class TestCli:
    def test_demo_workers_and_store(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "demo.jsonl"
        status = main(
            ["demo", "--n", "6", "--t", "2", "--d", "1", "--m", "6",
             "--runs", "4", "--workers", "2", "--store", str(path)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "batch            : 4 runs x 2 worker(s)" in out
        assert ResultStore(path).resume_index() == 4

    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cells.jsonl"
        status = main(
            ["sweep", "--n", "6", "--t", "2", "--d", "1", "--m", "6",
             "--grid", "d=1,2", "--grid", "k=1,2", "--runs-per-cell", "2",
             "--workers", "2", "--store", str(path)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "= 4 cells" in out
        assert len(ResultStore(path).load_cells()) == 4

    def test_sweep_requires_grid(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--n", "6", "--t", "2"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_parse_grid_types(self):
        from repro.cli import parse_grid

        grid = parse_grid(["d=1,2,3", "condition=max-legal,min-legal"])
        assert grid["d"] == (1, 2, 3)
        assert grid["condition"] == ("max-legal", "min-legal")

    def test_parse_grid_rejects_malformed(self):
        from repro.cli import parse_grid

        with pytest.raises(InvalidParameterError):
            parse_grid(["d"])
        with pytest.raises(InvalidParameterError):
            parse_grid(["d=1", "d=2"])


#: Starts an interpreter that runs one sharded check and prints, for each
#: pool it opened, whether the module named was already imported.
_POOL_PROGRAM = """
import json, sys
import repro.parallel
from repro.api import AgreementSpec, Engine

module, algorithm, spec, options = json.loads(sys.argv[1])
imported = []

class Pool(repro.parallel.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        imported.append(module in sys.modules)
        super().__init__(*args, **kwargs)

repro.parallel.ProcessPoolExecutor = Pool
report = Engine(AgreementSpec(**spec), algorithm).check(workers=2, **options)
print(json.dumps([imported, report.passed]))
"""

_NET_CHECK = ("floodmin", {"n": 3, "t": 1, "k": 1, "d": 1, "domain": 2},
              {"backend": "net", "adversary": "send-omission"})
_ASYNC_CHECK = ("async-condition", {"n": 3, "t": 1, "k": 1, "d": 0, "domain": 2},
                {"backend": "async", "depth": 2})
_SYNC_CHECK = ("condition-kset", {"n": 3, "t": 1, "k": 1, "d": 1, "domain": 2}, {})


@pytest.mark.parametrize(
    "module, cell",
    [
        ("repro.net.runtime", _NET_CHECK),
        ("repro.asynchronous.executor", _ASYNC_CHECK),
        ("repro.algorithms.async_condition_set_agreement", _ASYNC_CHECK),
        ("repro.vec.evaluator", _SYNC_CHECK),
    ],
)
def test_a_sharded_check_imports_its_runtime_before_the_pool_forks(module, cell):
    """Forked workers inherit the parent's modules, so a runtime (or the
    packed evaluator of a vectorized sync check) the parent imported is not
    imported again in every worker."""
    root = Path(__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, "-c", _POOL_PROGRAM, json.dumps([module, *cell])],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout.splitlines()[-1]) == [[True], True]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_sharded_mutant_runs_match_serial_under_a_fresh_start_method(method):
    """Workers that import ``repro`` afresh start without the mutants; the
    one worker entry registers them for every task kind, so a sharded
    batch, sweep and check of one give the serial records
    (``start_method_parity.py``, which CI also runs on the installed
    package)."""
    root = Path(__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, str(root / "tests" / "start_method_parity.py"), method],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith(f"{method}: ")
