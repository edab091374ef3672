"""Tests for the unified ``repro.api`` engine, registries and result record."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import (
    ALGORITHMS,
    SCHEDULES,
    AgreementSpec,
    Engine,
    Registry,
    RunConfig,
    RunResult,
    available_algorithms,
    available_schedules,
)
from repro.algorithms import FloodMinKSetAgreement
from repro.analysis import check_execution
from repro.check.mutants import (
    MUTANT_ECHOLESS_FLOODMIN,
    MUTANT_HASTY_ASYNC,
    MUTANT_HASTY_FLOODMIN,
    MUTANT_SILENT_FLOODMIN,
)
from repro.core import InputVector
from repro.exceptions import BackendError, InvalidParameterError, RegistryError
from repro.net import NetSystem
from repro.sync import CrashSchedule, SynchronousSystem, crashes_in_round_one, initial_crashes
from repro.workloads import vector_in_max_condition


SPEC = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10)
VECTOR = InputVector([7, 7, 7, 3, 2, 7, 1, 7])


class TestSpec:
    def test_derived_parameters(self):
        assert SPEC.x == 2
        assert SPEC.in_condition_bound() == 2
        assert SPEC.outside_condition_bound() == 3

    def test_d_defaults_to_t(self):
        spec = AgreementSpec(n=5, t=3, k=2)
        assert spec.d == 3 and spec.x == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AgreementSpec(n=4, t=4)  # t must be < n
        with pytest.raises(InvalidParameterError):
            AgreementSpec(n=4, t=2, d=3)  # d must be <= t
        with pytest.raises(InvalidParameterError):
            AgreementSpec(n=4, t=2, k=0)
        with pytest.raises(InvalidParameterError):
            RunConfig(backend="quantum")

    def test_condition_is_shared_across_equal_specs(self):
        other = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10)
        assert SPEC.condition_oracle() is other.condition_oracle()

    def test_replace(self):
        derived = SPEC.replace(d=3)
        assert derived.d == 3 and derived.n == SPEC.n
        assert SPEC.d == 2  # frozen original untouched


class TestRegistry:
    def test_expected_algorithms_registered(self):
        for name in (
            "condition-kset",
            "floodmin",
            "early-deciding",
            "condition-consensus",
            "async-condition",
        ):
            assert name in available_algorithms()

    def test_expected_schedules_registered(self):
        for name in ("none", "round-one", "initial", "staggered", "random"):
            assert name in available_schedules()

    def test_unknown_algorithm_error_lists_known_names(self):
        with pytest.raises(RegistryError) as excinfo:
            ALGORITHMS.get("raft")
        message = str(excinfo.value)
        assert "raft" in message and "condition-kset" in message

    def test_engine_is_built_from_a_registry_key_only(self):
        """An algorithm instance is not a key: the engine refuses it and
        names the keys it knows, so no result carries a name that fails to
        replay."""
        spec = AgreementSpec(n=6, t=2, k=2, d=1, ell=1, domain=6)
        with pytest.raises(RegistryError) as excinfo:
            Engine(spec, FloodMinKSetAgreement(t=2, k=2))
        assert "known algorithms: " + ", ".join(ALGORITHMS.names()) in str(excinfo.value)

    @pytest.mark.parametrize("name", [["floodmin"], {"algorithm": "floodmin"}])
    def test_an_unhashable_name_is_a_registry_error(self, name):
        """A JSON list or object where a key belongs is an unknown key, not
        a ``TypeError`` from the dictionary lookup."""
        with pytest.raises(RegistryError, match="known algorithms: "):
            Engine(SPEC, name)

    def test_unknown_schedule_error(self):
        with pytest.raises(RegistryError):
            SCHEDULES.get("byzantine")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.add("a", 1)
        with pytest.raises(RegistryError):
            registry.add("a", 2)

    def test_backend_support_flags(self):
        assert ALGORITHMS.get("condition-kset").supports("async")
        assert not ALGORITHMS.get("floodmin").supports("async")
        assert not ALGORITHMS.get("async-condition").supports("sync")

    def test_readme_table_matches_the_registry(self):
        """Every row of the README's algorithm table names its key's
        registered backends, and every built-in key has a row (the mutants
        some tests register are not built in)."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("| Algorithm key"))
        rows = {}
        for line in lines[header + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            key, backends, _ = (cell.strip() for cell in line.strip("|").split("|"))
            rows[key.strip("`")] = set(backends.split(" + "))
        built_in = {key for key in ALGORITHMS if not key.startswith("mutant-")}
        assert set(rows) == built_in
        for key, backends in rows.items():
            assert backends == set(ALGORITHMS.get(key).backends), key


class TestEngineRun:
    @pytest.mark.parametrize("runner", ["engine", "sync", "net"])
    def test_every_runner_refuses_bad_proposals_with_one_message(self, runner):
        """The engine and both round runtimes normalise through
        ``normalise_proposals``: the same refusals, word for word."""
        algorithm = FloodMinKSetAgreement(t=1, k=1)
        if runner == "engine":
            run = Engine(AgreementSpec(n=3, t=1, k=1, domain=3), "floodmin").run
        elif runner == "sync":
            run = SynchronousSystem(3, 1, algorithm).run
        else:
            system = NetSystem(3, 1, algorithm)

            def run(proposals):
                return system.run(proposals, "fault-free")

        with pytest.raises(InvalidParameterError, match=r"^expected 3 proposals, got 2$"):
            run([1, 2])
        with pytest.raises(InvalidParameterError, match=r"^no proposal for process 1$"):
            run({0: 1, 2: 3})

    def test_every_registered_algorithm_runs_through_one_call_path(self):
        consensus_spec = AgreementSpec(n=8, t=4, k=1, d=2, ell=1, domain=10)
        # The checker's mutants are broken on purpose (one never decides), and
        # whether they are registered depends on which tests ran before.
        mutants = {
            MUTANT_HASTY_FLOODMIN,
            MUTANT_ECHOLESS_FLOODMIN,
            MUTANT_SILENT_FLOODMIN,
            MUTANT_HASTY_ASYNC,
        }
        for name, entry in ALGORITHMS.items():
            if name in mutants:
                continue
            spec = consensus_spec if "consensus" in name else SPEC
            for backend in sorted(entry.backends):
                engine = Engine(spec, name, RunConfig(backend=backend))
                result = engine.run(VECTOR)
                assert isinstance(result, RunResult)
                assert result.algorithm == name
                assert result.backend == backend
                degree = engine.agreement_degree(backend)
                assert result.distinct_decision_count() <= degree
                assert result.decided_values() <= set(VECTOR.entries)
                assert result.terminated

    def test_unsupported_backend_raises(self):
        with pytest.raises(BackendError):
            Engine(SPEC, "floodmin").run(VECTOR, backend="async")
        with pytest.raises(BackendError):
            Engine(SPEC, "async-condition").run(VECTOR, backend="sync")

    def test_schedule_by_name_and_object(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(crashes=2))
        by_name = engine.run(VECTOR, "round-one")
        by_object = engine.run(VECTOR, crashes_in_round_one(8, 2, delivered_prefix=4))
        assert by_name.decisions == by_object.decisions
        assert by_name.failure_count == by_object.failure_count == 2

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            Engine(SPEC, "condition-kset").run([1, 2, 3])

    def test_section61_enforced_outside_degenerate_regime(self):
        # l > t − d with d != t is a user error, exactly as in the seed API...
        with pytest.raises(InvalidParameterError):
            Engine(AgreementSpec(n=8, t=4, k=3, d=3, ell=3, domain=10), "condition-kset")
        # ...while the documented classical d = t regime stays allowed.
        degenerate = Engine(AgreementSpec(n=8, t=4, k=2, d=4, ell=1, domain=10), "condition-kset")
        assert degenerate.run(VECTOR).terminated

    def test_staggered_schedule_honours_crash_budget(self):
        limited = Engine(
            SPEC, "condition-kset", RunConfig(schedule="staggered", crashes=1)
        ).run(VECTOR)
        assert limited.failure_count == 1
        full = Engine(SPEC, "condition-kset", RunConfig(schedule="staggered")).run(VECTOR)
        assert full.failure_count == SPEC.t

    def test_zero_max_steps_rejected(self):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError):
            engine.run(VECTOR, backend="async", max_steps=0)

    def test_membership_annotation(self):
        engine = Engine(SPEC, "condition-kset")
        assert engine.run(VECTOR).in_condition is True
        assert engine.run([8, 7, 6, 5, 4, 3, 2, 1]).in_condition is False
        assert Engine(SPEC, "floodmin").run(VECTOR).in_condition is None


class TestRunResultNormalization:
    def test_sync_async_parity(self):
        """The same spec + vector yields structurally identical records on
        both backends, modulo the declared time unit."""
        engine = Engine(SPEC, "condition-kset")
        sync_result = engine.run(VECTOR)
        async_result = engine.run(VECTOR, backend="async", seed=3)

        assert sync_result.time_unit == "rounds"
        assert async_result.time_unit == "steps"
        for result in (sync_result, async_result):
            assert result.n == SPEC.n and result.t == SPEC.t
            assert result.input_vector == VECTOR
            assert result.terminated
            assert result.in_condition is True
            assert result.correct_processes == frozenset(range(SPEC.n))
            assert set(result.decision_times) == set(result.decisions)
            assert result.duration > 0
            assert bool(check_execution(result, VECTOR, SPEC.k))
        # Both backends must agree on the decision itself here: the condition
        # decodes the dominant value 7 whatever the model.
        assert sync_result.decided_values() == async_result.decided_values()

    def test_raw_results_preserved(self):
        engine = Engine(SPEC, "condition-kset", RunConfig(record_trace=True))
        sync_result = engine.run(VECTOR)
        assert sync_result.raw is not None
        assert sync_result.raw.decisions == sync_result.decisions
        assert sync_result.trace is not None
        async_result = engine.run(VECTOR, backend="async")
        assert async_result.raw.total_steps == async_result.duration

    def test_max_steps_rejected_on_sync_backend(self):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError):
            engine.run(VECTOR, max_steps=5)
        # async accepts it: a tiny budget makes the run exhaust visibly.
        starved = engine.run(VECTOR, backend="async", max_steps=1)
        assert starved.time_unit == "steps"

    def test_beyond_resilience_async_crashes_block_not_crash(self):
        """> x never-scheduled processes voids the Section 4 guarantee: the
        run is legal, blocks, and reports terminated=False."""
        engine = Engine(SPEC, "condition-kset")
        overloaded = engine.run(
            VECTOR, initial_crashes(3, (5, 6, 7)), backend="async", max_steps=30
        )
        assert overloaded.in_condition is True
        assert not overloaded.terminated
        assert overloaded.decisions == {}

    def test_rounds_accessors_guarded_on_async(self):
        async_result = Engine(SPEC, "condition-kset").run(VECTOR, backend="async")
        with pytest.raises(InvalidParameterError):
            async_result.max_decision_round_of_correct()
        with pytest.raises(InvalidParameterError):
            _ = async_result.rounds_executed

    def test_crashed_processes_normalized(self):
        engine = Engine(SPEC, "condition-kset")
        schedule = initial_crashes(2, (6, 7))
        sync_result = engine.run(VECTOR, schedule)
        async_result = engine.run(VECTOR, schedule, backend="async", seed=5)
        assert sync_result.crashed == frozenset({6, 7})
        assert async_result.crashed == frozenset({6, 7})
        assert sync_result.correct_processes == async_result.correct_processes


class TestRunBatch:
    def _vectors(self, count: int = 12) -> list:
        return [
            vector_in_max_condition(SPEC.n, SPEC.domain, SPEC.x, SPEC.ell, seed)
            for seed in range(count)
        ]

    def test_batch_matches_individual_runs(self):
        vectors = self._vectors()
        engine = Engine(SPEC, "condition-kset")
        batch = engine.run_batch(vectors)
        singles = [Engine(SPEC, "condition-kset").run(v) for v in vectors]
        assert [r.decisions for r in batch] == [r.decisions for r in singles]
        assert [r.duration for r in batch] == [r.duration for r in singles]

    def test_determinism_under_fixed_seed(self):
        vectors = self._vectors()
        config = RunConfig(schedule="random", crashes=3, seed=42)
        first = Engine(SPEC, "condition-kset", config).run_batch(vectors)
        second = Engine(SPEC, "condition-kset", config).run_batch(vectors)
        assert [r.decisions for r in first] == [r.decisions for r in second]
        assert [sorted(r.crashed) for r in first] == [sorted(r.crashed) for r in second]
        assert [r.duration for r in first] == [r.duration for r in second]
        # A different base seed must change at least one adversary choice.
        other = Engine(SPEC, "condition-kset", config.replace(seed=43)).run_batch(vectors)
        assert [sorted(r.crashed) for r in first] != [sorted(r.crashed) for r in other]

    def test_async_batch_determinism(self):
        vectors = self._vectors(6)
        config = RunConfig(backend="async", seed=7)
        first = Engine(SPEC, "condition-kset", config).run_batch(vectors)
        second = Engine(SPEC, "condition-kset", config).run_batch(vectors)
        assert [r.decisions for r in first] == [r.decisions for r in second]
        assert [r.duration for r in first] == [r.duration for r in second]
        assert all(r.time_unit == "steps" for r in first)

    def test_chunking_does_not_change_results(self):
        vectors = self._vectors()
        plain = Engine(SPEC, "condition-kset").run_batch(vectors)
        chunked = Engine(SPEC, "condition-kset").run_batch(vectors, chunk_size=5)
        assert [r.decisions for r in plain] == [r.decisions for r in chunked]

    def test_schedule_pairing_validated(self):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError):
            engine.run_batch([VECTOR, VECTOR], ["none"])  # too few schedules
        with pytest.raises(InvalidParameterError):
            engine.run_batch([VECTOR], ["none", "none"])  # too many schedules

    def test_infinite_schedule_stream_accepted(self):
        import itertools

        vectors = self._vectors(4)
        broadcast = Engine(SPEC, "condition-kset").run_batch(
            vectors, itertools.repeat("none")
        )
        plain = Engine(SPEC, "condition-kset").run_batch(vectors, "none")
        assert [r.decisions for r in broadcast] == [r.decisions for r in plain]

    def test_streaming_generators_accepted(self):
        vectors = self._vectors(6)
        eager = Engine(SPEC, "condition-kset").run_batch(vectors, "round-one")
        lazy = Engine(SPEC, "condition-kset").run_batch(
            (v for v in vectors), ("round-one" for _ in vectors), chunk_size=2
        )
        assert [r.decisions for r in lazy] == [r.decisions for r in eager]

    def test_memoization_shares_condition_work(self):
        vectors = self._vectors(4)
        engine = Engine(SPEC, "condition-kset")
        engine.run_batch(vectors * 5)
        stats = engine.cache_stats()
        # 20 runs over 4 distinct failure-free vectors: membership computed 4
        # times, answered from the cache 16 times; decodes collapse likewise.
        assert stats["contains"].misses == 4
        assert stats["contains"].hits == 16
        assert stats["decode"].hits > stats["decode"].misses


class TestSweep:
    def test_grid_produces_cells(self):
        engine = Engine(SPEC, "condition-kset")
        cells = engine.sweep({"d": (1, 2), "k": (2, 3)}, runs_per_cell=2)
        assert len(cells) == 4
        for cell in cells:
            assert cell.error is None
            assert cell.runs == 2
            assert cell.max_distinct_decisions() <= cell.spec.k
            assert cell.in_condition_count() == cell.runs
            assert cell.all_terminated()

    def test_invalid_cells_reported_not_raised(self):
        engine = Engine(SPEC, "condition-kset")
        cells = engine.sweep({"d": (2, 99)}, runs_per_cell=1)
        assert cells[0].error is None
        assert cells[1].error is not None and "InvalidParameterError" in cells[1].error
        # The errored cell names the combination that failed, not the fallback spec.
        assert cells[1].overrides == {"d": 99}
        assert cells[0].overrides == {"d": 2}

    def test_knob_the_backend_does_not_take_raises_before_any_cell(self, monkeypatch):
        started = []
        original = Engine._sweep_cell

        def counting(self, overrides, index, *args, **kwargs):
            started.append(index)
            return original(self, overrides, index, *args, **kwargs)

        monkeypatch.setattr(Engine, "_sweep_cell", counting)
        engine = Engine(AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2), "condition-kset")
        with pytest.raises(InvalidParameterError, match="sync backend"):
            engine.sweep({"k": (1,)}, 1, net_adversary="message-loss")
        assert started == []

    def test_unknown_schedule_name_raises_before_any_cell(self, monkeypatch):
        """Like a typo'd grid key, a typo'd schedule name fails the sweep,
        not every cell."""
        started = []
        original = Engine._sweep_cell

        def counting(self, overrides, index, *args, **kwargs):
            started.append(index)
            return original(self, overrides, index, *args, **kwargs)

        monkeypatch.setattr(Engine, "_sweep_cell", counting)
        engine = Engine(AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2), "condition-kset")
        with pytest.raises(RegistryError, match="unknown schedule 'no-such-schedule'"):
            engine.sweep({"k": (1,)}, 1, schedule="no-such-schedule")
        assert started == []


class TestRunKnobs:
    """One table decides which backend takes which knob, checked once per call."""

    @pytest.mark.parametrize(
        "backend, knobs",
        [
            ("sync", {"max_steps": 5}),
            ("sync", {"async_adversary": "round-robin"}),
            ("sync", {"crash_steps": {0: 1}}),
            ("sync", {"net_adversary": "message-loss"}),
            ("net", {"max_steps": 5}),
            ("net", {"async_adversary": "round-robin"}),
            ("net", {"crash_steps": {0: 1}}),
            ("async", {"net_adversary": "message-loss"}),
        ],
    )
    def test_a_knob_the_backend_does_not_take_is_refused(self, backend, knobs):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError, match=f"{backend} backend"):
            engine.run(VECTOR, backend=backend, **knobs)
        if "max_steps" not in knobs:
            with pytest.raises(InvalidParameterError, match=f"{backend} backend"):
                engine.run_batch([VECTOR], backend=backend, **knobs)

    def test_iter_batch_refuses_when_called(self):
        engine = Engine(SPEC, "condition-kset")
        with pytest.raises(InvalidParameterError, match="sync backend"):
            engine.iter_batch([VECTOR], net_adversary="message-loss")


class TestIntegerRunParameters:
    """Every integer run parameter is an ``int``, never a ``bool`` or float."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"crashes": "x"},
            {"crashes": 1.5},
            {"seed": "x"},
            {"max_steps_per_process": True},
            {"chunk_size": True},
            {"workers": True},
        ],
    )
    def test_run_config_fields(self, fields):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            RunConfig(**fields)

    @pytest.mark.parametrize(
        "call",
        [
            lambda engine: engine.run(VECTOR, backend="async", max_steps=True),
            lambda engine: engine.run(VECTOR, backend="async", max_steps=2.5),
            lambda engine: engine.run(VECTOR, backend="async", crash_steps={1: True}),
            lambda engine: engine.run(VECTOR, backend="async", crash_steps={True: 1}),
            lambda engine: engine.run(VECTOR, seed="x"),
            lambda engine: engine.run_batch([VECTOR], workers=True),
            lambda engine: engine.run_batch([VECTOR], chunk_size=True),
            lambda engine: engine.run_batch([VECTOR], seeds=[True]),
            lambda engine: engine.sweep({"k": (2,)}, 1, seed=True),
            lambda engine: engine.sweep({"k": (2,)}, True),
        ],
    )
    def test_per_call_parameters(self, call):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call(Engine(SPEC, "condition-kset"))

    def test_ranges_are_unchanged(self):
        with pytest.raises(InvalidParameterError, match=">= 0"):
            RunConfig(crashes=-1)
        engine = Engine(SPEC, "condition-kset")
        assert engine.run(VECTOR, seed=-3).terminated
        assert [cell.runs for cell in engine.sweep({"k": (2,)}, 0)] == [0]


class TestLegacyBridge:
    def test_schedule_revalidated_after_garbage_collection(self):
        """A recycled id() must not let an invalid schedule skip validation."""
        from repro.exceptions import AdversaryError

        engine = Engine(SPEC, "condition-kset")
        for _ in range(50):
            engine.run(VECTOR, crashes_in_round_one(8, 2, delivered_prefix=4))
        bad = CrashSchedule.from_events(
            # 6 crashes with t = 4: must be rejected whatever address the
            # schedule object landed on.
            [crashes_in_round_one(8, 6, delivered_prefix=0).events[pid] for pid in range(2, 8)]
        )
        with pytest.raises(AdversaryError):
            engine.run(VECTOR, bad)

    def test_old_constructors_still_work(self):
        """The seed call path remains available, shim-free."""
        from repro import ConditionBasedKSetAgreement, SynchronousSystem

        algorithm = ConditionBasedKSetAgreement(
            condition=SPEC.condition_oracle(), t=SPEC.t, d=SPEC.d, k=SPEC.k
        )
        system = SynchronousSystem(n=SPEC.n, t=SPEC.t, algorithm=algorithm)
        old = system.run(VECTOR)
        new = Engine(SPEC, "condition-kset").run(VECTOR)
        assert old.decisions == new.decisions
        assert old.rounds_executed == new.duration


class TestPackageSurface:
    def test_dir_exposes_lazy_names(self):
        visible = dir(repro)
        for name in (
            "SynchronousSystem",
            "ConditionBasedKSetAgreement",
            "Engine",
            "AgreementSpec",
            "RunConfig",
            "RunResult",
        ):
            assert name in visible

    def test_lazy_names_resolve(self):
        assert repro.Engine is Engine
        assert repro.AgreementSpec is AgreementSpec

    def test_python_dash_m_repro(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
        )
        assert completed.returncode == 0
        assert "E1" in completed.stdout and "E12" in completed.stdout
