"""The model checker: frontier, oracles, Engine.check, mutants, differential checks.

The heart of the file is the acceptance triangle of the subsystem:

* the **theorem tests**: `condition-kset` decides within the paper's bounds
  on *every* schedule of every small ``(n, t, d)`` cell;
* the **parity test**: ``workers=1`` and ``workers=4`` produce byte-identical
  reports over the complete ``n=4, t=2`` schedule space, for both the
  condition-based algorithm (the Theorem 10 oracles) and the early-deciding
  baseline (the Section 8 oracle) — together all five property-oracle
  families are verified;
* the **mutant test**: a deliberately broken algorithm (FloodMin skipping
  one round) is *caught*, with a replayable counterexample that round-trips
  through the JSONL store — proof that the checker can fail.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.api import AgreementSpec, Engine, RunConfig, RunResult
from repro.check import (
    MUTANT_HASTY_FLOODMIN,
    NET_ORACLES,
    ORACLES,
    AsyncSpace,
    CheckContext,
    Counterexample,
    NetSpace,
    SyncSpace,
    check_slice,
    input_frontier,
    register_mutants,
    run_check,
)
from repro.core.vectors import InputVector
from repro.exceptions import BackendError, InvalidParameterError, StoreError
from repro.store import ResultStore
from repro.workloads import exhaustive_scenario
from test_check_golden import CELLS as GOLDEN_CELLS


#: The first counterexample of the golden net and async cells
#: (``tests/test_check_golden.py``), as the store wrote each line.
PINNED_LINES = {
    "net": (
        '{"oracle": "net-agreement", "algorithm": "mutant-echoless-floodmin", '
        '"detail": "2 distinct values decided by non-faulty processes ([\'1\', \'2\']), '
        'but the agreement degree is 1", "spec": {"n": 3, "t": 1, "k": 1, "d": 1, '
        '"ell": 1, "domain": 3, "condition": "max-legal", "condition_params": []}, '
        '"vector": [1, 2, 2], "adversary": "send-omission", "faults": {"family": '
        '"send-omission", "assignment": [[0, [1]]]}, "decisions": {"0": 1, "1": 2, '
        '"2": 1}, "duration": 2, "fingerprint": "9dcbc9d6d1d1c1c06ce873b2f1f82610", '
        '"kind": "net-counterexample"}'
    ),
    "async": (
        '{"oracle": "async-agreement", "algorithm": "mutant-hasty-async", '
        '"detail": "2 distinct values decided ([\'1\', \'3\']), but the agreement '
        'degree is 1", "spec": {"n": 3, "t": 1, "k": 1, "d": 0, "ell": 1, '
        '"domain": 3, "condition": "max-legal", "condition_params": []}, '
        '"vector": [3, 1, 1], "prefix": [1, 1, 2, 1], "crash_steps": {}, '
        '"decisions": {"1": 1, "2": 3, "0": 3}, "duration": 7, '
        '"fingerprint": "c819b57c8debcceb", "kind": "async-counterexample"}'
    ),
}
_NET_RECORD = json.loads(PINNED_LINES["net"])
_ASYNC_RECORD = json.loads(PINNED_LINES["async"])
_NET_RECORD_WITH_A_SCHEDULE = {
    **{key: value for key, value in _NET_RECORD.items() if key not in ("adversary", "faults")},
    "schedule": [{"process_id": 0, "round_number": 1, "delivered_to": [0]}],
}


def small_spec(**overrides) -> AgreementSpec:
    parameters = dict(n=3, t=1, k=1, d=1, ell=1, domain=2)
    parameters.update(overrides)
    return AgreementSpec(**parameters)


# ----------------------------------------------------------------------
# The input frontier
# ----------------------------------------------------------------------
class TestInputFrontier:
    def test_tiny_domain_enumerates_every_vector(self):
        spec = small_spec()
        frontier = input_frontier(spec, spec.condition_oracle())
        assert len(frontier) == 2**3
        assert len({v.entries for v in frontier}) == len(frontier)

    def test_structured_frontier_is_deterministic_and_mixed(self):
        spec = AgreementSpec(n=6, t=3, k=2, d=1, ell=1, domain=8)
        oracle = spec.condition_oracle()
        first = input_frontier(spec, oracle)
        second = input_frontier(spec, oracle)
        assert first == second
        assert 0 < len(first) <= 12
        memberships = {oracle.contains(v) for v in first}
        assert memberships == {True, False}, "frontier must straddle the condition"

    def test_structured_frontier_has_boundary_and_just_outside(self):
        spec = AgreementSpec(n=6, t=3, k=2, d=1, ell=1, domain=8)
        oracle = spec.condition_oracle()
        frontier = input_frontier(spec, oracle)
        occupancies = []
        for vector in frontier:
            top = vector.greatest_values(spec.ell)
            occupancies.append(vector.occurrences_of_set(frozenset(top)))
        # Boundary: exactly x + 1 top entries; just outside: exactly x.
        assert spec.x + 1 in occupancies
        assert spec.x in occupancies

    def test_condition_free_frontier(self):
        spec = AgreementSpec(n=6, t=2, k=2, domain=9)
        frontier = input_frontier(spec, None)
        assert 0 < len(frontier) <= 12
        assert len({v.entries for v in frontier}) == len(frontier)

    def test_max_vectors_caps_the_structured_mode(self):
        spec = AgreementSpec(n=6, t=3, k=2, d=1, ell=1, domain=8)
        frontier = input_frontier(spec, spec.condition_oracle(), max_vectors=3)
        assert len(frontier) == 3
        with pytest.raises(InvalidParameterError):
            input_frontier(spec, None, max_vectors=0)


# ----------------------------------------------------------------------
# Engine.check basics
# ----------------------------------------------------------------------
class TestEngineCheck:
    def test_full_space_check_passes_and_cross_validates(self):
        engine = Engine(small_spec())
        report = engine.check()
        assert report.passed and bool(report)
        assert report.schedule_count == 37  # 1 + 3 * (4 + 8)
        assert report.vector_count == 8
        assert report.executions == 37 * 8
        assert report.tally("validity").checked == report.executions
        assert report.tally("agreement").violations == 0
        assert "PASS" in report.render()

    def test_oracle_subset_and_unknown_oracle(self):
        engine = Engine(small_spec())
        report = engine.check(oracles=("validity", "termination"))
        assert [tally.oracle for tally in report.tallies] == ["validity", "termination"]
        with pytest.raises(InvalidParameterError):
            engine.check(oracles=("no-such-oracle",))
        with pytest.raises(InvalidParameterError):
            report.tally("agreement")

    def test_explicit_vectors_and_rounds(self):
        engine = Engine(small_spec())
        report = engine.check(vectors=[[1, 1, 1], [2, 2, 2]], rounds=1)
        assert report.vector_count == 2
        assert report.space.rounds == 1
        assert report.schedule_count == 1 + 3 * 4
        with pytest.raises(InvalidParameterError):
            engine.check(rounds=0)

    def test_async_only_algorithm_is_rejected(self):
        engine = Engine(small_spec(k=1), "async-condition")
        with pytest.raises(BackendError):
            engine.check()

    def test_check_slice_resolves_its_space(self):
        engine = Engine(small_spec())
        vectors = input_frontier(engine.spec, engine.condition)
        names = tuple(ORACLES)
        rounds = engine.spec.outside_condition_bound()
        resolved = check_slice(engine, SyncSpace(rounds), 0, None, vectors, names, 5)
        assert check_slice(engine, SyncSpace(), 0, None, vectors, names, 5) == resolved
        with pytest.raises(BackendError):
            check_slice(
                Engine(small_spec(k=1), "async-condition"), SyncSpace(), 0, None,
                vectors, names, 5,
            )

    def test_early_deciding_oracle_is_exercised(self):
        engine = Engine(AgreementSpec(n=3, t=1, k=1, domain=2), "early-deciding")
        report = engine.check()
        tally = report.tally("early-deciding-bound")
        assert tally.checked == report.executions
        assert tally.violations == 0
        # Condition-free: the in-condition oracle never applies.
        assert report.tally("round-bound-in-condition").checked == 0
        assert report.tally("round-bound-outside").checked == report.executions

    def test_report_record_is_json_serializable(self):
        report = Engine(small_spec()).check()
        payload = json.dumps(report.to_record(), sort_keys=True)
        assert '"schedule_count": 37' in payload

    @pytest.mark.parametrize(
        "algorithm, vectorized, packed",
        [
            ("condition-kset", True, True),
            ("condition-kset", False, False),
            ("floodmin", True, False),
        ],
    )
    def test_an_invalid_enumerated_schedule_is_refused(
        self, monkeypatch, algorithm, vectorized, packed
    ):
        """Executions run unchecked, so each path checks a point's schedule
        once as it enters: the packed hook and the scalar loop both refuse
        a schedule the spec does not allow."""
        import repro.check.checker as checker
        from repro.exceptions import AdversaryError
        from repro.sync.adversary import CrashEvent, CrashSchedule
        from repro.vec import BatchSyncEvaluator

        outside = CrashSchedule.from_events([CrashEvent.round_one_prefix(3, 0)])
        enumerate_schedules = checker.enumerate_schedules
        monkeypatch.setattr(
            checker,
            "enumerate_schedules",
            lambda *args: itertools.chain([outside], enumerate_schedules(*args)),
        )
        checked, ran = [], []
        check_schedule = BatchSyncEvaluator.check_schedule
        monkeypatch.setattr(
            BatchSyncEvaluator,
            "check_schedule",
            lambda self, schedule: checked.append(schedule) or check_schedule(self, schedule),
        )
        execute = Engine._execute
        monkeypatch.setattr(
            Engine, "_execute", lambda self, *args: ran.append(args) or execute(self, *args)
        )
        engine = Engine(small_spec(), algorithm)
        with pytest.raises(AdversaryError, match="outside"):
            engine.check(vectorized=vectorized)
        assert checked == [] and ran == []
        # The valid stream takes the same path.
        monkeypatch.setattr(checker, "enumerate_schedules", enumerate_schedules)
        engine.check(vectorized=vectorized)
        assert bool(checked) is packed


# ----------------------------------------------------------------------
# One validation path for the check parameters, on every backend
# ----------------------------------------------------------------------
#: A checkable engine per backend.
BACKEND_ENGINES = {
    "sync": (small_spec(), "condition-kset"),
    "async": (small_spec(d=0), "condition-kset"),
    "net": (AgreementSpec(n=3, t=1, k=1, domain=2), "floodmin"),
}


class TestCheckParameterValidation:
    @pytest.mark.parametrize(
        "backend, options",
        [
            ("sync", {"rounds": "2"}),
            ("sync", {"rounds": True}),
            ("sync", {"max_counterexamples": "5"}),
            ("sync", {"max_vectors": True}),
            ("sync", {"all_vectors_limit": 100.0}),
            ("async", {"depth": "2"}),
            ("async", {"max_crashes": True}),
            ("async", {"max_counterexamples": 2.5}),
            ("net", {"max_faults": "1"}),
            ("net", {"rounds": True}),
            ("net", {"max_vectors": "12"}),
        ],
    )
    def test_bounds_must_be_integers(self, backend, options):
        spec, algorithm = BACKEND_ENGINES[backend]
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            Engine(spec, algorithm).check(backend=backend, **options)

    @pytest.mark.parametrize("backend", sorted(BACKEND_ENGINES))
    def test_oracle_selection_must_be_nonempty_and_distinct(self, backend):
        spec, algorithm = BACKEND_ENGINES[backend]
        engine = Engine(spec, algorithm)
        first = engine.check(backend=backend, vectors=[[1, 1, 1]]).tallies[0].oracle
        with pytest.raises(InvalidParameterError, match="empty"):
            engine.check(backend=backend, oracles=[])
        with pytest.raises(InvalidParameterError, match="more than once"):
            engine.check(backend=backend, oracles=[first, first])

    def test_ranges_are_unchanged(self):
        spec, algorithm = BACKEND_ENGINES["net"]
        engine = Engine(spec, algorithm)
        assert engine.check(backend="net", max_faults=0).passed
        with pytest.raises(InvalidParameterError, match=">= 0"):
            engine.check(backend="net", max_faults=-1)
        with pytest.raises(InvalidParameterError, match=">= 1"):
            engine.check(backend="net", rounds=0)
        with pytest.raises(InvalidParameterError, match="max_crashes"):
            Engine(*BACKEND_ENGINES["async"]).check(backend="async", max_crashes=3)
        with pytest.raises(InvalidParameterError, match="depth must be >= 0"):
            Engine(*BACKEND_ENGINES["async"]).check(backend="async", depth=-1)
        with pytest.raises(InvalidParameterError, match="max_crashes"):
            Engine(*BACKEND_ENGINES["async"]).check(backend="async", max_crashes=-1)


# ----------------------------------------------------------------------
# One oracle context for every space
# ----------------------------------------------------------------------
class TestCheckContext:
    SPEC = AgreementSpec(n=4, t=2, k=2, d=1, ell=1, domain=2)

    @pytest.mark.parametrize(
        "space, degree", [(SyncSpace(), 2), (NetSpace(), 2), (AsyncSpace(), 1)]
    )
    def test_degree_follows_the_backend(self, space, degree):
        engine = Engine(self.SPEC, "condition-kset")
        resolved = space.resolve(engine)
        context = CheckContext.from_engine(engine, resolved)
        assert context.degree == degree == engine.agreement_degree(space.backend)
        assert context.space == resolved

    def test_only_the_space_and_degree_differ(self):
        engine = Engine(self.SPEC, "condition-kset")
        sync, net, asynchronous = (
            CheckContext.from_engine(engine, space.resolve(engine))
            for space in (SyncSpace(), NetSpace(), AsyncSpace())
        )
        for context in (net, asynchronous):
            assert dataclasses.replace(context, space=sync.space, degree=sync.degree) == sync

    def test_net_validity_reads_the_failure_model_from_the_space(self):
        engine = Engine(self.SPEC, "condition-kset")
        result = engine.run([1, 1, 2, 2], backend="net")
        oracle = NET_ORACLES["net-validity"]
        benign = CheckContext.from_engine(engine, NetSpace("send-omission").resolve(engine))
        corrupt = CheckContext.from_engine(
            engine, NetSpace("byzantine-corrupt").resolve(engine)
        )
        assert oracle.applies(benign, result)
        assert not oracle.applies(corrupt, result)


# ----------------------------------------------------------------------
# The theorems, exhaustively (satellite: every n <= 4, t <= 2, d <= t cell)
# ----------------------------------------------------------------------
def theorem_cells():
    """Every (n, t, d) cell with n <= 4, t <= 2, d <= t; k = max(t, 1).

    The ``t = 2`` cells of ``n = 4`` have schedule spaces in the thousands,
    so they trade the all-vectors frontier for the structured boundary set;
    everything else is exhaustive in both dimensions.
    """
    cells = []
    for n in (3, 4):
        for t in (1, 2):
            if t >= n:
                continue
            for d in range(0, t + 1):
                heavy = n == 4 and t == 2
                cells.append(
                    pytest.param(
                        n, t, d, max(t, 1),
                        3 if heavy else 2,   # m
                        3 if heavy else 100,  # max_vectors
                        1 if heavy else 100,  # all_vectors_limit
                        id=f"n{n}-t{t}-d{d}",
                    )
                )
    return cells


class TestTheoremsExhaustively:
    @pytest.mark.parametrize("n,t,d,k,m,max_vectors,all_vectors_limit", theorem_cells())
    def test_condition_kset_decides_within_the_bounds_on_all_schedules(
        self, n, t, d, k, m, max_vectors, all_vectors_limit
    ):
        spec = AgreementSpec(n=n, t=t, k=k, d=d, ell=1, domain=m)
        report = Engine(spec, "condition-kset").check(
            max_vectors=max_vectors, all_vectors_limit=all_vectors_limit
        )
        assert report.passed, report.render()
        checked = {tally.oracle: tally.checked for tally in report.tallies}
        assert checked["validity"] == report.executions
        # Both round-bound oracles together cover every execution.
        assert (
            checked["round-bound-in-condition"] + checked["round-bound-outside"]
            == report.executions
        )

    @pytest.mark.slow
    def test_condition_kset_k1_t2_full_depth(self):
        """The k=1 variant runs 3 crash rounds deep (8363 schedules x 16
        vectors): beyond the tier-1 budget, same exhaustive claim."""
        spec = AgreementSpec(n=4, t=2, k=1, d=1, ell=1, domain=2)
        report = Engine(spec, "condition-kset").check()
        assert report.schedule_count == 8363
        assert report.passed, report.render()


# ----------------------------------------------------------------------
# Parity: workers=1 and workers=4 produce byte-identical reports (acceptance)
# ----------------------------------------------------------------------
class TestWorkerParity:
    N4T2 = AgreementSpec(n=4, t=2, k=2, d=1, ell=1, domain=6)

    def _records(self, spec, algorithm, **check_kwargs):
        records = []
        for workers in (1, 4):
            engine = Engine(spec, algorithm, RunConfig(workers=workers))
            report = engine.check(**check_kwargs)
            records.append(json.dumps(report.to_record(), sort_keys=True))
        return records

    def test_condition_kset_n4_t2_byte_identical(self):
        serial, parallel = self._records(
            self.N4T2, "condition-kset", max_vectors=4, all_vectors_limit=1
        )
        assert serial == parallel
        report = json.loads(serial)
        assert report["schedule_count"] == 2731  # the complete n=4, t=2 space
        assert report["executions"] == 2731 * 4
        assert all(tally["violations"] == 0 for tally in report["tallies"])

    def test_early_deciding_n4_t2_byte_identical(self):
        serial, parallel = self._records(
            self.N4T2, "early-deciding", max_vectors=3, all_vectors_limit=1
        )
        assert serial == parallel
        report = json.loads(serial)
        assert report["schedule_count"] == 2731
        tallies = {tally["oracle"]: tally for tally in report["tallies"]}
        assert tallies["early-deciding-bound"]["checked"] == report["executions"]
        assert tallies["early-deciding-bound"]["violations"] == 0

    def test_worker_parity_holds_when_violations_exist(self):
        register_mutants()
        spec = small_spec()
        serial, parallel = self._records(spec, MUTANT_HASTY_FLOODMIN)
        assert serial == parallel
        assert json.loads(serial)["counterexamples"]

    def test_cross_validation_detects_generator_drift(self, monkeypatch):
        """If the closed form and the generator ever disagree — in either
        direction — the check must refuse to report, not silently truncate."""
        import repro.check.checker as checker
        from repro.exceptions import SimulationError
        from repro.sync.adversary import count_schedules

        for drift in (-1, +1):
            monkeypatch.setattr(
                checker, "count_schedules", lambda n, t, r, d=drift: count_schedules(n, t, r) + d
            )
            with pytest.raises(SimulationError):
                Engine(small_spec()).check()


# ----------------------------------------------------------------------
# The mutant: the checker catches a real violation (and replays it)
# ----------------------------------------------------------------------
class TestMutantDetection:
    @pytest.fixture(autouse=True)
    def _mutants(self):
        register_mutants()

    def test_registration_is_idempotent_and_hidden_by_default(self):
        from repro.check.mutants import (
            MUTANT_ECHOLESS_FLOODMIN,
            MUTANT_HASTY_ASYNC,
            MUTANT_SILENT_FLOODMIN,
        )

        expected = (
            MUTANT_HASTY_FLOODMIN,
            MUTANT_ECHOLESS_FLOODMIN,
            MUTANT_SILENT_FLOODMIN,
            MUTANT_HASTY_ASYNC,
        )
        assert register_mutants() == expected
        assert register_mutants() == expected

    def test_checker_flags_the_hasty_mutant(self):
        report = Engine(small_spec(), MUTANT_HASTY_FLOODMIN).check()
        assert not report.passed
        assert report.tally("agreement").violations > 0
        # The correct algorithms sail through the identical space.
        assert Engine(small_spec(), "floodmin").check().passed
        assert Engine(small_spec(), "condition-kset").check().passed

    def test_counterexample_replays_to_the_same_violation(self):
        report = Engine(small_spec(), MUTANT_HASTY_FLOODMIN).check()
        counterexample = report.counterexamples[0]
        result = counterexample.replay()
        assert result.distinct_decision_count() > counterexample.spec.k
        assert result.decisions == counterexample.decisions

    @pytest.mark.parametrize("backend", sorted(GOLDEN_CELLS))
    def test_counterexample_record_round_trips(self, backend):
        algorithm, spec, options = GOLDEN_CELLS[backend][:3]
        report = Engine(spec, algorithm).check(**options)
        original = report.counterexamples[0]
        rebuilt = Counterexample.from_record(json.loads(json.dumps(original.to_record())))
        assert rebuilt == original
        assert rebuilt.backend == backend
        assert rebuilt.to_record() == original.to_record()
        point = rebuilt.space.point(rebuilt.spec, rebuilt.adversary)
        assert report.space.point_record(point) == original.adversary
        with pytest.raises(InvalidParameterError):
            Counterexample.from_record({"oracle": "agreement"})

    @pytest.mark.parametrize("backend", sorted(GOLDEN_CELLS))
    def test_replay_is_the_checked_execution_under_any_config(self, backend):
        """The config's default schedule and crashes never reach a replay:
        the checker ran the point without them, and so does the replay."""
        algorithm, spec, options = GOLDEN_CELLS[backend][:3]
        config = RunConfig(schedule="initial", crashes=1)
        report = Engine(spec, algorithm, config).check(**options)
        assert report.counterexamples
        for counterexample in report.counterexamples:
            for replay_config in (None, config):
                replayed = counterexample.replay(replay_config)
                assert (replayed.decisions, replayed.fingerprint) == (
                    counterexample.decisions, counterexample.fingerprint
                )

    def test_counterexamples_persist_to_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "counterexamples.jsonl")
        report = Engine(small_spec(), MUTANT_HASTY_FLOODMIN).check(store=store)
        assert store.counts() == {"counterexample": len(report.counterexamples)}
        loaded = store.load_counterexamples()
        assert [ce.to_record() for ce in loaded] == [
            ce.to_record() for ce in report.counterexamples
        ]
        # The reloaded record is still replayable: the violation reproduces.
        replayed = loaded[0].replay()
        assert replayed.distinct_decision_count() > loaded[0].spec.k

    def test_one_store_reloads_every_counterexample_kind(self, tmp_path):
        from repro.check import MUTANT_ECHOLESS_FLOODMIN, MUTANT_HASTY_ASYNC

        store = ResultStore(tmp_path / "mixed.jsonl")
        reports = [
            Engine(small_spec(), MUTANT_HASTY_FLOODMIN).check(
                store=store, max_counterexamples=1
            ),
            Engine(AgreementSpec(n=3, t=1, k=1, domain=3), MUTANT_ECHOLESS_FLOODMIN).check(
                backend="net", store=store, max_counterexamples=1
            ),
            Engine(small_spec(d=0, domain=3), MUTANT_HASTY_ASYNC).check(
                backend="async", depth=4, max_crashes=0, vectors=[[3, 1, 1]],
                store=store, max_counterexamples=1,
            ),
        ]
        assert store.counts() == {
            "counterexample": 1, "net-counterexample": 1, "async-counterexample": 1
        }
        loaded = store.load_counterexamples()
        assert [ce.backend for ce in loaded] == ["sync", "net", "async"]
        for counterexample, report in zip(loaded, reports):
            assert counterexample.to_record() == report.counterexamples[0].to_record()
            replayed = counterexample.replay()
            assert replayed.decisions == counterexample.decisions
            assert replayed.distinct_decision_count() > counterexample.spec.k

    def test_store_refuses_what_is_not_a_counterexample(self, tmp_path):
        store = ResultStore(tmp_path / "ce.jsonl")
        with pytest.raises(StoreError, match="not a model-checker counterexample"):
            store.append_counterexample(small_spec())
        assert store.counts() == {}

        class Narrated(Counterexample):
            pass

        report = Engine(small_spec(), MUTANT_HASTY_FLOODMIN).check(max_counterexamples=1)
        original = report.counterexamples[0]
        store.append_counterexample(Narrated(**vars(original)))
        assert store.counts() == {"counterexample": 1}
        assert store.load_counterexamples()[0].to_record() == original.to_record()

    def test_known_counterexample_regression(self):
        """The first counterexample the checker ever found, pinned forever.

        Found by `Engine(AgreementSpec(3, 1, k=1, d=1, domain=2),
        "mutant-hasty-floodmin").check()`: process 0 proposes 1, crashes
        during round 1 after delivering to {0, 1}; the hasty mutant decides
        at round 1, so p1 decides min(1, 2) = 1 while p2 (which never heard
        p0) decides 2 — two values under k = 1.
        """
        record = {
            "oracle": "agreement",
            "algorithm": MUTANT_HASTY_FLOODMIN,
            "detail": "2 distinct values decided",
            "spec": {"n": 3, "t": 1, "k": 1, "d": 1, "ell": 1, "domain": 2,
                     "condition": "max-legal", "condition_params": ()},
            "vector": [1, 2, 2],
            "schedule": [{"process_id": 0, "round_number": 1, "delivered_to": [0, 1]}],
            "decisions": {"1": 1, "2": 2},
            "duration": 1,
        }
        result = Counterexample.from_record(record).replay()
        assert result.decisions == {1: 1, 2: 2}
        assert result.distinct_decision_count() == 2  # > k = 1: still broken

    @pytest.mark.parametrize("backend", sorted(PINNED_LINES))
    def test_known_counterexample_lines_reload_and_replay(self, backend, tmp_path):
        """The net and async record forms, pinned as the store wrote them."""
        path = tmp_path / "pinned.jsonl"
        path.write_text(PINNED_LINES[backend] + "\n", encoding="utf-8")
        (counterexample,) = ResultStore(path).load_counterexamples()
        record = json.loads(PINNED_LINES[backend])
        rewritten = json.dumps({**counterexample.to_record(), "kind": record["kind"]})
        assert rewritten == PINNED_LINES[backend]
        replayed = counterexample.replay()
        assert replayed.decisions == {
            int(pid): value for pid, value in record["decisions"].items()
        }
        assert replayed.fingerprint == record["fingerprint"]
        assert replayed.distinct_decision_count() > counterexample.spec.k

    @pytest.mark.parametrize(
        "record, kind",
        [
            (_NET_RECORD_WITH_A_SCHEDULE, "net-counterexample"),
            (_NET_RECORD, "counterexample"),
            (_NET_RECORD, "async-counterexample"),
            (_ASYNC_RECORD, "net-counterexample"),
        ],
        ids=["net-with-schedule", "net-as-sync", "net-as-async", "async-as-net"],
    )
    def test_store_refuses_a_kind_its_adversary_keys_contradict(
        self, record, kind, tmp_path
    ):
        path = tmp_path / "contradiction.jsonl"
        path.write_text(json.dumps({**record, "kind": kind}) + "\n")
        with pytest.raises(StoreError):
            ResultStore(path).load_counterexamples()

    @pytest.mark.parametrize("step", [True, -1, 1.5])
    def test_a_crash_step_no_run_takes_is_refused_on_reading(self, step):
        record = dict(_ASYNC_RECORD, crash_steps={"0": step})
        with pytest.raises(InvalidParameterError, match="crash step of process 0"):
            Counterexample.from_record(record)

    @pytest.mark.parametrize("pid", ["3", "7"])
    def test_a_crashed_process_outside_the_spec_is_refused_on_reading(self, pid, tmp_path):
        """A record whose replay would raise ``crashed process 7 outside
        [0, 3)`` is refused when it is read, by the record and the store."""
        record = dict(_ASYNC_RECORD, crash_steps={pid: 1})
        with pytest.raises(InvalidParameterError, match=f"process {pid}, outside"):
            Counterexample.from_record(record)
        path = tmp_path / "outside.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError):
            ResultStore(path).load_counterexamples()

    @pytest.mark.parametrize(
        "reader, field",
        [
            ("load_results", "decisions"),
            ("load_results", "decision_times"),
            ("load_cells", "decisions"),
            ("load_cells", "decision_times"),
            ("load_counterexamples", "decisions"),
            ("load_counterexamples", "crash_steps"),
        ],
    )
    def test_a_malformed_process_id_is_refused(self, reader, field, tmp_path):
        """``int(pid)`` on a key such as ``"x"`` is a malformed record, never
        a bare ``ValueError``."""
        import dataclasses

        if reader == "load_counterexamples":
            record = dict(_ASYNC_RECORD, **{field: {"x": 1}})
            parse = Counterexample.from_record
            line = record
        else:
            run = Engine(small_spec(), "floodmin").run([1, 2, 2]).to_record()
            record = dict(run, **{field: {"x": 1}})
            parse = RunResult.from_record
            line = (
                dict(record, kind="run")
                if reader == "load_results"
                else {
                    "kind": "cell",
                    "overrides": {},
                    "error": None,
                    "spec": dataclasses.asdict(small_spec()),
                    "results": [record],
                }
            )
        with pytest.raises(InvalidParameterError):
            parse(record)
        path = tmp_path / "malformed.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(StoreError):
            getattr(ResultStore(path), reader)()


# ----------------------------------------------------------------------
# Differential mode
# ----------------------------------------------------------------------
class TestDifferentialMode:
    """A differential check is an ordinary check of a :class:`SyncSpace`
    with a *reference*: one ``reference-decisions`` tally, the same report,
    loop, cross-validation and store as every other check."""

    def test_identical_algorithms_never_diverge(self):
        report = Engine(small_spec(), "condition-kset").check(reference="condition-kset")
        assert report.passed and bool(report)
        assert [tally.oracle for tally in report.tallies] == ["reference-decisions"]
        assert report.tally("reference-decisions").checked == report.executions
        assert report.counterexamples == []
        assert report.executions == report.schedule_count * report.vector_count
        assert report.space == SyncSpace(2, "condition-kset")
        assert report.to_record()["reference"] == "condition-kset"
        assert "algorithm        : condition-kset vs condition-kset" in report.render()

    def test_mutant_diverges_from_its_reference(self):
        register_mutants()
        report = Engine(small_spec(), MUTANT_HASTY_FLOODMIN).check(reference="floodmin")
        assert not report.passed
        assert report.tally("reference-decisions").violations == 196
        assert report.executions == 296
        counterexample = report.counterexamples[0]
        assert counterexample.oracle == "reference-decisions"
        assert counterexample.algorithm == MUTANT_HASTY_FLOODMIN
        replayed = counterexample.replay()
        assert replayed.decisions == counterexample.decisions
        reference = Engine(small_spec(), "floodmin").run(counterexample.vector, replayed.schedule)
        assert reference.decisions != replayed.decisions
        assert counterexample.detail == (
            f"decided {dict(sorted(replayed.decisions.items()))}, but floodmin decided "
            f"{dict(sorted(reference.decisions.items()))}"
        )
        assert "verdict          : FAIL" in report.render()
        json.dumps(report.to_record())  # records must be serializable

    def test_cross_validation_detects_generator_drift(self, monkeypatch):
        """The differential stream is cross-validated like every check's: a
        drift in either direction raises instead of reporting."""
        import repro.check.checker as checker
        from repro.exceptions import SimulationError
        from repro.sync.adversary import count_schedules

        for drift in (-1, +1):
            monkeypatch.setattr(
                checker, "count_schedules", lambda n, t, r, d=drift: count_schedules(n, t, r) + d
            )
            with pytest.raises(SimulationError):
                Engine(small_spec(), "condition-kset").check(reference="floodmin")

    def test_the_reference_is_refused_before_anything_runs(self, monkeypatch):
        import repro.check.checker as checker
        from repro.exceptions import RegistryError

        monkeypatch.setattr(
            checker, "enumerate_schedules", lambda *args: pytest.fail("enumerated")
        )
        engine = Engine(small_spec(), "condition-kset")
        with pytest.raises(RegistryError, match="unknown algorithm 'nope'"):
            engine.check(reference="nope")
        with pytest.raises(BackendError, match="'async-condition' does not run on the sync"):
            engine.check(reference="async-condition")
        with pytest.raises(InvalidParameterError, match="registry key"):
            engine.check(reference=3)
        for backend in ("net", "async"):
            with pytest.raises(
                InvalidParameterError, match=f"the {backend} check does not take reference"
            ):
                engine.check(backend=backend, reference="floodmin")

    def test_the_oracles_follow_the_reference(self):
        assert SyncSpace().oracles is ORACLES
        assert tuple(SyncSpace(reference="floodmin").oracles) == ("reference-decisions",)
        assert SyncSpace(2).header(37) == {"rounds": 2, "schedule_count": 37}
        with pytest.raises(InvalidParameterError, match="unknown sync property oracle"):
            Engine(small_spec()).check(reference="floodmin", oracles=["validity"])


# ----------------------------------------------------------------------
# The exhaustive scenario (workloads integration)
# ----------------------------------------------------------------------
class TestExhaustiveScenario:
    def test_scenario_spans_the_whole_space(self):
        scenario = exhaustive_scenario(n=3, m=2, t=1, d=1, ell=1, k=1)
        assert len(scenario.vectors) == 8
        assert all(isinstance(vector, InputVector) for vector in scenario.vectors)
        report = scenario.check()
        assert report.schedule_count == 37
        assert report.executions == 296
        [first] = report.space.points(scenario.spec, 0, 1)
        assert first.crash_count() == 0  # enumeration starts failure-free

    def test_scenario_check_matches_engine_check(self):
        scenario = exhaustive_scenario(n=3, m=2, t=1, d=1, ell=1, k=1)
        report = scenario.check("condition-kset")
        assert report.passed
        direct = Engine(small_spec()).check()
        assert report.to_record() == direct.to_record()
