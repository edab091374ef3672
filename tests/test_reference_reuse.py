"""The reference runtimes do per-run work only, and compute the same results.

* **Reused round processes.**  A process class that declares
  ``RoundBasedProcess.reusable`` is built once per system and reset before
  every later run.  A reset process equals a fresh one attribute for
  attribute, and a reused system gives what fresh systems give, field for
  field, on every crash schedule (trace on and off) and every fault
  assignment of all six net families.  A class without the declaration, a
  subclass of a declaring class included, is still built fresh for every
  run.
* **Fingerprints on first read.**  The net and async results, and the
  ``RunResult`` built from them, compute their fingerprint when it is first
  read: a passing check computes none, and a read gives the value the
  eager digest gave.  A result built directly keeps the value it was given.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.algorithms.classic_consensus import FloodSetConsensus
from repro.algorithms.classic_kset import FloodMinKSetAgreement, FloodMinProcess
from repro.api import AgreementSpec, Engine, RunResult
from repro.asynchronous import scheduler
from repro.asynchronous.scheduler import AsyncExecutionResult, interleaving_fingerprint
from repro.check import MUTANT_HASTY_FLOODMIN, input_frontier, register_mutants
from repro.check.mutants import EcholessFloodMin
from repro.core.vectors import InputVector
from repro.net import NetSystem, available_net_adversaries, enumerate_faults
from repro.net import runtime as net_runtime
from repro.net.runtime import NetExecutionResult
from repro.sync.adversary import enumerate_schedules
from repro.sync.process import RoundBasedProcess
from repro.sync.runtime import SynchronousSystem

#: Three processes, one crash, every vector of a 3-value domain (27).
SPEC = AgreementSpec(n=3, t=1, k=1, d=1, domain=3)
#: The net cells run every vector of a 2-value domain (8).
NET_SPEC = AgreementSpec(n=3, t=1, k=1, d=1, domain=2)
#: What a process keeps from its construction: never touched by a run.
IDENTITY = {"_process_id", "_n", "_t", "_algorithm"}


def _engine(spec: AgreementSpec, algorithm: str) -> Engine:
    register_mutants()
    return Engine(spec, algorithm)


def _frontier(engine: Engine):
    return input_frontier(engine.spec, engine.condition)


def _reusable_algorithms():
    """Every round algorithm whose processes declare reuse, with a cell whose
    runs move every per-run field (FloodSet's early-stopping fields move
    only with the rule on)."""
    algorithms = {
        key: _engine(SPEC, key).algorithm
        for key in ("floodmin", "early-deciding", "condition-kset")
    }
    algorithms["flood-set-early"] = FloodSetConsensus(SPEC.t, early_stopping=True)
    return algorithms


@pytest.mark.parametrize("name", sorted(_reusable_algorithms()))
def test_a_reset_process_equals_a_fresh_one(name):
    """After every run of the cell, each process, reset, has the attributes
    of a process fresh from the algorithm; and every per-run attribute was
    moved by some run, so a reset that forgets one fails here."""
    algorithm = _reusable_algorithms()[name]
    n, t = SPEC.n, SPEC.t
    system = SynchronousSystem(n, t, algorithm)
    fresh = [vars(algorithm.create_process(pid, n, t)) for pid in range(n)]
    moved: set[str] = set()
    vectors = input_frontier(SPEC)  # every vector: 27 <= the all-vectors limit
    for schedule in enumerate_schedules(n, t, algorithm.max_rounds(n, t)):
        for vector in vectors:
            system.run(vector, schedule)
            processes = system._reused
            assert processes is not None and all(p.reusable for p in processes)
            for process, before in zip(processes, fresh):
                after_run = vars(process)
                moved.update(key for key in before if after_run[key] != before[key])
                process.reset()
                assert vars(process) == before, (name, list(vector.entries), schedule)
    assert moved == set(fresh[0]) - IDENTITY


def test_reuse_is_declared_per_exact_class():
    assert RoundBasedProcess.reusable is False
    assert FloodMinProcess.reusable is True

    class Subclass(FloodMinProcess):
        pass

    class Declaring(FloodMinProcess):
        reusable = True

    assert Subclass.reusable is False
    assert Declaring.reusable is True
    # The registered mutants subclass FloodMinProcess without declaring it.
    mutant = EcholessFloodMin(t=1, k=1).create_process(0, 3, 1)
    assert isinstance(mutant, FloodMinProcess) and mutant.reusable is False


def _sync_fields(result) -> tuple:
    """Every field of a sync result, dicts as their items in order."""
    trace = None
    if result.trace is not None:
        trace = tuple(
            (
                record.round_number,
                record.senders,
                tuple((pid, tuple(inbox.items())) for pid, inbox in record.delivered.items()),
                record.crashed,
                tuple(record.decisions.items()),
                record.active_after,
            )
            for record in result.trace
        )
    return (
        result.n,
        result.t,
        result.input_vector,
        tuple(result.decisions.items()),
        tuple(result.decision_rounds.items()),
        tuple(result.crash_rounds.items()),
        result.rounds_executed,
        result.schedule,
        trace,
    )


@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize(
    "algorithm",
    ["floodmin", "early-deciding", "condition-kset", "flood-consensus", MUTANT_HASTY_FLOODMIN],
)
def test_a_reused_sync_system_matches_fresh_systems(algorithm, record_trace):
    engine = _engine(SPEC, algorithm)
    n, t = SPEC.n, SPEC.t
    reused = SynchronousSystem(n, t, engine.algorithm, record_trace=record_trace)
    for schedule in enumerate_schedules(n, t, engine.algorithm.max_rounds(n, t)):
        for vector in _frontier(engine):
            fresh = SynchronousSystem(n, t, engine.algorithm, record_trace=record_trace)
            assert _sync_fields(reused.run(vector, schedule)) == _sync_fields(
                fresh.run(vector, schedule)
            ), (list(vector.entries), schedule)
    assert reused._reused is not None


def _net_fields(result: NetExecutionResult) -> tuple:
    return (
        result.n,
        result.t,
        result.input_vector,
        result.adversary_family,
        result.adversary_description,
        tuple(result.decisions.items()),
        tuple(result.decision_rounds.items()),
        result.faulty,
        result.rounds_executed,
        result.delivered_count,
        result.fault_events,
        result.fingerprint,
    )


@pytest.mark.parametrize("family", available_net_adversaries())
@pytest.mark.parametrize("algorithm", ["floodmin", "early-deciding", "condition-kset"])
def test_a_reused_net_system_matches_fresh_systems(algorithm, family):
    """Every fault assignment of at most two faults, over two rounds."""
    engine = _engine(NET_SPEC, algorithm)
    n, t = NET_SPEC.n, NET_SPEC.t
    reused = NetSystem(n, t, engine.algorithm)
    for faults in enumerate_faults(family, n, 2, 2):
        for vector in _frontier(engine):
            fresh = NetSystem(n, t, engine.algorithm)
            assert _net_fields(reused.run(vector, faults)) == _net_fields(
                fresh.run(vector, faults)
            ), (list(vector.entries), faults.fault_record())
    assert reused._reused is not None


@pytest.mark.parametrize(
    "backend, options",
    [("sync", {}), ("sync", {"vectorized": False}), ("net", {"adversary": "send-omission"})],
)
def test_a_check_builds_each_process_once(monkeypatch, backend, options):
    calls = []
    create_process = FloodMinKSetAgreement.create_process

    def counting(self, process_id, n, t):
        calls.append(process_id)
        return create_process(self, process_id, n, t)

    monkeypatch.setattr(FloodMinKSetAgreement, "create_process", counting)
    engine = Engine(AgreementSpec(n=4, t=1, k=1, domain=2), "floodmin")
    report = engine.check(backend=backend, **options)
    assert report.passed and report.executions > 400
    assert calls == [0, 1, 2, 3]


class _Undeclared(FloodMinProcess):
    """FloodMin's process without the reuse declaration."""


class _FreshEveryRun(FloodMinKSetAgreement):
    calls = 0

    def create_process(self, process_id: int, n: int, t: int) -> FloodMinProcess:
        type(self).calls += 1
        return _Undeclared(process_id, n, self.t, self)


class _Mixed(FloodMinKSetAgreement):
    """One process of another class: the set is not reused."""

    calls = 0

    def create_process(self, process_id: int, n: int, t: int) -> FloodMinProcess:
        type(self).calls += 1
        if process_id == 1:
            return _Undeclared(process_id, n, self.t, self)
        return super().create_process(process_id, n, t)


@pytest.mark.parametrize("factory", [_FreshEveryRun, _Mixed])
@pytest.mark.parametrize("system_type", [SynchronousSystem, NetSystem])
def test_undeclared_processes_are_built_for_every_run(monkeypatch, factory, system_type):
    monkeypatch.setattr(factory, "calls", 0)
    system = system_type(3, 1, factory(t=1, k=1))
    runs = [[3, 1, 2], [2, 2, 1], [1, 3, 3], [2, 1, 3]]
    for vector in runs:
        if system_type is NetSystem:
            result = system.run(vector, _fault_free())
        else:
            result = system.run(vector)
        assert result.decisions == {0: min(vector), 1: min(vector), 2: min(vector)}
    assert factory.calls == 3 * len(runs)
    assert system._reused is None


def _fault_free():
    from repro.net import resolve_net_adversary

    return resolve_net_adversary("fault-free", 3, 1, 0)


# ---------------------------------------------------------------------------
# Fingerprints on first read
# ---------------------------------------------------------------------------
@pytest.fixture
def digests(monkeypatch):
    """Counts of the net runtime's blake2b and the scheduler's sequence digests."""
    counts = {"net": 0, "async": 0}
    blake2b, sequence_digest = net_runtime.blake2b, scheduler.interleaving_fingerprint

    def counting_blake2b(*args, **kwargs):
        counts["net"] += 1
        return blake2b(*args, **kwargs)

    def counting_sequence_digest(sequence):
        counts["async"] += 1
        return sequence_digest(sequence)

    monkeypatch.setattr(net_runtime, "blake2b", counting_blake2b)
    monkeypatch.setattr(scheduler, "interleaving_fingerprint", counting_sequence_digest)
    return counts


def _eager_net_fingerprint(result: NetExecutionResult) -> str:
    """The digest as the runtime computed it for every run before it was
    deferred: the repr of the parameters, inputs, event tuples and decisions."""
    material = (
        result.n,
        result.t,
        result.adversary_family,
        result.input_vector.entries,
        tuple(event.to_tuple() for event in result.fault_events),
        tuple(sorted(result.decisions.items())),
        tuple(sorted(result.decision_rounds.items())),
    )
    return hashlib.blake2b(repr(material).encode(), digest_size=16).hexdigest()


def test_a_passing_net_check_computes_no_digest(digests):
    engine = Engine(NET_SPEC, "floodmin")
    for family, max_faults in (("send-omission", None), ("bounded-delay", 2)):
        report = engine.check(backend="net", adversary=family, max_faults=max_faults)
        assert report.passed and report.executions >= 80
    assert digests == {"net": 0, "async": 0}
    # One event (a trail with a trailing comma), several, and none.
    for family, seed in (("message-loss", 3), ("bounded-delay", 1), ("fault-free", 0)):
        result = engine.run([1, 2, 1], backend="net", net_adversary=family, seed=seed)
        assert result.fingerprint == _eager_net_fingerprint(result.raw)
        assert result.raw.fingerprint == result.fingerprint
    assert digests["net"] == 3
    lengths = set()
    for seed in range(40):
        raw = engine.run([2, 1, 2], backend="net", net_adversary="message-loss", seed=seed).raw
        lengths.add(min(len(raw.fault_events), 2))
        assert raw.fingerprint == _eager_net_fingerprint(raw)
    assert lengths == {0, 1, 2}


@pytest.mark.parametrize("vectorized", [True, False])
def test_a_passing_async_check_computes_no_digest(digests, vectorized):
    spec = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=2)
    engine = Engine(spec, "async-condition")
    report = engine.check(backend="async", depth=2, vectorized=vectorized)
    assert report.passed and report.executions > 100
    assert digests == {"net": 0, "async": 0}
    result = engine.run([1, 2, 2], backend="async", async_adversary="round-robin")
    assert result.fingerprint == interleaving_fingerprint(result.raw.step_sequence)
    assert result.raw.fingerprint == result.fingerprint
    assert digests["async"] == 1


def test_a_failing_check_digests_only_its_counterexamples(digests):
    register_mutants()
    engine = Engine(AgreementSpec(n=3, t=1, k=1, domain=3), "mutant-echoless-floodmin")
    report = engine.check(backend="net", adversary="send-omission", max_counterexamples=3)
    assert not report.passed and len(report.counterexamples) == 3
    assert digests["net"] == 3
    for counterexample in report.counterexamples:
        assert counterexample.replay().fingerprint == counterexample.fingerprint


@pytest.mark.parametrize(
    "algorithm, knobs",
    [
        ("floodmin", {"backend": "net", "net_adversary": "message-loss"}),
        ("async-condition", {"backend": "async"}),
    ],
)
def test_a_pending_fingerprint_survives_pickling(digests, algorithm, knobs):
    """A result pickles with its fingerprint pending (as repro.parallel
    ships it) and computes the same value on the other side."""
    spec = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=2)
    result = Engine(spec, algorithm).run([1, 2, 1], seed=5, **knobs)
    copy = pickle.loads(pickle.dumps(result))
    assert digests == {"net": 0, "async": 0}
    assert copy.fingerprint == result.fingerprint
    assert copy == result and copy.to_record() == result.to_record()
    assert copy.raw.fingerprint == result.raw.fingerprint


def test_a_result_built_directly_keeps_the_value_it_was_given():
    vector = InputVector([1, 2, 3])
    assert NetExecutionResult(3, 1, vector, "fault-free", "fault-free").fingerprint == ""
    assert NetExecutionResult(
        3, 1, vector, "fault-free", "fault-free", fingerprint="abc"
    ).fingerprint == "abc"
    assert AsyncExecutionResult(n=3).fingerprint == ""
    assert AsyncExecutionResult(n=3, fingerprint="f00d").fingerprint == "f00d"
    built = RunResult("floodmin", "sync", 3, 1, vector)
    assert built.fingerprint is None
    assert RunResult("floodmin", "net", 3, 1, vector, fingerprint="x").fingerprint == "x"
    result = RunResult("floodmin", "net", 3, 1, vector)
    result.fingerprint = "set"
    assert result.fingerprint == "set"
    # A normalized result that was given no fingerprint reads None, not "".
    raw = AsyncExecutionResult(n=3)
    assert RunResult.from_async(raw, vector, "async-condition", t=1).fingerprint is None
