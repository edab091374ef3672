"""The differential check: ``Engine(spec, A).check(reference=B)``.

A differential check is an ordinary check of a :class:`~repro.check.SyncSpace`
with a *reference*: one oracle, ``reference-decisions``, reruns ``B`` on
every execution of ``A`` and counts those on which the two decide
differently.  These tests hold it to its definition, a plain double loop of
:meth:`Engine.run` over every schedule and frontier vector, on drawn cells
and algorithm pairs (the registered sync mutants included), and hold its
records equal on every path the check has: serial, sharded, the reference
path (``vectorized=False``), a pool worker and the store.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import parallel
from repro.api import AgreementSpec, Engine
from repro.api.registry import ALGORITHMS
from repro.check import (
    MUTANT_ECHOLESS_FLOODMIN,
    MUTANT_HASTY_FLOODMIN,
    SyncSpace,
    check_slice,
    input_frontier,
    register_mutants,
)
from repro.check.oracles import REFERENCE_ORACLES
from repro.exceptions import InvalidParameterError
from repro.store import ResultStore
from repro.sync.adversary import count_schedules, enumerate_schedules

#: Every algorithm with a synchronous factory; the two consensus algorithms
#: take k = 1 only.
_SYNC = (
    "condition-kset",
    "condition-consensus",
    "floodmin",
    "flood-consensus",
    "early-deciding",
    MUTANT_HASTY_FLOODMIN,
    MUTANT_ECHOLESS_FLOODMIN,
)
_CONSENSUS = frozenset({"condition-consensus", "flood-consensus"})

#: ``(n, t, k, domain, rounds)`` cells of at most 1,400 executions: every
#: crash round for t = 1, the first one or two for t = 2.
_CELLS = (
    (2, 1, 1, 2, 2),
    (2, 1, 1, 3, 2),
    (3, 1, 1, 2, 2),
    (3, 1, 1, 3, 2),
    (3, 2, 1, 2, 1),
    (3, 2, 2, 2, 1),
    (3, 2, 2, 2, 2),
    (4, 1, 1, 2, 2),
)

#: Small enough that most failing pairs truncate.
_KEPT = 5


@st.composite
def _differentials(draw):
    """A cell, a condition degree ``d`` and an ordered algorithm pair."""
    n, t, k, domain, rounds = draw(st.sampled_from(_CELLS))
    names = _SYNC if k == 1 else tuple(name for name in _SYNC if name not in _CONSENSUS)
    spec = AgreementSpec(n=n, t=t, k=k, d=draw(st.integers(0, t - 1)), ell=1, domain=domain)
    return spec, rounds, draw(st.sampled_from(names)), draw(st.sampled_from(names))


def _double_loop(spec, rounds, checked, reference):
    """Every ``(vector, schedule, decisions, reference decisions)`` on which
    the two algorithms decide differently, in the check's order (schedule,
    then frontier vector), found with nothing but :meth:`Engine.run`."""
    engine, other = Engine(spec, checked), Engine(spec, reference)
    diffs = []
    for schedule in enumerate_schedules(spec.n, spec.t, rounds):
        for vector in input_frontier(spec, engine.condition):
            decisions = engine.run(vector, schedule).decisions
            expected = other.run(vector, schedule).decisions
            if decisions != expected:
                diffs.append((vector, schedule, decisions, expected))
    return diffs


@given(_differentials())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_check_counts_the_double_loops_diffs(case):
    register_mutants()
    spec, rounds, checked, reference = case
    options = dict(rounds=rounds, reference=reference, max_counterexamples=_KEPT)
    report = Engine(spec, checked).check(**options)
    diffs = _double_loop(spec, rounds, checked, reference)

    assert report.executions == count_schedules(spec.n, spec.t, rounds) * report.vector_count
    assert [tally.to_record() for tally in report.tallies] == [
        {"oracle": "reference-decisions", "checked": report.executions, "violations": len(diffs)}
    ]
    assert report.passed is not diffs and report.truncated is (len(diffs) > _KEPT)
    assert [
        (ce.vector, ce.adversary["schedule"], ce.decisions) for ce in report.counterexamples
    ] == [(vector, schedule.to_records(), decisions) for vector, schedule, decisions, _ in diffs[:_KEPT]]
    for counterexample, (_, _, _, expected) in zip(report.counterexamples, diffs):
        assert counterexample.detail.endswith(
            f"but {reference} decided {dict(sorted(expected.items()))}"
        )

    record = report.to_record()
    for path in ({"vectorized": False}, {"workers": 2}):
        assert Engine(spec, checked).check(**options, **path).to_record() == record


def test_store_records_reload_and_replay(tmp_path):
    register_mutants()
    spec = AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2)
    store = ResultStore(tmp_path / "diff.jsonl")
    report = Engine(spec, MUTANT_HASTY_FLOODMIN).check(
        reference="floodmin", workers=2, store=store
    )
    assert report.tally("reference-decisions").violations == 196
    loaded = store.load_counterexamples()
    assert [ce.to_record() for ce in loaded] == [ce.to_record() for ce in report.counterexamples]
    for counterexample in loaded:
        replayed = counterexample.replay()
        assert replayed.decisions == counterexample.decisions
        reference = Engine(spec, "floodmin").run(counterexample.vector, replayed.schedule)
        assert reference.decisions != replayed.decisions


def test_a_worker_without_mutants_resolves_a_mutant_reference(monkeypatch):
    """A worker started by spawn or forkserver has a registry without the
    mutants, which are registered at runtime; a shard whose reference is one
    registers them as it does for a checked mutant."""
    spec = AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2)
    engine = Engine(spec, "floodmin")
    space = SyncSpace(2, MUTANT_HASTY_FLOODMIN)
    vectors = input_frontier(spec, engine.condition)
    shard = parallel.CheckShard(
        spec=spec, algorithm="floodmin", config=engine.config, space=space, start=0,
        stop=None, vectors=vectors, oracle_names=tuple(REFERENCE_ORACLES),
        max_counterexamples=3, index=0,
    )
    expected = check_slice(engine, space, 0, None, vectors, tuple(REFERENCE_ORACLES), 3)
    monkeypatch.setattr(
        ALGORITHMS, "_entries",
        {name: entry for name, entry in ALGORITHMS._entries.items() if "mutant" not in name},
    )
    monkeypatch.setattr(parallel, "_WORKER_ENGINES", {})
    outcome = parallel._execute_check_shard(shard)
    assert MUTANT_HASTY_FLOODMIN in ALGORITHMS
    assert (outcome.enumerated, outcome.executions) == expected[:2]
    assert [tally.to_record() for tally in outcome.tallies] == [
        tally.to_record() for tally in expected[2]
    ]
    assert [ce.to_record() for ce in outcome.counterexamples] == [
        ce.to_record() for ce in expected[3]
    ]
    assert expected[2][0].violations == 196


@pytest.mark.parametrize("workers", [1, 2])
def test_a_reference_that_refuses_the_spec_is_refused_before_any_pool(monkeypatch, workers):
    """The space builds its reference on the checked spec and config as it
    resolves, so the reference builder's refusal comes before anything is
    enumerated, serial or sharded: no pool opens."""
    pools = []

    class Spy(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Spy)
    engine = Engine(AgreementSpec(n=4, t=2, k=2, d=1, domain=2), "floodmin")
    with pytest.raises(
        InvalidParameterError,
        match=r"^condition-consensus solves consensus \(k = 1\), the spec asks for k=2$",
    ):
        engine.check(reference="condition-consensus", workers=workers)
    assert pools == []
