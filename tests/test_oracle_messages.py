"""The exact violation messages of every oracle, and when each one speaks.

The golden check digests pin the messages of the agreement and round-bound
oracles only, on the cells that happen to fail.  Here every oracle of the
three registries gets a hand-built violating result, and its detail string
is compared byte for byte.

Each oracle first tests its claim cheaply and writes a message only on a
violation.  The property below holds it to the full scan that writes the
message: over drawn results, the oracle returns exactly what the scan
returns, ``None`` included.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AgreementSpec, Engine
from repro.api.result import RunResult
from repro.asynchronous.scheduler import AsyncExecutionResult
from repro.check.async_checker import AsyncSpace
from repro.check.async_oracles import ASYNC_ORACLES
from repro.check.checker import SyncSpace
from repro.check.net_checker import NetSpace
from repro.check.net_oracles import NET_ORACLES
from repro.check.oracles import ORACLES, CheckContext
from repro.core.vectors import InputVector
from repro.sync.adversary import CrashEvent, CrashSchedule

from strategies import crash_schedules

#: x = t - d = 1; bounds 2 in the condition and 3 outside; degree 1.
SPEC = AgreementSpec(n=4, t=2, k=1, d=1, ell=1, domain=3)
#: x = t - d = 1 on the asynchronous backend.
ASYNC_SPEC = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=3)


def _context(spec: AgreementSpec, algorithm: str, space) -> CheckContext:
    engine = Engine(spec, algorithm)
    return CheckContext.from_engine(engine, space.resolve(engine))


#: Theorem 10 applies to condition-kset; early-deciding has an early bound.
KSET = _context(SPEC, "condition-kset", SyncSpace())
EARLY = _context(SPEC, "early-deciding", SyncSpace())
NET = _context(SPEC, "floodmin", NetSpace("send-omission"))
ASYNC = _context(ASYNC_SPEC, "async-condition", AsyncSpace(depth=2))
BUDGET = ASYNC.max_steps_per_process


def _result(backend: str = "sync", **fields) -> RunResult:
    fields.setdefault("n", 4)
    fields.setdefault("input_vector", InputVector([1, 2, 2, 3][: fields["n"]]))
    return RunResult(algorithm="hand-built", backend=backend, t=2, **fields)


def _async_result(steps: dict[int, int], crash_steps: dict[int, int], **fields) -> RunResult:
    raw = AsyncExecutionResult(n=3, steps_by_process=steps, crash_steps=crash_steps)
    return _result("async", n=3, time_unit="steps", raw=raw, **fields)


#: A round-1 crash that reaches nobody, twice: two initial crashes (> x).
INITIAL_CRASHES = CrashSchedule.from_events(
    [CrashEvent.round_one_prefix(0, 0), CrashEvent.round_one_prefix(1, 0)]
)

#: ``(registry, oracle, context, violating result, exact detail)``.
CASES = [
    (
        ORACLES, "validity", KSET,
        _result(decisions={0: 1, 2: 7, 3: 9}),
        "process 2 decided 7, which was never proposed",
    ),
    (
        ORACLES, "agreement", KSET,
        _result(decisions={3: 3, 0: 1, 1: 2}),
        "3 distinct values decided (['1', '2', '3']), but the agreement degree is 1",
    ),
    (
        ORACLES, "termination", KSET,
        _result(decisions={0: 1}, crashed=frozenset({1}), terminated=False),
        "correct process(es) [2, 3] never decided",
    ),
    (
        ORACLES, "round-bound-in-condition", KSET,
        _result(decisions={0: 1}, decision_times={0: 3}, in_condition=True,
                schedule=CrashSchedule()),
        "a correct process decided at round 3, beyond the 2-round fast path "
        "(<= t - d round-1 crashes) of 2",
    ),
    (
        ORACLES, "round-bound-in-condition", KSET,
        _result(decisions={0: 1, 1: 1}, decision_times={0: 2, 1: 3}, in_condition=True),
        "a correct process decided at round 3, beyond the in-condition bound of 2",
    ),
    (
        ORACLES, "round-bound-outside", KSET,
        _result(decisions={2: 1, 3: 1}, decision_times={2: 3, 3: 2}, in_condition=False,
                crashed=frozenset({0, 1}), schedule=INITIAL_CRASHES),
        "a correct process decided at round 3, beyond the initial-crash-tightened "
        "bound (> t - d initial crashes) of 2",
    ),
    (
        ORACLES, "round-bound-outside", KSET,
        _result(decisions={0: 1, 1: 1}, decision_times={0: 4, 1: 5},
                crashed=frozenset({1}), in_condition=False),
        "a correct process decided at round 4, beyond the unconditional bound of 3",
    ),
    (
        ORACLES, "early-deciding-bound", EARLY,
        _result(decisions={0: 1, 2: 1}, decision_times={0: 4, 2: 3}, crashed=frozenset({1})),
        "a correct process decided at round 4, beyond the adaptive bound 3 for f=1 "
        "actual crashes",
    ),
    (
        NET_ORACLES, "net-validity", NET,
        _result("net", decisions={0: 9, 1: 8}, crashed=frozenset({0})),
        "non-faulty process 1 decided 8, which was never proposed",
    ),
    (
        NET_ORACLES, "net-agreement", NET,
        _result("net", decisions={0: 1, 1: 2, 2: 3}, crashed=frozenset({0})),
        "2 distinct values decided by non-faulty processes (['2', '3']), but the "
        "agreement degree is 1",
    ),
    (
        NET_ORACLES, "net-termination", NET,
        _result("net", decisions={1: 1}, crashed=frozenset({0}), duration=3,
                terminated=False),
        "non-faulty process(es) [2, 3] never decided within the 3-round bound under "
        "send-omission",
    ),
    (
        ASYNC_ORACLES, "async-validity", ASYNC,
        _async_result({}, {}, decisions={1: 5}),
        "process 1 decided 5, which was never proposed",
    ),
    (
        ASYNC_ORACLES, "async-agreement", ASYNC,
        _async_result({}, {}, decisions={0: 2, 1: 1}),
        "2 distinct values decided (['1', '2']), but the agreement degree is 1",
    ),
    (
        ASYNC_ORACLES, "async-termination-in-condition", ASYNC,
        _async_result({}, {}, decisions={0: 1}, crashed=frozenset({1}), in_condition=True,
                      terminated=False),
        "in-condition input with 1 <= x = 1 crashes did not terminate within the step "
        "budget; live process(es) [2] never decided",
    ),
    (
        ASYNC_ORACLES, "async-step-budget", ASYNC,
        _async_result({0: 1, 1: BUDGET + 1}, {}),
        f"process 1 was granted {BUDGET + 1} steps, beyond the per-process budget of "
        f"{BUDGET}",
    ),
    (
        ASYNC_ORACLES, "async-step-budget", ASYNC,
        _async_result({0: 3, 1: 2}, {0: 2}),
        "process 0 took 3 steps past its crash point of 2",
    ),
]


@pytest.mark.parametrize(
    "registry, name, context, result, detail",
    CASES,
    ids=[f"{case[1]}-{index}" for index, case in enumerate(CASES)],
)
def test_every_oracle_writes_its_exact_message(registry, name, context, result, detail):
    oracle = registry[name]
    assert oracle.applies(context, result)
    assert oracle.check(context, result) == detail


def test_every_oracle_has_a_message_case():
    covered = {(id(case[0]), case[1]) for case in CASES}
    for registry in (ORACLES, NET_ORACLES, ASYNC_ORACLES):
        assert {(id(registry), name) for name in registry} <= covered


# ----------------------------------------------------------------------
# The full scans: what each oracle says, computed without a shortcut
# ----------------------------------------------------------------------
def _correct(result: RunResult) -> list[int]:
    return sorted(frozenset(range(result.n)) - result.crashed)


def _latest_correct(result: RunResult) -> int:
    return max(
        (result.decision_times[pid] for pid in _correct(result) if pid in result.decision_times),
        default=0,
    )


def _validity(context, result):
    proposed = set(result.input_vector.entries)
    for pid, value in sorted(result.decisions.items()):
        if value not in proposed:
            return f"process {pid} decided {value!r}, which was never proposed"
    return None


def _agreement(context, result):
    decided = set(result.decisions.values())
    if len(decided) > context.degree:
        return (
            f"{len(decided)} distinct values decided ({sorted(map(repr, decided))}), "
            f"but the agreement degree is {context.degree}"
        )
    return None


def _termination(context, result):
    undecided = [pid for pid in _correct(result) if pid not in result.decisions]
    return f"correct process(es) {undecided} never decided" if undecided else None


def _late(result, bound, label):
    latest = _latest_correct(result)
    if latest > bound:
        return f"a correct process decided at round {latest}, beyond the {label} of {bound}"
    return None


def _in_condition(context, result):
    schedule = result.schedule
    if (
        context.theorem10
        and schedule is not None
        and schedule.round_one_crash_count() <= context.spec.x
    ):
        return _late(
            result,
            min(context.in_bound, 2),
            "2-round fast path (<= t - d round-1 crashes)",
        )
    return _late(result, context.in_bound, "in-condition bound")


def _outside(context, result):
    schedule = result.schedule
    if (
        context.theorem10
        and result.in_condition is False
        and schedule is not None
        and schedule.initial_crash_count() > context.spec.x
    ):
        return _late(
            result,
            min(context.out_bound, context.in_bound),
            "initial-crash-tightened bound (> t - d initial crashes)",
        )
    return _late(result, context.out_bound, "unconditional bound")


def _early(context, result):
    bound = context.early_bound(len(result.crashed))
    latest = _latest_correct(result)
    if latest > bound:
        return (
            f"a correct process decided at round {latest}, beyond the adaptive bound "
            f"{bound} for f={len(result.crashed)} actual crashes"
        )
    return None


def _net_validity(context, result):
    proposed = set(result.input_vector.entries)
    for pid in _correct(result):
        if pid in result.decisions and result.decisions[pid] not in proposed:
            return (
                f"non-faulty process {pid} decided {result.decisions[pid]!r}, "
                "which was never proposed"
            )
    return None


def _net_agreement(context, result):
    decided = {result.decisions[pid] for pid in _correct(result) if pid in result.decisions}
    if len(decided) > context.degree:
        return (
            f"{len(decided)} distinct values decided by non-faulty processes "
            f"({sorted(map(repr, decided))}), but the agreement degree is {context.degree}"
        )
    return None


def _net_termination(context, result):
    undecided = [pid for pid in _correct(result) if pid not in result.decisions]
    if undecided:
        return (
            f"non-faulty process(es) {undecided} never decided within the "
            f"{result.duration}-round bound under {context.space.adversary}"
        )
    return None


def _async_termination(context, result):
    undecided = [pid for pid in _correct(result) if pid not in result.decisions]
    if undecided:
        return (
            f"in-condition input with {len(result.crashed)} <= x = {context.spec.x} "
            "crashes did not terminate within the step budget; live process(es) "
            f"{undecided} never decided"
        )
    return None


#: The scan of every oracle a drawn result can meet.  ``async-step-budget``
#: applies to a result with its asynchronous raw result only, and reads that.
SCANS = {
    "validity": _validity,
    "agreement": _agreement,
    "termination": _termination,
    "round-bound-in-condition": _in_condition,
    "round-bound-outside": _outside,
    "early-deciding-bound": _early,
    "net-validity": _net_validity,
    "net-agreement": _net_agreement,
    "net-termination": _net_termination,
    "async-validity": _validity,
    "async-agreement": _agreement,
    "async-termination-in-condition": _async_termination,
}


@st.composite
def round_results(draw, backend: str = "sync") -> RunResult:
    """A result as a round runtime would normalize it: every decider has a
    decision time, and ``terminated`` says whether every process outside
    ``crashed`` decided."""
    n = draw(st.integers(min_value=1, max_value=5))
    pids = st.integers(min_value=0, max_value=n - 1)
    deciders = draw(st.lists(pids, unique=True))
    crashed = draw(st.frozensets(pids))
    return RunResult(
        algorithm="drawn",
        backend=backend,
        n=n,
        t=n - 1,
        input_vector=InputVector(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))),
        decisions={pid: draw(st.integers(0, 4)) for pid in deciders},
        decision_times={pid: draw(st.integers(1, 4)) for pid in deciders},
        crashed=crashed,
        duration=draw(st.integers(0, 4)),
        terminated=all(pid in deciders for pid in range(n) if pid not in crashed),
        in_condition=draw(st.sampled_from([True, False, None])),
        schedule=draw(st.none() | crash_schedules(n, n - 1, 2)),
    )


@settings(max_examples=300, deadline=None)
@given(
    result=round_results(),
    checked=st.sampled_from(
        [(KSET, ORACLES), (EARLY, ORACLES), (NET, NET_ORACLES), (ASYNC, ASYNC_ORACLES)]
    ),
    degree=st.integers(min_value=1, max_value=3),
)
def test_each_oracle_says_what_its_full_scan_says(result, checked, degree):
    context, registry = checked
    context = replace(context, degree=degree)
    for name, oracle in registry.items():
        if oracle.applies(context, result):
            assert oracle.check(context, result) == SCANS[name](context, result), name
