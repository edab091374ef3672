"""Unit tests for the property checkers and round measurement helpers."""

from __future__ import annotations

import pytest

from repro.analysis.properties import (
    PropertyReport,
    assert_execution_correct,
    check_agreement,
    check_execution,
    check_round_bound,
    check_termination,
    check_validity,
)
from repro.analysis.rounds import RoundMeasurement, adversarial_schedules, measure_worst_rounds
from repro.analysis.tables import format_check, format_table
from repro.api import AgreementSpec, Engine
from repro.asynchronous.scheduler import AsyncExecutionResult
from repro.core.vectors import InputVector
from repro.exceptions import AgreementViolationError
from repro.sync.runtime import ExecutionResult


def make_result(**overrides) -> ExecutionResult:
    base = dict(
        n=3,
        t=1,
        input_vector=InputVector([1, 2, 3]),
        decisions={0: 1, 1: 1, 2: 2},
        decision_rounds={0: 2, 1: 2, 2: 3},
        crash_rounds={},
        rounds_executed=3,
    )
    base.update(overrides)
    return ExecutionResult(**base)


class TestPropertyReport:
    def test_merge_and_bool(self):
        good, bad = PropertyReport(), PropertyReport()
        bad.record("problem")
        merged = good.merge(bad)
        assert not merged
        assert merged.failures == ["problem"]
        assert bool(good)


class TestCheckers:
    def test_termination_ok(self):
        assert check_termination(make_result())

    def test_termination_failure(self):
        report = check_termination(make_result(decisions={0: 1}))
        assert not report
        assert "never decided" in report.failures[0]

    def test_termination_ignores_crashed(self):
        result = make_result(decisions={0: 1, 1: 1}, crash_rounds={2: 1})
        assert check_termination(result)

    def test_async_termination_flag(self):
        result = AsyncExecutionResult(n=2, decisions={0: 1, 1: 1}, terminated=False)
        assert not check_termination(result)

    def test_validity(self):
        assert check_validity(make_result(), InputVector([1, 2, 3]))
        report = check_validity(make_result(decisions={0: 9}), InputVector([1, 2, 3]))
        assert not report
        assert check_validity(make_result(), [1, 2, 3])

    def test_agreement(self):
        assert check_agreement(make_result(), k=2)
        assert not check_agreement(make_result(), k=1)

    def test_round_bound(self):
        assert check_round_bound(make_result(), bound=3)
        assert not check_round_bound(make_result(), bound=2)
        # Crashed processes' decision rounds are ignored.
        result = make_result(crash_rounds={2: 3})
        assert check_round_bound(result, bound=2)

    def test_check_execution_combines_everything(self):
        report = check_execution(make_result(), InputVector([1, 2, 3]), k=2, round_bound=3)
        assert report
        report = check_execution(make_result(), InputVector([1, 2, 3]), k=1, round_bound=2)
        assert len(report.failures) == 2

    def test_assert_execution_correct(self):
        assert_execution_correct(make_result(), InputVector([1, 2, 3]), k=2)
        with pytest.raises(AgreementViolationError):
            assert_execution_correct(make_result(), InputVector([1, 2, 3]), k=1)


class TestRoundMeasurement:
    def test_adversarial_schedules_are_valid(self):
        schedules = adversarial_schedules(n=6, t=3, k=2, last_round=3, rng=0, random_runs=5)
        assert len(schedules) > 5
        for schedule in schedules:
            schedule.validate(n=6, t=3)

    def test_measure_worst_rounds(self):
        engine = Engine(AgreementSpec(n=6, t=3, k=1, domain=6), "floodmin")
        schedules = adversarial_schedules(n=6, t=3, k=1, last_round=4, rng=1, random_runs=5)
        vector = InputVector([6, 5, 4, 3, 2, 1])
        measurement = measure_worst_rounds(engine, vector, schedules, k=1)
        assert isinstance(measurement, RoundMeasurement)
        assert measurement.runs == len(schedules)
        assert measurement.worst_round == engine.algorithm.decision_round() == 4
        assert measurement.worst_agreement == 1
        assert measurement.within(engine.algorithm.decision_round())
        assert not measurement.within(engine.algorithm.decision_round() - 1)


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": True}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2  # header/sep/body aligned
        assert "yes" in text  # booleans rendered as yes/no

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_explicit_columns(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_check(self):
        assert format_check("ok", True).startswith("[PASS]")
        assert format_check("ko", False).startswith("[FAIL]")
