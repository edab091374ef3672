"""Unit tests for the synchronous execution engine and the model guarantees."""

from __future__ import annotations

from typing import Any, Mapping

import pytest

from repro.core.vectors import InputVector
from repro.exceptions import InvalidParameterError, ProtocolStateError, SimulationError
from repro.sync.adversary import (
    CrashEvent,
    CrashSchedule,
    crashes_in_round_one,
    no_crashes,
)
from repro.sync.messages import Message
from repro.sync.process import RoundBasedProcess, SynchronousAlgorithm
from repro.sync.runtime import SynchronousSystem


class EchoProcess(RoundBasedProcess):
    """Test algorithm: record who was heard each round, decide at a fixed round."""

    def __init__(self, process_id: int, n: int, t: int, decide_round: int) -> None:
        super().__init__(process_id, n, t)
        self.heard: dict[int, frozenset[int]] = {}
        self._decide_round = decide_round

    def message_for_round(self, round_number: int) -> Any:
        return (self.process_id, round_number, self.proposal)

    def receive_round(self, round_number: int, messages: Mapping[int, Any]) -> None:
        self.heard[round_number] = frozenset(messages)
        for sender, payload in messages.items():
            assert payload[0] == sender
            assert payload[1] == round_number
        if round_number == self._decide_round:
            self.decide(self.proposal, round_number)


class EchoAlgorithm(SynchronousAlgorithm):
    def __init__(self, decide_round: int = 2) -> None:
        self._decide_round = decide_round

    def create_process(self, process_id: int, n: int, t: int) -> EchoProcess:
        return EchoProcess(process_id, n, t, self._decide_round)

    def max_rounds(self, n: int, t: int) -> int:
        return self._decide_round


class NeverDecides(SynchronousAlgorithm):
    class _Process(RoundBasedProcess):
        def message_for_round(self, round_number: int) -> Any:
            return None

        def receive_round(self, round_number: int, messages: Mapping[int, Any]) -> None:
            return None

    def create_process(self, process_id: int, n: int, t: int) -> RoundBasedProcess:
        return self._Process(process_id, n, t)

    def max_rounds(self, n: int, t: int) -> int:
        return 3


class TestMessage:
    def test_validation(self):
        Message(0, 1, 1, "payload")
        with pytest.raises(InvalidParameterError):
            Message(-1, 0, 1, None)
        with pytest.raises(InvalidParameterError):
            Message(0, 0, 0, None)

    def test_validation_speaks_the_repro_hierarchy(self):
        """Regression (raise-builtin): Message used to raise bare ValueError,
        which the CLI's ReproError handler cannot translate into exit code 2."""
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            Message(0, -1, 1, None)


class TestProcessBase:
    def test_identity_checks(self):
        with pytest.raises(ProtocolStateError):
            EchoProcess(5, 3, 1, 2)

    def test_double_decision_rejected(self):
        process = EchoProcess(0, 3, 1, 1)
        process.initialize("v")
        process.decide("v", 1)
        with pytest.raises(ProtocolStateError):
            process.decide("w", 2)

    def test_halt_without_decision(self):
        process = EchoProcess(0, 3, 1, 5)
        process.halt()
        assert process.has_halted()
        assert not process.has_decided()

    def test_repr_shows_state(self):
        process = EchoProcess(0, 3, 1, 1)
        assert "running" in repr(process)
        process.decide(1, 1)
        assert "decided" in repr(process)


class TestSystemConstruction:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            SynchronousSystem(0, 0, EchoAlgorithm())
        with pytest.raises(InvalidParameterError):
            SynchronousSystem(3, 3, EchoAlgorithm())
        with pytest.raises(InvalidParameterError):
            SynchronousSystem(3, -1, EchoAlgorithm())

    def test_proposal_normalisation(self):
        system = SynchronousSystem(3, 1, EchoAlgorithm())
        by_list = system.run(["a", "b", "c"])
        by_vector = system.run(InputVector(["a", "b", "c"]))
        by_mapping = system.run({0: "a", 1: "b", 2: "c"})
        assert by_list.input_vector == by_vector.input_vector == by_mapping.input_vector

    @pytest.mark.parametrize(
        "n, t", [(2.5, 1), (True, 0), ("3", 1), (3, 1.0), (3, False), (3, None)]
    )
    def test_non_integer_n_or_t_is_refused(self, n, t):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            SynchronousSystem(n, t, EchoAlgorithm())

    @pytest.mark.parametrize("max_rounds", [2.5, True, False, "3", 0, -1])
    def test_max_rounds_must_be_none_or_a_positive_int(self, max_rounds):
        # 0 and -1 used to run without a single round, 2.5 ran silently, True
        # printed "(True rounds)" and "3" leaked a TypeError from run().
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            SynchronousSystem(3, 1, EchoAlgorithm(), max_rounds=max_rounds)

    @pytest.mark.parametrize("max_rounds", [None, 1, 2])
    def test_valid_max_rounds_are_accepted(self, max_rounds):
        system = SynchronousSystem(3, 1, EchoAlgorithm(decide_round=1), max_rounds=max_rounds)
        assert system.run([1, 2, 3]).rounds_executed == 1

    def test_every_process_class_is_checked(self):
        # Every created process is checked: a non-process that first shows up
        # in a later run, after valid ones, is still refused.
        class SometimesNotAProcess(EchoAlgorithm):
            odd = False

            def create_process(self, process_id, n, t):
                if self.odd and process_id == 2:
                    return object()
                return super().create_process(process_id, n, t)

        algorithm = SometimesNotAProcess()
        system = SynchronousSystem(3, 1, algorithm)
        assert system.run([1, 2, 3]).all_correct_decided()
        algorithm.odd = True
        with pytest.raises(SimulationError, match="object, not a RoundBasedProcess"):
            system.run([1, 2, 3])

    def test_wrong_proposal_count(self):
        system = SynchronousSystem(3, 1, EchoAlgorithm())
        with pytest.raises(InvalidParameterError):
            system.run(["a", "b"])
        with pytest.raises(InvalidParameterError):
            system.run({0: "a", 2: "c"})


class TestFailureFreeExecution:
    def test_everyone_hears_everyone(self):
        system = SynchronousSystem(4, 1, EchoAlgorithm(decide_round=2), record_trace=True)
        result = system.run([1, 2, 3, 4])
        assert result.rounds_executed == 2
        assert result.all_correct_decided()
        assert result.decisions == {0: 1, 1: 2, 2: 3, 3: 4}
        assert result.decision_rounds == {pid: 2 for pid in range(4)}
        assert result.failure_count == 0
        assert result.correct_processes == frozenset(range(4))
        trace = result.trace
        assert trace is not None and len(trace) == 2
        for record in trace:
            for pid in range(4):
                assert record.senders_heard_by(pid) == frozenset(range(4))

    def test_trace_optional(self):
        system = SynchronousSystem(3, 1, EchoAlgorithm())
        assert system.run([1, 1, 1]).trace is None

    def test_summary_string(self):
        system = SynchronousSystem(3, 1, EchoAlgorithm())
        result = system.run([1, 1, 1])
        assert "n=3" in result.summary()
        assert "rounds=2" in result.summary()


class TestCrashSemantics:
    def test_initially_crashed_process_is_never_heard(self):
        system = SynchronousSystem(4, 2, EchoAlgorithm(decide_round=2), record_trace=True)
        schedule = crashes_in_round_one(4, 1, delivered_prefix=0)  # crash p3
        result = system.run([1, 2, 3, 4], schedule)
        assert result.crash_rounds == {3: 1}
        assert 3 not in result.decisions
        for record in result.trace:
            for pid in (0, 1, 2):
                assert 3 not in record.senders_heard_by(pid)

    def test_round_one_prefix_delivery(self):
        system = SynchronousSystem(4, 2, EchoAlgorithm(decide_round=2), record_trace=True)
        schedule = CrashSchedule.from_events([CrashEvent.round_one_prefix(3, 2)])
        result = system.run([1, 2, 3, 4], schedule)
        round1 = result.trace.round(1)
        assert 3 in round1.senders_heard_by(0)
        assert 3 in round1.senders_heard_by(1)
        assert 3 not in round1.senders_heard_by(2)

    def test_non_prefix_round_one_rejected(self):
        system = SynchronousSystem(4, 2, EchoAlgorithm())
        schedule = CrashSchedule.from_events([CrashEvent(3, 1, frozenset({1, 2}))])
        with pytest.raises(Exception):
            system.run([1, 2, 3, 4], schedule)

    def test_later_round_subset_delivery(self):
        system = SynchronousSystem(4, 2, EchoAlgorithm(decide_round=3), record_trace=True)
        schedule = CrashSchedule.from_events([CrashEvent(0, 2, frozenset({2}))])
        result = system.run([1, 2, 3, 4], schedule)
        round2 = result.trace.round(2)
        assert 0 in round2.senders_heard_by(2)
        assert 0 not in round2.senders_heard_by(1)
        round3 = result.trace.round(3)
        assert 0 not in round3.senders_heard_by(2)
        assert result.crash_rounds == {0: 2}

    def test_crashed_process_takes_no_computation_step(self):
        system = SynchronousSystem(4, 2, EchoAlgorithm(decide_round=2))
        schedule = CrashSchedule.from_events([CrashEvent.initially_crashed(2)])
        result = system.run([1, 2, 3, 4], schedule)
        assert 2 not in result.decisions
        assert 2 not in result.decision_rounds

    def test_schedule_validated_against_t(self):
        system = SynchronousSystem(4, 1, EchoAlgorithm())
        schedule = crashes_in_round_one(4, 2, delivered_prefix=0)
        with pytest.raises(Exception):
            system.run([1, 2, 3, 4], schedule)

    def test_too_many_crashes_rejected(self):
        system = SynchronousSystem(4, 2, EchoAlgorithm())
        schedule = crashes_in_round_one(4, 3, delivered_prefix=0)
        with pytest.raises(Exception):
            system.run([1, 2, 3, 4], schedule)


class TestWatchdog:
    def test_non_terminating_algorithm_detected(self):
        system = SynchronousSystem(3, 1, NeverDecides())
        with pytest.raises(SimulationError):
            system.run([1, 2, 3])

    def test_max_round_override(self):
        system = SynchronousSystem(3, 1, EchoAlgorithm(decide_round=4), max_rounds=2)
        with pytest.raises(SimulationError):
            system.run([1, 2, 3])

    def test_everyone_crashed_stops_early(self):
        system = SynchronousSystem(3, 2, EchoAlgorithm(decide_round=5), max_rounds=10)
        schedule = no_crashes()
        # Not actually possible to crash everybody with t < n; instead check
        # that halting processes stop the loop before max_rounds.
        result = SynchronousSystem(3, 2, EchoAlgorithm(decide_round=1)).run(
            [1, 2, 3], schedule
        )
        assert result.rounds_executed == 1
        del system
