"""Tests for the synchronous message-passing backend (``repro.net``, PR 7).

Covers the explicit message matrix and its failure models (omission, loss,
delay, Byzantine corruption), the fault-space enumerator against its closed
forms, the engine/parallel/store/CLI/serve wiring, the applicability-gated
net oracles, the deliberately broken mutants the oracles must catch, and the
seed-determinism properties of the stochastic adversaries.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AgreementSpec, Engine, RunConfig
from repro.api.registry import ALGORITHMS, AlgorithmEntry
from repro.check import (
    MUTANT_ECHOLESS_FLOODMIN,
    MUTANT_SILENT_FLOODMIN,
    NET_ORACLES,
    CheckContext,
    Counterexample,
    NetSpace,
    input_frontier,
    register_mutants,
)
from repro.exceptions import (
    BackendError,
    InvalidParameterError,
    RegistryError,
)
from repro.net import (
    BoundedDelayAdversary,
    ByzantineCorruptAdversary,
    EnumeratedCorruption,
    EnumeratedDelay,
    EnumeratedMessageLoss,
    FaultFreeAdversary,
    MessageLossAdversary,
    NetAdversary,
    NetSystem,
    ReceiveOmissionAdversary,
    SendOmissionAdversary,
    adversary_from_record,
    available_net_adversaries,
    count_faults,
    enumerate_faults,
    resolve_net_adversary,
)
from repro.net.adversary import DELIVER
from repro.store import ResultStore
from repro.sync.process import RoundBasedProcess, SynchronousAlgorithm
from repro.sync.runtime import SynchronousSystem
from repro.workloads.scenarios import net_scenario

from strategies import lost_message_sets, omission_assignments

SPEC = AgreementSpec(n=4, t=1, k=1, domain=4)
TINY = AgreementSpec(n=3, t=1, k=1, domain=3)


def _floodmin(spec: AgreementSpec):
    from repro.algorithms.classic_kset import FloodMinKSetAgreement

    return FloodMinKSetAgreement(t=spec.t, k=spec.k)


# ----------------------------------------------------------------------
# Adversary unit behaviour
# ----------------------------------------------------------------------
class TestNetAdversaries:
    def test_registry_lists_every_family(self):
        assert available_net_adversaries() == (
            "bounded-delay",
            "byzantine-corrupt",
            "fault-free",
            "message-loss",
            "receive-omission",
            "send-omission",
        )

    def test_resolve_by_name_and_instance(self):
        by_name = resolve_net_adversary("fault-free", 3, 1, 0)
        assert isinstance(by_name, FaultFreeAdversary)
        instance = SendOmissionAdversary({0: {1}})
        assert resolve_net_adversary(instance, 3, 1, 0) is instance
        with pytest.raises(RegistryError):
            resolve_net_adversary("no-such-model", 3, 1, 0)

    def test_omission_assignments_are_validated(self):
        with pytest.raises(InvalidParameterError):
            SendOmissionAdversary({0: set()})  # empty receiver set
        with pytest.raises(InvalidParameterError):
            SendOmissionAdversary({0: {0}})  # self-channel
        with pytest.raises(InvalidParameterError):
            ReceiveOmissionAdversary({2: {2}})

    def test_faulty_sets_are_the_victims(self):
        assert SendOmissionAdversary({0: {1}, 2: {0}}).faulty == frozenset({0, 2})
        assert ReceiveOmissionAdversary({1: {0}}).faulty == frozenset({1})
        # Message-granular models blame no process.
        assert MessageLossAdversary(p=0.5, seed=1).faulty == frozenset()
        assert FaultFreeAdversary().faulty == frozenset()

    def test_fault_record_round_trips_each_family(self):
        adversaries = [
            FaultFreeAdversary(),
            SendOmissionAdversary({0: {1, 2}}),
            ReceiveOmissionAdversary({1: {0}}),
            MessageLossAdversary(p=0.25, seed=9),
            EnumeratedMessageLoss({(1, 0, 1), (2, 2, 0)}),
            BoundedDelayAdversary(d_max=2, seed=3),
            EnumeratedDelay({(1, 0, 1): 1, (2, 1, 2): 2}),
            ByzantineCorruptAdversary(limit=1, p=0.3, seed=4),
            EnumeratedCorruption({(1, 0, 1): 2}),
        ]
        for adversary in adversaries:
            rebuilt = adversary_from_record(adversary.fault_record())
            assert type(rebuilt) is type(adversary)
            assert rebuilt.fault_record() == adversary.fault_record()

    def test_enumerated_variants_reject_self_channels(self):
        with pytest.raises(InvalidParameterError):
            EnumeratedMessageLoss({(1, 2, 2)})
        with pytest.raises(InvalidParameterError):
            EnumeratedDelay({(1, 1, 1): 1})
        with pytest.raises(InvalidParameterError):
            EnumeratedCorruption({(1, 0, 0): 1})
        with pytest.raises(InvalidParameterError):
            # Corrupting with the sender's own payload is a delivery.
            EnumeratedCorruption({(1, 0, 1): 0})


# ----------------------------------------------------------------------
# Fault-space enumeration against the closed forms
# ----------------------------------------------------------------------
class TestFaultEnumeration:
    @pytest.mark.parametrize(
        "family", ["send-omission", "receive-omission", "message-loss"]
    )
    @pytest.mark.parametrize("n,rounds,max_faults", [(3, 2, 1), (3, 2, 2), (4, 2, 1)])
    def test_enumeration_matches_closed_form(self, family, n, rounds, max_faults):
        enumerated = list(enumerate_faults(family, n, rounds, max_faults))
        assert len(enumerated) == count_faults(family, n, rounds, max_faults)

    @pytest.mark.parametrize("family", ["bounded-delay", "byzantine-corrupt"])
    def test_delay_and_corruption_closed_forms(self, family):
        enumerated = list(enumerate_faults(family, 3, 2, 1))
        assert len(enumerated) == count_faults(family, 3, 2, 1)

    def test_bounded_delay_respects_d_max(self):
        singles = count_faults("bounded-delay", 3, 2, 1, d_max=1)
        doubles = count_faults("bounded-delay", 3, 2, 1, d_max=2)
        assert doubles > singles
        assert len(list(enumerate_faults("bounded-delay", 3, 2, 1, d_max=2))) == doubles

    def test_enumeration_is_deterministic_and_fault_free_first(self):
        first = [a.fault_record() for a in enumerate_faults("send-omission", 3, 2, 1)]
        second = [a.fault_record() for a in enumerate_faults("send-omission", 3, 2, 1)]
        assert first == second
        assert first[0]["assignment"] == []

    def test_unknown_family_and_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            list(enumerate_faults("no-such-model", 3, 2, 1))
        with pytest.raises(InvalidParameterError):
            count_faults("message-loss", 3, 0, 1)
        with pytest.raises(InvalidParameterError):
            count_faults("message-loss", 3, 2, -1)


# ----------------------------------------------------------------------
# The runtime: message matrix semantics
# ----------------------------------------------------------------------
class TestNetSystem:
    def test_fault_free_matches_the_sync_backend(self):
        algorithm = _floodmin(SPEC)
        vector = [3, 1, 4, 2]
        net = NetSystem(SPEC.n, SPEC.t, algorithm).run(vector, FaultFreeAdversary())
        sync = SynchronousSystem(SPEC.n, SPEC.t, algorithm).run(vector)
        assert net.decisions == sync.decisions
        assert net.rounds_executed == sync.rounds_executed
        assert net.fault_events == ()
        assert net.all_correct_decided()

    def test_send_omission_drops_the_victims_channels(self):
        adversary = SendOmissionAdversary({0: {1, 2}})
        result = NetSystem(SPEC.n, SPEC.t, _floodmin(SPEC)).run([1, 2, 3, 4], adversary)
        dropped = {(e.sender, e.receiver) for e in result.fault_events}
        assert dropped == {(0, 1), (0, 2)}
        assert all(e.outcome == "dropped" for e in result.fault_events)
        assert result.faulty == frozenset({0})
        # FloodMin survives a static send-omission victim: the relay holds.
        assert result.distinct_decision_count() <= SPEC.k

    def test_self_channels_are_untouchable(self):
        # Even a certain-loss adversary cannot cut a process off from itself.
        result = NetSystem(TINY.n, TINY.t, _floodmin(TINY)).run(
            [1, 2, 3], MessageLossAdversary(p=1.0, seed=0)
        )
        assert all(
            e.sender != e.receiver for e in result.fault_events
        )
        # n self-deliveries per round still happen.
        assert result.delivered_count == TINY.n * result.rounds_executed

    def test_byzantine_corruption_equivocates(self):
        adversary = EnumeratedCorruption({(1, 0, 1): 2})
        result = NetSystem(TINY.n, TINY.t, _floodmin(TINY)).run([5, 7, 9], adversary)
        (event,) = result.fault_events
        assert (event.outcome, event.sender, event.receiver, event.detail) == (
            "corrupted", 0, 1, 2
        )
        # Receiver 1 heard 9 instead of 5 in round 1; round 2 relays recover
        # the true minimum, so agreement still holds here.
        assert result.decisions == {0: 5, 1: 5, 2: 5}

    def test_delayed_messages_are_audited_not_delivered(self):
        # The stale payload must never reach a later round's inbox: the
        # condition-kset algorithm floods an int in round 1 and a state
        # triple after, so retroactive delivery would crash the receiver.
        spec = AgreementSpec(n=3, t=1, k=1, d=1, domain=3)
        engine = Engine(spec, "condition-kset")
        delayed = EnumeratedDelay({(1, 0, 1): 1, (2, 0, 1): 1})
        result = engine.run([1, 2, 2], backend="net", net_adversary=delayed)
        outcomes = sorted(e.outcome for e in result.raw.fault_events)
        assert outcomes == ["delayed", "delayed", "expired", "late"]
        assert result.terminated

    def test_delay_past_the_final_round_expires(self):
        adversary = EnumeratedDelay({(2, 0, 1): 5})
        result = NetSystem(TINY.n, TINY.t, _floodmin(TINY)).run([1, 2, 3], adversary)
        assert [e.outcome for e in result.fault_events] == ["delayed", "expired"]

    def test_fingerprint_is_deterministic_and_fault_sensitive(self):
        system = NetSystem(TINY.n, TINY.t, _floodmin(TINY))
        a = system.run([1, 2, 3], MessageLossAdversary(p=0.4, seed=11))
        b = system.run([1, 2, 3], MessageLossAdversary(p=0.4, seed=11))
        c = system.run([1, 2, 3], MessageLossAdversary(p=0.4, seed=12))
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_run_seed_feeds_unseeded_stochastic_adversaries(self):
        system = NetSystem(TINY.n, TINY.t, _floodmin(TINY))
        adversary = MessageLossAdversary(p=0.4)  # seed=None: use the run seed
        a = system.run([1, 2, 3], adversary, seed=5)
        b = system.run([1, 2, 3], adversary, seed=5)
        c = system.run([1, 2, 3], adversary, seed=6)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    @pytest.mark.parametrize(
        "n, t", [(2.5, 1), (True, 0), ("3", 1), (3, 1.0), (3, False), (3, None)]
    )
    def test_non_integer_n_or_t_is_refused(self, n, t):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            NetSystem(n, t, _floodmin(TINY))

    @pytest.mark.parametrize("max_rounds", [2.5, True, False, "3", 0, -1])
    def test_max_rounds_must_be_none_or_a_positive_int(self, max_rounds):
        # 0 and -1 used to return a 0-round run with no decisions, which
        # net-termination would have reported as an algorithm finding.
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            NetSystem(TINY.n, TINY.t, _floodmin(TINY), max_rounds=max_rounds)

    def test_max_rounds_override_stops_the_run(self):
        system = NetSystem(TINY.n, TINY.t, _floodmin(TINY), max_rounds=1)
        result = system.run([1, 2, 3], FaultFreeAdversary())
        assert result.rounds_executed == 1
        assert not result.all_correct_decided()


# ----------------------------------------------------------------------
# The verdict protocol: who is asked about which channel, and how often
# ----------------------------------------------------------------------
class _CountingOmission(SendOmissionAdversary):
    """Send omission that records every channel it is asked about."""

    def __init__(self, assignment):
        super().__init__(assignment)
        self.asked = []

    def treat(self, round_number, sender, receiver):
        self.asked.append((round_number, sender, receiver))
        return super().treat(round_number, sender, receiver)


class _RecordingLoss(MessageLossAdversary):
    """Seeded loss that records each run's channel sequence."""

    def __init__(self):
        super().__init__(p=0.5)
        self.runs = []

    def begin_run(self, n, seed):
        super().begin_run(n, seed)
        self.runs.append([])

    def treat(self, round_number, sender, receiver):
        self.runs[-1].append((round_number, sender, receiver))
        return super().treat(round_number, sender, receiver)


class _UndeclaredDelivery(NetAdversary):
    """A pure adversary that does not declare ``fixed_verdicts``."""

    family = "fault-free"

    def __init__(self):
        self.asked = 0

    def treat(self, round_number, sender, receiver):
        self.asked += 1
        return DELIVER

    def fault_record(self):
        return {"family": self.family}


class _HaltAtProposal(SynchronousAlgorithm):
    """Each process decides its proposal, a round number, in that round."""

    class _Process(RoundBasedProcess):
        def message_for_round(self, round_number):
            return self.proposal

        def receive_round(self, round_number, messages):
            if round_number == self.proposal:
                self.decide(self.proposal, round_number)

    def create_process(self, process_id, n, t):
        return self._Process(process_id, n, t)

    def max_rounds(self, n, t):
        return n


def _channels(n, rounds):
    return [
        (round_number, sender, receiver)
        for round_number in range(1, rounds + 1)
        for sender in range(n)
        for receiver in range(n)
        if sender != receiver
    ]


class TestVerdictProtocol:
    def test_fixed_verdicts_are_kept_after_the_first_run(self):
        # The first run plans with its own payloads, the second plans again
        # and keeps its plans per round and live senders.  floodmin keeps
        # every process running until its last round, so one fault
        # assignment has a single live-sender set per round: the whole
        # frontier costs two questions per channel, not one per run.
        engine = Engine(TINY, "floodmin")
        system = NetSystem(TINY.n, TINY.t, engine.algorithm)
        adversary = _CountingOmission({0: {1}})
        frontier = input_frontier(TINY, None)
        assert len(frontier) > 1
        results = [system.run(vector, adversary) for vector in frontier]
        rounds = engine.algorithm.max_rounds(TINY.n, TINY.t)
        assert adversary.asked == 2 * _channels(TINY.n, rounds)
        fresh = [
            NetSystem(TINY.n, TINY.t, engine.algorithm).run(vector, _CountingOmission({0: {1}}))
            for vector in frontier
        ]
        assert [r.fingerprint for r in results] == [r.fingerprint for r in fresh]

    def test_seeded_adversaries_see_every_live_channel_in_every_run(self):
        # Process i halts after round i + 1, so round r has the live senders
        # r - 1 .. n - 1; a halted sender's channels are never asked about.
        adversary = _RecordingLoss()
        system = NetSystem(3, 1, _HaltAtProposal())
        for seed in range(3):
            system.run([1, 2, 3], adversary, seed=seed)
        expected = [
            (round_number, sender, receiver)
            for round_number, sender, receiver in _channels(3, 3)
            if sender >= round_number - 1
        ]
        assert adversary.runs == [expected] * 3

    @pytest.mark.parametrize(
        "adversary",
        [
            EnumeratedCorruption({(2, 2, 0): 1, (3, 2, 1): 0}),
            EnumeratedMessageLoss({(2, 1, 2), (3, 2, 0)}),
            EnumeratedDelay({(1, 0, 2): 1, (2, 2, 1): 1}),
        ],
        ids=["corruption", "loss", "delay"],
    )
    def test_kept_plans_follow_the_live_senders(self, adversary):
        # Halting rounds follow the proposals, so one fault assignment meets
        # different live senders in the same round from vector to vector.
        shared = NetSystem(3, 1, _HaltAtProposal())
        for vector in ([1, 2, 3], [3, 2, 1], [3, 3, 3], [2, 3, 1], [1, 2, 3]):
            kept = shared.run(vector, adversary)
            fresh = NetSystem(3, 1, _HaltAtProposal()).run(vector, adversary)
            assert kept.fingerprint == fresh.fingerprint
            assert (kept.delivered_count, kept.fault_events, kept.decisions) == (
                fresh.delivered_count,
                fresh.fault_events,
                fresh.decisions,
            )

    @pytest.mark.parametrize("fixed", [True, False])
    def test_maturities_are_judged_by_the_receivers_own_inbox(self, fixed):
        # Receiver 0 halts after round 1, and in round 2 both live senders'
        # channels to it are delayed: its inbox is empty, so the round-1
        # delay maturing there is late, not superseded by anyone else's
        # delivery.  A run's own plan and a kept one (from the third run of
        # a fixed-verdict object on) must agree.
        class Delay(EnumeratedDelay):
            fixed_verdicts = fixed

        adversary = Delay({(1, 2, 0): 1, (2, 1, 0): 1, (2, 2, 0): 1})
        system = NetSystem(3, 1, _HaltAtProposal())
        for _ in range(3):
            result = system.run([1, 2, 3], adversary)
            assert [event.to_tuple() for event in result.fault_events] == [
                (1, 2, 0, "delayed", 1),
                (2, 1, 0, "delayed", 1),
                (2, 2, 0, "delayed", 1),
                (2, 2, 0, "late", None),
                (3, 1, 0, "late", None),
                (3, 2, 0, "superseded", None),
            ]

    def test_an_undeclared_adversary_is_asked_on_every_run(self):
        adversary = _UndeclaredDelivery()
        assert not adversary.fixed_verdicts
        system = NetSystem(TINY.n, TINY.t, _floodmin(TINY))
        for _ in range(4):
            system.run([1, 2, 3], adversary)
        rounds = _floodmin(TINY).max_rounds(TINY.n, TINY.t)
        assert adversary.asked == 4 * len(_channels(TINY.n, rounds))

    def test_another_fixed_verdict_object_is_planned_afresh(self):
        system = NetSystem(TINY.n, TINY.t, _floodmin(TINY))
        first, second = _CountingOmission({0: {1}}), _CountingOmission({0: {2}})
        runs = [system.run([1, 2, 3], adversary) for adversary in (first, second, first)]
        per_run = len(_channels(TINY.n, _floodmin(TINY).max_rounds(TINY.n, TINY.t)))
        assert (len(first.asked), len(second.asked)) == (2 * per_run, per_run)
        assert {e.receiver for e in runs[1].fault_events} == {2}
        assert runs[0].fingerprint == runs[2].fingerprint != runs[1].fingerprint


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineNetBackend:
    def test_run_normalizes_to_a_net_result(self):
        engine = Engine(SPEC, "floodmin")
        result = engine.run([2, 1, 3, 4], backend="net", net_adversary="send-omission")
        assert result.backend == "net"
        assert result.time_unit == "rounds"
        assert result.schedule is None
        assert result.fingerprint
        assert result.terminated

    def test_config_net_adversary_is_the_default(self):
        engine = Engine(
            SPEC, "floodmin", RunConfig(backend="net", net_adversary="message-loss")
        )
        result = engine.run([1, 2, 3, 4], seed=3)
        assert result.raw.adversary_family == "message-loss"

    def test_config_rejects_unknown_net_adversary(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(net_adversary="no-such-model")

    def test_omission_victims_become_the_crashed_set(self):
        engine = Engine(SPEC, "floodmin")
        adversary = SendOmissionAdversary({1: {0}})
        result = engine.run([1, 2, 3, 4], backend="net", net_adversary=adversary)
        assert result.crashed == frozenset({1})

    def test_net_backend_rejects_sync_and_async_knobs(self):
        from repro.sync.adversary import CrashEvent, CrashSchedule

        engine = Engine(SPEC, "floodmin")
        schedule = CrashSchedule.from_events([CrashEvent.round_one_prefix(0, 1)])
        with pytest.raises(InvalidParameterError):
            engine.run([1, 2, 3, 4], schedule, backend="net")
        with pytest.raises(InvalidParameterError):
            engine.run([1, 2, 3, 4], backend="net", max_steps=10)
        with pytest.raises(InvalidParameterError):
            engine.run([1, 2, 3, 4], backend="net", async_adversary="random")

    def test_other_backends_reject_the_net_adversary(self):
        engine = Engine(SPEC, "floodmin")
        with pytest.raises(InvalidParameterError):
            engine.run([1, 2, 3, 4], backend="sync", net_adversary="message-loss")

    def test_batch_parity_serial_vs_workers(self):
        engine = Engine(SPEC, "floodmin")
        vectors = [[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 2, 2], [1, 1, 4, 4]]
        serial = engine.run_batch(
            vectors, backend="net", net_adversary="message-loss", seeds=[5, 6, 7, 8]
        )
        sharded = engine.run_batch(
            vectors,
            backend="net",
            net_adversary="message-loss",
            seeds=[5, 6, 7, 8],
            workers=4,
        )
        assert [r.to_record() for r in serial] == [r.to_record() for r in sharded]

    def test_parallel_batches_need_a_registry_name(self):
        engine = Engine(SPEC, "floodmin")
        with pytest.raises(InvalidParameterError):
            engine.run_batch(
                [[1, 2, 3, 4]],
                backend="net",
                net_adversary=SendOmissionAdversary({0: {1}}),
                workers=2,
            )

    def test_sweep_carries_the_net_adversary(self):
        engine = Engine(SPEC, "floodmin", RunConfig(backend="net"))
        cells = engine.sweep({"k": (1, 2)}, 2, net_adversary="message-loss")
        assert len(cells) == 2
        assert all(cell.error is None for cell in cells)
        for cell in cells:
            assert all(r.raw.adversary_family == "message-loss" for r in cell.results)

    def test_results_round_trip_through_the_store(self, tmp_path):
        engine = Engine(SPEC, "floodmin")
        store = ResultStore(tmp_path / "net.jsonl")
        results = engine.run_batch(
            [[1, 2, 3, 4], [2, 2, 1, 1]],
            backend="net",
            net_adversary="message-loss",
            store=store,
        )
        loaded = store.load_results()
        assert [r.fingerprint for r in loaded] == [r.fingerprint for r in results]
        assert all(r.backend == "net" for r in loaded)


# ----------------------------------------------------------------------
# The exhaustive fault-space checker
# ----------------------------------------------------------------------
class TestNetCheck:
    def test_floodmin_passes_send_omission_exhaustively(self):
        report = Engine(TINY, "floodmin").check(backend="net", adversary="send-omission")
        assert report.passed
        space = report.space
        assert space.adversary == "send-omission"
        assert report.adversary_count == count_faults(
            "send-omission", TINY.n, space.rounds, space.max_faults
        )
        assert report.executions == report.adversary_count * report.vector_count
        for name in NET_ORACLES:
            tally = report.tally(name)
            assert tally.violations == 0

    def test_acceptance_grid_n4_t2(self):
        # The ISSUE's acceptance bar: exhaustive n <= 4, t <= 2 with the
        # closed form cross-validated (run_check raises on mismatch).
        spec = AgreementSpec(n=4, t=2, k=2, domain=2)
        report = Engine(spec, "floodmin").check(backend="net", adversary="send-omission")
        assert report.passed
        assert report.space.max_faults == 2
        assert report.adversary_count == count_faults(
            "send-omission", 4, report.space.rounds, 2
        )

    def test_serial_and_parallel_reports_are_byte_identical(self):
        engine = Engine(TINY, "floodmin")
        serial = engine.check(backend="net", adversary="receive-omission")
        sharded = engine.check(backend="net", adversary="receive-omission", workers=4)
        assert json.dumps(serial.to_record(), sort_keys=True) == json.dumps(
            sharded.to_record(), sort_keys=True
        )

    def test_message_loss_and_delay_families_pass_on_floodmin(self):
        engine = Engine(TINY, "floodmin")
        for family in ("message-loss", "bounded-delay"):
            report = engine.check(
                backend="net", adversary=family, vectors=[[1, 2, 3], [2, 1, 1]]
            )
            assert report.passed, report.render()

    def test_byzantine_gates_the_crash_only_oracles(self):
        report = Engine(TINY, "floodmin").check(
            backend="net", adversary="byzantine-corrupt", max_faults=1
        )
        assert report.tally("net-validity").checked == 0
        assert report.tally("net-agreement").checked == 0
        assert report.tally("net-termination").checked == report.executions
        assert "n/a" in report.render()

    def test_parameter_routing_is_guarded(self):
        engine = Engine(TINY, "floodmin")
        with pytest.raises(InvalidParameterError):
            engine.check(backend="sync", adversary="send-omission")
        with pytest.raises(InvalidParameterError):
            engine.check(backend="async", max_faults=1)
        with pytest.raises(InvalidParameterError):
            engine.check(backend="net", depth=2)
        with pytest.raises(InvalidParameterError):
            engine.check(backend="net", max_crashes=1)
        with pytest.raises(InvalidParameterError):
            engine.check(backend="net", adversary="no-such-model")

    def test_net_check_needs_a_net_capable_algorithm(self):
        spec = AgreementSpec(n=3, t=1, k=1, d=0, domain=2)
        engine = Engine(spec, "async-condition")
        with pytest.raises(BackendError):
            engine.check(backend="net")

    def test_oracle_subset_and_explicit_vectors(self):
        report = Engine(TINY, "floodmin").check(
            backend="net",
            adversary="send-omission",
            vectors=[[1, 2, 3]],
            oracles=["net-agreement"],
        )
        assert report.vector_count == 1
        assert [tally.oracle for tally in report.tallies] == ["net-agreement"]


# ----------------------------------------------------------------------
# Mutants: the oracles must bite
# ----------------------------------------------------------------------
class TestNetMutants:
    def test_echoless_floodmin_breaks_agreement_under_send_omission(self):
        register_mutants()
        report = Engine(TINY, MUTANT_ECHOLESS_FLOODMIN).check(
            backend="net", adversary="send-omission"
        )
        assert not report.passed
        assert report.tally("net-agreement").violations > 0
        # The relay-less mutant is fault-free-correct: only omission trips it.
        assert report.tally("net-termination").violations == 0

    def test_silent_floodmin_breaks_termination(self):
        register_mutants()
        report = Engine(TINY, MUTANT_SILENT_FLOODMIN).check(
            backend="net", adversary="fault-free"
        )
        assert not report.passed
        assert report.tally("net-termination").violations == report.executions
        assert report.tally("net-agreement").violations == 0

    def test_silent_mutant_is_net_only(self):
        register_mutants()
        with pytest.raises(BackendError):
            Engine(TINY, MUTANT_SILENT_FLOODMIN).run([1, 2, 3], backend="sync")

    def test_validity_oracle_bites_on_an_inventing_algorithm(self, monkeypatch):
        # A throwaway mutant deciding a value nobody proposed pins the
        # net-validity oracle end to end.
        from repro.algorithms.classic_kset import FloodMinKSetAgreement, FloodMinProcess

        class _InventingProcess(FloodMinProcess):
            def receive_round(self, round_number, messages):
                super().receive_round(round_number, messages)
                if self.has_decided():
                    self._decision = self._decision + 1000

        class _InventingFloodMin(FloodMinKSetAgreement):
            def create_process(self, process_id, n, t):
                return _InventingProcess(process_id, n, self.t, self)

        key = "mutant-inventing-floodmin-test"
        # Registered for this test only: a later test that runs every
        # registered algorithm must not meet it.
        monkeypatch.setitem(
            ALGORITHMS._entries,
            key,
            AlgorithmEntry(
                name=key,
                backends=frozenset({"net"}),
                build=lambda spec, condition: _InventingFloodMin(t=spec.t, k=spec.k),
                agreement_degree=lambda spec: spec.k,
                summary="test-only validity mutant",
                uses_condition=False,
            ),
        )
        report = Engine(TINY, key).check(backend="net", adversary="fault-free")
        assert not report.passed
        assert report.tally("net-validity").violations == report.executions

    def test_counterexample_replays_to_the_same_fingerprint(self):
        register_mutants()
        report = Engine(TINY, MUTANT_ECHOLESS_FLOODMIN).check(
            backend="net", adversary="send-omission"
        )
        counterexample = report.counterexamples[0]
        replayed = counterexample.replay()
        assert replayed.fingerprint == counterexample.fingerprint
        assert replayed.distinct_decision_count() > TINY.k

    def test_counterexample_record_and_store_round_trip(self, tmp_path):
        register_mutants()
        store = ResultStore(tmp_path / "ce.jsonl")
        report = Engine(TINY, MUTANT_ECHOLESS_FLOODMIN).check(
            backend="net", adversary="send-omission", store=store
        )
        loaded = store.load_counterexamples()
        assert len(loaded) == len(report.counterexamples)
        rebuilt = Counterexample.from_record(report.counterexamples[0].to_record())
        assert rebuilt.replay().fingerprint == report.counterexamples[0].fingerprint

    def test_mutant_check_parallel_parity(self):
        register_mutants()
        engine = Engine(TINY, MUTANT_ECHOLESS_FLOODMIN)
        serial = engine.check(backend="net", adversary="send-omission")
        sharded = engine.check(backend="net", adversary="send-omission", workers=4)
        assert json.dumps(serial.to_record(), sort_keys=True) == json.dumps(
            sharded.to_record(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Oracle unit behaviour
# ----------------------------------------------------------------------
class TestNetOracles:
    def _context(self, family: str) -> CheckContext:
        engine = Engine(TINY, "floodmin")
        return CheckContext.from_engine(engine, NetSpace(family).resolve(engine))

    def test_registry_names(self):
        assert tuple(NET_ORACLES) == (
            "net-validity",
            "net-agreement",
            "net-termination",
        )

    def test_benign_gate(self):
        result = Engine(TINY, "floodmin").run([1, 2, 3], backend="net")
        for name in ("net-validity", "net-agreement"):
            oracle = NET_ORACLES[name]
            assert oracle.applies(self._context("send-omission"), result)
            assert not oracle.applies(self._context("byzantine-corrupt"), result)
        assert NET_ORACLES["net-termination"].applies(
            self._context("byzantine-corrupt"), result
        )

    def test_oracles_pass_a_clean_run(self):
        result = Engine(TINY, "floodmin").run([1, 2, 3], backend="net")
        context = self._context("fault-free")
        for oracle in NET_ORACLES.values():
            assert oracle.check(context, result) is None


# ----------------------------------------------------------------------
# Seed determinism (Hypothesis)
# ----------------------------------------------------------------------
class TestSeedDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        vector=st.lists(
            st.integers(min_value=1, max_value=3), min_size=3, max_size=3
        ),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_message_loss_fingerprint_is_a_function_of_the_seed(self, seed, vector):
        engine = Engine(TINY, "floodmin")
        first = engine.run(
            vector, backend="net", net_adversary="message-loss", seed=seed
        )
        second = engine.run(
            vector, backend="net", net_adversary="message-loss", seed=seed
        )
        assert first.fingerprint == second.fingerprint
        assert first.decisions == second.decisions

    @given(assignment=omission_assignments(n=4, t=2))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_omission_assignments_keep_floodmin_safe(self, assignment):
        spec = AgreementSpec(n=4, t=2, k=1, domain=4)
        adversary = SendOmissionAdversary(assignment) if assignment else FaultFreeAdversary()
        result = NetSystem(spec.n, spec.t, _floodmin(spec)).run(
            [1, 2, 3, 4], adversary
        )
        correct = result.correct_processes
        decided = {result.decisions[pid] for pid in correct if pid in result.decisions}
        assert len(decided) <= spec.k
        assert result.all_correct_decided()

    @given(lost=lost_message_sets(n=3, rounds=2, max_faults=2))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_enumerated_loss_is_replayable_from_its_record(self, lost):
        adversary = EnumeratedMessageLoss(lost)
        system = NetSystem(TINY.n, TINY.t, _floodmin(TINY))
        first = system.run([1, 2, 3], adversary)
        replay = system.run([1, 2, 3], adversary_from_record(adversary.fault_record()))
        assert first.fingerprint == replay.fingerprint


# ----------------------------------------------------------------------
# Scenario, CLI and serve wiring
# ----------------------------------------------------------------------
class TestNetScenario:
    def test_run_batch_and_check(self):
        scenario = net_scenario(3, 3, 1, 1, adversary="send-omission", seed=2)
        result = scenario.run()
        assert result.backend == "net"
        serial = scenario.batch(3, seed=4)
        sharded = scenario.batch(3, seed=4, workers=2)
        assert [r.fingerprint for r in serial] == [r.fingerprint for r in sharded]
        report = scenario.check()
        assert report.passed
        assert report.vector_count == 1

    def test_unknown_adversary_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            net_scenario(3, 3, 1, 1, adversary="round-robin")


class TestNetCli:
    def test_demo_net_backend(self, capsys):
        from repro.cli import main

        assert main(
            ["demo", "--backend", "net", "--adversary", "message-loss",
             "--n", "4", "--t", "1", "--d", "1", "--k", "1", "--m", "4"]
        ) == 0
        output = capsys.readouterr().out
        assert "net backend" in output
        assert "failure model    : message-loss" in output

    def test_check_net_backend_passes_on_floodmin(self, capsys):
        from repro.cli import main

        assert main(
            ["check", "--backend", "net", "--algorithm", "floodmin",
             "--adversary", "send-omission", "--n", "3", "--t", "1",
             "--d", "1", "--k", "1"]
        ) == 0
        assert "send-omission" in capsys.readouterr().out

    def test_check_net_store_kind_label(self, capsys, tmp_path):
        from repro.cli import main

        store = str(tmp_path / "ce.jsonl")
        assert main(
            ["check", "--backend", "net", "--algorithm", "floodmin",
             "--adversary", "send-omission", "--n", "3", "--t", "1",
             "--d", "1", "--k", "1", "--store", store]
        ) == 0
        assert "net-counterexample" in capsys.readouterr().out

    def test_adversary_namespace_is_backend_checked(self, capsys):
        from repro.cli import main

        assert main(
            ["demo", "--backend", "sync", "--adversary", "message-loss"]
        ) == 2
        assert main(
            ["demo", "--backend", "net", "--adversary", "round-robin",
             "--n", "4", "--t", "1", "--d", "1", "--k", "1"]
        ) == 2
        assert main(
            ["demo", "--backend", "net", "--crashes", "1",
             "--n", "4", "--t", "1", "--d", "1", "--k", "1"]
        ) == 2
        capsys.readouterr()


class TestServeNet:
    def test_net_run_and_check_over_http(self):
        from repro.serve import ReproServer
        from repro.serve.client import ServeClient

        with ReproServer(port=0) as server:
            client = ServeClient(port=server.port)
            result = client.run(
                TINY, [1, 2, 3], algorithm="floodmin", backend="net",
                adversary="message-loss", seed=5,
            )
            direct = Engine(TINY, "floodmin").run(
                [1, 2, 3], backend="net", net_adversary="message-loss", seed=5
            )
            assert result.to_record() == direct.to_record()
            outcome = client.check(
                TINY, algorithm="floodmin", backend="net",
                adversary="send-omission",
            )
            assert outcome["passed"] is True
            assert outcome["report"]["backend"] == "net"

    def test_net_rejects_crash_steps(self):
        from repro.serve import ReproServer
        from repro.serve.client import ServeClient
        from repro.exceptions import ServeError

        with ReproServer(port=0) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError):
                client.run(
                    TINY, [1, 2, 3], algorithm="floodmin", backend="net",
                    crash_steps={0: 1},
                )

    def test_client_retries_refused_connections(self):
        import time
        from repro.serve.client import ServeClient
        from repro.exceptions import ServeError

        client = ServeClient(port=1, connect_retries=2, retry_backoff=0.01)
        start = time.monotonic()
        with pytest.raises(ServeError, match="after 3 attempt"):
            client.status()
        assert time.monotonic() - start >= 0.03 - 0.005

    def test_client_retry_parameters_are_validated(self):
        from repro.serve.client import ServeClient
        from repro.exceptions import ServeError

        with pytest.raises(ServeError):
            ServeClient(connect_retries=-1)
        with pytest.raises(ServeError):
            ServeClient(retry_backoff=-0.1)
