"""The synchronous *message-passing* execution engine.

:class:`~repro.sync.runtime.SynchronousSystem` broadcasts implicitly: a live
process's payload lands in every inbox unless a crash event truncates the
receiver set.  :class:`NetSystem` makes the message plane explicit — every
round builds a full ``(sender, receiver) -> payload`` matrix and every
non-self entry is passed through a :class:`~repro.net.adversary.NetAdversary`
before delivery, so faults act on *individual messages*:

* ``send -> adversary filter -> deliver`` per channel of a live sender, in
  a fixed order (sender ascending, receiver ascending) so seeded
  adversaries are deterministic;
* dropped channels simply never reach the inbox;
* delayed channels mature ``δ`` rounds later — *after* the lock-step receive
  phase of their own round has closed.  In the round-based model a message
  that misses its round is an omission for the receiver (payload shapes may
  even differ between rounds, so retroactive delivery would be unsound); the
  runtime therefore never mutates a later round's inbox but keeps the full
  audit trail: ``late`` when the payload matured on its own, ``superseded``
  when a fresher same-sender delivery made it moot, ``expired`` when it
  matured only after the final round;
* corrupted channels deliver a different *source* process's payload for the
  round (equivocation — type-safe for every payload shape the algorithms
  flood), falling back to a drop when the impersonated source sent nothing.

The runtime drives the same :class:`~repro.sync.process.RoundBasedProcess`
objects as the sync backend, so every registered synchronous algorithm runs
unmodified under the new failure models, and a run under the ``fault-free``
adversary reproduces the sync backend's failure-free execution exactly.  It
shares :class:`~repro.sync.runtime.RoundSystem` with the sync engine, so it
resets and reuses the processes of a reusable algorithm across runs as well.

Unlike the sync engine there is **no watchdog exception**: an algorithm that
blows its round bound under message faults is a *finding*, not a harness
error — the run stops at the round limit with the undecided processes
reported through :meth:`NetExecutionResult.all_correct_decided`, which is
what the ``net-termination`` oracle checks.

Every execution carries a :attr:`~NetExecutionResult.fingerprint`: a blake2b
digest of the realized fault events, inputs and decisions.  Two runs
interleaved the faults identically exactly when their fingerprints match —
the seed-determinism handle for the stochastic adversaries.  A run keeps
its events' fingerprint text, and the digest is computed from it and the
result's fields on the first read of the fingerprint, so a check that
never reads one computes none.

A round's verdicts form a *plan*: who hears whom, the fault events with
their fingerprint text, the delays and the delivered count.  A plan is made
for each round of each run, unless the adversary declares
:attr:`~repro.net.adversary.NetAdversary.fixed_verdicts`.  Then, while
consecutive runs pass the same object, the system keeps its plans keyed by
``(round, live senders)`` from the second run on, so a checker running every
frontier vector under one fault assignment asks for its verdicts about twice
instead of once per vector.  The first run plans with its own payloads, as
for any other adversary, so an object built afresh for every run costs no
more than a seeded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Mapping

from ..core.vectors import InputVector, normalise_proposals
from ..deferred import DeferredField, deferred
from ..exceptions import SimulationError
from ..sync.runtime import RoundSystem
from .adversary import NetAdversary, resolve_net_adversary

__all__ = ["FaultEvent", "NetExecutionResult", "NetSystem"]


@dataclass(frozen=True)
class FaultEvent:
    """One adversary intervention on one channel of the message matrix."""

    round_number: int
    sender: int
    receiver: int
    #: ``"dropped"``, ``"delayed"``, ``"corrupted"``, ``"late"`` (a delayed
    #: message maturing in a later round, discarded by the round discipline),
    #: ``"superseded"`` (matured alongside a fresher delivery from the same
    #: sender) or ``"expired"`` (maturing after the final round).
    outcome: str
    #: The delay in rounds, the impersonated source, or ``None``.
    detail: int | None = None

    def to_tuple(self) -> tuple:
        """The hashable, JSON-friendly form used by fingerprints and records."""
        return (self.round_number, self.sender, self.receiver, self.outcome, self.detail)


@dataclass
class NetExecutionResult:
    """The outcome of one message-passing execution.

    The shape mirrors :class:`~repro.sync.runtime.ExecutionResult` with the
    crash picture replaced by the adversary's fault picture: ``faulty`` is
    the set of omission-faulty *processes* (empty for the message-granular
    models) and ``fault_events`` the realized per-message interventions.
    """

    n: int
    t: int
    input_vector: InputVector
    adversary_family: str
    adversary_description: str
    decisions: dict[int, Any] = field(default_factory=dict)
    decision_rounds: dict[int, int] = field(default_factory=dict)
    #: Omission-faulty processes (the adversary's victim set).
    faulty: frozenset[int] = frozenset()
    rounds_executed: int = 0
    delivered_count: int = 0
    #: The adversary's realized interventions, in execution order.
    fault_events: tuple[FaultEvent, ...] = ()
    #: blake2b digest of (parameters, inputs, fault events, decisions); a
    #: run's result computes it on first read.
    fingerprint: str = DeferredField("")

    def _compute_fingerprint(self, texts: list[str]) -> str:
        """The digest of the repr of ``(n, t, family, inputs, event tuples,
        sorted decisions, sorted decision rounds)``, with the events' text
        assembled from the run's pieces *texts*."""
        trail = ", ".join(texts) + ("," if len(self.fault_events) == 1 else "")
        return blake2b(
            (
                f"({self.n!r}, {self.t!r}, {self.adversary_family!r}, "
                f"{self.input_vector.entries!r}, ({trail}), "
                f"{tuple(sorted(self.decisions.items()))!r}, "
                f"{tuple(sorted(self.decision_rounds.items()))!r})"
            ).encode(),
            digest_size=16,
        ).hexdigest()

    # -- derived facts -------------------------------------------------------
    @property
    def correct_processes(self) -> frozenset[int]:
        """The processes the adversary did not make faulty."""
        return frozenset(range(self.n)) - self.faulty

    @property
    def fault_count(self) -> int:
        """Number of adversary interventions that actually happened."""
        return len(self.fault_events)

    def decided_values(self) -> frozenset[Any]:
        """The set of distinct decided values."""
        return frozenset(self.decisions.values())

    def distinct_decision_count(self) -> int:
        """Number of distinct decided values (≤ k for k-set agreement)."""
        return len(self.decided_values())

    def max_decision_round(self) -> int:
        """The latest round at which some process decided (0 when nobody did)."""
        return max(self.decision_rounds.values(), default=0)

    def all_correct_decided(self) -> bool:
        """Termination: did every non-faulty process decide?"""
        return all(pid in self.decisions for pid in self.correct_processes)

    def summary(self) -> str:
        """One-line description used by examples and experiment logs."""
        return (
            f"n={self.n} t={self.t} adversary={self.adversary_description} "
            f"faults={self.fault_count} rounds={self.rounds_executed} "
            f"decided={self.distinct_decision_count()} value(s) "
            f"latest_decision_round={self.max_decision_round()}"
        )


#: One round's verdicts for one set of live senders: ``(inboxes, events,
#: delays, delivered count, the events' fingerprint text)``, with the delayed
#: channels as ``(maturity round, sender, receiver)``.
_RoundPlan = tuple[list, tuple[FaultEvent, ...], tuple[tuple[int, int, int], ...], int, str]


def _plan_round(
    adversary: NetAdversary, round_number: int, n: int, sent: Mapping[int, Any]
) -> _RoundPlan:
    """Ask *adversary* about every non-self channel of the senders in *sent*.

    *sent* maps each live sender, in identifier order, to its payload, and
    ``inboxes[q]`` maps each sender receiver ``q`` hears to the payload it
    gets.  A corrupted channel delivers the impersonated source's payload,
    and degrades to a drop when that source sent nothing this round.
    """
    inboxes: list[dict[int, Any]] = [{} for _ in range(n)]
    rows: list[tuple] = []
    delays: list[tuple[int, int, int]] = []
    delivered = 0
    for sender_id, payload in sent.items():
        for receiver_id in range(n):
            if receiver_id == sender_id:
                # Self-channels are untouchable: a process always sees its
                # own message (RoundBasedProcess contract).
                inboxes[receiver_id][sender_id] = payload
                delivered += 1
                continue
            action = adversary.treat(round_number, sender_id, receiver_id)
            verb = action[0]
            if verb == "deliver":
                inboxes[receiver_id][sender_id] = payload
                delivered += 1
            elif verb == "drop":
                rows.append((round_number, sender_id, receiver_id, "dropped", None))
            elif verb == "delay":
                delta = action[1]
                delays.append((round_number + delta, sender_id, receiver_id))
                rows.append((round_number, sender_id, receiver_id, "delayed", delta))
            elif verb == "corrupt":
                source = action[1]
                if source in sent:
                    inboxes[receiver_id][sender_id] = sent[source]
                    delivered += 1
                    rows.append((round_number, sender_id, receiver_id, "corrupted", source))
                else:
                    # The impersonated source sent nothing this round — the
                    # corruption degenerates to an omission.
                    rows.append((round_number, sender_id, receiver_id, "dropped", None))
            else:  # pragma: no cover - adversary contract violation
                raise SimulationError(
                    f"{adversary.describe()} returned unknown action {action!r}"
                )
    events = tuple([FaultEvent(*row) for row in rows])
    return inboxes, events, tuple(delays), delivered, repr(rows)[1:-1]


def _kept_plan(plan: _RoundPlan, live: list[int]) -> _RoundPlan:
    """*plan*, made for one run, as a plan for every run with these senders.

    Receiver ``q``'s entry maps each sender it hears to the sender whose
    payload it gets (another one on a corrupted channel), or is ``None``
    when no fault event touches ``q``, so it hears every live sender's own
    payload.  The events say it all, so the adversary is not asked again.
    """
    inboxes, events, *rest = plan
    heard: list[dict[int, int] | None] = [None] * len(inboxes)
    for event in events:
        sources = heard[event.receiver]
        if sources is None:
            sources = heard[event.receiver] = {pid: pid for pid in live}
        if event.outcome == "corrupted":
            sources[event.sender] = event.detail
        else:  # dropped or delayed
            del sources[event.sender]
    return (heard, events, *rest)


class NetSystem(RoundSystem):
    """A synchronous message-passing system running one algorithm.

    Parameters mirror :class:`~repro.sync.runtime.SynchronousSystem`; the
    failure model is supplied per run as a :class:`NetAdversary`, or a
    failure-model name, instead of a crash schedule.
    """

    #: The adversary of the last run, when it declares fixed verdicts, with
    #: its round plans keyed by ``(round, live senders)``, its description
    #: and its faulty set.  One tuple, read once per run, so a run never
    #: mixes two adversaries' plans.
    _kept: tuple[NetAdversary, dict, str, frozenset[int]] | None = None

    def run(
        self,
        proposals: InputVector | Mapping[int, Any] | list[Any],
        adversary: NetAdversary | str,
        *,
        seed: int = 0,
    ) -> NetExecutionResult:
        """Execute the algorithm on *proposals* under *adversary*.

        *adversary* is a :class:`NetAdversary` or a name in
        :data:`~repro.net.adversary.NET_ADVERSARIES`, whose builder gets this
        system's ``n`` and ``t`` and *seed*.  *seed* also feeds the
        adversary's :meth:`~NetAdversary.begin_run`, so stochastic failure
        models are deterministic functions of it; the enumerated models
        ignore it.
        """
        input_vector = normalise_proposals(proposals, self._n)
        adversary = resolve_net_adversary(adversary, self._n, self._t, seed)
        adversary.begin_run(self._n, seed)
        processes = self._processes_for(input_vector)
        plans: dict[tuple[int, tuple[int, ...]], _RoundPlan] | None = None
        kept = self._kept
        if kept is not None and kept[0] is adversary:
            _, plans, description, faulty = kept
        else:
            # Plans are kept from an object's second consecutive run on, so
            # an object built afresh for every run pays nothing for them.
            description, faulty = adversary.describe(), adversary.faulty
            fixed = adversary.fixed_verdicts
            self._kept = (adversary, {}, description, faulty) if fixed else None

        n = self._n
        decisions: dict[int, Any] = {}
        decision_rounds: dict[int, int] = {}
        events: list[FaultEvent] = []
        texts: list[str] = []  # the events' fingerprint text, piece by piece
        delivered = 0
        #: Delayed channels keyed by maturity round.
        pending: dict[int, list[tuple[int, int]]] = {}
        live = [pid for pid in range(n) if not processes[pid].has_halted()]
        round_limit = self._round_limit()

        round_number = 0
        while live and round_number < round_limit:
            round_number += 1
            # --- send phase, then a verdict for every channel ----------------
            payloads: dict[int, Any] = {}
            for sender_id in live:
                payloads[sender_id] = processes[sender_id].message_for_round(round_number)
            plan = None
            if plans is not None:
                key = (round_number, tuple(live))
                plan = plans.get(key)
            reused = plan is not None
            if plan is None:
                plan = _plan_round(adversary, round_number, n, payloads)
                if plans is not None:
                    plans[key] = _kept_plan(plan, live)
            inboxes, round_events, delays, count, text = plan
            delivered += count
            if round_events:
                events += round_events
                texts.append(text)
            for maturity, sender_id, receiver_id in delays:
                pending.setdefault(maturity, []).append((sender_id, receiver_id))

            # --- matured delays: too late for the lock-step round -----------
            # Payload shapes may differ between rounds (condition-kset floods
            # the proposal in round 1 and a state triple after), so a stale
            # payload must never land in a later round's inbox — maturities
            # are audited, not delivered.
            for sender_id, receiver_id in pending.pop(round_number, ()):
                heard = inboxes[receiver_id]
                heard = payloads if heard is None else heard
                outcome = "superseded" if sender_id in heard else "late"
                row = (round_number, sender_id, receiver_id, outcome, None)
                events.append(FaultEvent(*row))
                texts.append(repr(row))

            # --- receive + computation phases -------------------------------
            running: list[int] = []
            for receiver_id in live:
                process = processes[receiver_id]
                if process.has_halted():
                    continue
                inbox = inboxes[receiver_id]
                if inbox is None:
                    inbox = payloads.copy()
                elif reused:
                    inbox = {sender: payloads[source] for sender, source in inbox.items()}
                process.receive_round(round_number, inbox)
                if process.has_decided() and receiver_id not in decisions:
                    decisions[receiver_id] = process.decision
                    decision_rounds[receiver_id] = process.decision_round or round_number
                if not process.has_halted():
                    running.append(receiver_id)
            live = running

        # Delayed messages that never matured are lost to the run.
        for maturity in sorted(pending):
            for sender_id, receiver_id in pending[maturity]:
                row = (maturity, sender_id, receiver_id, "expired", None)
                events.append(FaultEvent(*row))
                texts.append(repr(row))

        return NetExecutionResult(
            n=n,
            t=self._t,
            input_vector=input_vector,
            adversary_family=adversary.family,
            adversary_description=description,
            decisions=decisions,
            decision_rounds=decision_rounds,
            faulty=faulty,
            rounds_executed=round_number,
            delivered_count=delivered,
            fault_events=tuple(events),
            fingerprint=deferred(texts),
        )
