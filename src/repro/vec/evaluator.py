"""Batch evaluator: one call executes a whole (schedule × input-block) batch.

:class:`BatchSyncEvaluator` re-implements the synchronous round runtime of
:mod:`repro.sync.runtime` over :class:`~repro.vec.packed.PackedBlock` lane
masks: every per-process variable of the reference algorithms becomes a small
``{value: lane mask}`` table, and one round of *all* packed input vectors
under one crash schedule is a handful of big-integer AND/OR operations instead
of ``lanes × n`` Python method calls.

One round driver, two transitions
---------------------------------
A single round driver executes both modelled algorithms.  The state of one
process across every lane of the block — its lane state — is an immutable
tuple, interned to a small integer id by :class:`LaneStates`.  Each mode
supplies only

* an **initial lane state** per process, and
* a pure **transition** ``(round, recv mask, own state, per sender: (state,
  send mask), or None when cut) → (decisions, decided mask, next state)``.

Per round and receiver the driver builds that key from state ids and masks
and looks it up in the evaluator's **transition cache**; the mode's
transition runs only on a miss.  The reference algorithms reduce what they
hear with ``max``/``min``, so a check reaches few distinct states and the
cache hits almost always.  Condition mode's round 1 — the view
classification of lines 5–9, which depends only on which proposals a
receiver heard — is simply the round-1 case of the same cache.

A second cache holds the **oracle masks** of a schedule, keyed on their
complete input: the per-process crashed masks, the per-process ids of the
transitions that decided, and the schedule's round-1 and initial crash
counts.  The decision tables are rebuilt only on a miss.  Only class misses
(below) reach this cache.  It answers 8,940 of the 10,166 of the n=4, t=3,
k=1 ``early-deciding`` cell with four crash rounds but 26 of the 1,771 of
the n=5, t=2, k=2 ``condition-kset`` cell, and timed checks keep it
(README, "Vectorized core").

A third, the **class memo**, sits in front of both and is keyed on
:meth:`~repro.sync.adversary.CrashSchedule.observable_key`.  A crash takes
effect before its round's compute phase, so what a round-``r`` crash
delivers to a process crashing in round ``r`` or earlier is never read: the
driver never consults a cut at a receiver without live lanes.  Schedules
that differ only there form one observable crash class, and the driver runs
once per class (1,771 runs for the 14,631 schedules of the n=5, t=2, k=2
``condition-kset`` cell); every later member gets the memoized masks, as
the same tuple object.

The three caches are plain dictionaries owned by the evaluator, with no size
cap: they live and die with it.  The checker builds one evaluator per
schedule slice, so each pool shard rebuilds its own caches; none is ever
shipped in a shard envelope (the ``envelope-fields`` lint rule denies it).

The evaluator is an *optimisation*, never an authority:

* :mod:`repro.sync.runtime` stays untouched as the reference implementation;
* :meth:`BatchSyncEvaluator.build` returns ``None`` whenever anything about
  the engine, algorithm, frontier or oracle set falls outside the modelled
  fast path — the checker then silently falls back to the scalar loop, which
  also reproduces any validation error the reference path would raise;
* the checker validates every schedule, and the round-bound watchdog runs on
  every class: an overrun raises before anything is memoized, so each member
  of an overrunning class raises;
* every counterexample the checker reports is decoded back into the object
  runtime (a scalar re-execution of the flagged lane), so replay stays
  byte-identical, and a flagged lane the reference runtime does *not*
  reproduce raises :class:`~repro.exceptions.SimulationError` instead of
  producing an unverified report.

The two modelled algorithms are the paper's Figure 2 condition-based k-set
agreement and the early-deciding FloodMin variant of Section 8 — exactly the
two the exhaustive checker drives.  Dispatch is on the *exact* type, so the
fault-injection mutants (subclasses) always take the reference path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..core.values import BOTTOM
from ..core.vectors import InputVector, View
from ..exceptions import ReproError, SimulationError
from .packed import PackedBlock, count_exceeds, exact_counts, max_value_masks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.engine import Engine
    from ..check.oracles import CheckContext
    from ..sync.adversary import CrashSchedule

__all__ = ["BatchSyncEvaluator", "LaneStates"]

#: The algorithm classes the round driver mirrors, by qualified name, and
#: the mode each runs in.  Only the exact class is mirrored (a subclass,
#: such as a mutant, takes the scalar path), and matching by name imports
#: no algorithm module: a pool worker checking one algorithm loads no other.
_PACKED_MODES = {
    "repro.algorithms.condition_kset.ConditionBasedKSetAgreement": "condition",
    "repro.algorithms.early_deciding_kset.EarlyDecidingKSetAgreement": "early",
}

#: The oracles the evaluator can translate into lane masks.  A request naming
#: any other oracle falls back to the scalar checker.
_SUPPORTED_ORACLES = frozenset(
    {
        "validity",
        "agreement",
        "termination",
        "round-bound-in-condition",
        "round-bound-outside",
        "early-deciding-bound",
    }
)

#: A frozen ``{value: lane mask}`` table: ``((value, lanes), ...)`` by value.
Table = tuple[tuple[Any, int], ...]


def _union(pairs: Iterable[tuple[Any, int]]) -> int:
    combined = 0
    for _, mask in pairs:
        combined |= mask
    return combined


def _freeze(table: dict[Any, int]) -> Table:
    return tuple(sorted(table.items()))


def _merge_into(
    target: dict[Any, int], pairs: Iterable[tuple[Any, int]], mask: int
) -> None:
    """OR the lanes of every ``(value, lanes)`` pair selected by *mask* into *target*."""
    for value, lanes in pairs:
        hit = lanes & mask
        if hit:
            target[value] = target.get(value, 0) | hit


class LaneStates:
    """Interned lane states: every distinct state gets one small integer id.

    A lane state is one process's variables across every lane of the block,
    frozen into a hashable tuple of masks and :data:`Table` values.  Equal
    states share an id, so the transition keys of the round driver hash a
    few integers instead of nested tables.
    """

    __slots__ = ("_contents", "_ids")

    def __init__(self) -> None:
        self._contents: list[tuple] = []
        self._ids: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._contents)

    def __getitem__(self, state_id: int) -> tuple:
        return self._contents[state_id]

    def intern(self, state: tuple) -> int:
        """The id of *state*, allocated the first time it is seen."""
        state_id = self._ids.get(state)
        if state_id is None:
            state_id = self._ids[state] = len(self._contents)
            self._contents.append(state)
        return state_id


class BatchSyncEvaluator:
    """Executes one crash schedule against a packed block of input vectors.

    Use :meth:`build` (which may refuse); :meth:`check_schedule` then returns,
    for each requested oracle, an ``(applies, violations)`` pair of lane masks
    mirroring exactly what the scalar oracle evaluation would have produced
    lane by lane.  Every member of an observable crash class gets the very
    tuple its class memo holds, so the checker tallies each distinct answer
    once, times the schedules that got it, and a repeated class costs the
    checker one validation, one :meth:`~repro.sync.adversary.CrashSchedule.observable_key`
    and one lookup.
    """

    def __init__(
        self,
        engine: "Engine",
        context: "CheckContext",
        oracle_names: Sequence[str],
        mode: str,
        block: PackedBlock,
        in_mask: int | None,
    ) -> None:
        self._engine = engine
        self._context = context
        self._oracle_names = tuple(oracle_names)
        self._mode = mode
        self._block = block
        self._full = block.full_mask
        self._n = block.n
        self._in_mask = in_mask
        #: ``value -> lanes proposing it somewhere`` (the validity oracle's
        #: ``set(input_vector.entries)``, batched).
        proposed: dict[int, int] = {}
        for position in range(block.n):
            column = block.cols[position]
            for value in range(1, block.m + 1):
                lanes = column[value - 1]
                if lanes:
                    proposed[value] = proposed.get(value, 0) | lanes
        self._proposed = proposed

        self._states = LaneStates()
        #: ``(round, recv, own id, senders) -> (transition id, decided, next id)``.
        self._transitions: dict[tuple, tuple[int, int, int]] = {}
        #: Transition id -> ``(round, {value: lanes} decisions, decided mask)``.
        self._decisions: list[tuple[int, dict[Any, int], int]] = []
        #: ``(crashed, deciders, round-1 crashes, initial crashes) -> masks``.
        self._oracle_cache: dict[tuple, tuple[tuple[int, int], ...]] = {}
        #: :meth:`CrashSchedule.observable_key` -> masks: one entry per class.
        self._class_memo: dict[tuple, tuple[tuple[int, int], ...]] = {}

        algorithm = engine.algorithm
        self._last = algorithm.last_round()
        if mode == "condition":
            self._x = algorithm.x
            self._cond = engine.condition or algorithm.condition
            self._cr = algorithm.condition_decision_round()
            # Every process starts with (v_cond, v_tmf, v_out) = (⊥, ⊥, ⊥);
            # its proposal is what round 1 floods, read from the block.
            self._initial = (self._states.intern(((), (), ())),) * self._n
        else:
            self._k = algorithm.k
            self._initial = tuple(
                self._states.intern(self._early_initial(pid)) for pid in range(self._n)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        engine: "Engine",
        context: "CheckContext",
        vectors: Sequence[InputVector],
        oracle_names: Sequence[str],
    ) -> "BatchSyncEvaluator | None":
        """The packed evaluator for *engine*, or ``None`` for the scalar path.

        Refuses (returns ``None``) whenever the batch model would not be a
        faithful mirror of the reference runtime: unknown or subclassed
        algorithms (mutants), trace recording, a ``t`` mismatch between the
        algorithm and the spec (the reference path raises on it), an
        unpackable frontier, or an oracle without a batch translation.  A
        condition oracle that rejects the block (size or domain validation)
        also refuses — the scalar path then reproduces the exact error.
        """
        algorithm = engine.algorithm
        kind = type(algorithm)
        mode = _PACKED_MODES.get(f"{kind.__module__}.{kind.__qualname__}")
        if mode is None:
            return None
        if engine.config.record_trace:
            return None
        if not set(oracle_names) <= _SUPPORTED_ORACLES:
            return None
        spec = engine.spec
        if algorithm.t != spec.t:
            return None
        block = PackedBlock.try_pack(vectors, spec.domain)
        if block is None or block.n != spec.n:
            return None
        if mode == "condition" and engine.condition is None and algorithm.condition is None:
            return None
        in_mask: int | None = None
        if engine.condition is not None:
            try:
                in_mask = engine.condition.contains_batch(block)
            except ReproError:
                return None
        return cls(engine, context, oracle_names, mode, block, in_mask)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check_schedule(
        self, schedule: "CrashSchedule"
    ) -> tuple[tuple[int, int], ...]:
        """``((applies, violations), ...)`` lane masks, one per oracle.

        Schedules with equal observable keys give the same execution, so
        the round driver runs once per class and later members are served
        from the class memo.  An overrunning class raises before anything is
        stored, so each of its members raises.
        """
        class_key = schedule.observable_key()
        masks = self._class_memo.get(class_key)
        if masks is None:
            crashed, deciders = self._run(schedule)
            key = (
                tuple(crashed),
                tuple(deciders),
                schedule.round_one_crash_count(),
                schedule.initial_crash_count(),
            )
            masks = self._oracle_cache.get(key)
            if masks is None:
                masks = self._oracle_cache[key] = self._oracle_masks(*key)
            self._class_memo[class_key] = masks
        return masks

    # ------------------------------------------------------------------
    # The round driver
    # ------------------------------------------------------------------
    def _run(self, schedule: "CrashSchedule") -> tuple[list[int], list[tuple[int, ...]]]:
        """Every round of *schedule*: per-process crashed lanes and the ids
        of the transitions in which each process decided."""
        n, full = self._n, self._full
        transitions = self._transitions
        #: round -> {crashing process: the receivers it still reaches}
        cuts_by_round: dict[int, dict[int, frozenset[int]]] = {}
        for event in schedule:
            cuts_by_round.setdefault(event.round_number, {})[
                event.process_id
            ] = event.delivered_to
        state = list(self._initial)
        crashed = [0] * n
        halted = [0] * n
        deciders: list[tuple[int, ...]] = [()] * n

        round_number = 0
        while True:
            send = [full & ~(down | done) for down, done in zip(crashed, halted)]
            active = 0
            for mask in send:
                active |= mask
            if not active:
                break
            if round_number == self._last:
                # The watchdog: processes still running after the last round.
                raise self._overrun(active)
            round_number += 1
            messages = [(sid, mask) if mask else None for sid, mask in zip(state, send)]
            heard_by_all = tuple(messages)
            cuts = cuts_by_round.get(round_number)
            if cuts:
                for pid in cuts:
                    crashed[pid] |= active

            successors = state[:]
            for receiver in range(n):
                recv = send[receiver] & ~crashed[receiver]
                if not recv:
                    continue
                senders = heard_by_all
                if cuts:
                    # A crashing sender reaches only its event's receivers;
                    # where it still sends at all, the cut is the same in
                    # every lane.
                    for pid, reached in cuts.items():
                        if receiver not in reached and messages[pid] is not None:
                            if senders is heard_by_all:
                                senders = messages[:]
                            senders[pid] = None
                    if senders is not heard_by_all:
                        senders = tuple(senders)
                key = (round_number, recv, state[receiver], senders)
                step = transitions.get(key)
                if step is None:
                    step = transitions[key] = self._transition(*key)
                transition_id, decided, successors[receiver] = step
                if decided:
                    halted[receiver] |= decided
                    deciders[receiver] += (transition_id,)
            state = successors
        return crashed, deciders

    def _transition(
        self,
        round_number: int,
        recv: int,
        own: int,
        senders: tuple[tuple[int, int] | None, ...],
    ) -> tuple[int, int, int]:
        """A transition-cache miss: run the mode's transition on the states."""
        states = self._states
        messages = [
            None if sender is None else (states[sender[0]], sender[1])
            for sender in senders
        ]
        step = self._condition_step if self._mode == "condition" else self._early_step
        decisions, decided, successor = step(round_number, recv, states[own], messages)
        transition_id = len(self._decisions)
        self._decisions.append((round_number, decisions, decided))
        return transition_id, decided, states.intern(successor)

    def _overrun(self, leftover: int) -> SimulationError:
        return SimulationError(
            f"{self._engine.algorithm.name} exceeded its round bound "
            f"({self._last} rounds) with processes still running in "
            f"{leftover.bit_count()} packed lane(s)"
        )

    # ------------------------------------------------------------------
    # Condition-based k-set agreement (Figure 2)
    # ------------------------------------------------------------------
    def _condition_step(self, round_number: int, recv: int, own: tuple, messages: list):
        """One receiver's round; the state is ``(v_cond, v_tmf, v_out)`` tables."""
        if round_number == 1:
            # Round 1 floods proposals, and nobody has crashed or halted yet:
            # the receiver's view shape is the set of senders it heard.
            heard = [pid for pid, message in enumerate(messages) if message is not None]
            return {}, 0, tuple(_freeze(table) for table in self._classify_round1(heard))

        full = self._full
        # Line 14: a state sent with a non-⊥ v_cond decides it before reading
        # anything (the state itself stays unchanged).
        line14 = recv & _union(own[0])
        decisions: dict[Any, int] = {}
        if line14:
            _merge_into(decisions, own[0], line14)
        update = recv & ~line14
        if not update:
            return decisions, line14, own

        deliver = [0 if message is None else message[1] & update for message in messages]
        keep = full & ~update
        merged = []
        for index, own_table in enumerate(own):
            contrib: dict[Any, int] = {}
            for message, mask in zip(messages, deliver):
                if mask:
                    _merge_into(contrib, message[0][index], mask)
            _merge_into(contrib, own_table, update)  # a process hears itself
            table: dict[Any, int] = {}
            _merge_into(table, own_table, keep)
            remaining = update
            for value in sorted(contrib, reverse=True):
                hit = contrib[value] & remaining
                if hit:
                    table[value] = table.get(value, 0) | hit
                    remaining &= ~hit
            merged.append(table)

        deadline = 0
        if round_number == self._last:
            deadline = update
        elif round_number == self._cr:
            deadline = update & _union(merged[1].items()) & ~_union(merged[2].items())
        if deadline:
            remaining = deadline
            for table in merged:
                if not remaining:
                    break
                for value, lanes in table.items():
                    hit = lanes & remaining
                    if hit:
                        decisions[value] = decisions.get(value, 0) | hit
                        remaining &= ~hit
            if remaining:
                # All three components ⊥: the else-branch of lines 18–22
                # decides v_out = ⊥.
                decisions[BOTTOM] = decisions.get(BOTTOM, 0) | remaining
        return decisions, line14 | deadline, tuple(_freeze(table) for table in merged)

    def _classify_round1(
        self, positions: list[int]
    ) -> tuple[dict[Any, int], dict[Any, int], dict[Any, int]]:
        """Classify every lane's round-1 view with *positions* heard (lines 5–9)."""
        block, full, n = self._block, self._full, self._n
        bottoms = n - len(positions)
        if bottoms > self._x:
            # Too many failures to tell: v_tmf <- max(V_i).
            return {}, max_value_masks(block, positions, full), {}
        compatible = self._cond.p_batch(block, positions)
        outside = full & ~compatible
        v_out = max_value_masks(block, positions, outside) if outside else {}
        v_cond: dict[Any, int] = {}
        if compatible:
            # decode_max depends on the actual restricted values, so lanes are
            # grouped by their sub-vector over *positions*; one scalar decode
            # per distinct group covers every lane of the group.
            groups: dict[tuple[int, ...], int] = {(): compatible}
            for position in positions:
                column = block.cols[position]
                split: dict[tuple[int, ...], int] = {}
                for prefix, lanes in groups.items():
                    for value in range(1, block.m + 1):
                        hit = lanes & column[value - 1]
                        if hit:
                            split[prefix + (value,)] = hit
                groups = split
            for subvector, lanes in groups.items():
                entries: list[Any] = [BOTTOM] * n
                for position, value in zip(positions, subvector):
                    entries[position] = value
                decoded = self._cond.decode_max(View(entries))
                v_cond[decoded] = v_cond.get(decoded, 0) | lanes
        return v_cond, {}, v_out

    # ------------------------------------------------------------------
    # Early-deciding FloodMin (Section 8)
    # ------------------------------------------------------------------
    def _early_initial(self, pid: int) -> tuple:
        """``(estimate, early, previous heard)``: the proposal column, no flag,
        and every process presumed alive before round 1."""
        column = self._block.cols[pid]
        estimate = tuple(
            (value, column[value - 1])
            for value in range(1, self._block.m + 1)
            if column[value - 1]
        )
        return estimate, 0, ((self._n, self._full),)

    def _early_step(self, round_number: int, recv: int, own: tuple, messages: list):
        """One receiver's round; the state is ``(estimate, early, previous heard)``."""
        estimate, early, previous_heard = own
        # A flag raised before this round's send decides the (pre-reduce)
        # estimate immediately.
        flagged = recv & early
        decisions: dict[Any, int] = {}
        if flagged:
            _merge_into(decisions, estimate, flagged)
        update = recv & ~flagged
        if not update:
            return decisions, flagged, own

        deliver = [0 if message is None else message[1] & update for message in messages]
        inherited = 0
        contrib: dict[Any, int] = {}
        for message, mask in zip(messages, deliver):
            if mask:
                sender_estimate, sender_early, _ = message[0]
                inherited |= sender_early & mask
                _merge_into(contrib, sender_estimate, mask)
        _merge_into(contrib, estimate, update)  # min() includes the own estimate
        keep = self._full & ~update
        new_estimate: dict[Any, int] = {}
        _merge_into(new_estimate, estimate, keep)
        remaining = update
        for value in sorted(contrib):
            hit = contrib[value] & remaining
            if hit:
                new_estimate[value] = new_estimate.get(value, 0) | hit
                remaining &= ~hit

        # heard = len(messages): how many senders delivered.
        heard = exact_counts(deliver, update)
        few_new = 0
        for prior, prior_lanes in previous_heard:
            gated = prior_lanes & update
            if not gated:
                continue
            for count, count_lanes in enumerate(heard):
                if prior - count < self._k:
                    few_new |= gated & count_lanes
        raised = (inherited | few_new) & update
        new_previous: dict[int, int] = {}
        _merge_into(new_previous, previous_heard, keep)
        _merge_into(new_previous, enumerate(heard), update)

        deadline = 0
        if round_number == self._last:
            deadline = update
            _merge_into(decisions, new_estimate.items(), deadline)
        successor = (_freeze(new_estimate), early | raised, _freeze(new_previous))
        return decisions, flagged | deadline, successor

    # ------------------------------------------------------------------
    # Oracle masks
    # ------------------------------------------------------------------
    def _oracle_masks(
        self,
        crashed: tuple[int, ...],
        deciders: tuple[tuple[int, ...], ...],
        round_one_crashes: int,
        initial_crashes: int,
    ) -> tuple[tuple[int, int], ...]:
        n, full = self._n, self._full
        context = self._context
        in_mask = self._in_mask
        correct = [full & ~crashed[pid] for pid in range(n)]
        decided_value: list[dict[Any, int]] = []
        decided_round: list[dict[int, int]] = []
        for transition_ids in deciders:
            values: dict[Any, int] = {}
            rounds: dict[int, int] = {}
            for transition_id in transition_ids:
                round_number, decisions, decided = self._decisions[transition_id]
                _merge_into(values, decisions.items(), full)
                rounds[round_number] = rounds.get(round_number, 0) | decided
            decided_value.append(values)
            decided_round.append(rounds)

        late_cache: dict[int, int] = {}

        def late(bound: int) -> int:
            """Lanes where some correct process decided after *bound*."""
            cached = late_cache.get(bound)
            if cached is None:
                cached = 0
                for pid in range(n):
                    lanes = correct[pid]
                    if not lanes:
                        continue
                    for decision_round, mask in decided_round[pid].items():
                        if decision_round > bound:
                            cached |= mask & lanes
                late_cache[bound] = cached
            return cached

        masks: list[tuple[int, int]] = []
        for name in self._oracle_names:
            if name == "validity":
                violations = 0
                for pid in range(n):
                    for value, lanes in decided_value[pid].items():
                        bad = lanes & ~self._proposed.get(value, 0) & full
                        violations |= bad
                masks.append((full, violations))
            elif name == "agreement":
                distinct: dict[Any, int] = {}
                for pid in range(n):
                    _merge_into(distinct, decided_value[pid].items(), full)
                violations = count_exceeds(
                    list(distinct.values()), context.degree, full
                )
                masks.append((full, violations))
            elif name == "termination":
                violations = 0
                for pid in range(n):
                    decided_any = _union(decided_value[pid].items())
                    violations |= correct[pid] & ~decided_any
                masks.append((full, violations & full))
            elif name == "round-bound-in-condition":
                applies = in_mask if in_mask is not None else 0
                violations = 0
                if applies:
                    bound = context.in_bound
                    if context.theorem10 and round_one_crashes <= context.spec.x:
                        bound = min(bound, 2)
                    violations = applies & late(bound)
                masks.append((applies, violations))
            elif name == "round-bound-outside":
                applies = full if in_mask is None else full & ~in_mask
                violations = 0
                if applies:
                    bound = context.out_bound
                    if (
                        context.theorem10
                        and in_mask is not None
                        and initial_crashes > context.spec.x
                    ):
                        bound = min(bound, context.in_bound)
                    violations = applies & late(bound)
                masks.append((applies, violations))
            elif name == "early-deciding-bound":
                if context.early_bound is None:
                    masks.append((0, 0))
                else:
                    failure_classes = exact_counts(crashed, full)
                    violations = 0
                    for failures, lanes in enumerate(failure_classes):
                        if lanes:
                            violations |= lanes & late(context.early_bound(failures))
                    masks.append((full, violations))
            else:  # pragma: no cover - build() refuses unknown oracles
                raise SimulationError(f"no batch translation for oracle {name!r}")
        return tuple(masks)
