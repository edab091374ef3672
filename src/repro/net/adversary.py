"""Message-level adversaries for the synchronous message-passing backend.

The crash adversary of :mod:`repro.sync.adversary` acts on *processes*: a
victim crashes in some round and its round-``r`` message reaches a schedule
chosen receiver set.  The adversaries here act on *individual messages* of
the explicit per-round message matrix built by :class:`repro.net.runtime.NetSystem`
— every ``(round, sender, receiver)`` channel gets its own verdict.  Five
failure models are registered (plus the trivial ``fault-free`` one):

``send-omission``
    Up to ``max_faults`` faulty *senders*; each omits its message to a fixed
    non-empty set of receivers in **every** round (static omission — the
    standard send-omission fault of the literature).
``receive-omission``
    The dual: faulty *receivers* drop incoming messages from a fixed
    non-empty set of senders in every round.
``message-loss``
    Message-granular loss.  Stochastic form: every channel is lost
    independently with probability ``p`` (seeded).  Enumerated form: every
    set of at most ``max_faults`` lost ``(round, sender, receiver)`` channels.
``bounded-delay``
    A message sent in round ``r`` matures in round ``r + δ`` with
    ``1 <= δ <= d_max`` — after the lock-step receive phase of round ``r``
    has closed, so the receiver computes without it (a timing fault is an
    omission for its round).  The runtime audits every maturity as ``late``,
    ``superseded`` or ``expired`` instead of retroactively delivering stale
    payloads into a later round's inbox.
``byzantine-corrupt``
    Value corruption on up to ``max_faults`` channels, modelled as
    *equivocation*: a corrupted channel ``sender -> receiver`` delivers the
    round payload of a different ``source`` process instead — type-safe for
    every payload an algorithm floods (plain values, views, state triples)
    while still injecting wrong values into the receiver's view.

Each enumerable family exposes the pair the exhaustive checker needs:
:func:`enumerate_faults` (a deterministic stream of fully specified
adversaries) and :func:`count_faults` (the closed-form size of that stream,
cross-validated against the enumeration on every model-checking run, exactly
like :func:`repro.sync.adversary.count_schedules`).  Every adversary also
serialises to a JSON-friendly :meth:`NetAdversary.fault_record` so
counterexamples replay bit-for-bit via :func:`adversary_from_record`.

Self-channels (``sender == receiver``) are never touched: a process always
sees its own message, which the :class:`~repro.sync.process.RoundBasedProcess`
contract guarantees.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations, product
from math import comb
from random import Random
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping

from ..exceptions import InvalidParameterError
from ..registry import Registry

__all__ = [
    "NET_ADVERSARIES",
    "DELIVER",
    "DROP",
    "NetAdversary",
    "NetAdversaryFamily",
    "FaultFreeAdversary",
    "SendOmissionAdversary",
    "ReceiveOmissionAdversary",
    "MessageLossAdversary",
    "EnumeratedMessageLoss",
    "BoundedDelayAdversary",
    "EnumeratedDelay",
    "ByzantineCorruptAdversary",
    "EnumeratedCorruption",
    "adversary_from_record",
    "available_net_adversaries",
    "count_faults",
    "enumerate_faults",
    "register_net_adversary",
    "resolve_net_adversary",
]

#: Action verbs returned by :meth:`NetAdversary.treat`.
DELIVER = ("deliver",)
DROP = ("drop",)


def _delay(delta: int) -> tuple[str, int]:
    return ("delay", delta)


def _corrupt(source: int) -> tuple[str, int]:
    return ("corrupt", source)


class NetAdversary(ABC):
    """One failure-model instance: a verdict for every channel of a run.

    The runtime calls :meth:`begin_run` once per execution (resetting any
    stochastic state from the run seed) and then :meth:`treat` for every
    non-self channel of a *live* (not halted) sender, in a fixed order:
    round, sender, receiver, each ascending.  A halted process's channels
    are never asked about, and a seeded adversary's RNG stream depends on
    that: it advances once per asked channel.

    :attr:`fixed_verdicts` declares that the verdict is a pure function of
    ``(round, sender, receiver)`` for the object's lifetime, and that the
    object is never mutated.  While consecutive runs pass the same object,
    the runtime then keeps :meth:`describe`, :attr:`faulty` and, from the
    second run on, the verdicts, which it asks once per round and
    live-sender set.  The default, ``False``, is to be asked on every run,
    which is always safe.
    """

    #: Registry family the adversary belongs to (set by subclasses).
    family: str = "fault-free"
    #: Whether the runtime may reuse this object's verdicts (see above).
    fixed_verdicts: ClassVar[bool] = False

    @property
    def faulty(self) -> frozenset[int]:
        """Processes this adversary makes faulty (empty for channel models)."""
        return frozenset()

    def begin_run(self, n: int, seed: int) -> None:
        """Reset per-run state; called once before round 1."""

    @abstractmethod
    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        """The verdict for one message: ``DELIVER``, ``DROP``, ``("delay", δ)``
        or ``("corrupt", source)``."""

    @abstractmethod
    def fault_record(self) -> dict[str, Any]:
        """JSON-serialisable description; :func:`adversary_from_record` inverts it."""

    def describe(self) -> str:
        """One-line description used by reports and examples."""
        return self.family


class FaultFreeAdversary(NetAdversary):
    """Every message is delivered in its send round — the sync baseline."""

    family = "fault-free"
    fixed_verdicts = True

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        return DELIVER

    def fault_record(self) -> dict[str, Any]:
        return {"family": self.family}


class SendOmissionAdversary(NetAdversary):
    """Faulty senders omit messages to fixed receiver sets, every round."""

    family = "send-omission"
    fixed_verdicts = True

    def __init__(self, assignment: Mapping[int, Iterable[int]]) -> None:
        self._assignment = {
            int(victim): frozenset(int(r) for r in receivers)
            for victim, receivers in dict(assignment).items()
        }
        for victim, receivers in self._assignment.items():
            if victim in receivers:
                raise InvalidParameterError(
                    f"send-omission cannot touch the self-channel of process {victim}"
                )
            if not receivers:
                raise InvalidParameterError(
                    f"send-omission victim {victim} omits to nobody; drop it "
                    "from the assignment instead"
                )

    @property
    def assignment(self) -> dict[int, frozenset[int]]:
        """Mapping faulty sender -> receivers it omits to."""
        return dict(self._assignment)

    @property
    def faulty(self) -> frozenset[int]:
        return frozenset(self._assignment)

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        if receiver in self._assignment.get(sender, ()):
            return DROP
        return DELIVER

    def fault_record(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "assignment": [
                [victim, sorted(receivers)]
                for victim, receivers in sorted(self._assignment.items())
            ],
        }

    def describe(self) -> str:
        victims = ", ".join(
            f"{victim}-/->{sorted(receivers)}"
            for victim, receivers in sorted(self._assignment.items())
        )
        return f"send-omission({victims or 'none'})"


class ReceiveOmissionAdversary(NetAdversary):
    """Faulty receivers drop incoming messages from fixed sender sets."""

    family = "receive-omission"
    fixed_verdicts = True

    def __init__(self, assignment: Mapping[int, Iterable[int]]) -> None:
        self._assignment = {
            int(victim): frozenset(int(s) for s in senders)
            for victim, senders in dict(assignment).items()
        }
        for victim, senders in self._assignment.items():
            if victim in senders:
                raise InvalidParameterError(
                    f"receive-omission cannot touch the self-channel of process {victim}"
                )
            if not senders:
                raise InvalidParameterError(
                    f"receive-omission victim {victim} drops from nobody; drop "
                    "it from the assignment instead"
                )

    @property
    def assignment(self) -> dict[int, frozenset[int]]:
        """Mapping faulty receiver -> senders it drops."""
        return dict(self._assignment)

    @property
    def faulty(self) -> frozenset[int]:
        return frozenset(self._assignment)

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        if sender in self._assignment.get(receiver, ()):
            return DROP
        return DELIVER

    def fault_record(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "assignment": [
                [victim, sorted(senders)]
                for victim, senders in sorted(self._assignment.items())
            ],
        }

    def describe(self) -> str:
        victims = ", ".join(
            f"{victim}<-/-{sorted(senders)}"
            for victim, senders in sorted(self._assignment.items())
        )
        return f"receive-omission({victims or 'none'})"


class MessageLossAdversary(NetAdversary):
    """Independent seeded loss: every channel lost with probability ``p``."""

    family = "message-loss"

    def __init__(self, p: float = 0.15, seed: int | None = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"loss probability must be in [0, 1], got {p}")
        self._p = p
        self._seed = seed
        self._rng = Random(seed or 0)

    @property
    def p(self) -> float:
        """Per-channel loss probability."""
        return self._p

    def begin_run(self, n: int, seed: int) -> None:
        # A pinned constructor seed makes every run identical; otherwise the
        # loss pattern is a deterministic function of the run seed.
        self._rng = Random(self._seed if self._seed is not None else seed)

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        return DROP if self._rng.random() < self._p else DELIVER

    def fault_record(self) -> dict[str, Any]:
        return {"family": self.family, "p": self._p, "seed": self._seed}

    def describe(self) -> str:
        return f"message-loss(p={self._p})"


class EnumeratedMessageLoss(NetAdversary):
    """Exactly the listed ``(round, sender, receiver)`` channels are lost."""

    family = "message-loss"
    fixed_verdicts = True

    def __init__(self, lost: Iterable[tuple[int, int, int]]) -> None:
        self._lost = frozenset((int(r), int(s), int(q)) for r, s, q in lost)
        for r, s, q in self._lost:
            if s == q:
                raise InvalidParameterError(
                    f"message-loss cannot touch the self-channel of process {s}"
                )

    @property
    def lost(self) -> frozenset[tuple[int, int, int]]:
        """The lost channels."""
        return self._lost

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        return DROP if (round_number, sender, receiver) in self._lost else DELIVER

    def fault_record(self) -> dict[str, Any]:
        return {"family": self.family, "lost": [list(c) for c in sorted(self._lost)]}

    def describe(self) -> str:
        return f"message-loss(lost={sorted(self._lost)})"


class BoundedDelayAdversary(NetAdversary):
    """Seeded random delays: every channel delayed by ``δ ∈ [0, d_max]``."""

    family = "bounded-delay"

    def __init__(self, d_max: int = 1, seed: int | None = None) -> None:
        if d_max < 1:
            raise InvalidParameterError(f"d_max must be >= 1, got {d_max}")
        self._d_max = d_max
        self._seed = seed
        self._rng = Random(seed or 0)

    @property
    def d_max(self) -> int:
        """Maximum delay in rounds."""
        return self._d_max

    def begin_run(self, n: int, seed: int) -> None:
        self._rng = Random(self._seed if self._seed is not None else seed)

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        delta = self._rng.randint(0, self._d_max)
        return DELIVER if delta == 0 else _delay(delta)

    def fault_record(self) -> dict[str, Any]:
        return {"family": self.family, "d_max": self._d_max, "seed": self._seed}

    def describe(self) -> str:
        return f"bounded-delay(d_max={self._d_max})"


class EnumeratedDelay(NetAdversary):
    """Exactly the listed channels are delayed, by the listed amounts."""

    family = "bounded-delay"
    fixed_verdicts = True

    def __init__(self, delays: Mapping[tuple[int, int, int], int]) -> None:
        self._delays = {
            (int(r), int(s), int(q)): int(delta)
            for (r, s, q), delta in dict(delays).items()
        }
        for (r, s, q), delta in self._delays.items():
            if s == q:
                raise InvalidParameterError(
                    f"bounded-delay cannot touch the self-channel of process {s}"
                )
            if delta < 1:
                raise InvalidParameterError(
                    f"a delayed channel needs delay >= 1, got {delta} on {(r, s, q)}"
                )

    @property
    def delays(self) -> dict[tuple[int, int, int], int]:
        """Mapping delayed channel -> delay in rounds."""
        return dict(self._delays)

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        delta = self._delays.get((round_number, sender, receiver))
        return DELIVER if delta is None else _delay(delta)

    def fault_record(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "delays": [
                [r, s, q, delta] for (r, s, q), delta in sorted(self._delays.items())
            ],
        }

    def describe(self) -> str:
        return f"bounded-delay(delays={sorted(self._delays.items())})"


class ByzantineCorruptAdversary(NetAdversary):
    """Seeded corruption of up to ``limit`` channels (equivocation)."""

    family = "byzantine-corrupt"

    def __init__(self, limit: int = 1, p: float = 0.15, seed: int | None = None) -> None:
        if limit < 0:
            raise InvalidParameterError(f"corruption limit must be >= 0, got {limit}")
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"corruption probability must be in [0, 1], got {p}")
        self._limit = limit
        self._p = p
        self._seed = seed
        self._rng = Random(seed or 0)
        self._corrupted = 0
        self._n = 0

    @property
    def limit(self) -> int:
        """Maximum number of corrupted channels per run."""
        return self._limit

    def begin_run(self, n: int, seed: int) -> None:
        self._rng = Random(self._seed if self._seed is not None else seed)
        self._corrupted = 0
        self._n = n

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        if self._corrupted >= self._limit or self._n < 2:
            return DELIVER
        if self._rng.random() >= self._p:
            return DELIVER
        self._corrupted += 1
        sources = [pid for pid in range(self._n) if pid != sender]
        return _corrupt(self._rng.choice(sources))

    def fault_record(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "limit": self._limit,
            "p": self._p,
            "seed": self._seed,
        }

    def describe(self) -> str:
        return f"byzantine-corrupt(limit={self._limit})"


class EnumeratedCorruption(NetAdversary):
    """Exactly the listed channels deliver another process's payload."""

    family = "byzantine-corrupt"
    fixed_verdicts = True

    def __init__(self, corruptions: Mapping[tuple[int, int, int], int]) -> None:
        self._corruptions = {
            (int(r), int(s), int(q)): int(source)
            for (r, s, q), source in dict(corruptions).items()
        }
        for (r, s, q), source in self._corruptions.items():
            if s == q:
                raise InvalidParameterError(
                    f"byzantine-corrupt cannot touch the self-channel of process {s}"
                )
            if source == s:
                raise InvalidParameterError(
                    f"corrupting channel {(r, s, q)} with the sender's own "
                    "payload is a delivery, not a corruption"
                )

    @property
    def corruptions(self) -> dict[tuple[int, int, int], int]:
        """Mapping corrupted channel -> impersonated source process."""
        return dict(self._corruptions)

    def treat(self, round_number: int, sender: int, receiver: int) -> tuple:
        source = self._corruptions.get((round_number, sender, receiver))
        return DELIVER if source is None else _corrupt(source)

    def fault_record(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "corruptions": [
                [r, s, q, source]
                for (r, s, q), source in sorted(self._corruptions.items())
            ],
        }

    def describe(self) -> str:
        return f"byzantine-corrupt(channels={sorted(self._corruptions.items())})"


class NetAdversaryFamily:
    """A named failure model: a seeded builder plus a one-line summary."""

    def __init__(
        self,
        name: str,
        summary: str,
        build: Callable[[int, int, int], NetAdversary],
    ) -> None:
        self.name = name
        self.summary = summary
        self._build = build

    def build(self, n: int, t: int, seed: int) -> NetAdversary:
        """A concrete adversary instance for an ``(n, t)`` system."""
        return self._build(n, t, seed)


#: The failure models, keyed by family name.
NET_ADVERSARIES = Registry("net adversary")


def register_net_adversary(name: str, summary: str):
    """Register a seeded builder ``(n, t, seed) -> NetAdversary`` under *name*."""

    def decorator(build: Callable[[int, int, int], NetAdversary]):
        NET_ADVERSARIES.add(name, NetAdversaryFamily(name, summary, build))
        return build

    return decorator


def available_net_adversaries() -> tuple[str, ...]:
    """The registered failure-model names, sorted."""
    return NET_ADVERSARIES.names()


def resolve_net_adversary(
    adversary: "str | NetAdversary", n: int, t: int, seed: int
) -> NetAdversary:
    """A concrete :class:`NetAdversary` from a family name or an instance."""
    if isinstance(adversary, NetAdversary):
        return adversary
    return NET_ADVERSARIES.get(adversary).build(n, t, seed)


def _other_processes(n: int, pid: int) -> list[int]:
    return [other for other in range(n) if other != pid]


@register_net_adversary("fault-free", "every message delivered in its send round")
def _build_fault_free(n: int, t: int, seed: int) -> NetAdversary:
    return FaultFreeAdversary()


@register_net_adversary(
    "send-omission", "up to t faulty senders omit to fixed receiver sets"
)
def _build_send_omission(n: int, t: int, seed: int) -> NetAdversary:
    rng = Random(seed)
    victims = sorted(rng.sample(range(n), min(t, n))) if t else []
    assignment = {}
    for victim in victims:
        others = _other_processes(n, victim)
        count = rng.randint(1, len(others)) if others else 0
        if count:
            assignment[victim] = frozenset(rng.sample(others, count))
    return SendOmissionAdversary(assignment)


@register_net_adversary(
    "receive-omission", "up to t faulty receivers drop from fixed sender sets"
)
def _build_receive_omission(n: int, t: int, seed: int) -> NetAdversary:
    rng = Random(seed)
    victims = sorted(rng.sample(range(n), min(t, n))) if t else []
    assignment = {}
    for victim in victims:
        others = _other_processes(n, victim)
        count = rng.randint(1, len(others)) if others else 0
        if count:
            assignment[victim] = frozenset(rng.sample(others, count))
    return ReceiveOmissionAdversary(assignment)


@register_net_adversary(
    "message-loss", "every channel lost independently with probability p (seeded)"
)
def _build_message_loss(n: int, t: int, seed: int) -> NetAdversary:
    return MessageLossAdversary(p=0.15)


@register_net_adversary(
    "bounded-delay", "every channel delayed by a seeded δ in [0, d_max]"
)
def _build_bounded_delay(n: int, t: int, seed: int) -> NetAdversary:
    return BoundedDelayAdversary(d_max=1)


@register_net_adversary(
    "byzantine-corrupt", "up to t channels deliver another process's payload"
)
def _build_byzantine_corrupt(n: int, t: int, seed: int) -> NetAdversary:
    return ByzantineCorruptAdversary(limit=t, p=0.15)


def adversary_from_record(record: Mapping[str, Any]) -> NetAdversary:
    """Rebuild the adversary a :meth:`NetAdversary.fault_record` describes."""
    try:
        family = record["family"]
        if family == "fault-free":
            return FaultFreeAdversary()
        if family == "send-omission":
            return SendOmissionAdversary(
                {victim: receivers for victim, receivers in record["assignment"]}
            )
        if family == "receive-omission":
            return ReceiveOmissionAdversary(
                {victim: senders for victim, senders in record["assignment"]}
            )
        if family == "message-loss":
            if "lost" in record:
                return EnumeratedMessageLoss(tuple(c) for c in record["lost"])
            return MessageLossAdversary(p=record["p"], seed=record["seed"])
        if family == "bounded-delay":
            if "delays" in record:
                return EnumeratedDelay(
                    {(r, s, q): delta for r, s, q, delta in record["delays"]}
                )
            return BoundedDelayAdversary(d_max=record["d_max"], seed=record["seed"])
        if family == "byzantine-corrupt":
            if "corruptions" in record:
                return EnumeratedCorruption(
                    {(r, s, q): source for r, s, q, source in record["corruptions"]}
                )
            return ByzantineCorruptAdversary(
                limit=record["limit"], p=record["p"], seed=record["seed"]
            )
    except (KeyError, TypeError, ValueError) as error:
        raise InvalidParameterError(f"malformed fault record: {error!r}") from error
    NET_ADVERSARIES.get(family)
    raise InvalidParameterError(f"failure model {family!r} has no fault record reader")


# ----------------------------------------------------------------------
# Exhaustive fault enumeration (mirrors sync enumerate/count_schedules)
# ----------------------------------------------------------------------
def _validate_fault_parameters(family: str, n: int, rounds: int, max_faults: int) -> None:
    NET_ADVERSARIES.get(family)
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
    if max_faults < 0:
        raise InvalidParameterError(f"max_faults must be >= 0, got {max_faults}")
    if family in ("send-omission", "receive-omission") and max_faults > n:
        raise InvalidParameterError(
            f"at most n={n} processes can be omission-faulty, got max_faults={max_faults}"
        )


def _channels(n: int, rounds: int) -> list[tuple[int, int, int]]:
    """Every non-self ``(round, sender, receiver)`` channel, in treat order."""
    return [
        (round_number, sender, receiver)
        for round_number in range(1, rounds + 1)
        for sender in range(n)
        for receiver in range(n)
        if sender != receiver
    ]


def _nonempty_subsets(population: list[int]) -> Iterator[frozenset[int]]:
    """Non-empty subsets of *population*, by size then lexicographically."""
    for size in range(1, len(population) + 1):
        for subset in combinations(population, size):
            yield frozenset(subset)


def _enumerate_omission(
    n: int, max_faults: int, cls
) -> Iterator[NetAdversary]:
    yield cls({})
    for fault_count in range(1, max_faults + 1):
        for victims in combinations(range(n), fault_count):
            per_victim = [
                list(_nonempty_subsets(_other_processes(n, victim)))
                for victim in victims
            ]
            for choice in product(*per_victim):
                yield cls(dict(zip(victims, choice)))


def enumerate_faults(
    family: str,
    n: int,
    rounds: int,
    max_faults: int,
    *,
    d_max: int = 1,
) -> Iterator[NetAdversary]:
    """Every fault assignment of *family* for an ``n``-process, *rounds*-round run.

    The order is deterministic — faulty sets by size then lexicographically,
    per-victim/per-channel patterns in :func:`itertools.product` order — so
    ``islice(enumerate_faults(...), start, stop)`` shards the space
    reproducibly, which is how the parallel checker splits the work.
    """
    _validate_fault_parameters(family, n, rounds, max_faults)
    if family == "fault-free":
        yield FaultFreeAdversary()
        return
    if family == "send-omission":
        yield from _enumerate_omission(n, max_faults, SendOmissionAdversary)
        return
    if family == "receive-omission":
        yield from _enumerate_omission(n, max_faults, ReceiveOmissionAdversary)
        return
    channels = _channels(n, rounds)
    if family == "message-loss":
        for count in range(0, min(max_faults, len(channels)) + 1):
            for lost in combinations(channels, count):
                yield EnumeratedMessageLoss(lost)
        return
    if family == "bounded-delay":
        if d_max < 1:
            raise InvalidParameterError(f"d_max must be >= 1, got {d_max}")
        for count in range(0, min(max_faults, len(channels)) + 1):
            for delayed in combinations(channels, count):
                for deltas in product(range(1, d_max + 1), repeat=count):
                    yield EnumeratedDelay(dict(zip(delayed, deltas)))
        return
    if family == "byzantine-corrupt":
        for count in range(0, min(max_faults, len(channels)) + 1):
            for corrupted in combinations(channels, count):
                source_choices = [
                    _other_processes(n, sender) for _, sender, _ in corrupted
                ]
                for sources in product(*source_choices):
                    yield EnumeratedCorruption(dict(zip(corrupted, sources)))
        return
    raise InvalidParameterError(  # pragma: no cover - guarded by validation
        f"family {family!r} has no exhaustive enumeration"
    )


def count_faults(
    family: str,
    n: int,
    rounds: int,
    max_faults: int,
    *,
    d_max: int = 1,
) -> int:
    """Closed-form size of :func:`enumerate_faults`'s stream.

    * ``fault-free`` — ``1``.
    * ``send-omission`` / ``receive-omission`` —
      ``Σ_f C(n, f) · (2^(n−1) − 1)^f`` for ``f = 0..max_faults``: choose the
      faulty set, then a non-empty omitted subset of the other ``n − 1``
      processes per victim.
    * ``message-loss`` — ``Σ_j C(M, j)`` over lost-channel counts
      ``j = 0..max_faults`` with ``M = rounds · n · (n − 1)`` channels.
    * ``bounded-delay`` — ``Σ_j C(M, j) · d_max^j``.
    * ``byzantine-corrupt`` — ``Σ_j C(M, j) · (n − 1)^j``.
    """
    _validate_fault_parameters(family, n, rounds, max_faults)
    if family == "fault-free":
        return 1
    if family in ("send-omission", "receive-omission"):
        patterns = 2 ** (n - 1) - 1
        return sum(
            comb(n, fault_count) * patterns**fault_count
            for fault_count in range(0, max_faults + 1)
        )
    total_channels = rounds * n * (n - 1)
    bound = min(max_faults, total_channels)
    if family == "message-loss":
        return sum(comb(total_channels, j) for j in range(0, bound + 1))
    if family == "bounded-delay":
        if d_max < 1:
            raise InvalidParameterError(f"d_max must be >= 1, got {d_max}")
        return sum(comb(total_channels, j) * d_max**j for j in range(0, bound + 1))
    if family == "byzantine-corrupt":
        return sum(comb(total_channels, j) * (n - 1) ** j for j in range(0, bound + 1))
    raise InvalidParameterError(  # pragma: no cover - guarded by validation
        f"family {family!r} has no closed-form count"
    )
