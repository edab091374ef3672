"""``repro.net`` — the synchronous message-passing backend.

The paper's model (Section 6.2) is crash-only: a faulty process stops, and
its last round delivers to a schedule-chosen receiver set.  This package
keeps the round structure but makes the *message plane* explicit — every
round is a full ``(sender, receiver)`` matrix and a
:class:`~repro.net.adversary.NetAdversary` rules on each entry — which opens
the failure models the crash schedule cannot express: send/receive omission,
message-granular loss, bounded delay, and Byzantine value corruption.

* :mod:`repro.net.adversary` — the failure-model registry
  (:data:`NET_ADVERSARIES`) with seeded builders, deterministic
  :func:`enumerate_faults` and closed-form :func:`count_faults` per family;
* :mod:`repro.net.runtime` — :class:`NetSystem`, the per-round
  send → filter → deliver engine driving the same
  :class:`~repro.sync.process.RoundBasedProcess` objects as the sync backend.

Reachable end to end as ``backend="net"`` through
:class:`repro.api.Engine`, ``repro demo/sweep/check --backend net`` and the
serving daemon; the exhaustive checker lives in
:mod:`repro.check.net_checker`.
"""

from .._lazy import lazy_exports

__all__ = [
    "NET_ADVERSARIES",
    "BoundedDelayAdversary",
    "ByzantineCorruptAdversary",
    "EnumeratedCorruption",
    "EnumeratedDelay",
    "EnumeratedMessageLoss",
    "FaultEvent",
    "FaultFreeAdversary",
    "MessageLossAdversary",
    "NetAdversary",
    "NetAdversaryFamily",
    "NetExecutionResult",
    "NetSystem",
    "ReceiveOmissionAdversary",
    "SendOmissionAdversary",
    "adversary_from_record",
    "available_net_adversaries",
    "count_faults",
    "enumerate_faults",
    "register_net_adversary",
    "resolve_net_adversary",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".adversary": (
            "NET_ADVERSARIES",
            "BoundedDelayAdversary",
            "ByzantineCorruptAdversary",
            "EnumeratedCorruption",
            "EnumeratedDelay",
            "EnumeratedMessageLoss",
            "FaultFreeAdversary",
            "MessageLossAdversary",
            "NetAdversary",
            "NetAdversaryFamily",
            "ReceiveOmissionAdversary",
            "SendOmissionAdversary",
            "adversary_from_record",
            "available_net_adversaries",
            "count_faults",
            "enumerate_faults",
            "register_net_adversary",
            "resolve_net_adversary",
        ),
        ".runtime": ("FaultEvent", "NetExecutionResult", "NetSystem"),
    },
)
