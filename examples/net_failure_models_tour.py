#!/usr/bin/env python3
"""A guided tour of the message-passing backend's six failure models.

For one small system (n = 4, t = 1, k = 1) the script runs FloodMin under
every registered net failure model and prints what each one did to the
message matrix — which channels were dropped, delayed or corrupted, who the
faulty processes were, and what everyone decided.  It closes with an
exhaustive model-checking pass: every send-omission adversary of the
``n = 3, t = 1`` fault space crossed with the full input frontier, the
enumeration cross-validated against its closed form.

Run with::

    python examples/net_failure_models_tour.py
"""

from __future__ import annotations

from repro.api import AgreementSpec, Engine, RunResult
from repro.net import available_net_adversaries, count_faults

SPEC = AgreementSpec(n=4, t=1, k=1, domain=4)
VECTOR = [3, 1, 4, 2]
SEED = 7


def narrate(family: str, result: RunResult) -> None:
    net = result.raw
    print(f"--- {family} ---")
    print(f"  input vector    : {VECTOR}")
    print(f"  faulty processes: {sorted(net.faulty) if net.faulty else '-'}")
    print(f"  rounds executed : {result.duration}")
    print(f"  decisions       : {dict(sorted(result.decisions.items()))}")
    print(f"  fingerprint     : {result.fingerprint[:12]}…")
    if net.fault_events:
        for event in net.fault_events:
            print(
                f"    round {event.round_number}: "
                f"{event.sender} → {event.receiver} {event.outcome}"
                + (f" ({event.detail})" if event.detail is not None else "")
            )
    else:
        print("    every message delivered")
    print()


def main() -> None:
    engine = Engine(SPEC, "floodmin")

    # 1. One run per failure model, same vector, same seed: the fault events
    #    are the audit trail of what the model did to the message matrix.
    for family in available_net_adversaries():
        result = engine.run(
            VECTOR, backend="net", net_adversary=family, seed=SEED
        )
        narrate(family, result)

    # 2. Exhaustive verification: every send-omission adversary of the small
    #    fault space x every input vector, with the enumeration checked
    #    against its closed form on the way.
    tiny = AgreementSpec(n=3, t=1, k=1, domain=2)
    report = Engine(tiny, "floodmin").check(
        backend="net", adversary="send-omission"
    )
    space = report.space
    expected = count_faults("send-omission", tiny.n, space.rounds, space.max_faults)
    print("--- exhaustive send-omission check ---")
    print(report.render())
    assert report.passed, "FloodMin must survive every send-omission fault"
    assert report.adversary_count == expected, "enumeration drifted from closed form"


if __name__ == "__main__":
    main()
