#!/usr/bin/env python3
"""A guided tour of the three failure regimes of Section 6.1, with full traces.

For one system (n = 9, t = 6, d = 3, l = 2, k = 3) the script runs the
Figure 2 algorithm in the three regimes the paper distinguishes and prints a
round-by-round account of each execution:

1. input vector in the condition, at most t − d crashes  → 2 rounds;
2. input vector in the condition, a round-1 failure storm → ⌊(d+l−1)/k⌋ + 1;
3. input vector outside the condition, staggered crashes  → ⌊t/k⌋ + 1.

Run with::

    python examples/failure_regimes_tour.py
"""

from __future__ import annotations

from repro import RunResult
from repro.analysis import assert_execution_correct
from repro.workloads import (
    Scenario,
    degraded_path_scenario,
    fast_path_scenario,
    outside_condition_scenario,
)


def narrate(scenario: Scenario, result: RunResult) -> None:
    print(f"--- {scenario.name} ---")
    print(f"  {scenario.description}")
    print(f"  input vector      : {list(scenario.input_vector.entries)}")
    print(f"  in the condition  : {result.in_condition}")
    print(f"  crash schedule    : {len(scenario.schedule)} crash(es)")
    print(f"  predicted bound   : {scenario.predicted_round_bound} round(s)")
    print(f"  rounds executed   : {result.duration}")
    print(f"  decided values    : {sorted(result.decided_values())} (k = {scenario.spec.k})")
    if result.trace is not None:
        for record in result.trace:
            deciders = sorted(record.decisions)
            crashed = sorted(record.crashed)
            print(
                f"    round {record.round_number}: "
                f"{len(record.senders)} senders, "
                f"crashed={crashed if crashed else '-'}, "
                f"decided={deciders if deciders else '-'}"
            )
    print()


def run(scenario: Scenario) -> None:
    # One line per regime: the scenario carries the spec, the engine runs it.
    result = scenario.run("condition-kset", record_trace=True)
    assert_execution_correct(
        result, scenario.input_vector, scenario.spec.k, scenario.predicted_round_bound
    )
    narrate(scenario, result)


def main() -> None:
    parameters = dict(n=9, m=12, t=6, d=3, ell=2, k=3)
    run(fast_path_scenario(**parameters))
    run(degraded_path_scenario(**parameters))
    run(outside_condition_scenario(**parameters))


if __name__ == "__main__":
    main()
