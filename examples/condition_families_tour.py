#!/usr/bin/env python3
"""Tour the condition-family registry across the (x, l) hierarchy.

The paper is about *classes* of conditions, and PR 2 made them first-class
citizens of the API: every family in the :data:`repro.api.CONDITIONS`
registry runs through the same :class:`repro.api.Engine` call path, on both
backends, at any point of the hierarchy.  This script demonstrates the whole
surface:

1. the registry listing (what `repro conditions` prints);
2. one end-to-end run per family — same system, same adversary, different
   condition — on the synchronous and the asynchronous backend;
3. a hierarchy walk: one family swept across the condition degree ``d``
   through :meth:`repro.api.Engine.sweep` over the ``condition`` spec field;
4. the condition algebra: intersection, difference and union of families,
   with ``ell`` propagation and the construction-time legality guard.

Run with::

    python examples/condition_families_tour.py
"""

from __future__ import annotations

from repro.api import CONDITIONS, AgreementSpec, Engine
from repro.analysis import format_table
from repro.core import MaxLegalCondition, MinLegalCondition, intersection, known_size, union
from repro.exceptions import LegalityError, ReproError
from repro.workloads import condition_family_scenario, vector_in_condition

N, M, T, K = 6, 6, 2, 2


def registry_listing() -> None:
    print("== the condition-family registry ==")
    for name, family in CONDITIONS.items():
        print(f"  {name:<16} {family.summary}")
    print()


def one_run_per_family() -> None:
    """Same system, same adversary — a different condition family each time."""
    cases = [
        ("max-legal", 1, {}),
        ("min-legal", 1, {}),
        ("frequency-gap", 1, {"gap": 1}),
        ("hamming-ball", 1, {"radius": 1}),
        ("all-vectors", T, {}),
    ]
    rows = []
    for family, d, params in cases:
        scenario = condition_family_scenario(family, N, M, T, d, 1, K, params)
        sync_result = scenario.run()
        async_result = scenario.run(backend="async")
        rows.append(
            {
                "family": family,
                "condition": scenario.spec.condition_oracle().name,
                "input": "".join(map(str, scenario.input_vector.entries)),
                "sync rounds": sync_result.max_decision_round_of_correct(),
                "bound": scenario.predicted_round_bound,
                "decided": ",".join(map(str, sorted(sync_result.decided_values()))),
                "async steps": async_result.duration,
            }
        )
    print(format_table(rows, title="one fast-path run per family (both backends)"))
    print()


def hierarchy_walk() -> None:
    """Sweep the condition *family* and the degree d through one engine."""
    spec = AgreementSpec(n=N, t=T, k=K, d=1, ell=1, domain=M)
    engine = Engine(spec, "condition-kset")
    cells = engine.sweep(
        {"condition": ("max-legal", "min-legal", "hamming-ball"), "d": (1, 2)},
        runs_per_cell=3,
    )
    rows = []
    for cell in cells:
        rows.append(
            {
                "condition": cell.overrides["condition"],
                "d": cell.overrides["d"],
                "error": cell.error or "-",
                "runs": cell.runs,
                "worst rounds": cell.worst_duration(),
                "distinct decisions": cell.max_distinct_decisions(),
            }
        )
    print(format_table(rows, title="Engine.sweep over the condition field × d"))
    print()


def algebra_tour() -> None:
    print("== the condition algebra ==")
    small_max = MaxLegalCondition(4, 3, x=1, ell=1)
    small_min = MinLegalCondition(4, 3, x=1, ell=2)

    both = intersection(small_max, small_min, check_x=1)
    print(f"intersection : {both.name}")
    print(f"  l = min(1, 2) = {both.ell}, {len(both)} vectors, (1, 1)-legality checked")

    united = union(small_max, small_min)
    print(f"union        : {united.name}")
    print(f"  l = max(1, 2) = {united.ell} (lazy: no enumeration happened)")

    try:
        small_min.difference(small_max, check_x=1)
    except LegalityError as error:
        print(f"difference   : rejected by the construction-time legality guard:")
        print(f"  {str(error)[:100]}...")
    else:
        diff = small_min.difference(small_max)
        print(f"difference   : {diff.name} kept {len(diff)} vectors")

    ball = vector_in_condition(both, 4, 3, 0)
    print(f"sample member of the intersection: {list(ball.entries)}")
    print()


def main() -> None:
    registry_listing()
    one_run_per_family()
    hierarchy_walk()
    algebra_tour()
    sizes = []
    for family, d in [("max-legal", 1), ("min-legal", 1), ("hamming-ball", 1), ("all-vectors", T)]:
        spec = AgreementSpec(n=N, t=T, k=K, d=d, ell=1, domain=M, condition=family)
        size = known_size(spec.condition_oracle())
        sizes.append({"family": family, "vectors": size if size is not None else "?", "of": M**N})
    print(format_table(sizes, title="how much of the input space each family covers"))


if __name__ == "__main__":
    try:
        main()
    except ReproError as error:
        raise SystemExit(f"error: {error}")
