"""The experiment harness: one function per paper artifact (E1–E16).

Every experiment function returns an :class:`ExperimentOutput` containing the
rows of the regenerated table, a list of pass/fail checks comparing the
measurement to what the paper proves, and a ``render()`` method producing the
text recorded in ``EXPERIMENTS.md`` and printed by the benchmarks.

The experiments are deliberately sized to run in seconds on a laptop (they are
executed inside the benchmark suite); the underlying library functions accept
larger parameters for users who want to push further.

Every execution goes through the unified :class:`repro.api.Engine`: one
:class:`~repro.api.spec.AgreementSpec` per parameter case, algorithms resolved
by registry key (``"condition-kset"``, ``"floodmin"``, ...), and both the
synchronous and the asynchronous backends dispatched through the same
``engine.run`` call path.  Repeated condition queries within an experiment are
answered from the engine's memoized oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Mapping, Sequence

from ..api.engine import Engine
from ..api.spec import AgreementSpec, RunConfig
from ..core.counting import (
    brute_force_condition_size,
    condition_fraction,
    max_condition_size,
    nb_consensus_condition,
)
from ..core.generators import (
    all_vectors_condition,
    table1_condition,
    theorem15_condition,
    theorem5_condition,
    theorem7_condition,
)
from ..core.hierarchy import (
    LegalityClass,
    SynchronousClass,
    rounds_in_condition,
    rounds_outside_condition,
)
from ..core.lattice import ConditionLattice
from ..core.legality import check_legality, is_legal
from ..core.recognizing import MaxValues
from ..core.vectors import InputVector
from ..exceptions import RegistryError
from ..sync.adversary import (
    crashes_in_round_one,
    initial_crashes,
    no_crashes,
    staggered_schedule,
)
from ..workloads.vectors import (
    vector_in_max_condition,
    vector_outside_max_condition,
)
from .properties import assert_execution_correct, check_execution
from .rounds import adversarial_schedules, measure_worst_rounds
from .tables import format_check, format_table

__all__ = ["ExperimentOutput", "EXPERIMENTS", "run_experiment", "list_experiments"]


@dataclass
class ExperimentOutput:
    """Rows + checks produced by one experiment."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def all_checks_pass(self) -> bool:
        """``True`` when every recorded check holds."""
        return all(holds for _, holds in self.checks)

    def render(self) -> str:
        """Readable report: title, table, checks, notes."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.append(format_table(self.rows))
        if self.checks:
            parts.append("")
            parts.extend(format_check(label, holds) for label, holds in self.checks)
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


# ----------------------------------------------------------------------
# E1 — Table 1 and the diagonal incomparability (Theorems 14 and 15)
# ----------------------------------------------------------------------
def experiment_table1_legality() -> ExperimentOutput:
    """Reproduce Table 1 and the Appendix B incomparability results."""
    output = ExperimentOutput("E1", "Table 1 / Theorems 14–15: diagonal incomparability")
    condition, recognizer = table1_condition()
    for vector in sorted(condition.vectors, key=lambda v: tuple(map(str, v.entries))):
        output.rows.append(
            {
                "vector": "[" + " ".join(map(str, vector.entries)) + "]",
                "h_1": ",".join(sorted(recognizer.decode_vector(vector))),
            }
        )
    legal_11 = bool(check_legality(condition, recognizer, x=1, ell=1))
    search_11 = is_legal(condition, 1, 1)
    search_22 = is_legal(condition, 2, 2)
    search_12 = is_legal(condition, 1, 2)
    output.checks.append(("Table 1 condition is (1,1)-legal with the paper's h_1", legal_11))
    output.checks.append(("exhaustive search also finds a (1,1) recognizer", search_11))
    output.checks.append(("no (2,2) recognizer exists (Theorem 14)", not search_22))
    output.checks.append(("a (1,2) recognizer exists (Theorem 6)", search_12))

    thm15_cond, thm15_rec = theorem15_condition(n=6, x=3, ell=2)
    legal_43 = bool(check_legality(thm15_cond, thm15_rec, x=4, ell=3))
    not_32 = not is_legal(thm15_cond, 3, 2)
    output.checks.append(("Theorem 15 family (n=6, x=3, l=2) is (4,3)-legal", legal_43))
    output.checks.append(("Theorem 15 family is not (3,2)-legal", not_32))
    return output


# ----------------------------------------------------------------------
# E2 — Figure 1: the lattice of condition classes
# ----------------------------------------------------------------------
def experiment_lattice_figure1(n: int = 5) -> ExperimentOutput:
    """Rebuild Figure 1 and verify the inclusion / strictness / frontier facts."""
    output = ExperimentOutput("E2", f"Figure 1: the (x, l) lattice for n={n}")
    lattice = ConditionLattice(n)
    for x in range(n - 1, -1, -1):
        row: dict[str, Any] = {"x": x}
        for ell in range(1, n):
            cell = lattice.cell(x, ell)
            row[f"l={ell}"] = "C_all" if cell.contains_all_vectors else "-"
        output.rows.append(row)

    # Reachability in the cover graph coincides with the closed-form order.
    order_consistent = all(
        lattice.includes(a, b) == a.is_subclass_of(b)
        for a in lattice.classes()
        for b in lattice.classes()
    )
    output.checks.append(
        ("cover-edge reachability matches the Theorem 4/6 order", order_consistent)
    )
    # All-vectors frontier (Theorems 8 and 9) verified empirically on a small system.
    small_n, small_m = 3, 3
    frontier_ok = True
    for x in range(0, small_n - 1):
        for ell in range(1, small_n):
            legal = is_legal(all_vectors_condition(small_n, small_m), x, ell, max_subset_size=2)
            if legal != (ell > x):
                frontier_ok = False
    output.checks.append(
        (
            f"C_all on n={small_n}, m={small_m} is (x,l)-legal exactly when l > x "
            "(Theorems 8–9)",
            frontier_ok,
        )
    )
    # Strictness along both axes (Theorems 5 and 7) on small witnesses.
    thm5 = theorem5_condition(4, 3, 2, 1)
    strict_x = bool(
        check_legality(thm5, thm5.recognizer, x=2, ell=1, max_subset_size=3)
    ) and not is_legal(thm5, 3, 1, max_subset_size=2)
    thm7 = theorem7_condition(4, 3, 2, 1)
    strict_ell = bool(
        check_legality(thm7, thm7.recognizer, x=2, ell=2, max_subset_size=3)
    ) and not is_legal(thm7, 2, 1, max_subset_size=2)
    output.checks.append(("Theorem 5 witness: (2,1)-legal but not (3,1)-legal", strict_x))
    output.checks.append(("Theorem 7 witness: (2,2)-legal but not (2,1)-legal", strict_ell))
    output.notes.append("full DOT rendering available via ConditionLattice(n).to_dot()")
    return output


# ----------------------------------------------------------------------
# E3 / E4 — the counting formulas (Theorems 3 and 13)
# ----------------------------------------------------------------------
def experiment_counting_theorem3(
    cases: Sequence[tuple[int, int, int]] = ((4, 3, 1), (4, 3, 2), (5, 3, 2), (5, 4, 3), (6, 2, 3)),
) -> ExperimentOutput:
    """``NB(x, 1)`` closed form vs exhaustive enumeration."""
    output = ExperimentOutput("E3", "Theorem 3: size NB(x, 1) of the max_1 condition")
    all_match = True
    for n, m, x in cases:
        formula = nb_consensus_condition(n, m, x)
        brute = brute_force_condition_size(n, m, x, 1)
        all_match &= formula == brute
        output.rows.append(
            {
                "n": n,
                "m": m,
                "x": x,
                "NB(x,1) formula": formula,
                "enumeration": brute,
                "fraction of m^n": condition_fraction(n, m, x, 1),
            }
        )
    output.checks.append(("closed form matches enumeration on every case", all_match))
    return output


def experiment_counting_theorem13(
    cases: Sequence[tuple[int, int, int, int]] = (
        (4, 3, 2, 1),
        (4, 3, 2, 2),
        (5, 3, 2, 2),
        (5, 4, 3, 2),
        (5, 3, 2, 3),
        (6, 3, 4, 2),
    ),
) -> ExperimentOutput:
    """``NB(x, l)`` closed form vs exhaustive enumeration."""
    output = ExperimentOutput("E4", "Theorem 13: size NB(x, l) of the max_l condition")
    all_match = True
    for n, m, x, ell in cases:
        formula = max_condition_size(n, m, x, ell)
        brute = brute_force_condition_size(n, m, x, ell)
        all_match &= formula == brute
        output.rows.append(
            {
                "n": n,
                "m": m,
                "x": x,
                "l": ell,
                "NB(x,l) formula": formula,
                "enumeration": brute,
                "fraction of m^n": condition_fraction(n, m, x, ell),
            }
        )
    output.checks.append(("closed form matches enumeration on every case", all_match))
    # Monotonicity along the two hierarchy axes (Section 5): larger l or larger
    # d (smaller x) can only add vectors.
    n, m = 5, 3
    monotone_ell = all(
        max_condition_size(n, m, 2, ell) <= max_condition_size(n, m, 2, ell + 1)
        for ell in range(1, 4)
    )
    monotone_x = all(
        max_condition_size(n, m, x + 1, 2) <= max_condition_size(n, m, x, 2)
        for x in range(0, 4)
    )
    output.checks.append(("NB grows with l (hierarchy with d fixed)", monotone_ell))
    output.checks.append(("NB shrinks as x grows (hierarchy with l fixed)", monotone_x))
    return output


# ----------------------------------------------------------------------
# E5 — the all-vectors frontier
# ----------------------------------------------------------------------
def experiment_all_vectors_frontier(n: int = 3, m: int = 3) -> ExperimentOutput:
    """Theorems 8 and 9: ``C_all`` is (x, l)-legal iff ``l > x`` (small systems)."""
    output = ExperimentOutput(
        "E5", f"Theorems 8–9: legality frontier of C_all (n={n}, m={m})"
    )
    frontier_ok = True
    for x in range(0, n - 1):
        row: dict[str, Any] = {"x": x}
        for ell in range(1, n):
            expected = ell > x
            if expected:
                # Theorem 8's witness is max_l itself; verifying the explicit
                # recognizer is much cheaper than an exhaustive search.
                legal = bool(
                    check_legality(
                        all_vectors_condition(n, m, ell=ell),
                        MaxValues(ell),
                        x=x,
                        ell=ell,
                        max_subset_size=2,
                    )
                )
            else:
                legal = is_legal(all_vectors_condition(n, m), x, ell, max_subset_size=2)
            row[f"l={ell}"] = "legal" if legal else "not legal"
            frontier_ok &= legal == expected
        output.rows.append(row)
    output.checks.append(("legality of C_all is exactly the region l > x", frontier_ok))
    return output


# ----------------------------------------------------------------------
# E6 / E7 — round complexity of the Figure 2 algorithm
# ----------------------------------------------------------------------
def _condition_sweep_cases() -> list[tuple[int, int, int, int, int, int]]:
    """(n, m, t, d, ell, k) cases used by the round-complexity sweeps."""
    return [
        (8, 10, 4, 2, 1, 2),
        (8, 10, 4, 3, 1, 2),
        (9, 12, 6, 3, 2, 3),
        (9, 12, 6, 4, 2, 2),
        (10, 12, 6, 2, 1, 3),
        (10, 12, 5, 3, 2, 2),
        (7, 10, 4, 1, 1, 2),
    ]


def experiment_rounds_in_condition(random_runs: int = 10, seed: int = 7) -> ExperimentOutput:
    """E6: rounds when the input vector belongs to the condition."""
    output = ExperimentOutput(
        "E6", "Theorem 10 (input in C): measured rounds vs ⌊(d+l−1)/k⌋ + 1"
    )
    all_within = True
    fast_path_ok = True
    rng = Random(seed)
    for n, m, t, d, ell, k in _condition_sweep_cases():
        x = t - d
        spec = AgreementSpec(n=n, t=t, k=k, d=d, ell=ell, domain=m)
        engine = Engine(spec, "condition-kset")
        vector = vector_in_max_condition(n, m, x, ell, rng)
        bound = min(rounds_in_condition(d, ell, k), rounds_outside_condition(t, k))
        schedules = adversarial_schedules(
            n, t, k, spec.outside_condition_bound(), rng=rng, random_runs=random_runs
        )
        measurement = measure_worst_rounds(engine, vector, schedules, k)
        all_within &= measurement.worst_round <= bound

        # Fast path: at most t − d crashes during round 1 → two rounds.
        fast_schedule = (
            crashes_in_round_one(n, x, delivered_prefix=n // 2) if x > 0 else no_crashes()
        )
        fast_result = engine.run(vector, fast_schedule)
        assert_execution_correct(fast_result, vector, k)
        fast_path_ok &= fast_result.max_decision_round_of_correct() <= 2

        output.rows.append(
            {
                "n": n,
                "t": t,
                "d": d,
                "l": ell,
                "k": k,
                "bound ⌊(d+l−1)/k⌋+1": bound,
                "worst measured": measurement.worst_round,
                "fast path rounds": fast_result.max_decision_round_of_correct(),
                "schedules": measurement.runs,
            }
        )
    output.checks.append(("every run decides within the in-condition bound", all_within))
    output.checks.append(("fast path (≤ t−d crashes in round 1) decides in 2 rounds", fast_path_ok))
    return output


def experiment_rounds_outside_condition(random_runs: int = 10, seed: int = 11) -> ExperimentOutput:
    """E7: rounds when the input vector is outside the condition."""
    output = ExperimentOutput(
        "E7", "Theorem 10 (input not in C): measured rounds vs ⌊t/k⌋ + 1"
    )
    all_within = True
    tmf_fast_ok = True
    rng = Random(seed)
    for n, m, t, d, ell, k in _condition_sweep_cases():
        x = t - d
        if ell > x:
            continue  # no outside vector exists (the condition is C_all)
        spec = AgreementSpec(n=n, t=t, k=k, d=d, ell=ell, domain=m)
        engine = Engine(spec, "condition-kset")
        try:
            vector = vector_outside_max_condition(n, m, x, ell, rng)
        except Exception:
            continue
        bound = rounds_outside_condition(t, k)
        schedules = adversarial_schedules(
            n, t, k, spec.outside_condition_bound(), rng=rng, random_runs=random_runs
        )
        measurement = measure_worst_rounds(engine, vector, schedules, k)
        all_within &= measurement.worst_round <= bound

        # When more than t − d processes crash initially, the tmf branch bounds
        # the decision by ⌊(d+l−1)/k⌋ + 1 even outside the condition.
        early_bound = min(rounds_in_condition(d, ell, k), bound)
        tmf_result = engine.run(
            vector, crashes_in_round_one(n, min(t, x + 1), delivered_prefix=0)
        )
        assert_execution_correct(tmf_result, vector, k)
        tmf_fast_ok &= tmf_result.max_decision_round_of_correct() <= early_bound

        output.rows.append(
            {
                "n": n,
                "t": t,
                "d": d,
                "l": ell,
                "k": k,
                "bound ⌊t/k⌋+1": bound,
                "worst measured": measurement.worst_round,
                ">t−d initial crashes bound": early_bound,
                ">t−d initial crashes measured": tmf_result.max_decision_round_of_correct(),
            }
        )
    output.checks.append(("every run decides within ⌊t/k⌋ + 1 rounds", all_within))
    output.checks.append(
        ("with more than t−d initial crashes, decisions come by ⌊(d+l−1)/k⌋ + 1", tmf_fast_ok)
    )
    return output


# ----------------------------------------------------------------------
# E8 — comparison with the classical baseline
# ----------------------------------------------------------------------
def experiment_baseline_comparison(seed: int = 13) -> ExperimentOutput:
    """E8: the dividing power of conditions — condition-based vs FloodMin."""
    output = ExperimentOutput(
        "E8", "Condition-based algorithm vs FloodMin baseline (input in C)"
    )
    rng = Random(seed)
    speedups_grow = []
    all_correct = True
    n, m, t, k = 12, 16, 9, 3
    for d in range(1, t):
        ell = 1
        x = t - d
        if ell > x:
            continue
        spec = AgreementSpec(n=n, t=t, k=k, d=d, ell=ell, domain=m)
        condition_engine = Engine(spec, "condition-kset")
        baseline_engine = Engine(spec, "floodmin")
        vector = vector_in_max_condition(n, m, x, ell, rng)
        schedule = staggered_schedule(n, t, per_round=k)

        cond_result = condition_engine.run(vector, schedule)
        base_result = baseline_engine.run(vector, schedule)
        all_correct &= bool(check_execution(cond_result, vector, k))
        all_correct &= bool(check_execution(base_result, vector, k))

        cond_rounds = cond_result.max_decision_round_of_correct()
        base_rounds = base_result.max_decision_round_of_correct()
        speedups_grow.append((d, base_rounds / cond_rounds))
        output.rows.append(
            {
                "d": d,
                "x=t−d": x,
                "condition bound": min(
                    rounds_in_condition(d, ell, k), rounds_outside_condition(t, k)
                ),
                "condition measured": cond_rounds,
                "FloodMin bound": spec.outside_condition_bound(),
                "FloodMin measured": base_rounds,
                "speed-up": base_rounds / cond_rounds,
                "condition fraction": condition_fraction(n, m, x, ell),
            }
        )
    output.checks.append(("both algorithms satisfy the agreement properties", all_correct))
    never_slower = all(
        row["condition measured"] <= row["FloodMin measured"] for row in output.rows
    )
    output.checks.append(
        ("the condition-based algorithm is never slower when the input is in C", never_slower)
    )
    # The trade-off of Section 5: smaller d → stronger condition → bigger speed-up,
    # but fewer vectors in the condition.
    fractions = [row["condition fraction"] for row in output.rows]
    output.checks.append(
        ("the condition covers more inputs as d grows (size/speed trade-off)",
         all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))),
    )
    return output


# ----------------------------------------------------------------------
# E9 — the special cases called out by the abstract
# ----------------------------------------------------------------------
def experiment_special_cases(seed: int = 17) -> ExperimentOutput:
    """E9: k = l = 1 (condition-based consensus) and d = t, l = 1 (classical)."""
    output = ExperimentOutput("E9", "Special cases: consensus (k=l=1) and d=t (classical)")
    rng = Random(seed)
    n, m, t = 9, 12, 5
    checks_ok = True

    # k = l = 1: condition-based consensus, bounds d + 1 / t + 1.
    for d in (1, 2, 3, 4):
        x = t - d
        spec = AgreementSpec(n=n, t=t, k=1, d=d, ell=1, domain=m)
        consensus_engine = Engine(spec, "condition-consensus")
        vector_in = vector_in_max_condition(n, m, x, 1, rng)
        schedules = adversarial_schedules(
            n, t, 1, spec.outside_condition_bound(), rng=rng, random_runs=8
        )
        measurement = measure_worst_rounds(consensus_engine, vector_in, schedules, 1)
        bound_in = max(2, d + 1)
        checks_ok &= measurement.worst_round <= bound_in
        row = {
            "case": "k=l=1, input in C",
            "d": d,
            "paper bound": f"d+1 = {bound_in}",
            "measured": measurement.worst_round,
            "agreement": measurement.worst_agreement,
        }
        output.rows.append(row)

        vector_out = vector_outside_max_condition(n, m, x, 1, rng)
        measurement_out = measure_worst_rounds(consensus_engine, vector_out, schedules, 1)
        checks_ok &= measurement_out.worst_round <= t + 1
        output.rows.append(
            {
                "case": "k=l=1, input not in C",
                "d": d,
                "paper bound": f"t+1 = {t + 1}",
                "measured": measurement_out.worst_round,
                "agreement": measurement_out.worst_agreement,
            }
        )

    # d = t, l = 1: the degenerate instantiation behaves like the classical
    # ⌊t/k⌋ + 1 algorithm (the condition contains every vector); the registry
    # builder relaxes the Section 6.1 requirement automatically when l > t − d.
    k = 2
    degenerate_spec = AgreementSpec(n=n, t=t, k=k, d=t, ell=1, domain=m)
    classical_like = Engine(degenerate_spec, "condition-kset")
    vector = vector_in_max_condition(n, m, 0, 1, rng)
    schedules = adversarial_schedules(
        n, t, k, degenerate_spec.outside_condition_bound(), rng=rng, random_runs=8
    )
    measurement = measure_worst_rounds(classical_like, vector, schedules, k)
    classical_bound = rounds_outside_condition(t, k)
    checks_ok &= measurement.worst_round <= classical_bound
    output.rows.append(
        {
            "case": "d=t, l=1 (classical regime)",
            "d": t,
            "paper bound": f"⌊t/k⌋+1 = {classical_bound}",
            "measured": measurement.worst_round,
            "agreement": measurement.worst_agreement,
        }
    )
    output.checks.append(("all special-case bounds hold", checks_ok))
    return output


# ----------------------------------------------------------------------
# E10 — early decision
# ----------------------------------------------------------------------
def experiment_early_deciding(seed: int = 19) -> ExperimentOutput:
    """E10: early-deciding k-set agreement, measured rounds vs min(⌊f/k⌋+2, ⌊t/k⌋+1)."""
    output = ExperimentOutput(
        "E10", "Section 8: early decision — rounds as a function of the actual crashes f"
    )
    n, m, t, k = 10, 8, 6, 2
    rng = Random(seed)
    engine = Engine(AgreementSpec(n=n, t=t, k=k, domain=m), "early-deciding")
    algorithm = engine.algorithm
    all_within = True
    all_correct = True
    for f in range(0, t + 1):
        vector = InputVector([rng.randint(1, m) for _ in range(n)])
        schedule = (
            crashes_in_round_one(n, f, delivered_prefix=n // 2) if f > 0 else no_crashes()
        )
        result = engine.run(vector, schedule)
        all_correct &= bool(check_execution(result, vector, k))
        bound = algorithm.early_bound(f)
        measured = result.max_decision_round_of_correct()
        all_within &= measured <= bound
        output.rows.append(
            {
                "f": f,
                "bound min(⌊f/k⌋+2, ⌊t/k⌋+1)": bound,
                "measured": measured,
                "unconditional bound": algorithm.last_round(),
            }
        )
    output.checks.append(("termination, validity and k-agreement hold in every run", all_correct))
    output.checks.append(("every run decides within the early-deciding bound", all_within))
    return output


# ----------------------------------------------------------------------
# E11 — agreement stress test
# ----------------------------------------------------------------------
def experiment_agreement_stress(runs: int = 150, seed: int = 23) -> ExperimentOutput:
    """E11: Theorem 12 under many adversarial schedules — never more than k values."""
    output = ExperimentOutput(
        "E11", "Theorem 12: distinct decided values under adversarial crash schedules"
    )
    rng = Random(seed)
    cases = [(8, 10, 4, 2, 1, 2), (9, 12, 6, 3, 2, 3), (10, 12, 6, 2, 1, 3)]
    all_ok = True
    for n, m, t, d, ell, k in cases:
        x = t - d
        spec = AgreementSpec(n=n, t=t, k=k, d=d, ell=ell, domain=m)
        engine = Engine(spec, "condition-kset")
        worst = 0
        for _ in range(runs):
            inside = rng.random() < 0.5
            if inside:
                vector = vector_in_max_condition(n, m, x, ell, rng)
            else:
                try:
                    vector = vector_outside_max_condition(n, m, x, ell, rng)
                except Exception:
                    vector = vector_in_max_condition(n, m, x, ell, rng)
            schedules = adversarial_schedules(
                n, t, k, spec.outside_condition_bound(), rng=rng, random_runs=1,
                include_round_one_batches=False,
            )
            schedule = schedules[rng.randrange(len(schedules))]
            result = engine.run(vector, schedule)
            report = check_execution(result, vector, k)
            all_ok &= bool(report)
            worst = max(worst, result.distinct_decision_count())
        output.rows.append(
            {
                "n": n,
                "t": t,
                "d": d,
                "l": ell,
                "k": k,
                "runs": runs,
                "max distinct decisions": worst,
            }
        )
    output.checks.append(("no run ever decided more than k values", all_ok))
    return output


# ----------------------------------------------------------------------
# E12 — asynchronous solvability (Section 4)
# ----------------------------------------------------------------------
def experiment_async_solvability(seed: int = 29) -> ExperimentOutput:
    """E12: (x, l)-legal conditions solve asynchronous l-set agreement with ≤ x crashes."""
    output = ExperimentOutput(
        "E12", "Section 4: asynchronous l-set agreement from an (x, l)-legal condition"
    )
    rng = Random(seed)
    cases = [(6, 8, 2, 1), (7, 8, 3, 2), (8, 10, 3, 1)]
    in_condition_ok = True
    for n, m, x, ell in cases:
        # The async backend reads the resilience x = t − d off the spec.
        spec = AgreementSpec(n=n, t=x, k=ell, d=0, ell=ell, domain=m)
        engine = Engine(spec, "async-condition", RunConfig(backend="async"))
        vector = vector_in_max_condition(n, m, x, ell, rng)
        crashed = tuple(rng.sample(range(n), x))
        schedule = initial_crashes(x, crashed)
        result = engine.run(vector, schedule, seed=rng.randint(0, 10**6))
        report = check_execution(result, vector, ell)
        in_condition_ok &= bool(report) and result.terminated
        output.rows.append(
            {
                "n": n,
                "x": x,
                "l": ell,
                "input in C": True,
                "crashes": len(crashed),
                "terminated": result.terminated,
                "distinct decisions": result.distinct_decision_count(),
                "total steps": result.duration,
            }
        )
        # Outside the condition the algorithm may (and typically does) block.
        try:
            outside = vector_outside_max_condition(n, m, x, ell, rng)
        except Exception:
            continue
        blocked = engine.run(
            outside, schedule, seed=rng.randint(0, 10**6), max_steps=50
        )
        output.rows.append(
            {
                "n": n,
                "x": x,
                "l": ell,
                "input in C": False,
                "crashes": len(crashed),
                "terminated": blocked.terminated,
                "distinct decisions": blocked.distinct_decision_count(),
                "total steps": blocked.duration,
            }
        )
    output.checks.append(
        ("in-condition runs terminate with at most l values despite x crashes", in_condition_ok)
    )
    return output


# ----------------------------------------------------------------------
# E13 — the condition registry: one workload, every family
# ----------------------------------------------------------------------
def experiment_condition_families(runs_per_family: int = 6, seed: int = 31) -> ExperimentOutput:
    """E13: cross-family comparison — the same workload over every condition family."""
    output = ExperimentOutput(
        "E13", "Condition registry: one workload across the registered families"
    )
    from ..core.algebra import known_size
    from ..sync.adversary import initial_crashes
    from ..workloads.vectors import vector_in_condition

    n, m, t, k = 6, 6, 2, 2
    # (family, d, params): parameters chosen so each family is (x, 1)-legal —
    # frequency-gap with gap = x, the ball around a unanimous centre with
    # n >= x + 2·radius, and C_all in the degenerate d = t regime (l > x = 0).
    cases = [
        ("max-legal", 1, {}),
        ("min-legal", 1, {}),
        ("frequency-gap", 1, {"gap": 1}),
        ("hamming-ball", 1, {"radius": 1}),
        ("all-vectors", t, {}),
    ]
    rng = Random(seed)
    all_correct = True
    fast_path_ok = True
    async_ok = True
    for family, d, params in cases:
        spec = AgreementSpec(
            n=n, t=t, k=k, d=d, ell=1, domain=m,
            condition=family, condition_params=params,
        )
        engine = Engine(spec, "condition-kset")
        oracle = engine.condition
        assert oracle is not None
        vectors = [
            vector_in_condition(oracle, n, m, rng) for _ in range(runs_per_family)
        ]
        schedule = (
            crashes_in_round_one(n, spec.x, delivered_prefix=n // 2)
            if spec.x > 0
            else no_crashes()
        )
        results = engine.run_batch(vectors, schedule)
        worst = 0
        for vector, result in zip(vectors, results):
            all_correct &= bool(check_execution(result, vector, k))
            worst = max(worst, result.max_decision_round_of_correct())
        # Fast path (Section 6.1): at most t − d round-1 crashes and an
        # in-condition input decide by round 2 for any (x, l)-legal family.
        fast_path_ok &= worst <= 2

        crashed = tuple(rng.sample(range(n), spec.x)) if spec.x > 0 else ()
        async_result = engine.run(
            vectors[0],
            initial_crashes(max(spec.x, 0), crashed) if crashed else no_crashes(),
            backend="async",
            seed=rng.randint(0, 10**6),
        )
        async_ok &= async_result.terminated and bool(
            check_execution(async_result, vectors[0], spec.ell)
        )

        size = known_size(getattr(oracle, "inner", oracle))
        output.rows.append(
            {
                "family": family,
                "d": d,
                "x": spec.x,
                "condition": oracle.name,
                "fraction of m^n": (
                    round(size / m**n, 4) if size is not None else "-"
                ),
                "worst sync rounds": worst,
                "async steps": async_result.duration,
                "async terminated": async_result.terminated,
            }
        )
    output.checks.append(
        ("every family satisfies termination, validity and k-agreement", all_correct)
    )
    output.checks.append(
        ("every family takes the 2-round fast path (≤ t−d round-1 crashes)", fast_path_ok)
    )
    output.checks.append(
        ("every family solves async l-set agreement under x initial crashes", async_ok)
    )
    return output


# ----------------------------------------------------------------------
# E14 — exhaustive adversary verification over a (n, t, d, k) grid
# ----------------------------------------------------------------------
def experiment_exhaustive_check() -> ExperimentOutput:
    """E14: model checking — every crash schedule of each (n, t, d, k) cell."""
    output = ExperimentOutput(
        "E14", "Exhaustive verification: the complete schedule space per (n, t, d, k) cell"
    )
    from ..sync.adversary import count_schedules, enumerate_schedules

    # (n, t, d, k, m, max_vectors, all_vectors_limit): the first cells are
    # exhaustive in BOTH dimensions (every schedule x every vector of the
    # domain); the last one has a schedule space in the thousands, so its
    # frontier is the structured boundary set instead of the full domain.
    cells = [
        (3, 1, 0, 1, 2, 12, 100),
        (3, 1, 1, 1, 2, 12, 100),
        (4, 1, 1, 1, 2, 12, 100),
        (4, 1, 1, 2, 2, 12, 100),
        (4, 2, 1, 2, 3, 4, 1),
    ]
    all_pass = True
    counts_match = True
    oracle_families_checked: set[str] = set()
    for n, t, d, k, m, max_vectors, all_vectors_limit in cells:
        spec = AgreementSpec(n=n, t=t, k=k, d=d, ell=1, domain=m)
        engine = Engine(spec, "condition-kset")
        report = engine.check(
            max_vectors=max_vectors, all_vectors_limit=all_vectors_limit
        )
        all_pass &= report.passed
        # Cross-validate the closed form against the generator directly on
        # the smaller spaces (run_check already asserts it internally).
        if report.schedule_count <= 500:
            rounds = report.space.rounds
            generated = sum(1 for _ in enumerate_schedules(n, t, rounds))
            counts_match &= generated == count_schedules(n, t, rounds)
        oracle_families_checked.update(
            tally.oracle for tally in report.tallies if tally.checked > 0
        )
        output.rows.append(
            {
                "n": n,
                "t": t,
                "d": d,
                "k": k,
                "m": m,
                "schedules": report.schedule_count,
                "vectors": report.vector_count,
                "executions": report.executions,
                "violations": report.violation_count,
                "verdict": "PASS" if report.passed else "FAIL",
            }
        )
    output.checks.append(
        ("every cell passes every applicable oracle on every schedule", all_pass)
    )
    output.checks.append(
        ("generated schedule counts match the closed form", counts_match)
    )
    output.checks.append(
        (
            "membership, agreement, termination and both round bounds were exercised",
            {
                "validity",
                "agreement",
                "termination",
                "round-bound-in-condition",
                "round-bound-outside",
            }
            <= oracle_families_checked,
        )
    )
    output.notes.append(
        "the early-deciding bound is verified separately by the checker tests "
        "(it applies to the Section 8 algorithm, not to Figure 2)"
    )
    return output


# ----------------------------------------------------------------------
# E15 — the asynchronous adversary subsystem
# ----------------------------------------------------------------------
def experiment_async_adversaries(seed: int = 37) -> ExperimentOutput:
    """E15: async adversaries — strategies, mid-run crashes, the bounded-interleaving check."""
    output = ExperimentOutput(
        "E15",
        "Asynchronous adversaries: strategy sweep, crash points, bounded-interleaving check",
    )
    from ..check.async_checker import count_async_adversaries
    from ..workloads.scenarios import async_scenario

    n, m, x, ell = 6, 8, 2, 1
    rng = Random(seed)
    all_safe = True
    deterministic = True
    crash_visible = True
    for adversary in ("round-robin", "random", "latency-skew"):
        for crash_kind, crash_steps in (
            ("none", {}),
            ("initial", {pid: 0 for pid in range(n - x, n)}),
            ("mid-run", {pid: 1 for pid in range(n - x, n)}),
        ):
            scenario = async_scenario(
                n, m, x, ell,
                adversary=adversary,
                crash_steps=crash_steps,
                seed=rng.randint(0, 10**6),
            )
            result = scenario.run(seed=3)
            replay = scenario.run(seed=3)
            deterministic &= (
                result.fingerprint == replay.fingerprint
                and result.decisions == replay.decisions
            )
            report = check_execution(result, scenario.input_vector, ell)
            all_safe &= bool(report) and result.terminated
            # A mid-run crash is not an initial crash: the crashed process's
            # write must have reached the shared memory (visible in the raw
            # step accounting: every crashed pid took exactly its crash point).
            if crash_kind == "mid-run":
                crash_visible &= all(
                    result.raw.steps_by_process[pid] == 1
                    for pid in dict(scenario.crash_steps)
                )
            output.rows.append(
                {
                    "adversary": adversary,
                    "crashes": crash_kind,
                    "f": len(scenario.crash_steps),
                    "terminated": result.terminated,
                    "steps": result.duration,
                    "distinct decisions": result.distinct_decision_count(),
                    "fingerprint": result.fingerprint[:8] if result.fingerprint else "-",
                }
            )
    output.checks.append(
        ("every strategy × crash regime satisfies validity, l-agreement and termination", all_safe)
    )
    output.checks.append(
        ("executions are deterministic: same seed ⇒ same fingerprint and decisions", deterministic)
    )
    output.checks.append(
        ("mid-run crashed processes took their pre-crash step (writes visible)", crash_visible)
    )

    # The bounded-interleaving model check on a tiny system: every scheduling
    # prefix × every crash assignment, cross-validated against the closed form.
    check_spec = AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=2)
    engine = Engine(check_spec, "condition-kset")
    report = engine.check(backend="async", depth=2)
    output.rows.append(
        {
            "adversary": "enumerated",
            "crashes": f"<= {report.space.max_crashes}",
            "f": "-",
            "terminated": "-",
            "steps": report.executions,
            "distinct decisions": "-",
            "fingerprint": "-",
        }
    )
    output.checks.append(
        ("the bounded-interleaving check passes every oracle on every adversary", report.passed)
    )
    output.checks.append(
        (
            "the enumerated adversary count matches the closed form",
            report.adversary_count
            == count_async_adversaries(
                check_spec.n, report.space.depth, report.space.max_crashes
            ),
        )
    )
    return output


# ----------------------------------------------------------------------
# E16 — the message-passing backend across failure models
# ----------------------------------------------------------------------
def experiment_net_failure_models(seed: int = 41) -> ExperimentOutput:
    """E16: net failure models — decision rounds per family, determinism, exhaustive fault check."""
    output = ExperimentOutput(
        "E16",
        "Message-passing failure models: decision rounds, determinism, exhaustive fault check",
    )
    from ..net.adversary import count_faults
    from ..workloads.scenarios import net_scenario

    n, m, t, k = 5, 6, 2, 1
    spec = AgreementSpec(n=n, t=t, k=k, domain=m)
    engine = Engine(spec, "floodmin")
    sync_result = engine.run(
        net_scenario(n, m, t, k, seed=seed).input_vector, backend="sync"
    )

    parity = True
    deterministic = True
    benign_safe = True
    for family in (
        "fault-free",
        "send-omission",
        "receive-omission",
        "message-loss",
        "bounded-delay",
        "byzantine-corrupt",
    ):
        scenario = net_scenario(n, m, t, k, adversary=family, seed=seed)
        result = scenario.run(seed=7)
        replay = scenario.run(seed=7)
        deterministic &= (
            result.fingerprint == replay.fingerprint
            and result.decisions == replay.decisions
        )
        if family == "fault-free":
            # The explicit message matrix with no interference must reproduce
            # the sync backend's implicit broadcast exactly.
            parity = (
                result.decisions == sync_result.decisions
                and result.duration == sync_result.duration
            )
        if family != "byzantine-corrupt":
            correct_decided = {
                value
                for pid, value in result.decisions.items()
                if pid not in result.crashed
            }
            benign_safe &= len(correct_decided) <= k and result.terminated
        output.rows.append(
            {
                "family": family,
                "faults": result.raw.fault_count,
                "rounds": result.duration,
                "last decision": result.raw.max_decision_round(),
                "distinct decisions": result.distinct_decision_count(),
                "terminated": result.terminated,
                "fingerprint": result.fingerprint[:8] if result.fingerprint else "-",
            }
        )
    output.checks.append(
        ("the fault-free net run reproduces the sync backend exactly", parity)
    )
    output.checks.append(
        ("executions are deterministic: same seed ⇒ same fingerprint and decisions", deterministic)
    )
    output.checks.append(
        ("every benign family keeps FloodMin within k decisions and terminating", benign_safe)
    )

    # The exhaustive fault-space check on a tiny system: every send-omission
    # assignment, cross-validated against the closed form.
    check_spec = AgreementSpec(n=3, t=1, k=1, domain=2)
    report = Engine(check_spec, "floodmin").check(
        backend="net", adversary="send-omission"
    )
    output.rows.append(
        {
            "family": "enumerated send-omission",
            "faults": f"<= {report.space.max_faults}",
            "rounds": report.space.rounds,
            "last decision": "-",
            "distinct decisions": "-",
            "terminated": "-",
            "fingerprint": "-",
        }
    )
    output.checks.append(
        ("the exhaustive fault-space check passes every oracle on every assignment", report.passed)
    )
    output.checks.append(
        (
            "the enumerated fault count matches the closed form",
            report.adversary_count
            == count_faults(
                "send-omission",
                check_spec.n,
                report.space.rounds,
                report.space.max_faults,
            ),
        )
    )
    return output


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, Callable[[], ExperimentOutput]] = {
    "E1": experiment_table1_legality,
    "E2": experiment_lattice_figure1,
    "E3": experiment_counting_theorem3,
    "E4": experiment_counting_theorem13,
    "E5": experiment_all_vectors_frontier,
    "E6": experiment_rounds_in_condition,
    "E7": experiment_rounds_outside_condition,
    "E8": experiment_baseline_comparison,
    "E9": experiment_special_cases,
    "E10": experiment_early_deciding,
    "E11": experiment_agreement_stress,
    "E12": experiment_async_solvability,
    "E13": experiment_condition_families,
    "E14": experiment_exhaustive_check,
    "E15": experiment_async_adversaries,
    "E16": experiment_net_failure_models,
}


def list_experiments() -> list[tuple[str, str]]:
    """(id, title) pairs for every registered experiment."""
    listing = []
    for experiment_id, function in EXPERIMENTS.items():
        doc = (function.__doc__ or "").strip().splitlines()
        listing.append((experiment_id, doc[0] if doc else ""))
    return listing


def run_experiment(experiment_id: str) -> ExperimentOutput:
    """Run one experiment by id (``"E1"`` ... ``"E16"``)."""
    try:
        function = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise RegistryError(
            f"unknown experiment {experiment_id!r}; known ids: {', '.join(EXPERIMENTS)}"
        ) from None
    return function()
