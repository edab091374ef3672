"""Integration tests for the experiment harness (E1–E14).

Each experiment must run end to end, produce rows, and — crucially — every
internal pass/fail check comparing the measurement to the paper's claim must
pass.  These tests are the "does the reproduction match the paper" gate.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentOutput,
    experiment_agreement_stress,
    experiment_all_vectors_frontier,
    experiment_async_solvability,
    experiment_baseline_comparison,
    experiment_condition_families,
    experiment_counting_theorem3,
    experiment_counting_theorem13,
    experiment_early_deciding,
    experiment_exhaustive_check,
    experiment_lattice_figure1,
    experiment_net_failure_models,
    experiment_rounds_in_condition,
    experiment_rounds_outside_condition,
    experiment_special_cases,
    experiment_table1_legality,
    list_experiments,
    run_experiment,
)
from repro.exceptions import RegistryError


class TestRegistry:
    def test_all_sixteen_registered(self):
        assert len(EXPERIMENTS) == 16
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 17)}

    def test_list_experiments(self):
        listing = list_experiments()
        assert len(listing) == 16
        assert all(title for _, title in listing)

    def test_run_experiment_lookup(self):
        output = run_experiment("e3")
        assert isinstance(output, ExperimentOutput)
        with pytest.raises(RegistryError):
            run_experiment("E99")

    def test_unknown_experiment_speaks_the_repro_hierarchy(self):
        """Regression (raise-builtin): run_experiment used to raise bare
        KeyError, so `repro run bogus` crashed with a traceback instead of
        the CLI's exit-2 diagnostic."""
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="E99.*known ids"):
            run_experiment("E99")

    def test_cli_run_unknown_experiment_exits_2(self, capsys):
        from repro.cli import main

        assert main(["run", "bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_render_contains_table_and_checks(self):
        output = experiment_counting_theorem3(cases=((4, 3, 2),))
        text = output.render()
        assert "E3" in text
        assert "[PASS]" in text or "[FAIL]" in text


class TestFastExperiments:
    def test_e1_table1(self):
        output = experiment_table1_legality()
        assert output.all_checks_pass()
        assert len(output.rows) == 4

    def test_e2_lattice(self):
        output = experiment_lattice_figure1(n=4)
        assert output.all_checks_pass()
        assert len(output.rows) == 4

    def test_e3_counting(self):
        output = experiment_counting_theorem3(cases=((4, 3, 1), (5, 3, 2)))
        assert output.all_checks_pass()

    def test_e4_counting(self):
        output = experiment_counting_theorem13(cases=((4, 3, 2, 2), (5, 3, 3, 2)))
        assert output.all_checks_pass()

    def test_e5_frontier(self):
        output = experiment_all_vectors_frontier(n=3, m=2)
        assert output.all_checks_pass()

    def test_e10_early_deciding(self):
        output = experiment_early_deciding()
        assert output.all_checks_pass()
        assert len(output.rows) == 7  # f = 0..t


class TestSimulationExperiments:
    def test_e6_rounds_in_condition(self):
        output = experiment_rounds_in_condition(random_runs=3)
        assert output.all_checks_pass()
        assert all(row["worst measured"] <= row["bound ⌊(d+l−1)/k⌋+1"] for row in output.rows)

    def test_e7_rounds_outside_condition(self):
        output = experiment_rounds_outside_condition(random_runs=3)
        assert output.all_checks_pass()
        assert all(row["worst measured"] <= row["bound ⌊t/k⌋+1"] for row in output.rows)

    def test_e8_baseline_comparison(self):
        output = experiment_baseline_comparison()
        assert output.all_checks_pass()
        assert all(row["speed-up"] >= 1 for row in output.rows)

    def test_e9_special_cases(self):
        output = experiment_special_cases()
        assert output.all_checks_pass()

    def test_e11_agreement_stress(self):
        output = experiment_agreement_stress(runs=25)
        assert output.all_checks_pass()

    def test_e12_async(self):
        output = experiment_async_solvability()
        assert output.all_checks_pass()

    def test_e13_condition_families(self):
        output = experiment_condition_families(runs_per_family=3)
        assert output.all_checks_pass()
        families = {row["family"] for row in output.rows}
        assert {"max-legal", "min-legal", "frequency-gap", "hamming-ball", "all-vectors"} <= families
        assert all(row["worst sync rounds"] <= 2 for row in output.rows)

    def test_e14_exhaustive_check(self):
        output = experiment_exhaustive_check()
        assert output.all_checks_pass()
        assert all(row["violations"] == 0 for row in output.rows)
        # The grid must include a cell whose schedule space is in the thousands.
        assert max(row["schedules"] for row in output.rows) >= 2731

    def test_e16_net_failure_models(self):
        output = experiment_net_failure_models()
        assert output.all_checks_pass()
