"""Unit tests for the workload generators (vectors and scenarios)."""

from __future__ import annotations

from random import Random

import pytest

from repro.algorithms.condition_kset import ConditionBasedKSetAgreement
from repro.analysis.properties import assert_execution_correct
from repro.core.conditions import MaxLegalCondition
from repro.exceptions import InvalidParameterError
from repro.sync.runtime import SynchronousSystem
from repro.workloads.scenarios import (
    degraded_path_scenario,
    fast_path_scenario,
    net_scenario,
    outside_condition_scenario,
)
from repro.workloads.vectors import (
    boundary_vector,
    random_vector,
    skewed_vector,
    unanimous_vector,
    vector_in_max_condition,
    vector_outside_max_condition,
)


class TestVectorGenerators:
    def test_random_vector_range(self, rng):
        vector = random_vector(10, 4, rng)
        assert len(vector) == 10
        assert all(1 <= value <= 4 for value in vector)

    def test_random_vector_deterministic_with_seed(self):
        assert random_vector(8, 5, 3) == random_vector(8, 5, 3)

    def test_skewed_vector_bias(self):
        vector = skewed_vector(200, 10, Random(1), bias=0.9)
        assert sum(1 for value in vector if value == 10) > 100
        with pytest.raises(InvalidParameterError):
            skewed_vector(5, 3, 0, bias=2.0)

    def test_unanimous_vector(self):
        vector = unanimous_vector(4, "v")
        assert set(vector.entries) == {"v"}

    @pytest.mark.parametrize("n,m,x,ell", [(8, 10, 2, 1), (9, 12, 3, 2), (6, 6, 4, 2)])
    def test_vector_in_max_condition(self, n, m, x, ell, rng):
        condition = MaxLegalCondition(n, m, x, ell)
        for _ in range(20):
            vector = vector_in_max_condition(n, m, x, ell, rng)
            assert condition.contains(vector)

    @pytest.mark.parametrize("n,m,x,ell", [(8, 10, 2, 1), (9, 12, 3, 2), (6, 8, 4, 2)])
    def test_vector_outside_max_condition(self, n, m, x, ell, rng):
        condition = MaxLegalCondition(n, m, x, ell)
        for _ in range(20):
            vector = vector_outside_max_condition(n, m, x, ell, rng)
            assert not condition.contains(vector)

    def test_outside_vector_impossible_when_ell_exceeds_x(self):
        with pytest.raises(InvalidParameterError):
            vector_outside_max_condition(6, 10, 1, 2, 0)

    def test_outside_vector_needs_enough_values(self):
        with pytest.raises(InvalidParameterError):
            vector_outside_max_condition(8, 2, 1, 1, 0)

    def test_boundary_vector(self):
        condition = MaxLegalCondition(8, 10, 3, 2)
        vector = boundary_vector(8, 10, 3, 2)
        assert condition.contains(vector)
        top = vector.greatest_values(2)
        assert vector.occurrences_of_set(top) == 4  # exactly x + 1
        with pytest.raises(InvalidParameterError):
            boundary_vector(3, 10, 3, 1)
        with pytest.raises(InvalidParameterError):
            boundary_vector(8, 1, 3, 2)


class TestScenarios:
    def run_scenario(self, scenario):
        spec = scenario.spec
        algorithm = ConditionBasedKSetAgreement(
            condition=spec.condition_oracle(), t=spec.t, d=spec.d, k=spec.k
        )
        system = SynchronousSystem(spec.n, spec.t, algorithm)
        result = system.run(scenario.input_vector, scenario.schedule)
        assert_execution_correct(
            result,
            scenario.input_vector,
            k=spec.k,
            round_bound=scenario.predicted_round_bound,
        )
        return result

    def test_fast_path_scenario(self):
        scenario = fast_path_scenario(n=8, m=10, t=4, d=2, ell=1, k=2)
        assert scenario.predicted_round_bound == 2
        assert scenario.spec.x == 2
        assert scenario.spec.condition_oracle().contains(scenario.input_vector)
        self.run_scenario(scenario)

    def test_degraded_path_scenario(self):
        scenario = degraded_path_scenario(n=9, m=12, t=6, d=4, ell=2, k=2)
        assert scenario.schedule.round_one_crash_count() == scenario.spec.x + 1
        self.run_scenario(scenario)

    def test_outside_condition_scenario(self):
        scenario = outside_condition_scenario(n=8, m=12, t=4, d=2, ell=1, k=2)
        assert not scenario.spec.condition_oracle().contains(scenario.input_vector)
        assert scenario.predicted_round_bound == 3
        self.run_scenario(scenario)

    def test_scenarios_describe_themselves(self):
        scenario = fast_path_scenario(n=8, m=10, t=4, d=2, ell=1, k=2)
        assert scenario.name == "fast-path"
        assert "round" in scenario.description

    @pytest.mark.parametrize(
        "story, runs", [("fast-path", True), ("fast-path", 2.5), ("fast-path", 0), ("net", "3")]
    )
    def test_batch_refuses_runs_that_is_not_a_positive_integer(self, story, runs):
        scenario = (
            net_scenario(3, 3, 1, 1)
            if story == "net"
            else fast_path_scenario(n=8, m=10, t=4, d=2, ell=1, k=2)
        )
        with pytest.raises(InvalidParameterError, match="runs must be"):
            scenario.batch(runs)
