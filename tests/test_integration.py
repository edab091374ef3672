"""End-to-end integration tests crossing every layer of the library.

These tests follow a downstream user's path: build a condition, pick an input
vector, run the synchronous algorithm under several failure regimes, check the
agreement properties, and compare against the baseline — exactly what the
examples and benchmarks do, but with assertions.
"""

from __future__ import annotations

from random import Random

import pytest

import repro
from repro import (
    ConditionBasedKSetAgreement,
    FloodMinKSetAgreement,
    InputVector,
    MaxLegalCondition,
    SynchronousSystem,
)
from repro.algorithms import ConditionBasedConsensus, run_async_condition_set_agreement
from repro.analysis import assert_execution_correct, check_execution
from repro.core import SynchronousClass
from repro.sync import crashes_in_round_one, random_schedule, staggered_schedule
from repro.workloads import (
    degraded_path_scenario,
    fast_path_scenario,
    outside_condition_scenario,
    vector_in_max_condition,
)


class TestPackageSurface:
    def test_version_and_exports(self):
        assert repro.__version__ == "1.0.0"
        assert "MaxLegalCondition" in repro.__all__
        # Lazy exports resolve to the right classes.
        assert repro.ConditionBasedKSetAgreement is ConditionBasedKSetAgreement
        assert repro.SynchronousSystem is SynchronousSystem
        with pytest.raises(AttributeError):
            repro.DoesNotExist

    def test_docstring_quickstart_runs(self):
        n, t, d, ell, k = 8, 4, 2, 1, 2
        condition = MaxLegalCondition(n=n, domain=10, x=t - d, ell=ell)
        vector = InputVector([7, 7, 7, 3, 2, 7, 1, 5])
        assert condition.contains(vector)
        algorithm = ConditionBasedKSetAgreement(condition=condition, t=t, d=d, k=k)
        system = SynchronousSystem(n=n, t=t, algorithm=algorithm)
        result = system.run(vector)
        assert sorted(set(result.decisions.values())) == [7]


class TestScenarioMatrix:
    """The three regimes of Section 6.1 across several parameterisations."""

    @pytest.mark.parametrize(
        "n,m,t,d,ell,k",
        [
            (8, 10, 4, 2, 1, 2),
            (9, 12, 6, 3, 2, 3),
            (10, 12, 6, 4, 2, 2),
            (7, 10, 4, 1, 1, 2),
        ],
    )
    def test_all_three_regimes(self, n, m, t, d, ell, k):
        for builder in (fast_path_scenario, degraded_path_scenario, outside_condition_scenario):
            scenario = builder(n=n, m=m, t=t, d=d, ell=ell, k=k)
            algorithm = ConditionBasedKSetAgreement(
                condition=scenario.spec.condition_oracle(), t=t, d=d, k=k
            )
            result = SynchronousSystem(n, t, algorithm).run(
                scenario.input_vector, scenario.schedule
            )
            assert_execution_correct(
                result,
                scenario.input_vector,
                k=k,
                round_bound=scenario.predicted_round_bound,
            )

    def test_class_metadata_matches_algorithm(self):
        t, d, ell, k = 6, 3, 2, 3
        condition = MaxLegalCondition(9, 12, t - d, ell)
        algorithm = ConditionBasedKSetAgreement(condition=condition, t=t, d=d, k=k)
        synchronous_class = SynchronousClass(t=t, d=d, ell=ell)
        assert synchronous_class.supports_k(k)
        assert algorithm.condition_decision_round() == synchronous_class.rounds_in_condition(k)
        assert algorithm.last_round() == synchronous_class.rounds_outside_condition(k)


class TestCrossAlgorithmComparison:
    def test_condition_based_never_slower_than_baseline_in_condition(self):
        rng = Random(3)
        n, m, t, k = 10, 12, 6, 2
        for d in (2, 3, 4):
            condition = MaxLegalCondition(n, m, t - d, 1)
            algorithm = ConditionBasedKSetAgreement(condition=condition, t=t, d=d, k=k)
            baseline = FloodMinKSetAgreement(t=t, k=k)
            vector = vector_in_max_condition(n, m, t - d, 1, rng)
            for schedule in (
                staggered_schedule(n, t, per_round=k),
                crashes_in_round_one(n, t, delivered_prefix=0),
                random_schedule(n, t, t // 2, max_round=3, rng=rng),
            ):
                cond_result = SynchronousSystem(n, t, algorithm).run(vector, schedule)
                base_result = SynchronousSystem(n, t, baseline).run(vector, schedule)
                assert_execution_correct(cond_result, vector, k=k)
                assert_execution_correct(base_result, vector, k=k)
                assert (
                    cond_result.max_decision_round_of_correct()
                    <= base_result.max_decision_round_of_correct()
                )

    def test_consensus_and_kset_consistency(self):
        """The k=1 wrapper and the generic algorithm agree on the same inputs."""
        rng = Random(11)
        n, m, t, d = 8, 10, 4, 2
        condition = MaxLegalCondition(n, m, t - d, 1)
        consensus = ConditionBasedConsensus(condition=condition, t=t, d=d)
        generic = ConditionBasedKSetAgreement(condition=condition, t=t, d=d, k=1)
        vector = vector_in_max_condition(n, m, t - d, 1, rng)
        schedule = staggered_schedule(n, t)
        first = SynchronousSystem(n, t, consensus).run(vector, schedule)
        second = SynchronousSystem(n, t, generic).run(vector, schedule)
        assert first.decisions == second.decisions
        assert first.decision_rounds == second.decision_rounds


class TestSyncAsyncConsistency:
    def test_same_condition_serves_both_models(self):
        """An (x, l)-legal condition drives both the synchronous and async algorithms."""
        n, m, x, ell = 7, 9, 3, 2
        t, d, k = 5, 2, 2
        assert x == t - d
        condition = MaxLegalCondition(n, m, x, ell)
        vector = vector_in_max_condition(n, m, x, ell, 5)

        sync_result = SynchronousSystem(
            n, t, ConditionBasedKSetAgreement(condition=condition, t=t, d=d, k=k)
        ).run(vector, crashes_in_round_one(n, x, delivered_prefix=2))
        assert_execution_correct(sync_result, vector, k=k)

        async_result = run_async_condition_set_agreement(
            condition, x, vector, crashed=tuple(range(x)), seed=7
        )
        report = check_execution(async_result, vector, ell)
        assert report, report.failures

        # Both decide values encoded by the condition for this vector.
        decoded = condition.decode(vector.restrict(range(n)))
        assert sync_result.decided_values() <= decoded | set(vector.entries)
        assert async_result.decided_values() <= decoded
