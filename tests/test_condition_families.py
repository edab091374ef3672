"""Tests for the condition-family registry and the new condition oracles.

The oracle correctness tests are brute-force cross-checks: on small systems
every family's ``contains`` / ``is_compatible`` / ``decode`` answer is
compared against an exhaustive Definition 4 computation over the enumerated
member set — the analytic fast paths must agree with the paper's definitions
bit for bit.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from repro.api import (
    CONDITIONS,
    AgreementSpec,
    Engine,
    RunConfig,
    available_conditions,
    register_condition,
    resolve_condition,
)
from repro.core import (
    AllVectorsOracle,
    FrequencyGapCondition,
    HammingBallCondition,
    InputVector,
    MaxLegalCondition,
    MinLegalCondition,
    View,
    BOTTOM,
)
from repro.analysis import check_execution
from repro.exceptions import (
    DecodingError,
    InvalidParameterError,
    RegistryError,
)
from repro.workloads import vector_in_condition, vector_outside_condition


def all_vectors(n, m):
    return [InputVector(entries) for entries in product(range(1, m + 1), repeat=n)]


def all_views(n, m, max_bottoms):
    seen = set()
    for vector in all_vectors(n, m):
        for bottoms in range(0, max_bottoms + 1):
            for positions in combinations(range(n), bottoms):
                seen.add(
                    tuple(
                        BOTTOM if index in positions else vector[index]
                        for index in range(n)
                    )
                )
    return [View(entries) for entries in seen]


def brute_decode(members, recognize, view):
    """Definition 4 computed the slow, obviously-correct way."""
    intersection = None
    found = False
    for vector in members:
        if view.contained_in(vector):
            found = True
            decoded = recognize(vector)
            intersection = decoded if intersection is None else intersection & decoded
    if not found:
        return None
    return intersection & view.val()


class TestRegistry:
    def test_expected_families_registered(self):
        for name in (
            "max-legal",
            "min-legal",
            "frequency-gap",
            "hamming-ball",
            "all-vectors",
            "explicit",
        ):
            assert name in available_conditions()

    def test_unknown_family_error_lists_known_names(self):
        with pytest.raises(RegistryError) as excinfo:
            CONDITIONS.get("paxos")
        message = str(excinfo.value)
        assert "paxos" in message and "max-legal" in message

    def test_unknown_family_rejected_at_spec_construction(self):
        with pytest.raises(RegistryError):
            AgreementSpec(n=4, t=1, condition="not-a-family")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            register_condition("max-legal", "shadowing attempt")(lambda spec, params: None)

    def test_unknown_parameter_rejected(self):
        spec = AgreementSpec(
            n=4, t=1, condition="hamming-ball", condition_params={"radios": 2}
        )
        with pytest.raises(InvalidParameterError) as excinfo:
            spec.condition_oracle()
        assert "radios" in str(excinfo.value)
        assert "radius" in str(excinfo.value)  # the accepted names are listed

    def test_custom_family_runs_end_to_end(self, monkeypatch):
        name = "test-two-values"
        # The family is registered for this test only.
        monkeypatch.setattr(CONDITIONS, "_entries", dict(CONDITIONS._entries))

        @register_condition(name, "vectors with exactly two distinct values")
        def _build(spec, params):
            from repro.core.generators import two_values_condition

            return two_values_condition(spec.n, spec.domain)

        spec = AgreementSpec(n=5, t=2, k=2, d=2, ell=2, domain=3, condition=name)
        engine = Engine(spec, "condition-kset")
        result = engine.run([1, 2, 1, 2, 1])
        assert result.in_condition is True
        assert result.terminated
        assert result.condition == "two_values(n=5,m=3)"


class TestSpecIntegration:
    def test_default_family_is_byte_identical_to_sugar(self):
        plain = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10)
        named = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10, condition="max-legal")
        assert plain == named and hash(plain) == hash(named)
        assert plain.condition_oracle() is named.condition_oracle()
        vector = [7, 7, 7, 3, 2, 7, 1, 7]
        first = Engine(plain, "condition-kset").run(vector)
        second = Engine(named, "condition-kset").run(vector)
        assert first.decisions == second.decisions
        assert first.decision_times == second.decision_times
        assert first.duration == second.duration

    def test_max_legal_oracle_shared_across_t_variants(self):
        # Same derived (n, m, x, l): one oracle object, as in the seed API.
        a = AgreementSpec(n=6, t=3, d=1, domain=5)  # x = 2
        b = AgreementSpec(n=6, t=4, d=2, domain=5)  # x = 2
        assert a.condition_oracle() is b.condition_oracle()

    def test_condition_params_frozen_and_hashable(self):
        spec = AgreementSpec(
            n=4,
            t=1,
            condition="hamming-ball",
            condition_params={"radius": 1, "center": [2, 2, 2, 2]},
        )
        assert isinstance(spec.condition_params, tuple)
        hash(spec)  # must not raise
        assert resolve_condition(spec) is spec.condition_oracle()

    def test_resolution_memoized_per_spec(self):
        spec = AgreementSpec(n=5, t=2, d=1, domain=4, condition="min-legal")
        twin = AgreementSpec(n=5, t=2, d=1, domain=4, condition="min-legal")
        assert spec.condition_oracle() is twin.condition_oracle()

    def test_describe_names_non_default_family(self):
        spec = AgreementSpec(n=5, t=2, condition="all-vectors")
        assert "cond=all-vectors" in spec.describe()
        assert "cond=" not in AgreementSpec(n=5, t=2).describe()

    def test_run_result_carries_condition_metadata(self):
        spec = AgreementSpec(n=5, t=2, d=1, domain=4, condition="min-legal")
        result = Engine(spec, "condition-kset").run([1, 1, 1, 2, 3])
        assert result.condition == "min_1-legal(x=1, n=5, m=4)"
        baseline = Engine(spec, "floodmin").run([1, 1, 1, 2, 3])
        assert baseline.condition is None

    def test_frequency_gap_requires_ell_one(self):
        spec = AgreementSpec(n=5, t=2, d=1, ell=2, domain=4, condition="frequency-gap")
        with pytest.raises(InvalidParameterError):
            spec.condition_oracle()

    def test_explicit_family_resolves_vectors(self):
        spec = AgreementSpec(
            n=3,
            t=1,
            d=1,
            domain=3,
            condition="explicit",
            condition_params={"vectors": ((1, 1, 2), (1, 1, 3))},
        )
        oracle = spec.condition_oracle()
        assert oracle.contains(InputVector([1, 1, 2]))
        assert not oracle.contains(InputVector([2, 2, 2]))


class TestOracleCrossChecks:
    """Every analytic family answer equals the brute-force Definition 4 answer."""

    N, M = 4, 3

    def _check(self, oracle, recognize, max_bottoms=2):
        members = [v for v in all_vectors(self.N, self.M) if oracle.contains(v)]
        assert set(oracle.enumerate_vectors()) == set(members)
        for view in all_views(self.N, self.M, max_bottoms):
            compatible = any(view.contained_in(member) for member in members)
            assert oracle.is_compatible(view) == compatible, view
            if compatible:
                assert oracle.decode(view) == brute_decode(members, recognize, view), view
            else:
                with pytest.raises(DecodingError):
                    oracle.decode(view)

    def test_min_legal_ell_1(self):
        oracle = MinLegalCondition(self.N, self.M, x=1, ell=1)
        self._check(oracle, lambda v: frozenset(v.smallest_values(1)))

    def test_min_legal_ell_2(self):
        oracle = MinLegalCondition(self.N, self.M, x=2, ell=2)
        self._check(oracle, lambda v: frozenset(v.smallest_values(2)))

    def test_min_legal_size_matches_max_by_symmetry(self):
        minimal = MinLegalCondition(5, 4, x=2, ell=2)
        maximal = MaxLegalCondition(5, 4, x=2, ell=2)
        assert minimal.size() == maximal.size()
        assert len(list(minimal.enumerate_vectors())) == minimal.size()

    def test_frequency_gap(self):
        oracle = FrequencyGapCondition(self.N, self.M, gap=1)
        self._check(oracle, lambda v: frozenset({oracle.winner(v)}))

    def test_frequency_gap_zero(self):
        oracle = FrequencyGapCondition(self.N, self.M, gap=0)
        self._check(oracle, lambda v: frozenset({oracle.winner(v)}))

    def test_hamming_ball_unanimous_centre(self):
        oracle = HammingBallCondition(self.N, self.M, [3, 3, 3, 3], radius=2, ell=1)
        self._check(oracle, oracle._recognize)

    def test_hamming_ball_mixed_centre_ell_2(self):
        oracle = HammingBallCondition(self.N, self.M, [1, 2, 3, 2], radius=1, ell=2)
        self._check(oracle, oracle._recognize)

    def test_hamming_ball_size_closed_form(self):
        oracle = HammingBallCondition(5, 4, [2, 2, 2, 2, 2], radius=2, ell=1)
        assert oracle.size() == len(list(oracle.enumerate_vectors()))

    def test_all_vectors(self):
        oracle = AllVectorsOracle(self.N, self.M, ell=2)
        self._check(oracle, lambda v: frozenset(v.greatest_values(2)))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            FrequencyGapCondition(4, 3, gap=4)  # unreachable gap
        with pytest.raises(InvalidParameterError):
            HammingBallCondition(4, 3, [1, 1, 1, 1], radius=4)  # trivial ball
        from repro.exceptions import InvalidVectorError

        with pytest.raises(InvalidVectorError):
            HammingBallCondition(4, 3, [1, 1, 1], radius=1)  # centre size
        with pytest.raises(InvalidVectorError):
            HammingBallCondition(4, 3, [1, 1, 1, 9], radius=1)  # centre domain


class TestFamiliesEndToEnd:
    CASES = [
        ("max-legal", 1, {}),
        ("min-legal", 1, {}),
        ("frequency-gap", 1, {"gap": 1}),
        ("hamming-ball", 1, {"radius": 1}),
        ("all-vectors", 2, {}),
    ]

    @pytest.mark.parametrize("family,d,params", CASES)
    def test_sync_and_async_backends(self, family, d, params):
        spec = AgreementSpec(
            n=6, t=2, k=2, d=d, ell=1, domain=6,
            condition=family, condition_params=params,
        )
        engine = Engine(spec, "condition-kset")
        vector = vector_in_condition(engine.condition, spec.n, spec.domain, 7)
        sync_result = engine.run(vector)
        assert sync_result.terminated
        assert sync_result.in_condition is True
        assert bool(check_execution(sync_result, vector, spec.k))
        assert sync_result.max_decision_round_of_correct() <= 2  # fast path
        async_result = engine.run(vector, backend="async", seed=3)
        assert async_result.terminated
        assert bool(check_execution(async_result, vector, spec.ell))

    def test_sweep_across_families(self):
        spec = AgreementSpec(n=6, t=2, k=2, d=1, ell=1, domain=6)
        cells = Engine(spec, "condition-kset").sweep(
            {"condition": ("max-legal", "min-legal", "hamming-ball")}, runs_per_cell=2
        )
        assert len(cells) == 3
        for cell in cells:
            assert cell.error is None
            assert cell.in_condition_count() == cell.runs
            assert cell.all_terminated()

    def test_sweep_resets_foreign_condition_params(self):
        # The base spec carries hamming-ball params; sweeping onto other
        # families must not hand them a 'radius' they would reject.
        spec = AgreementSpec(
            n=6, t=2, k=2, d=1, ell=1, domain=6,
            condition="hamming-ball", condition_params={"radius": 2},
        )
        cells = Engine(spec, "condition-kset").sweep(
            {"condition": ("max-legal", "min-legal", "frequency-gap", "hamming-ball")},
            runs_per_cell=1,
        )
        assert [cell.error for cell in cells] == [None] * 4
        # The cell that keeps the base family also keeps the base params.
        ball_cell = next(c for c in cells if c.overrides["condition"] == "hamming-ball")
        assert dict(ball_cell.spec.condition_params) == {"radius": 2}

    def test_engine_condition_proxy_forwards_enumeration(self):
        spec = AgreementSpec(
            n=6, t=2, k=2, d=1, ell=1, domain=10,
            condition="explicit",
            condition_params={"vectors": ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))},
        )
        engine = Engine(spec, "condition-kset")
        # The memoizing proxy must not hide the sparse family's enumeration:
        # random probes and unanimous witnesses all miss these two vectors.
        vector = vector_in_condition(engine.condition, spec.n, spec.domain, 0)
        assert engine.condition.contains(vector)
        assert engine.run(vector).in_condition is True

    def test_generic_samplers(self):
        spec = AgreementSpec(n=6, t=2, k=2, d=1, ell=1, domain=6, condition="frequency-gap")
        oracle = spec.condition_oracle()
        inside = vector_in_condition(oracle, 6, 6, 11)
        assert oracle.contains(inside)
        outside = vector_outside_condition(oracle, 6, 6, 11)
        assert not oracle.contains(outside)
        trivial = AgreementSpec(n=4, t=2, condition="all-vectors").condition_oracle()
        with pytest.raises(InvalidParameterError):
            vector_outside_condition(trivial, 4, 10, 0)
