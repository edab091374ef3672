"""Per-rule fixtures for :mod:`repro.lint.rules`.

Every rule gets at least one fixture it must fire on (the true positive)
and one structurally close fixture it must stay silent on (the clean pass),
so a rule that silently stops matching — or starts over-matching — fails
here before it ships.
"""

from __future__ import annotations

import textwrap

from repro.lint import run_lint


def lint_snippet(tmp_path, source, rule, filename="module.py"):
    """Lint one dedented *source* snippet with a single *rule*."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(tmp_path, rules=[rule])


def fired(report, rule):
    return [finding for finding in report.findings if finding.rule == rule]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_fires_on_module_level_random(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import random

            def pick(values):
                return random.choice(values)
            """,
            "unseeded-random",
        )
        assert len(fired(report, "unseeded-random")) == 1

    def test_fires_on_seedless_random_constructor(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from random import Random

            def make_rng():
                return Random()
            """,
            "unseeded-random",
        )
        assert len(fired(report, "unseeded-random")) == 1

    def test_fires_on_os_urandom(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import os

            def token():
                return os.urandom(8)
            """,
            "unseeded-random",
        )
        assert len(fired(report, "unseeded-random")) == 1

    def test_clean_on_seeded_random(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from random import Random

            def make_rng(seed):
                return Random(seed)
            """,
            "unseeded-random",
        )
        assert report.clean


class TestWallClock:
    def test_fires_on_time_time(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            "wall-clock",
        )
        assert len(fired(report, "wall-clock")) == 1

    def test_fires_on_datetime_now(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            "wall-clock",
        )
        assert len(fired(report, "wall-clock")) == 1

    def test_serve_layer_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import time

            def uptime(started):
                return time.monotonic() - started
            """,
            "wall-clock",
            filename="serve/daemon.py",
        )
        assert report.clean

    def test_clean_without_clock_reads(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def duration(rounds):
                return rounds * 3
            """,
            "wall-clock",
        )
        assert report.clean


class TestSetIteration:
    def test_fires_on_for_over_set_literal(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def emit(sink):
                for value in {3, 1, 2}:
                    sink.append(value)
            """,
            "set-iteration",
        )
        assert len(fired(report, "set-iteration")) == 1

    def test_fires_on_listcomp_over_set_call(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def order(values):
                return [value for value in set(values)]
            """,
            "set-iteration",
        )
        assert len(fired(report, "set-iteration")) == 1

    def test_fires_on_list_of_frozenset(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def order(values):
                return list(frozenset(values))
            """,
            "set-iteration",
        )
        assert len(fired(report, "set-iteration")) == 1

    def test_clean_when_sorted(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def order(values):
                for value in sorted(set(values)):
                    yield value
                return [value for value in sorted({3, 1, 2})]
            """,
            "set-iteration",
        )
        assert report.clean

    def test_clean_on_order_free_folds(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def fold(values):
                return sum(set(values)) + max({1, 2}) + len(frozenset(values))
            """,
            "set-iteration",
        )
        assert report.clean


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistryEntry:
    def test_fires_on_computed_name(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            NAME = "alpha"

            @register_algorithm(NAME, ("sync",), "summary")
            def build(spec, condition):
                return None
            """,
            "registry-entry",
        )
        assert len(fired(report, "registry-entry")) == 1

    def test_fires_on_duplicate_name(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            @register_schedule("worst-case", "one")
            def one(spec, crashes, seed):
                return None

            @register_schedule("worst-case", "two")
            def two(spec, crashes, seed):
                return None
            """,
            "registry-entry",
        )
        findings = fired(report, "registry-entry")
        assert len(findings) == 1
        assert "twice" in findings[0].message

    def test_fires_on_unknown_backend(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            @register_algorithm("alpha", ("sync", "quantum"), "summary")
            def build(spec, condition):
                return None
            """,
            "registry-entry",
        )
        findings = fired(report, "registry-entry")
        assert len(findings) == 1
        assert "unknown backend" in findings[0].message

    def test_fires_on_missing_backends(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            @register_algorithm("alpha")
            def build(spec, condition):
                return None
            """,
            "registry-entry",
        )
        assert len(fired(report, "registry-entry")) == 1

    def test_clean_on_literal_registration(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            @register_algorithm("alpha", ("sync", "async"), "summary")
            def build(spec, condition):
                return None

            @register_schedule("worst-case", "summary")
            def schedule(spec, crashes, seed):
                return None
            """,
            "registry-entry",
        )
        assert report.clean


class TestMutantRegistration:
    def test_fires_on_import_time_registration(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.check.mutants import register_mutants

            register_mutants()
            """,
            "mutant-registration",
        )
        assert len(fired(report, "mutant-registration")) == 1

    def test_fires_on_direct_algorithms_add(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.api.registry import ALGORITHMS

            ALGORITHMS.add("sneaky", object())
            """,
            "mutant-registration",
        )
        assert len(fired(report, "mutant-registration")) == 1

    def test_clean_when_wrapped_in_function(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.check.mutants import register_mutants

            def opt_in():
                register_mutants()
            """,
            "mutant-registration",
        )
        assert report.clean


class TestAdversaryNamespace:
    def test_fires_on_cross_namespace_collision(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            @register_async_adversary("skew", "async strategy")
            def async_factory(seed):
                return None

            @register_net_adversary("skew", "net failure model")
            def net_factory(n, t, seed):
                return None
            """,
            "adversary-namespace",
        )
        # Flagged at every registration site of the colliding name.
        assert len(fired(report, "adversary-namespace")) == 2

    def test_clean_on_disjoint_names(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            @register_async_adversary("latency-skew", "async strategy")
            def async_factory(seed):
                return None

            @register_net_adversary("send-omission", "net failure model")
            def net_factory(n, t, seed):
                return None
            """,
            "adversary-namespace",
        )
        assert report.clean


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
_RECORD_CLASS = """
    from dataclasses import dataclass

    @dataclass
    class Sample:
        left: int
        right: int

        def to_record(self):
            return {%s}

        @classmethod
        def from_record(cls, record):
            return cls(**record)
    """


class TestRecordParity:
    def test_keys_rule_fires_on_phantom_key(self, tmp_path):
        source = _RECORD_CLASS % '"left": self.left, "right": self.right, "ghost": 0'
        report = lint_snippet(tmp_path, source, "record-parity-keys")
        findings = fired(report, "record-parity-keys")
        assert len(findings) == 1
        assert "ghost" in findings[0].message

    def test_fields_rule_fires_on_dropped_field(self, tmp_path):
        source = _RECORD_CLASS % '"left": self.left'
        report = lint_snippet(tmp_path, source, "record-parity-fields")
        findings = fired(report, "record-parity-fields")
        assert len(findings) == 1
        assert "right" in findings[0].message

    def test_both_clean_on_exact_parity(self, tmp_path):
        source = _RECORD_CLASS % '"left": self.left, "right": self.right'
        for rule in ("record-parity-keys", "record-parity-fields"):
            assert lint_snippet(tmp_path, source, rule).clean

    def test_one_way_to_record_is_exempt(self, tmp_path):
        # No from_record => no round-trip promise => no parity obligation.
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class Summary:
                total: int
                detail: str

                def to_record(self):
                    return {"total": self.total}
            """,
            "record-parity-fields",
        )
        assert report.clean


class TestStoreKinds:
    def test_fires_on_kind_without_reader(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            EVENT_KIND = "event"

            class Store:
                def append_event(self, event):
                    self.write({"kind": EVENT_KIND})
            """,
            "store-kinds",
        )
        findings = fired(report, "store-kinds")
        assert len(findings) == 1
        assert "load" in findings[0].message

    def test_fires_on_kind_without_writer(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            EVENT_KIND = "event"

            class Store:
                def load_events(self):
                    return [r for r in self.records if r["kind"] == EVENT_KIND]
            """,
            "store-kinds",
        )
        findings = fired(report, "store-kinds")
        assert len(findings) == 1
        assert "append" in findings[0].message

    def test_clean_on_paired_kind(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            EVENT_KIND = "event"

            class Store:
                def append_event(self, event):
                    self.write({"kind": EVENT_KIND})

                def load_events(self):
                    return [r for r in self.records if r["kind"] == EVENT_KIND]
            """,
            "store-kinds",
        )
        assert report.clean


# ----------------------------------------------------------------------
# parallel-safety
# ----------------------------------------------------------------------
class TestEnvelopeFrozen:
    def test_fires_on_unfrozen_envelope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class SweepShard:
                index: int
            """,
            "envelope-frozen",
        )
        assert len(fired(report, "envelope-frozen")) == 1

    def test_fires_on_plain_class_envelope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class ReplayTask:
                pass
            """,
            "envelope-frozen",
        )
        assert len(fired(report, "envelope-frozen")) == 1

    def test_clean_on_frozen_envelope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepShard:
                index: int
            """,
            "envelope-frozen",
        )
        assert report.clean

    def test_non_envelope_classes_are_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Outcome:
                pass
            """,
            "envelope-frozen",
        )
        assert report.clean


class TestEnvelopeFields:
    def test_fires_on_mutable_container_field(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepShard:
                items: list[int]
            """,
            "envelope-fields",
        )
        findings = fired(report, "envelope-fields")
        assert len(findings) == 1
        assert "items" in findings[0].message

    def test_fires_inside_string_forward_reference(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepShard:
                table: "dict[str, int]"
            """,
            "envelope-fields",
        )
        assert len(fired(report, "envelope-fields")) == 1

    def test_clean_on_immutable_fields(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepShard:
                spec: "AgreementSpec"
                runs: tuple[tuple[int, int], ...]
                crashed: frozenset[int]
                label: str | None
            """,
            "envelope-fields",
        )
        assert report.clean

    def test_fires_on_packed_batch_envelope_field(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            from repro.vec import PackedBlock

            @dataclass(frozen=True)
            class CheckShard:
                start: int
                block: "PackedBlock | None"
            """,
            "envelope-fields",
        )
        findings = fired(report, "envelope-fields")
        assert len(findings) == 1
        assert "PackedBlock" in findings[0].message
        assert "vectorized" in findings[0].message

    def test_fires_on_interned_lane_states_envelope_field(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            from repro.vec import LaneStates

            @dataclass(frozen=True)
            class CheckShard:
                start: int
                states: tuple[LaneStates, ...]
            """,
            "envelope-fields",
        )
        findings = fired(report, "envelope-fields")
        assert len(findings) == 1
        assert "LaneStates" in findings[0].message
        assert "vectorized" in findings[0].message

    def test_clean_on_vectorized_flag_envelope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CheckShard:
                start: int
                vectorized: bool
            """,
            "envelope-fields",
        )
        assert report.clean


# ----------------------------------------------------------------------
# exceptions
# ----------------------------------------------------------------------
class TestRaiseBuiltin:
    def test_fires_on_builtin_raise(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def validate(n):
                if n < 1:
                    raise ValueError("n must be positive")
            """,
            "raise-builtin",
        )
        assert len(fired(report, "raise-builtin")) == 1

    def test_clean_on_repro_exception(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.exceptions import InvalidParameterError

            def validate(n):
                if n < 1:
                    raise InvalidParameterError("n must be positive")
            """,
            "raise-builtin",
        )
        assert report.clean

    def test_not_implemented_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Oracle:
                def applies(self, execution):
                    raise NotImplementedError
            """,
            "raise-builtin",
        )
        assert report.clean

    def test_getattr_protocol_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Proxy:
                def __getattr__(self, name):
                    raise AttributeError(name)
            """,
            "raise-builtin",
        )
        assert report.clean

    def test_attribute_error_outside_getattr_fires(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def lookup(name):
                raise AttributeError(name)
            """,
            "raise-builtin",
        )
        assert len(fired(report, "raise-builtin")) == 1

    def test_bare_reraise_is_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def passthrough(fn):
                try:
                    return fn()
                except Exception:
                    raise
            """,
            "raise-builtin",
        )
        assert report.clean


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
class TestOracleApplicability:
    def test_fires_without_applicability(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def build():
                return NetPropertyOracle("net-validity", "summary")
            """,
            "oracle-applicability",
        )
        assert len(fired(report, "oracle-applicability")) == 1

    def test_fires_with_check_keyword_but_no_applies(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def build(check):
                return PropertyOracle("validity", "summary", check=check)
            """,
            "oracle-applicability",
        )
        assert len(fired(report, "oracle-applicability")) == 1

    def test_clean_with_positional_applies(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def build(always, check):
                return AsyncPropertyOracle("async-validity", "summary", always, check)
            """,
            "oracle-applicability",
        )
        assert report.clean

    def test_clean_with_applies_keyword(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def build(always, check):
                return PropertyOracle("validity", "summary", applies=always, check=check)
            """,
            "oracle-applicability",
        )
        assert report.clean


# ----------------------------------------------------------------------
# dependencies
# ----------------------------------------------------------------------
class TestStdlibImports:
    def test_fires_on_third_party_import(self, tmp_path):
        report = lint_snippet(tmp_path, "import networkx\n", "stdlib-imports")
        [finding] = fired(report, "stdlib-imports")
        assert finding.line == 1 and "'networkx'" in finding.message

    def test_fires_on_third_party_from_import(self, tmp_path):
        report = lint_snippet(tmp_path, "from numpy import x\n", "stdlib-imports")
        assert len(fired(report, "stdlib-imports")) == 1

    def test_fires_on_import_inside_a_function(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def draw(graph):
                import networkx.drawing

                return networkx.drawing.spring_layout(graph)
            """,
            "stdlib-imports",
        )
        assert [finding.line for finding in fired(report, "stdlib-imports")] == [3]

    def test_clean_on_stdlib_relative_and_package_imports(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from __future__ import annotations

            import json
            import os.path
            from . import x
            from .sibling import y
            from repro.core import z
            """,
            "stdlib-imports",
        )
        assert report.clean


# ----------------------------------------------------------------------
# every rule has both fixture directions covered
# ----------------------------------------------------------------------
def test_every_registered_rule_is_exercised_here():
    """Adding a rule without fixtures must fail loudly, not silently."""
    from repro.lint import available_rules

    covered = {
        "unseeded-random",
        "wall-clock",
        "set-iteration",
        "registry-entry",
        "mutant-registration",
        "adversary-namespace",
        "record-parity-keys",
        "record-parity-fields",
        "store-kinds",
        "envelope-frozen",
        "envelope-fields",
        "raise-builtin",
        "oracle-applicability",
        "stdlib-imports",
    }
    assert set(available_rules()) == covered
