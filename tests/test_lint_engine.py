"""The lint engine: suppressions, baselines, reports, CLI gate, whole tree."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main
from repro.exceptions import InvalidParameterError, RegistryError, StoreError
from repro.lint import (
    Baseline,
    Finding,
    ModuleIndex,
    available_rules,
    default_lint_root,
    run_lint,
)
from repro.lint.baseline import default_baseline_path


def write_module(tmp_path, source, filename="module.py"):
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


VIOLATION = """
    def validate(n):
        if n < 1:
            raise ValueError("n must be positive")
    """


# ----------------------------------------------------------------------
# Finding
# ----------------------------------------------------------------------
class TestFinding:
    def make(self, **overrides):
        record = {
            "rule": "raise-builtin",
            "group": "exceptions",
            "severity": "error",
            "path": "sync/messages.py",
            "line": 41,
            "message": "raise ValueError bypasses the hierarchy",
        }
        record.update(overrides)
        return Finding(**record)

    def test_round_trip(self):
        finding = self.make()
        assert Finding.from_record(finding.to_record()) == finding

    def test_render_and_location(self):
        finding = self.make()
        assert finding.location() == "sync/messages.py:41"
        assert finding.render().startswith("sync/messages.py:41: error [raise-builtin]")

    def test_fingerprint_omits_line(self):
        assert self.make(line=41).fingerprint() == self.make(line=99).fingerprint()

    def test_rejects_bad_severity_and_line(self):
        with pytest.raises(InvalidParameterError):
            self.make(severity="fatal")
        with pytest.raises(InvalidParameterError):
            self.make(line=0)

    def test_from_record_rejects_malformed(self):
        with pytest.raises(InvalidParameterError):
            Finding.from_record({"rule": "raise-builtin"})


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        write_module(
            tmp_path,
            """
            def validate(n):
                raise ValueError(n)  # repro: lint-ok[raise-builtin]
            """,
        )
        report = run_lint(tmp_path, rules=["raise-builtin"])
        assert report.clean
        assert len(report.suppressed) == 1

    def test_line_above_suppression(self, tmp_path):
        write_module(
            tmp_path,
            """
            def validate(n):
                # repro: lint-ok[raise-builtin]
                raise ValueError(n)
            """,
        )
        report = run_lint(tmp_path, rules=["raise-builtin"])
        assert report.clean
        assert len(report.suppressed) == 1

    def test_wildcard_suppression(self, tmp_path):
        write_module(
            tmp_path,
            """
            def validate(n):
                raise ValueError(n)  # repro: lint-ok[*]
            """,
        )
        report = run_lint(tmp_path, rules=["raise-builtin"])
        assert report.clean

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        write_module(
            tmp_path,
            """
            def validate(n):
                raise ValueError(n)  # repro: lint-ok[wall-clock]
            """,
        )
        report = run_lint(tmp_path, rules=["raise-builtin"])
        assert not report.clean


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_and_line_shift_immunity(self, tmp_path):
        write_module(tmp_path, VIOLATION)
        report = run_lint(tmp_path, rules=["raise-builtin"])
        assert len(report.findings) == 1

        path = tmp_path / "lint-baseline.json"
        Baseline.write(path, report.findings)
        baseline = Baseline.load(path)
        assert len(baseline) == 1

        # Shift the violation down some lines: still covered (fingerprints
        # are line-independent).
        write_module(tmp_path, "\n\n\n\n" + textwrap.dedent(VIOLATION))
        shifted = run_lint(tmp_path, rules=["raise-builtin"], baseline=baseline)
        assert shifted.clean
        assert len(shifted.baselined) == 1

    def test_unrelated_finding_is_not_covered(self, tmp_path):
        write_module(tmp_path, VIOLATION)
        report = run_lint(tmp_path, rules=["raise-builtin"])
        baseline = Baseline.write(tmp_path / "lint-baseline.json", report.findings)

        write_module(
            tmp_path,
            """
            def validate(n):
                if n < 1:
                    raise ValueError("n must be positive")
                raise TypeError("unreachable but different")
            """,
        )
        report = run_lint(tmp_path, rules=["raise-builtin"], baseline=baseline)
        assert len(report.findings) == 1
        assert "TypeError" in report.findings[0].message
        assert len(report.baselined) == 1

    def test_load_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(StoreError):
            Baseline.load(path)
        with pytest.raises(StoreError):
            Baseline.load(tmp_path / "missing.json")

    def test_default_baseline_path_walks_ancestors(self, tmp_path):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        assert default_baseline_path(package) is None
        marker = tmp_path / "lint-baseline.json"
        marker.write_text('{"version": 1, "findings": []}', encoding="utf-8")
        assert default_baseline_path(package) == marker


# ----------------------------------------------------------------------
# engine semantics
# ----------------------------------------------------------------------
class TestEngine:
    def test_unknown_rule_raises_registry_error(self, tmp_path):
        write_module(tmp_path, VIOLATION)
        with pytest.raises(RegistryError):
            run_lint(tmp_path, rules=["no-such-rule"])

    def test_syntax_error_raises_invalid_parameter(self, tmp_path):
        write_module(tmp_path, "def broken(:\n")
        with pytest.raises(InvalidParameterError):
            ModuleIndex.build(tmp_path)

    def test_report_is_sorted_and_counts_files(self, tmp_path):
        write_module(tmp_path, VIOLATION, filename="b.py")
        write_module(tmp_path, VIOLATION, filename="a.py")
        write_module(tmp_path, "x = 1\n", filename="c.py")
        report = run_lint(tmp_path, rules=["raise-builtin"])
        assert report.files == 3
        assert [finding.path for finding in report.findings] == ["a.py", "b.py"]

    def test_json_report_shape(self, tmp_path):
        write_module(tmp_path, VIOLATION)
        report = run_lint(tmp_path, rules=["raise-builtin"])
        payload = json.loads(report.to_json())
        assert payload["clean"] is False
        assert payload["rules"] == ["raise-builtin"]
        assert payload["findings"][0]["rule"] == "raise-builtin"


# ----------------------------------------------------------------------
# the shipped tree lints clean (modulo the committed baseline)
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_src_repro_is_lint_clean(self):
        root = default_lint_root()
        baseline_path = default_baseline_path(root)
        baseline = None if baseline_path is None else Baseline.load(baseline_path)
        report = run_lint(root, baseline=baseline)
        assert report.clean, report.render()
        assert report.files >= 80
        assert set(report.rules) == set(available_rules())

    def test_committed_baseline_is_empty(self):
        # The healthy steady state: no grandfathered debt.  If a rule change
        # forces entries in, this test documents the regression explicitly.
        baseline_path = default_baseline_path(default_lint_root())
        assert baseline_path is not None
        assert len(Baseline.load(baseline_path)) == 0


# ----------------------------------------------------------------------
# CLI gate
# ----------------------------------------------------------------------
class TestCliGate:
    def test_strict_exits_zero_on_clean_tree(self, tmp_path, capsys):
        write_module(tmp_path, "x = 1\n")
        assert main(["lint", str(tmp_path), "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_strict_exits_one_on_violation(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATION)
        assert main(["lint", str(tmp_path), "--strict"]) == 1
        assert "raise-builtin" in capsys.readouterr().out

    def test_default_mode_reports_without_failing(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATION)
        assert main(["lint", str(tmp_path)]) == 0
        assert "raise-builtin" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATION)
        main(["lint", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False

    def test_write_baseline_then_strict_passes(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATION)
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", str(tmp_path), "--write-baseline"]) == 0
        assert baseline.is_file()
        assert main(["lint", str(tmp_path), "--strict"]) == 0
        assert (
            main(["lint", str(tmp_path), "--strict", "--no-baseline"]) == 1
        )
        capsys.readouterr()

    def test_rule_selection(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATION)
        assert main(["lint", str(tmp_path), "--strict", "--rules", "wall-clock"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in available_rules():
            assert rule in out

    def test_shipped_tree_gate_passes(self, capsys):
        # The exact command CI runs.
        assert main(["lint", "--strict"]) == 0
        capsys.readouterr()

    def test_introduced_violation_fails_each_rule_gate(self, tmp_path, capsys):
        """Acceptance: any single rule's fixture violation flips --strict to 1."""
        violations = {
            "unseeded-random": "import random\nx = random.random()\n",
            "wall-clock": "import time\nx = time.time()\n",
            "set-iteration": "out = [v for v in {3, 1, 2}]\n",
            "registry-entry": (
                "@register_algorithm('a', ('quantum',), 's')\n"
                "def build(spec, condition):\n    return None\n"
            ),
            "mutant-registration": "register_mutants()\n",
            "adversary-namespace": (
                "@register_async_adversary('dup', 's')\n"
                "def a(seed):\n    return None\n"
                "@register_net_adversary('dup', 's')\n"
                "def b(n, t, seed):\n    return None\n"
            ),
            "record-parity-keys": (
                "class R:\n"
                "    left: int\n"
                "    def to_record(self):\n"
                "        return {'left': self.left, 'ghost': 0}\n"
                "    @classmethod\n"
                "    def from_record(cls, record):\n"
                "        return cls(**record)\n"
            ),
            "record-parity-fields": (
                "class R:\n"
                "    left: int\n"
                "    right: int\n"
                "    def to_record(self):\n"
                "        return {'left': self.left}\n"
                "    @classmethod\n"
                "    def from_record(cls, record):\n"
                "        return cls(**record)\n"
            ),
            "store-kinds": (
                "EVENT_KIND = 'event'\n"
                "class Store:\n"
                "    def append_event(self, e):\n"
                "        self.write(EVENT_KIND)\n"
            ),
            "envelope-frozen": "class LoneShard:\n    pass\n",
            "envelope-fields": (
                "from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\n"
                "class BagTask:\n"
                "    items: list\n"
            ),
            "raise-builtin": "def f():\n    raise ValueError('x')\n",
            "oracle-applicability": "oracle = PropertyOracle('validity', 's')\n",
            "stdlib-imports": "import networkx\n",
        }
        assert set(violations) == set(available_rules())
        for rule, source in violations.items():
            tree = tmp_path / rule
            tree.mkdir()
            (tree / "module.py").write_text(source, encoding="utf-8")
            assert main(["lint", str(tree), "--strict"]) == 1, rule
            assert main(["lint", str(tree), "--strict", "--rules", rule]) == 1, rule
        capsys.readouterr()
