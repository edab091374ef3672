"""The lint engine: rule registry, shared-index execution, reports.

Rules follow the project's registry idiom — a string-keyed
:class:`~repro.api.registry.Registry` populated by a decorator — so adding a
rule is a one-file change and the CLI, the tests and the baseline tooling
all resolve rule ids through one table::

    @register_rule("my-rule", group="determinism", summary="...", severity="error")
    def _check_my_rule(index: ModuleIndex) -> Iterator[Finding]:
        ...

Execution is two-phase: :meth:`ModuleIndex.build` parses the tree once, then
every registered rule runs over the same index.  Suppression comments
(``# repro: lint-ok[rule-id]``) are honoured centrally — rules yield findings
unconditionally and :func:`run_lint` filters them — so no rule can forget the
contract.  The report orders findings by ``(path, line, rule)`` whatever
order the rules produced them in, which keeps text output, JSON output and
the baseline file byte-stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..exceptions import RegistryError
from ..registry import Registry
from .baseline import Baseline
from .findings import SEVERITIES, Finding
from .index import ModuleIndex

__all__ = [
    "LINT_RULES",
    "LintReport",
    "LintRule",
    "available_rules",
    "register_rule",
    "run_lint",
]


@dataclass(frozen=True)
class LintRule:
    """One registered invariant check.

    The ``check`` callable receives the shared :class:`ModuleIndex` and
    yields bare ``(relpath, line, message)`` triples; rule id, group and
    severity travel on the rule itself, so every finding is stamped
    consistently by the engine and no rule can mislabel its own output.
    """

    rule_id: str
    group: str
    summary: str
    severity: str
    check: Callable[[ModuleIndex], Iterable[tuple[str, int, str]]]


#: The rule registry; populated by the modules of :mod:`repro.lint.rules`.
LINT_RULES = Registry("lint rule")


def register_rule(rule_id: str, group: str, summary: str, severity: str = "error"):
    """Decorator registering a ``(index) -> Iterable[Finding]`` check."""
    if severity not in SEVERITIES:
        raise RegistryError(
            f"lint rule severity must be one of {SEVERITIES}, got {severity!r}"
        )

    def decorator(check):
        LINT_RULES.add(
            rule_id,
            LintRule(
                rule_id=rule_id,
                group=group,
                summary=summary,
                severity=severity,
                check=check,
            ),
        )
        return check

    return decorator


def available_rules() -> tuple[str, ...]:
    """The registered rule ids, sorted."""
    _load_builtin_rules()
    return LINT_RULES.names()


def _load_builtin_rules() -> None:
    # Importing the rules package registers every built-in rule; deferred to
    # first use so `import repro` does not pay for the linter.
    from . import rules  # noqa: F401


@dataclass
class LintReport:
    """Outcome of one lint run."""

    #: Findings that survived suppression comments and the baseline.
    findings: list[Finding]
    #: Findings silenced by a committed baseline entry.
    baselined: list[Finding] = field(default_factory=list)
    #: Findings silenced by ``# repro: lint-ok[...]`` comments.
    suppressed: list[Finding] = field(default_factory=list)
    #: Number of files the index parsed.
    files: int = 0
    #: Rule ids that ran, in execution order.
    rules: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """No live findings (baselined and suppressed ones do not count)."""
        return not self.findings

    def errors(self) -> list[Finding]:
        """The live findings of severity ``"error"``."""
        return [finding for finding in self.findings if finding.severity == "error"]

    def render(self) -> str:
        """The human-readable report."""
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"repro lint: {len(self.findings)} finding(s) "
            f"({len(self.errors())} error(s)) across {self.files} file(s), "
            f"{len(self.rules)} rule(s); "
            f"{len(self.baselined)} baselined, {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def to_record(self) -> dict[str, Any]:
        """The JSON-serializable report (``repro lint --format json``)."""
        return {
            "findings": [finding.to_record() for finding in self.findings],
            "baselined": [finding.to_record() for finding in self.baselined],
            "suppressed": [finding.to_record() for finding in self.suppressed],
            "files": self.files,
            "rules": list(self.rules),
            "clean": self.clean,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), indent=2, sort_keys=True)


def run_lint(
    root: Path | str | None = None,
    *,
    rules: Sequence[str] | None = None,
    baseline: Baseline | None = None,
    index: ModuleIndex | None = None,
) -> LintReport:
    """Lint the tree under *root* with the selected *rules*.

    Parameters
    ----------
    root:
        Directory (or single file) to lint; default is the installed
        ``repro`` package — ``src/repro`` in a source checkout.
    rules:
        Rule ids to run (default: every registered rule).  Unknown ids raise
        :class:`~repro.exceptions.RegistryError` listing the known ones.
    baseline:
        Grandfathered findings; matching live findings are reported in
        :attr:`LintReport.baselined` instead of failing the run.
    index:
        A pre-built :class:`ModuleIndex` (the benchmark harness reuses one
        across timed runs); *root* is ignored when given.
    """
    _load_builtin_rules()
    if index is None:
        index = ModuleIndex.build(root)
    selected = [LINT_RULES.get(rule_id) for rule_id in rules] if rules is not None else [
        entry for _, entry in LINT_RULES.items()
    ]

    live: list[Finding] = []
    baselined: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in selected:
        for relpath, line, message in rule.check(index):
            finding = Finding(
                rule=rule.rule_id,
                group=rule.group,
                severity=rule.severity,
                path=relpath,
                line=line,
                message=message,
            )
            module = index.module(finding.path)
            if module is not None and module.suppresses(finding.rule, finding.line):
                suppressed.append(finding)
            elif baseline is not None and baseline.covers(finding):
                baselined.append(finding)
            else:
                live.append(finding)

    order = lambda finding: (finding.path, finding.line, finding.rule)  # noqa: E731
    return LintReport(
        findings=sorted(live, key=order),
        baselined=sorted(baselined, key=order),
        suppressed=sorted(suppressed, key=order),
        files=len(index),
        rules=tuple(rule.rule_id for rule in selected),
    )
