"""The shared module index: every linted file parsed exactly once.

Fourteen rules walking ~90 modules must not mean fourteen parses of the
tree.  :class:`ModuleIndex` walks the linted root once, parses each
``*.py`` file into an :class:`ast.Module`, extracts the per-line suppression
comments, and hands every rule the same immutable :class:`ModuleFile`
records.  Rules are pure functions of the index, so the lint run is
deterministic: files are visited in sorted-path order and the AST carries
the line numbers every finding anchors to.

Suppression comments use the syntax::

    do_something_flagged()  # repro: lint-ok[rule-id]
    # repro: lint-ok[rule-a, rule-b]   <- standalone form, covers the next line

A suppression silences the named rule(s) on its own line and on the line
directly below it (the standalone-comment form).  ``lint-ok[*]`` silences
every rule, which is deliberately loud in review — prefer naming the rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..exceptions import InvalidParameterError

__all__ = ["ModuleFile", "ModuleIndex", "default_lint_root"]

#: The suppression-comment syntax: ``# repro: lint-ok[rule-id, ...]``.
_SUPPRESSION = re.compile(r"#\s*repro:\s*lint-ok\[([^\]]*)\]")


def default_lint_root() -> Path:
    """The tree ``repro lint`` walks by default: the installed package itself."""
    return Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class ModuleFile:
    """One parsed source file of the linted tree."""

    #: Absolute path of the file on disk.
    path: Path
    #: Path relative to the linted root, in posix form (finding anchor).
    relpath: str
    #: The raw source text.
    source: str
    #: The parsed module (one parse, shared by every rule).
    tree: ast.Module
    #: Line -> rule ids silenced on that line (``"*"`` silences all).
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    def lines(self) -> list[str]:
        """The source split into lines (1-based indexing via ``lines()[i-1]``)."""
        return self.source.splitlines()

    def suppresses(self, rule_id: str, line: int) -> bool:
        """Is *rule_id* silenced at *line* (same line or the line above)?"""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules is not None and ("*" in rules or rule_id in rules):
                return True
        return False


def _parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    suppressions: dict[int, frozenset[str]] = {}
    for line_number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip() for token in match.group(1).split(",") if token.strip()
        )
        if rules:
            suppressions[line_number] = rules
    return suppressions


class ModuleIndex:
    """Every ``*.py`` file under one root, parsed once and shared by all rules."""

    def __init__(self, root: Path | str, files: tuple[ModuleFile, ...]) -> None:
        self._root = Path(root)
        self._files = files
        self._by_relpath = {module.relpath: module for module in files}

    @classmethod
    def build(cls, root: Path | str | None = None) -> "ModuleIndex":
        """Walk *root* (default: the installed ``repro`` package) and parse it.

        Files that fail to parse raise :class:`InvalidParameterError` — a
        syntax error in the linted tree is a fatal lint failure, not a
        skipped file.  ``__pycache__`` is ignored; everything else matching
        ``*.py`` is indexed, sorted by relative path so every run visits the
        tree in the same order.
        """
        base = Path(root) if root is not None else default_lint_root()
        if not base.exists():
            raise InvalidParameterError(f"lint root {base} does not exist")
        paths = (
            [base]
            if base.is_file()
            else sorted(
                path
                for path in base.rglob("*.py")
                if "__pycache__" not in path.parts
            )
        )
        files = []
        for path in paths:
            relpath = (
                path.name
                if base.is_file()
                else path.relative_to(base).as_posix()
            )
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as error:
                raise InvalidParameterError(
                    f"{relpath}:{error.lineno}: cannot lint a file that does "
                    f"not parse ({error.msg})"
                ) from error
            files.append(
                ModuleFile(
                    path=path,
                    relpath=relpath,
                    source=source,
                    tree=tree,
                    suppressions=_parse_suppressions(source),
                )
            )
        return cls(base, tuple(files))

    @property
    def root(self) -> Path:
        """The root the index was built from."""
        return self._root

    @property
    def files(self) -> tuple[ModuleFile, ...]:
        """Every indexed module, in sorted-relpath order."""
        return self._files

    def module(self, relpath: str) -> ModuleFile | None:
        """Look one module up by its root-relative posix path."""
        return self._by_relpath.get(relpath)

    def __iter__(self) -> Iterator[ModuleFile]:
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)
