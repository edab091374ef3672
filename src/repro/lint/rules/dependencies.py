"""Dependency rule: the package runs on the standard library alone.

``setup.py`` declares no runtime dependency, and CI installs only the test
tools, so an import of a third-party package anywhere in the tree is a
``ModuleNotFoundError`` waiting on a clean interpreter — and a cold-start
cost on every CLI call, ``repro serve`` spawn and pool worker even where the
package happens to be installed.

``stdlib-imports``
    Flags every absolute ``import`` / ``from ... import`` whose top-level
    name is neither ``repro`` nor in :data:`sys.stdlib_module_names`.
    Imports inside functions count too: deferring a third-party import does
    not make it declared.  Relative imports are the package's own.
"""

from __future__ import annotations

import ast
import sys
from typing import Iterator

from ..engine import register_rule
from ..index import ModuleIndex

__all__ = ["ALLOWED_TOP_LEVEL"]

#: Top-level module names an import may name: the package and the stdlib.
ALLOWED_TOP_LEVEL = frozenset(sys.stdlib_module_names) | {"repro"}


def _imported_names(node: ast.AST) -> list[str]:
    """The absolute module names *node* imports (none for relative imports)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


@register_rule(
    "stdlib-imports",
    group="dependencies",
    summary="imports name the repro package or the standard library only",
)
def _check_stdlib_imports(index: ModuleIndex) -> Iterator[tuple[str, int, str]]:
    for module in index:
        for node in ast.walk(module.tree):
            for name in _imported_names(node):
                top_level = name.partition(".")[0]
                if top_level not in ALLOWED_TOP_LEVEL:
                    yield (
                        module.relpath,
                        node.lineno,
                        f"import of {name!r} reaches outside the standard "
                        "library; repro declares no runtime dependency, so "
                        "a clean interpreter fails with ModuleNotFoundError",
                    )
