"""Every source file compiles cleanly with warnings raised as errors.

Python 3.12 turns an invalid escape sequence such as ``"\\ "`` in a string or
docstring into a ``SyntaxWarning`` (3.11 a ``DeprecationWarning``), shown in
the warnings summary of every run that imports the module; a later version
makes it a syntax error.  Compiling each file with warnings as errors catches
it on any interpreter.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted(SRC.rglob("*.py"))


def test_the_source_tree_is_found():
    assert len(SOURCES) > 50


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(SRC)))
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
