"""Lazy package exports (PEP 562): a re-exported name loads on first access.

A package ``__init__`` that re-exports its submodules' names eagerly makes
``import`` of the package pay for every submodule, and for everything those
import in turn.  :func:`lazy_exports` lets the package declare where each
name lives instead; the module that provides it is imported the first time
the name is read, and the value is then bound in the package's namespace, so
every later read is a plain attribute lookup::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        ".conditions": ("ConditionOracle", "MaxLegalCondition"),
        ".vectors": ("InputVector", "View"),
    })

``from package import *``, ``getattr(package, name)`` and ``dir(package)``
see every declared name.  A package keeps its ``__all__``;
``tests/test_cold_path.py`` resolves every name of every lazy package in a
fresh interpreter, so a name missing from the table fails there.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    namespace: dict[str, Any],
    sources: Mapping[str, Iterable[str]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of *package*.

    *namespace* is the package's ``globals()``, and *sources* maps a module
    (relative to *package* when it starts with a dot) to the names the
    package exports from it.
    """
    origin = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
