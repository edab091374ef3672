"""The string-keyed table behind every name the library resolves.

Algorithms, crash schedules and condition families (:mod:`repro.api`), lint
rules (:mod:`repro.lint`), net failure models (:mod:`repro.net.adversary`)
and asynchronous scheduling strategies (:mod:`repro.asynchronous.adversary`)
each live in one :class:`Registry`, which imports nothing of the library but
its exceptions: a backend registers its names without loading
:mod:`repro.api`.  Every table refuses an unknown name in :meth:`Registry.get`
with one message shape, ``unknown <kind> 'x'; known <kinds>: ...``.
"""

from __future__ import annotations

from typing import Any, Iterator

from .exceptions import RegistryError

__all__ = ["Registry"]


class Registry:
    """A named map from string keys to entries, with helpful failure modes."""

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: dict[str, Any] = {}

    @property
    def kind(self) -> str:
        """What the registry holds (``"algorithm"``, ``"net adversary"``, ...)."""
        return self._kind

    def add(self, name: str, entry: Any) -> None:
        """Register *entry* under *name*; duplicate names are rejected."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self._kind} names must be non-empty strings, got {name!r}")
        if name in self._entries:
            raise RegistryError(
                f"{self._kind} {name!r} is already registered; "
                "pick a new name instead of shadowing an existing entry"
            )
        self._entries[name] = entry

    def get(self, name: str) -> Any:
        """Look *name* up, raising :class:`RegistryError` with the known names."""
        try:
            return self._entries[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            known = ", ".join(sorted(self._entries)) or "<none>"
            kind = self._kind
            kinds = kind[:-1] + "ies" if kind.endswith("y") else kind + "s"
            raise RegistryError(f"unknown {kind} {name!r}; known {kinds}: {known}") from None

    def names(self) -> tuple[str, ...]:
        """The registered names, sorted."""
        return tuple(sorted(self._entries))

    def items(self) -> list[tuple[str, Any]]:
        """(name, entry) pairs, sorted by name."""
        return [(name, self._entries[name]) for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)
