"""Result fields computed on first read.

A reference runtime returns one result per execution, and most results are
read for a few fields only: an exhaustive check that passes never looks at
an execution's fingerprint.  :class:`DeferredField` lets a result class
keep such a field a plain dataclass field (in ``__init__``, equality,
``repr`` and records) while its producer leaves the value to be computed
when somebody reads it.

The producer stores :func:`deferred` data in place of the value.  It must
be plain data, never a closure: :mod:`repro.parallel` pickles results, and
a result travels with its pending data and computes the same value on the
other side.
"""

from __future__ import annotations

from typing import Any

__all__ = ["DeferredField", "deferred"]


class _Pending:
    """What a result holds in place of a field value not computed yet."""

    __slots__ = ("data",)

    def __init__(self, data: Any) -> None:
        self.data = data

    def __reduce__(self):
        # Slots alone pickle only from protocol 2 on.
        return (_Pending, (self.data,))


def deferred(data: Any = None) -> _Pending:
    """A field value to compute on first read from *data* (plain data)."""
    return _Pending(data)


class DeferredField:
    """A dataclass field whose value may be computed on first read.

    Given as the field's default (``fingerprint: str = DeferredField("")``),
    it makes *default* the field's default, and the constructor stores a
    given value as it is.  A value made by :func:`deferred` is computed on
    the first read, by the owner's ``_compute_<name>(data)``, and kept.
    """

    def __init__(self, default: Any) -> None:
        self._default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = f"_{name}"
        self._compute = f"_compute_{name}"

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self._default
        value = getattr(instance, self._slot)
        if type(value) is _Pending:
            value = getattr(instance, self._compute)(value.data)
            setattr(instance, self._slot, value)
        return value

    def __set__(self, instance: Any, value: Any) -> None:
        setattr(instance, self._slot, value)
