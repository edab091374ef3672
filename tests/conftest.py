"""Shared fixtures for the test suite."""

from __future__ import annotations

from random import Random

import pytest

from repro.api.conditions import CONDITIONS
from repro.api.registry import ALGORITHMS, SCHEDULES
from repro.check import (
    MUTANT_ECHOLESS_FLOODMIN,
    MUTANT_HASTY_ASYNC,
    MUTANT_HASTY_FLOODMIN,
    MUTANT_SILENT_FLOODMIN,
)
from repro.core import InputVector, MaxLegalCondition, MaxValues, table1_condition

#: The registries every test shares through the process.
_REGISTRIES = (ALGORITHMS, SCHEDULES, CONDITIONS)
#: What register_mutants() adds; it is idempotent, so its keys may stay.
_MUTANT_KEYS = frozenset(
    {MUTANT_HASTY_FLOODMIN, MUTANT_ECHOLESS_FLOODMIN, MUTANT_SILENT_FLOODMIN, MUTANT_HASTY_ASYNC}
)


@pytest.fixture(autouse=True)
def no_registry_leaks():
    """Fail a test that leaves a key behind in a shared registry: a later
    test that walks the registry would run it.  Register a test-only entry
    with ``monkeypatch.setitem(REGISTRY._entries, key, entry)``."""
    before = [set(registry._entries) for registry in _REGISTRIES]
    yield
    leaked = sorted(
        f"{registry.kind} {key!r}"
        for registry, keys in zip(_REGISTRIES, before)
        for key in set(registry._entries) - keys - _MUTANT_KEYS
    )
    if leaked:
        pytest.fail(f"the test left registry keys behind: {', '.join(leaked)}")


@pytest.fixture
def rng() -> Random:
    """A deterministic random generator (one per test)."""
    return Random(0xC0FFEE)


@pytest.fixture
def table1():
    """The Table 1 condition and its recognizing function."""
    return table1_condition()


@pytest.fixture
def small_max_condition() -> MaxLegalCondition:
    """A small max_1 condition usable both implicitly and explicitly."""
    return MaxLegalCondition(n=4, domain=3, x=2, ell=1)


@pytest.fixture
def small_max2_condition() -> MaxLegalCondition:
    """A small max_2 condition usable both implicitly and explicitly."""
    return MaxLegalCondition(n=5, domain=3, x=3, ell=2)


@pytest.fixture
def sample_vector() -> InputVector:
    """A vector belonging to the ``small_max_condition`` fixture."""
    return InputVector([3, 3, 3, 1])


@pytest.fixture
def max1() -> MaxValues:
    return MaxValues(1)


@pytest.fixture
def max2() -> MaxValues:
    return MaxValues(2)
