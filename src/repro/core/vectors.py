"""Input vectors and views (Section 2.1 of the paper).

An *input vector* ``I`` has one entry per process; entry ``i`` carries the
value proposed by process ``p_i``.  A *view* ``J`` is a vector in which some
entries may be the bottom placeholder ``⊥`` — operationally, the entries of
the processes from which nothing was received.

The module implements the whole vocabulary of Section 2.1:

* ``val(I)`` — the set of values present in a vector;
* ``#_a(J)`` — the number of occurrences of a value;
* containment ``J1 ≤ J2`` (every non-⊥ entry of ``J1`` equals the
  corresponding entry of ``J2``);
* the Hamming distance ``d_H`` and the *generalized distance* ``d_G`` of a set
  of vectors (number of entries on which at least two of them differ);
* the *intersecting vector* (the entries on which all vectors agree).

Both classes are immutable and hashable so they can be stored in conditions
(sets of vectors), used as dictionary keys in execution traces, and shared
freely between processes of the simulator without defensive copies.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from ..exceptions import InvalidParameterError, InvalidVectorError
from .values import BOTTOM, is_bottom

__all__ = [
    "View",
    "InputVector",
    "normalise_proposals",
    "hamming_distance",
    "generalized_distance",
    "intersecting_entries",
    "intersecting_values",
]


class View:
    """A vector of proposed values in which some entries may be ``⊥``.

    Parameters
    ----------
    entries:
        The entries of the view, in process order (entry ``i`` belongs to
        process ``p_{i+1}`` — the library uses 0-based indices while the paper
        uses 1-based subscripts).

    Notes
    -----
    A view is immutable.  All derived quantities that are frequently used by
    the algorithms (the value set, the number of ⊥ entries, the occurrence
    counts) are computed lazily and cached.
    """

    __slots__ = ("_entries", "_val", "_counts", "_hash")

    def __init__(self, entries: Iterable[Any]) -> None:
        entries = tuple(entries)
        if not entries:
            raise InvalidVectorError("a view must have at least one entry")
        self._entries: tuple[Any, ...] = entries
        self._val: frozenset[Any] | None = None
        self._counts: dict[Any, int] | None = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    @property
    def entries(self) -> tuple[Any, ...]:
        """The raw entries of the view as a tuple."""
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> Any:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, View):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._entries)
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join("⊥" if is_bottom(e) else repr(e) for e in self._entries)
        return f"{type(self).__name__}([{body}])"

    # ------------------------------------------------------------------
    # Section 2.1 vocabulary
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """The size ``|J|`` of the view (number of processes)."""
        return len(self._entries)

    def val(self) -> frozenset[Any]:
        """``val(J)``: the set of non-⊥ values present in the view."""
        if self._val is None:
            self._val = frozenset(e for e in self._entries if not is_bottom(e))
        return self._val

    def distinct_value_count(self) -> int:
        """``|val(J)|``: the number of distinct non-⊥ values."""
        return len(self.val())

    def _occurrence_counts(self) -> dict[Any, int]:
        if self._counts is None:
            counts: dict[Any, int] = {}
            for entry in self._entries:
                counts[entry] = counts.get(entry, 0) + 1
            self._counts = counts
        return self._counts

    def occurrences(self, value: Any) -> int:
        """``#_a(J)``: the number of entries equal to *value* (``⊥`` allowed)."""
        if is_bottom(value):
            return self._occurrence_counts().get(BOTTOM, 0)
        return self._occurrence_counts().get(value, 0)

    def occurrences_of_set(self, values: Iterable[Any]) -> int:
        """Total number of entries carrying a value of *values*.

        This is the quantity ``#_{v ∈ S}(J)`` used by the density and distance
        properties of Definition 2.
        """
        counts = self._occurrence_counts()
        return sum(counts.get(v, 0) for v in set(values) if not is_bottom(v))

    def bottom_count(self) -> int:
        """``#_⊥(J)``: the number of ⊥ entries of the view."""
        return self.occurrences(BOTTOM)

    def non_bottom_count(self) -> int:
        """The number of entries carrying a proposed value."""
        return self.n - self.bottom_count()

    def is_full(self) -> bool:
        """``True`` iff the view has no ⊥ entry (it is then an input vector)."""
        return self.bottom_count() == 0

    def bottom_positions(self) -> tuple[int, ...]:
        """Indices of the ⊥ entries (0-based)."""
        return tuple(i for i, e in enumerate(self._entries) if is_bottom(e))

    def non_bottom_positions(self) -> tuple[int, ...]:
        """Indices of the non-⊥ entries (0-based)."""
        return tuple(i for i, e in enumerate(self._entries) if not is_bottom(e))

    def max_value(self) -> Any:
        """``max(J)``: the greatest non-⊥ value of the view.

        Raises :class:`InvalidVectorError` on an all-⊥ view (the algorithms
        never query the maximum of such a view: a process always knows at
        least its own proposal).
        """
        values = self.val()
        if not values:
            raise InvalidVectorError("max() of a view with no proposed value")
        return max(values)

    def min_value(self) -> Any:
        """``min(J)``: the smallest non-⊥ value of the view."""
        values = self.val()
        if not values:
            raise InvalidVectorError("min() of a view with no proposed value")
        return min(values)

    def greatest_values(self, count: int) -> tuple[Any, ...]:
        """The ``min(count, |val(J)|)`` greatest distinct values, descending."""
        if count < 0:
            raise InvalidVectorError(f"cannot take {count} greatest values")
        ordered = sorted(self.val(), reverse=True)
        return tuple(ordered[:count])

    def smallest_values(self, count: int) -> tuple[Any, ...]:
        """The ``min(count, |val(J)|)`` smallest distinct values, ascending."""
        if count < 0:
            raise InvalidVectorError(f"cannot take {count} smallest values")
        ordered = sorted(self.val())
        return tuple(ordered[:count])

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def contained_in(self, other: "View") -> bool:
        """Containment ``self ≤ other``.

        ``J ≤ J'`` holds when every non-⊥ entry of ``J`` is equal to the
        corresponding entry of ``J'`` (Section 2.1).  Views of different sizes
        are never comparable.
        """
        if not isinstance(other, View):
            raise InvalidVectorError(f"cannot compare a view with {type(other).__name__}")
        if len(self) != len(other):
            return False
        for mine, theirs in zip(self._entries, other._entries):
            if is_bottom(mine):
                continue
            if mine != theirs:
                return False
        return True

    def __le__(self, other: "View") -> bool:
        return self.contained_in(other)

    def __ge__(self, other: "View") -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return other.contained_in(self)

    def __lt__(self, other: "View") -> bool:
        return self.contained_in(other) and self._entries != other.entries

    def __gt__(self, other: "View") -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return other.contained_in(self) and self._entries != other.entries

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def restrict(self, visible_positions: Iterable[int]) -> "View":
        """Return the view keeping only *visible_positions*, others set to ⊥.

        This is how the simulator builds the local view of a process from the
        set of processes it received a round-1 message from.
        """
        visible = set(visible_positions)
        return View(
            entry if index in visible else BOTTOM
            for index, entry in enumerate(self._entries)
        )

    def with_entry(self, index: int, value: Any) -> "View":
        """Return a copy of the view with entry *index* replaced by *value*."""
        if not 0 <= index < len(self._entries):
            raise InvalidVectorError(
                f"index {index} out of range for a view of size {len(self._entries)}"
            )
        entries = list(self._entries)
        entries[index] = value
        return View(entries)

    def fill_bottoms(self, value: Any) -> "InputVector":
        """Return the input vector obtained by replacing every ⊥ with *value*."""
        return InputVector(value if is_bottom(e) else e for e in self._entries)

    def completions(self, domain: Iterable[Any]) -> Iterator["InputVector"]:
        """Yield every input vector ``I`` with ``self ≤ I`` over *domain*.

        The enumeration is exhaustive (``|domain| ** bottom_count`` vectors);
        it is meant for tests and for small exact computations, not for the
        large-system simulation path.
        """
        domain_values = tuple(domain)
        positions = self.bottom_positions()
        if not positions:
            yield InputVector(self._entries)
            return

        def recurse(index: int, current: list[Any]) -> Iterator[InputVector]:
            if index == len(positions):
                yield InputVector(current)
                return
            for value in domain_values:
                current[positions[index]] = value
                yield from recurse(index + 1, current)

        yield from recurse(0, list(self._entries))

    def as_input_vector(self) -> "InputVector":
        """Convert a full view into an :class:`InputVector`.

        Raises :class:`InvalidVectorError` when the view still has ⊥ entries.
        """
        if not self.is_full():
            raise InvalidVectorError(
                "cannot convert a view with ⊥ entries into an input vector"
            )
        return InputVector(self._entries)


class InputVector(View):
    """A complete input vector: one proposed value per process, no ⊥ entry.

    Input vectors are the elements of conditions.  They support everything a
    :class:`View` does, plus a few helpers specific to full vectors.
    """

    __slots__ = ()

    def __init__(self, entries: Iterable[Any]) -> None:
        super().__init__(entries)
        if any(is_bottom(entry) for entry in self._entries):
            raise InvalidVectorError(
                "an input vector cannot contain the ⊥ placeholder; use View instead"
            )

    def view_of(self, visible_positions: Iterable[int]) -> View:
        """The view of this vector seen by a process that heard *visible_positions*."""
        return self.restrict(visible_positions)

    def value_multiset(self) -> dict[Any, int]:
        """Mapping value -> number of occurrences, for every value of the vector."""
        return dict(self._occurrence_counts())


def normalise_proposals(
    proposals: InputVector | Mapping[int, Any] | Iterable[Any], n: int
) -> InputVector:
    """*proposals* as the input vector of an ``n``-process run.

    *proposals* may be an :class:`InputVector` (returned as is), a mapping
    process id -> value or an iterable of values in process order; a missing
    process or a length other than *n* raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    if isinstance(proposals, InputVector):
        vector = proposals
    elif isinstance(proposals, Mapping):
        try:
            vector = InputVector(proposals[pid] for pid in range(n))
        except KeyError as missing:
            raise InvalidParameterError(
                f"no proposal for process {missing.args[0]}"
            ) from None
    else:
        vector = InputVector(proposals)
    if len(vector) != n:
        raise InvalidParameterError(f"expected {n} proposals, got {len(vector)}")
    return vector


# ----------------------------------------------------------------------
# Distances (Section 2.1)
# ----------------------------------------------------------------------
def hamming_distance(first: View, second: View) -> int:
    """``d_H(J1, J2)``: number of entries on which the two views differ."""
    if len(first) != len(second):
        raise InvalidVectorError(
            f"Hamming distance of views of different sizes ({len(first)} vs {len(second)})"
        )
    return sum(1 for a, b in zip(first, second) if a != b)


def generalized_distance(vectors: Sequence[View]) -> int:
    """``d_G(J1, ..., Jz)``: entries on which at least two of the views differ.

    For two views this is exactly the Hamming distance.  The paper's example::

        d_G([a,a,e,b,b], [a,a,e,c,c], [a,f,e,b,c]) = 3

    (entries 2, 4 and 5 — 1-based — are not unanimous).
    """
    vectors = list(vectors)
    if not vectors:
        raise InvalidVectorError("generalized distance of an empty set of vectors")
    size = len(vectors[0])
    if any(len(v) != size for v in vectors):
        raise InvalidVectorError("generalized distance of views of different sizes")
    differing = 0
    for position in range(size):
        first = vectors[0][position]
        if any(v[position] != first for v in vectors[1:]):
            differing += 1
    return differing


def intersecting_entries(vectors: Sequence[View]) -> tuple[tuple[int, Any], ...]:
    """The entries shared by all *vectors*: ``(position, value)`` pairs.

    This is the *intersecting vector* ``∩_{1..z} I_j`` of Section 2.1: the
    ``n − d_G(I_1, ..., I_z)`` entries on which every vector agrees, kept with
    their positions so occurrence counts can be computed on it.
    """
    vectors = list(vectors)
    if not vectors:
        raise InvalidVectorError("intersection of an empty set of vectors")
    size = len(vectors[0])
    if any(len(v) != size for v in vectors):
        raise InvalidVectorError("intersection of views of different sizes")
    shared: list[tuple[int, Any]] = []
    for position in range(size):
        first = vectors[0][position]
        if all(v[position] == first for v in vectors[1:]):
            shared.append((position, first))
    return tuple(shared)


def intersecting_values(vectors: Sequence[View]) -> tuple[Any, ...]:
    """The values (with multiplicity) of the intersecting vector of *vectors*."""
    return tuple(value for _, value in intersecting_entries(vectors))
