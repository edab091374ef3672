"""Unit tests for input vectors, views, containment and distances (Section 2.1)."""

from __future__ import annotations

import pytest

from repro.core.values import BOTTOM
from repro.core.vectors import (
    InputVector,
    View,
    generalized_distance,
    hamming_distance,
    intersecting_entries,
    intersecting_values,
    normalise_proposals,
)
from repro.exceptions import InvalidParameterError, InvalidVectorError


class TestViewBasics:
    def test_entries_and_length(self):
        view = View([1, BOTTOM, 3])
        assert view.entries == (1, BOTTOM, 3)
        assert len(view) == 3
        assert view.n == 3
        assert view[0] == 1
        assert view[1] is BOTTOM
        assert list(view) == [1, BOTTOM, 3]

    def test_empty_view_rejected(self):
        with pytest.raises(InvalidVectorError):
            View([])

    def test_equality_and_hash(self):
        assert View([1, 2]) == View([1, 2])
        assert View([1, 2]) != View([2, 1])
        assert len({View([1, 2]), View([1, 2]), View([2, 1])}) == 2

    def test_val_and_counts(self):
        view = View([2, 2, BOTTOM, 5, 2])
        assert view.val() == frozenset({2, 5})
        assert view.distinct_value_count() == 2
        assert view.occurrences(2) == 3
        assert view.occurrences(5) == 1
        assert view.occurrences(7) == 0
        assert view.occurrences(BOTTOM) == 1
        assert view.bottom_count() == 1
        assert view.non_bottom_count() == 4
        assert view.occurrences_of_set({2, 5}) == 4
        assert view.occurrences_of_set({2, 7, BOTTOM}) == 3

    def test_positions(self):
        view = View([BOTTOM, 4, BOTTOM, 1])
        assert view.bottom_positions() == (0, 2)
        assert view.non_bottom_positions() == (1, 3)
        assert not view.is_full()
        assert View([1, 2]).is_full()

    def test_max_min_values(self):
        view = View([3, BOTTOM, 7, 1])
        assert view.max_value() == 7
        assert view.min_value() == 1
        with pytest.raises(InvalidVectorError):
            View([BOTTOM, BOTTOM]).max_value()
        with pytest.raises(InvalidVectorError):
            View([BOTTOM]).min_value()

    def test_greatest_and_smallest_values(self):
        view = View([5, 2, 5, 9, BOTTOM])
        assert view.greatest_values(2) == (9, 5)
        assert view.greatest_values(10) == (9, 5, 2)
        assert view.smallest_values(2) == (2, 5)
        with pytest.raises(InvalidVectorError):
            view.greatest_values(-1)

    def test_repr_mentions_bottom(self):
        assert "⊥" in repr(View([1, BOTTOM]))


class TestContainment:
    def test_basic_containment(self):
        small = View([1, BOTTOM, 3])
        big = View([1, 2, 3])
        assert small.contained_in(big)
        assert small <= big
        assert big >= small
        assert small < big
        assert not big.contained_in(small)

    def test_containment_requires_equal_known_entries(self):
        assert not View([1, BOTTOM]).contained_in(View([2, 2]))

    def test_containment_is_reflexive(self):
        view = View([1, BOTTOM, 2])
        assert view <= view
        assert not view < view

    def test_different_sizes_never_contained(self):
        assert not View([1]).contained_in(View([1, 2]))

    def test_containment_type_error(self):
        with pytest.raises(InvalidVectorError):
            View([1]).contained_in([1])


class TestDerivations:
    def test_restrict(self):
        vector = InputVector([4, 5, 6, 7])
        view = vector.restrict([0, 2])
        assert view.entries == (4, BOTTOM, 6, BOTTOM)
        assert view.contained_in(vector)

    def test_with_entry(self):
        view = View([1, 2, 3])
        assert view.with_entry(1, BOTTOM).entries == (1, BOTTOM, 3)
        with pytest.raises(InvalidVectorError):
            view.with_entry(5, 0)

    def test_fill_bottoms(self):
        view = View([1, BOTTOM, 3, BOTTOM])
        filled = view.fill_bottoms(9)
        assert isinstance(filled, InputVector)
        assert filled.entries == (1, 9, 3, 9)

    def test_completions_enumeration(self):
        view = View([1, BOTTOM, BOTTOM])
        completions = set(view.completions([1, 2]))
        assert len(completions) == 4
        assert all(view.contained_in(c) for c in completions)
        assert InputVector([1, 2, 1]) in completions

    def test_completions_of_full_view(self):
        view = View([1, 2])
        assert list(view.completions([5, 6])) == [InputVector([1, 2])]

    def test_as_input_vector(self):
        assert View([1, 2]).as_input_vector() == InputVector([1, 2])
        with pytest.raises(InvalidVectorError):
            View([1, BOTTOM]).as_input_vector()


class TestInputVector:
    def test_rejects_bottom(self):
        with pytest.raises(InvalidVectorError):
            InputVector([1, BOTTOM])

    def test_view_of(self):
        vector = InputVector(["a", "b", "c"])
        assert vector.view_of([1]).entries == (BOTTOM, "b", BOTTOM)

    def test_value_multiset(self):
        vector = InputVector([2, 2, 3])
        assert vector.value_multiset() == {2: 2, 3: 1}


class TestNormaliseProposals:
    def test_every_form_gives_the_same_vector(self):
        vector = InputVector(["a", "b", "c"])
        assert normalise_proposals(vector, 3) is vector
        assert normalise_proposals(["a", "b", "c"], 3) == vector
        assert normalise_proposals(("a", "b", "c"), 3) == vector
        assert normalise_proposals(iter("abc"), 3) == vector
        assert normalise_proposals({2: "c", 0: "a", 1: "b"}, 3) == vector

    def test_a_missing_process_is_named(self):
        with pytest.raises(InvalidParameterError, match=r"^no proposal for process 1$"):
            normalise_proposals({0: "a", 2: "c"}, 3)

    def test_a_wrong_count_is_refused(self):
        with pytest.raises(InvalidParameterError, match=r"^expected 3 proposals, got 2$"):
            normalise_proposals(["a", "b"], 3)
        with pytest.raises(InvalidParameterError, match=r"^expected 3 proposals, got 4$"):
            normalise_proposals(InputVector(["a", "b", "c", "d"]), 3)


class TestDistances:
    def test_hamming_distance(self):
        assert hamming_distance(View([1, 2, 3]), View([1, 5, 3])) == 1
        assert hamming_distance(View([1, 2]), View([1, 2])) == 0
        assert hamming_distance(View([1, BOTTOM]), View([1, 2])) == 1
        with pytest.raises(InvalidVectorError):
            hamming_distance(View([1]), View([1, 2]))

    def test_generalized_distance_reduces_to_hamming_on_two_vectors(self):
        first, second = View([1, 2, 3, 4]), View([1, 9, 3, 8])
        assert generalized_distance([first, second]) == hamming_distance(first, second)

    def test_generalized_distance_paper_example(self):
        # d_G([a,a,e,b,b], [a,a,e,c,c], [a,f,e,b,c]) = 3 (Section 2.1).
        vectors = [
            InputVector(["a", "a", "e", "b", "b"]),
            InputVector(["a", "a", "e", "c", "c"]),
            InputVector(["a", "f", "e", "b", "c"]),
        ]
        assert generalized_distance(vectors) == 3

    def test_generalized_distance_errors(self):
        with pytest.raises(InvalidVectorError):
            generalized_distance([])
        with pytest.raises(InvalidVectorError):
            generalized_distance([View([1]), View([1, 2])])

    def test_intersecting_entries_and_values(self):
        vectors = [
            InputVector(["a", "a", "e", "b", "b"]),
            InputVector(["a", "a", "e", "c", "c"]),
            InputVector(["a", "f", "e", "b", "c"]),
        ]
        entries = intersecting_entries(vectors)
        assert entries == ((0, "a"), (2, "e"))
        assert intersecting_values(vectors) == ("a", "e")
        # |intersecting vector| = n − d_G.
        assert len(entries) == 5 - generalized_distance(vectors)

    def test_intersection_of_single_vector_is_itself(self):
        vector = InputVector([1, 2, 3])
        assert intersecting_values([vector]) == (1, 2, 3)
