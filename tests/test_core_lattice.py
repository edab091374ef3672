"""Unit tests for the Figure 1 lattice object."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import LegalityClass
from repro.core.lattice import ConditionLattice
from repro.exceptions import InvalidParameterError


class TestConstruction:
    def test_node_count(self):
        lattice = ConditionLattice(5)
        # x in [0, 4], l in [1, 4] → 5 * 4 nodes.
        assert len(lattice.classes()) == 20
        assert lattice.n == 5

    def test_needs_at_least_two_processes(self):
        with pytest.raises(InvalidParameterError):
            ConditionLattice(1)

    @pytest.mark.parametrize("n", [2.5, "3", None, True])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            ConditionLattice(n)

    def test_graph_maps_each_class_to_its_cover_targets(self):
        C = LegalityClass
        assert ConditionLattice(3).graph == {
            C(0, 1): (C(0, 2),),
            C(0, 2): (),
            C(1, 1): (C(0, 1), C(1, 2)),
            C(1, 2): (C(0, 2),),
            C(2, 1): (C(1, 1), C(2, 2)),
            C(2, 2): (C(1, 2),),
        }

    def test_cell_metadata(self):
        lattice = ConditionLattice(4)
        cell = lattice.cell(3, 1)
        assert cell.on_wait_free_line
        assert not cell.on_reliable_line
        assert not cell.contains_all_vectors
        cell0 = lattice.cell(0, 1)
        assert cell0.on_reliable_line
        assert cell0.contains_all_vectors
        with pytest.raises(InvalidParameterError):
            lattice.cell(9, 1)


class TestOrder:
    def test_reachability_matches_closed_form(self):
        lattice = ConditionLattice(5)
        for smaller in lattice.classes():
            for larger in lattice.classes():
                assert lattice.includes(smaller, larger) == smaller.is_subclass_of(larger)

    def test_classes_outside_the_lattice_are_refused(self):
        lattice = ConditionLattice(3)
        with pytest.raises(InvalidParameterError):
            lattice.includes(LegalityClass(5, 1), LegalityClass(0, 1))
        with pytest.raises(InvalidParameterError):
            lattice.includes(LegalityClass(0, 1), LegalityClass(0, 5))

    def test_chains(self):
        lattice = ConditionLattice(4)
        fixed_ell = lattice.chain_fixed_ell(2)
        assert [cls.x for cls in fixed_ell] == [3, 2, 1, 0]
        assert all(
            fixed_ell[i].is_subclass_of(fixed_ell[i + 1])
            for i in range(len(fixed_ell) - 1)
        )
        fixed_x = lattice.chain_fixed_x(2)
        assert [cls.ell for cls in fixed_x] == [1, 2, 3]

    def test_frontier(self):
        lattice = ConditionLattice(5)
        frontier = lattice.all_vectors_frontier()
        assert LegalityClass(0, 1) in frontier
        assert all(cls.ell == cls.x + 1 for cls in frontier)
        assert all(cls.contains_all_vectors_condition() for cls in frontier)

    def test_inclusion_matrix(self):
        lattice = ConditionLattice(3)
        matrix = lattice.inclusion_matrix()
        assert matrix[(LegalityClass(2, 1), LegalityClass(0, 2))] is True
        assert matrix[(LegalityClass(0, 2), LegalityClass(2, 1))] is False


class TestRendering:
    def test_ascii_matrix_shape(self):
        lattice = ConditionLattice(4)
        text = lattice.ascii_matrix()
        assert "wait-free line" in text
        assert "reliable line" in text
        # One header line, one separator, n rows, blank, legend.
        assert len(text.splitlines()) == 2 + 4 + 2

    def test_dot_output(self):
        lattice = ConditionLattice(3)
        dot = lattice.to_dot()
        assert dot.startswith("digraph")
        assert '"[0,1]"' in dot
        assert "->" in dot
        assert dot.rstrip().endswith("}")
