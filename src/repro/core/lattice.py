"""The (x, l) lattice of Figure 1, as a graph and as printable artifacts.

Figure 1 of the paper depicts, for ``0 <= x <= n − 1`` and ``1 <= l <= n − 1``,
the sets of (x, l)-legal conditions and the inclusion arrows between them:

* vertical arrows  ``(x+1, l)  →  (x, l)``   (Theorems 4 and 5);
* horizontal arrows ``(x, l)   →  (x, l+1)`` (Theorems 6 and 7);
* the hatched region ``l > x`` where the class contains the condition made of
  all input vectors (Theorems 8 and 9) — the condition-based rephrasing of the
  impossibility of asynchronous l-set agreement with ``l <= x`` crashes;
* three distinguished lines: the *wait-free* line ``x = n − 1``, the
  *x-resilience* line (a generic horizontal line) and the *reliable* line
  ``x = 0``.

This module rebuilds that picture as a plain dict that maps each of its
``n(n − 1)`` :class:`~repro.core.hierarchy.LegalityClass` nodes to its cover
edges, and renders it as an ASCII matrix or a Graphviz DOT document (the
benchmark E2 prints both).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from .hierarchy import LegalityClass

__all__ = ["ConditionLattice", "LatticeCell"]


@dataclass(frozen=True)
class LatticeCell:
    """One cell of the rendered Figure 1 matrix."""

    legality_class: LegalityClass
    contains_all_vectors: bool
    on_wait_free_line: bool
    on_reliable_line: bool


class ConditionLattice:
    """The lattice of (x, l)-legality classes for an ``n``-process system.

    Parameters
    ----------
    n:
        The system size; the lattice covers ``0 <= x <= n − 1`` and
        ``1 <= l <= n − 1`` as in Figure 1.
    """

    def __init__(self, n: int) -> None:
        # A local check with require_int's wording: repro.core must not
        # import repro.api.
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidParameterError(f"n must be an integer, got {n!r}")
        if n < 2:
            raise InvalidParameterError(f"the lattice needs n >= 2 processes, got {n}")
        self._n = n
        self._edges = self._build_edges()

    @property
    def n(self) -> int:
        """The system size the lattice was built for."""
        return self._n

    @property
    def graph(self) -> dict[LegalityClass, tuple[LegalityClass, ...]]:
        """The DAG as cover edges: each class maps to the classes just above it."""
        return {
            node: tuple(target for target, _ in edges)
            for node, edges in self._edges.items()
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_edges(self) -> dict[LegalityClass, list[tuple[LegalityClass, str]]]:
        """Class -> its ``(target, kind)`` cover edges, in the order :meth:`to_dot` emits them."""
        edges: dict[LegalityClass, list[tuple[LegalityClass, str]]] = {
            LegalityClass(x, ell): [] for x in range(0, self._n) for ell in range(1, self._n)
        }
        for x in range(0, self._n):
            for ell in range(1, self._n):
                node = LegalityClass(x, ell)
                if x + 1 <= self._n - 1:
                    # Theorem 4: (x+1, l)-legal ⟹ (x, l)-legal.
                    edges[LegalityClass(x + 1, ell)].append((node, "relax_x"))
                if ell + 1 <= self._n - 1:
                    # Theorem 6: (x, l)-legal ⟹ (x, l+1)-legal.
                    edges[node].append((LegalityClass(x, ell + 1), "relax_ell"))
        return edges

    def _require(self, node: LegalityClass) -> None:
        if node not in self._edges:
            raise InvalidParameterError(
                f"class ({node.x}, {node.ell}) is outside the lattice for n={self._n}"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def classes(self) -> list[LegalityClass]:
        """All classes of the lattice, ordered by (x, l)."""
        return sorted(self._edges)

    def cell(self, x: int, ell: int) -> LatticeCell:
        """The rendered-cell description of class (x, l)."""
        node = LegalityClass(x, ell)
        self._require(node)
        return LatticeCell(
            legality_class=node,
            contains_all_vectors=node.contains_all_vectors_condition(),
            on_wait_free_line=(node.x == self._n - 1),
            on_reliable_line=(node.x == 0),
        )

    def includes(self, smaller: LegalityClass, larger: LegalityClass) -> bool:
        """Is every condition of *smaller* also in *larger*? (reachability check).

        A depth-first search along the cover edges.  The reachability answer
        coincides with the closed-form order of
        :meth:`LegalityClass.is_subclass_of`; the test suite asserts the
        equivalence, which validates that the cover edges generate the whole
        order of Figure 1.
        """
        self._require(smaller)
        self._require(larger)
        seen = {smaller}
        stack = [smaller]
        while stack:
            node = stack.pop()
            if node == larger:
                return True
            for target, _ in self._edges[node]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return False

    def chain_fixed_ell(self, ell: int) -> list[LegalityClass]:
        """The maximal chain with fixed ``l`` (decreasing difficulty ``x``)."""
        return [LegalityClass(x, ell) for x in range(self._n - 1, -1, -1)]

    def chain_fixed_x(self, x: int) -> list[LegalityClass]:
        """The maximal chain with fixed ``x`` (increasing ``l``)."""
        return [LegalityClass(x, ell) for ell in range(1, self._n)]

    def all_vectors_frontier(self) -> list[LegalityClass]:
        """The classes on the boundary ``l = x + 1`` (smallest l containing C_all)."""
        return [
            LegalityClass(x, x + 1)
            for x in range(0, self._n - 1)
            if x + 1 <= self._n - 1
        ]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def ascii_matrix(self) -> str:
        """Figure 1 as a text matrix.

        Rows are ``x`` from ``n − 1`` (top, wait-free line) down to ``0``
        (reliable line); columns are ``l`` from 1 to ``n − 1``.  A cell shows
        ``*`` when the class contains the all-vectors condition (``l > x``)
        and ``.`` otherwise.
        """
        header_cells = [f"l={ell}" for ell in range(1, self._n)]
        width = max(len(cell) for cell in header_cells) + 1
        lines = ["x\\l |" + "".join(cell.rjust(width) for cell in header_cells)]
        lines.append("-" * len(lines[0]))
        for x in range(self._n - 1, -1, -1):
            row = [f"{x:>3} |"]
            for ell in range(1, self._n):
                marker = "*" if ell > x else "."
                row.append(marker.rjust(width))
            suffix = ""
            if x == self._n - 1:
                suffix = "   <- wait-free line"
            elif x == 0:
                suffix = "   <- reliable line"
            lines.append("".join(row) + suffix)
        lines.append("")
        lines.append("* : the class contains the condition made of all input vectors (l > x)")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Figure 1 as a Graphviz DOT document (inclusion cover edges)."""
        lines = ["digraph condition_lattice {", "  rankdir=BT;"]
        for node in self.classes():
            attributes = []
            if node.contains_all_vectors_condition():
                attributes.append('style=filled, fillcolor="lightgrey"')
            label = node.label().replace('"', "'")
            attributes.append(f'label="{label}"')
            lines.append(f'  "{node.label()}" [{", ".join(attributes)}];')
        for source, edges in self._edges.items():
            for target, kind in edges:
                style = "solid" if kind == "relax_x" else "dashed"
                lines.append(f'  "{source.label()}" -> "{target.label()}" [style={style}];')
        lines.append("}")
        return "\n".join(lines)

    def inclusion_matrix(self) -> dict[tuple[LegalityClass, LegalityClass], bool]:
        """Pairwise inclusion table over every pair of classes (used by E2)."""
        classes = self.classes()
        return {
            (smaller, larger): self.includes(smaller, larger)
            for smaller in classes
            for larger in classes
        }
