"""Exact linear algebra over the coefficient field (no floats, no pivot scaling).

Used for ranks of scalar matrices (corank, conormal independence), and for the
sparse jet-level systems of the local-algebra and ramification modules, built
by `jet_rows`.  Rows are dicts keyed by integer column indices; column order
is the integer order, which callers fix deterministically, so elimination and
the extracted solutions are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .poly import Exponents, Poly
from .scalars import Scalar

# one unknown: a monomial shift and the tuple of polynomials it multiplies
Unknown = tuple[Exponents, tuple[Poly, ...]]


class SparseSolver:
    """Incremental row echelon over a field, with optional right-hand sides.

    Each inserted row is reduced against the stored pivot rows (pivot = its
    smallest column index); a row that vanishes against a nonzero right-hand
    side marks the system inconsistent.  A stored pivot row is scaled to
    leading coefficient 1 with one reciprocal and kept without that implied
    leading entry.  Entries and right-hand sides must be Fractions or
    ExtScalars: the reciprocal 1 / lead of a plain int would be a float.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[dict[int, Scalar], Scalar]] = {}
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: Mapping[int, Scalar], rhs: Scalar = Fraction(0)) -> None:
        work = {c: v for c, v in row.items() if v}
        while work:
            lead = min(work)
            pivot = self.pivots.get(lead)
            if pivot is None:
                inv = 1 / work.pop(lead)
                self.pivots[lead] = ({c: v * inv for c, v in work.items()}, rhs * inv)
                return
            prow, prhs = pivot
            factor = work.pop(lead)
            for c, v in prow.items():
                prev = work.get(c)
                nv = -(factor * v) if prev is None else prev - factor * v
                if nv:
                    work[c] = nv
                else:
                    del work[c]
            rhs = rhs - factor * prhs
        if rhs:
            self.inconsistent = True

    def solve(self) -> dict[int, Scalar]:
        """One solution with all free columns set to zero; {} maps to zero."""
        if self.inconsistent:
            raise ValueError("system is inconsistent")
        values: dict[int, Scalar] = {}
        for col in sorted(self.pivots, reverse=True):
            prow, acc = self.pivots[col]
            for c, v in prow.items():
                val = values.get(c)
                if val:
                    acc = acc - v * val
            if acc:
                values[col] = acc
        return values


def scalar_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    solver = SparseSolver()
    for row in rows:
        solver.add_row({j: v for j, v in enumerate(row)})
    return solver.rank


def jet_rows(k: int, unknowns: Sequence[Unknown]
             ) -> dict[tuple[int, Exponents], dict[int, Scalar]]:
    """The k-jet equations of sum_c u_c * x^(m_c) * v_c over unknown scalars u_c.

    Unknown c is the pair (m_c, v_c) of a shift and a tuple of polynomials;
    entry b of the sum is sum_c u_c * x^(m_c) * v_c[b].  The row of (b, mono)
    holds the coefficient of u_c at mono in entry b, for each c that reaches
    it; terms of degree above k are dropped.
    """
    rows: dict[tuple[int, Exponents], dict[int, Scalar]] = {}
    for c, (shift, polys) in enumerate(unknowns):
        room = k - sum(shift)
        for b, p in enumerate(polys):
            for term, coeff in p.terms.items():
                if sum(term) <= room:
                    mono = tuple(a + e for a, e in zip(shift, term))
                    rows.setdefault((b, mono), {})[c] = coeff
    return rows


def jet_solve(k: int, monos: Sequence[Exponents], rhs: Sequence[Poly],
              unknowns: Sequence[Unknown]) -> dict[int, Scalar] | None:
    """Solve jet_k(sum_c u_c * x^(m_c) * v_c) = rhs entrywise for the u_c.

    The equations enter in (entry, monomial) order, monomials in the order of
    `monos`; returns None at the first inconsistent one, else `solve()`.
    """
    rows = jet_rows(k, unknowns)
    solver = SparseSolver()
    for b, target in enumerate(rhs):
        for mono in monos:
            solver.add_row(rows.get((b, mono), {}), target.coefficient(mono))
            if solver.inconsistent:
                return None
    return solver.solve()
