"""Exact linear algebra over the coefficient field (no floats, no pivot scaling).

Used for ranks of scalar matrices (corank, conormal independence), and for the
sparse jet-level systems in the local-algebra and ramification modules.  Rows
are dicts keyed by integer column indices; column order is the integer order,
which callers fix deterministically, so elimination and the extracted
solutions are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .scalars import Scalar


class SparseSolver:
    """Incremental row echelon over a field, with optional right-hand sides.

    Each inserted row is reduced against the stored pivot rows (pivot = its
    smallest column index); a row that vanishes against a nonzero right-hand
    side marks the system inconsistent.  Stored pivot rows are normalized to
    leading coefficient 1.
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
                lead_coeff = work.pop(lead)
                one = lead_coeff / lead_coeff  # 1 in whatever field the row lives in
                normalized = {lead: one}
                for c, v in work.items():
                    normalized[c] = v / lead_coeff
                self.pivots[lead] = (normalized, rhs / lead_coeff)
                return
            prow, prhs = pivot
            factor = work.pop(lead)
            for c, v in prow.items():
                if c == lead:
                    continue
                nv = work.get(c, Fraction(0)) - factor * v
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
            rhs = rhs - factor * prhs
        if rhs:
            self.inconsistent = True

    def solve(self) -> dict[int, Scalar]:
        """One solution with all free columns set to zero; {} maps to zero."""
        if self.inconsistent:
            raise ValueError("system is inconsistent")
        values: dict[int, Scalar] = {}
        for col in sorted(self.pivots, reverse=True):
            prow, prhs = self.pivots[col]
            acc = prhs
            for c, v in prow.items():
                if c == col:
                    continue
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


def scalar_det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a small square scalar matrix by exact elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    m = [list(r) for r in rows]
    det: Scalar = Fraction(1)
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if m[r][col]), None
        )
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det = det * m[col][col]
        inv = Fraction(1) / m[col][col] if isinstance(m[col][col], Fraction) else m[col][col] ** -1
        for r in range(col + 1, n):
            if not m[r][col]:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det
