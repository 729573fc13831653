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
