"""Exact linear algebra over the coefficient field, with no floats.

Used for ranks of scalar matrices (corank, conormal independence, inverses in
Q(6^(1/k))), and for the sparse jet-level systems of the local-algebra and
ramification modules, built by `jet_rows`.  Rows are dicts keyed by integer
column indices; column order is the integer order, which callers fix
deterministically, so elimination and the extracted solutions are
reproducible.  Rational rows are eliminated over the integers, and Fractions
appear only in the values of `SparseSolver.solve()`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .poly import FIELD_BITS, Exponents, Poly, _packed_terms, _unpacker, _weights
from .scalars import ExtScalar, Scalar

# one unknown: a monomial shift and the tuple of polynomials it multiplies
Unknown = tuple[Exponents, tuple[Poly, ...]]

_ONE = Fraction(1)
_ZERO = Fraction(0)


class SparseSolver:
    """Incremental row echelon over the scalars, with optional right-hand sides.

    Each inserted row is reduced against the stored pivot rows (pivot = its
    smallest column index); a row that vanishes against a nonzero right-hand
    side marks the system inconsistent.  Entries and right-hand sides are
    ints, Fractions or ExtScalars; a float raises TypeError.

    Rational rows are eliminated fraction-free.  A row whose entries and
    right-hand side are all ints or Fractions is scaled to integers by the
    lcm of its denominators.  It is stored primitive (the gcd of its entries
    and right-hand side divided out) with its positive leading entry p, and
    a row with entry a in the pivot column is reduced to p*row - a*pivot.  A
    row holding an ExtScalar, or reduced by a pivot that does, is stored
    with leading entry 1 by one reciprocal (lead None).  Scaling a row never
    moves its smallest column, so the pivot set and the values of `solve()`
    are those of plain Gaussian elimination.
    """

    def __init__(self) -> None:
        # pivot column -> (the row without its leading entry, rhs, integer
        # leading entry, or None for a row scaled to leading entry 1)
        self.pivots: dict[int, tuple[dict[int, Scalar], Scalar, int | None]] = {}
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: Mapping[int, Scalar], rhs: Scalar = 0) -> None:
        work = {c: v for c, v in row.items() if v}
        kinds = set(map(type, work.values()))
        kinds.add(type(rhs))
        exact = kinds <= _RATIONAL
        if exact:
            work, rhs = _scaled_to_integers(work, rhs)
        elif not kinds <= _SCALARS:
            bad = ", ".join(sorted(k.__name__ for k in kinds - _SCALARS))
            raise TypeError(f"SparseSolver takes ints, Fractions and ExtScalars, not {bad}")
        while work:
            lead = min(work)
            pivot = self.pivots.get(lead)
            if pivot is None:
                self.pivots[lead] = (_primitive if exact else _normalised)(lead, work, rhs)
                return
            prow, prhs, p = pivot
            factor = work.pop(lead)
            if p is None:
                exact = False
            elif p != 1:
                for c in work:
                    work[c] *= p
                rhs = p * rhs
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
        """One solution with all free columns set to zero; {} maps to zero.
        Rational values are Fractions."""
        if self.inconsistent:
            raise ValueError("system is inconsistent")
        values: dict[int, Scalar] = {}
        for col in sorted(self.pivots, reverse=True):
            prow, acc, lead = self.pivots[col]
            for c, v in prow.items():
                val = values.get(c)
                if val:
                    acc = acc - v * val
            if acc:
                if lead is not None:
                    acc = Fraction(acc, lead) if type(acc) is int else acc / lead
                values[col] = acc
        return values


_RATIONAL = frozenset((int, Fraction))
_SCALARS = frozenset((int, Fraction, ExtScalar))


def _scaled_to_integers(work: dict[int, Fraction | int], rhs: Fraction | int
                        ) -> tuple[dict[int, int], int]:
    """A rational row and its rhs times the lcm of their denominators."""
    nums: dict[int, int] = {}
    den = 1
    for c, v in work.items():
        nums[c], d = v.as_integer_ratio()
        if d != 1:
            den = math.lcm(den, d)
    n, d = rhs.as_integer_ratio()
    den = math.lcm(den, d)
    if den == 1:
        return nums, n
    return ({c: v.numerator * (den // v.denominator) for c, v in work.items()},
            n * (den // d))


def _primitive(lead: int, work: dict[int, int], rhs: int) -> tuple[dict[int, int], int, int]:
    """The stored form of an integer row: primitive, with a positive lead."""
    g = math.gcd(rhs, *work.values())
    if work[lead] < 0:
        g = -g
    if g != 1:
        work = {c: v // g for c, v in work.items()}
        rhs //= g
    return work, rhs, work.pop(lead)


def _normalised(lead: int, work: dict[int, Scalar], rhs: Scalar
                ) -> tuple[dict[int, Scalar], Scalar, None]:
    """The stored form of a row over the scalars: scaled to leading entry 1."""
    inv = _ONE / work.pop(lead)
    return {c: v * inv for c, v in work.items()}, rhs * inv, None


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
    it; terms of degree above k are dropped.  The order k must be below
    2**FIELD_BITS.
    """
    rows = _packed_rows(k, unknowns)
    unpack = _unpacker(len(unknowns[0][0])) if unknowns else None
    return {(b, unpack(key)): row for (b, key), row in rows.items()}


def _packed_rows(k: int, unknowns: Sequence[Unknown]
                 ) -> dict[tuple[int, int], dict[int, Scalar]]:
    """The rows of `jet_rows`, in the same order, keyed by the entry and the
    packed monomial (see `frontals.poly`).  Every monomial of degree <= k
    has an exact key."""
    if k >= 1 << FIELD_BITS:
        raise ValueError(f"jet order {k} is not below 2**{FIELD_BITS}")
    rows: dict[tuple[int, int], dict[int, Scalar]] = {}
    if not unknowns:
        return rows
    n = len(unknowns[0][0])
    weights, dshift = _weights(n), n * FIELD_BITS
    # each polynomial's terms once, by ascending degree (stable), keyed by id:
    # the unknowns keep every polynomial alive for the whole call
    by_degree: dict[int, list[tuple[int, int, Scalar]]] = {}
    for c, (shift, polys) in enumerate(unknowns):
        # the degree field of a shift's key is at least its degree
        at = sum(map(mul, shift, weights))
        room = k - (at >> dshift)
        if room < 0:
            continue
        for b, p in enumerate(polys):
            terms = by_degree.get(id(p))
            if terms is None:
                terms = by_degree[id(p)] = sorted(
                    ((key >> dshift, key, coeff) for key, coeff in _packed_terms(p).items()),
                    key=itemgetter(0))
            for degree, key, coeff in terms:
                if degree > room:
                    break
                rows.setdefault((b, at + key), {})[c] = coeff
    return rows


def jet_solve(k: int, monos: Sequence[Exponents], rhs: Sequence[Poly],
              unknowns: Sequence[Unknown]) -> dict[int, Scalar] | None:
    """Solve jet_k(sum_c u_c * x^(m_c) * v_c) = rhs entrywise for the u_c.

    The equations enter in (entry, monomial) order, monomials in the order of
    `monos`; returns None at the first inconsistent one, else `solve()`.
    Like k, every monomial must have a degree below 2**FIELD_BITS.
    """
    rows = _packed_rows(k, unknowns)
    n = len(monos[0]) if monos else 0
    weights = _weights(n)
    keys = [sum(map(mul, mono, weights)) for mono in monos]
    if keys and max(keys) >> (n + 1) * FIELD_BITS:
        raise ValueError(f"a monomial is not of degree below 2**{FIELD_BITS}")
    solver = SparseSolver()
    for b, target in enumerate(rhs):
        coeffs = _packed_terms(target)
        for key in keys:
            solver.add_row(rows.get((b, key), {}), coeffs.get(key, _ZERO))
            if solver.inconsistent:
                return None
    return solver.solve()
