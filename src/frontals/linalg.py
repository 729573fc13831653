"""Exact linear algebra over the coefficient field, with no floats.

Used for ranks of scalar matrices (corank, conormal independence, inverses in
Q(6^(1/k))), and for the sparse jet-level systems of the local-algebra and
ramification modules, built by `jet_rows` and `jet_solve`.  Rows are dicts
keyed by integer column indices; column order is the integer order, which
callers fix deterministically, so elimination and the extracted solutions
are reproducible.  Rational rows are eliminated over the integers, and
Fractions appear only in the values of `SparseSolver.solve()`.

The jet systems are integer rows: a polynomial enters as the numerators of
its packed form (`frontals.poly`), an ExtScalar where a power of c is left,
and its column is scaled by a multiple of its denominator, which moves no
pivot and changes no rank.  `jet_solve` builds its system one degree at a
time.  Its unknowns arrive in nondecreasing order of a lower bound on the
degree of their terms, and each is placed when the equations reach its
bound: the equations of degree d involve only unknowns of bound <= d.  The
equations enter in the order of the whole order-k system, so a solve that
stops at an inconsistent equation of degree d makes the same solver calls
and proves the same: the equations entered are rows of the whole system,
which has no solution then.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Mapping, Sequence

from .poly import FIELD_BITS, Exponents, Poly, _by_monomial, _unpacker, _weights
from .scalars import ExtScalar, Scalar

# one unknown: a monomial shift and the tuple of polynomials it multiplies
Unknown = tuple[Exponents, tuple[Poly, ...]]
# one unknown of `jet_solve`: a bound on its degree, its column, then as above
Streamed = tuple[int, int, Exponents, tuple[Poly, ...]]
# the terms of one polynomial as (degree, packed key, numerator), by degree
Terms = list[tuple[int, int, Scalar]]

_ONE = Fraction(1)


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
        if exact and kinds != _INT:
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


_INT = frozenset((int,))
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
    """The k-jet equations of sum_c u_c * x^(m_c) * v_c over unknown scalars u_c,
    scaled to integers.

    Unknown c is the pair (m_c, v_c) of a shift and a tuple of polynomials;
    entry b of the sum is sum_c u_c * x^(m_c) * v_c[b].  The row of (b, mono)
    holds, for each c that reaches it, the coefficient of u_c at mono in
    entry b times L, the lcm of the denominators of all the polynomials: an
    int, or an ExtScalar with integer numerators where a power of c is left
    in it.  Terms
    of degree above k are dropped.  Every column is scaled by the same L,
    which is every row times L, so rows of several calls can share one
    solver, with the rank and pivots of the rational rows (`jet_solve`, one
    call per system, scales each column by its own lcm).  The order k must
    be below 2**FIELD_BITS.
    """
    n = len(unknowns[0][0]) if unknowns else 0
    builder = _RowBuilder(k, n)
    distinct = {id(polys): polys for _, polys in unknowns}
    scale = math.lcm(*(builder.column(polys)[2] for polys in distinct.values()))
    builder.place(((c, shift, polys) for c, (shift, polys) in enumerate(unknowns)), scale)
    unpack = _unpacker(n)
    return {(b, unpack(key)): row for (b, key), row in builder.rows.items()}


class _RowBuilder:
    """The rows of one jet system, keyed by the entry and the packed monomial
    (see `frontals.poly`), entered one unknown at a time.  Every monomial of
    degree <= k has an exact key.  The terms of a tuple of polynomials are
    worked out once and kept by the tuple's id, with the tuple, so that no id
    is reused while the builder exists: unknowns that share a tuple share
    the work."""

    def __init__(self, k: int, n: int) -> None:
        if k >= 1 << FIELD_BITS:
            raise ValueError(f"jet order {k} is not below 2**{FIELD_BITS}")
        self.k = k
        self.weights, self.dshift = _weights(n), n * FIELD_BITS
        self.rows: dict[tuple[int, int], dict[int, Scalar]] = {}
        # column -> its scale, where the lcm of its denominators is not 1
        self.scales: dict[int, int] = {}
        self._columns: dict[int, tuple[tuple[Poly, ...], list[tuple[int, Terms, int]], int]] = {}

    def column(self, polys: tuple[Poly, ...]
               ) -> tuple[tuple[Poly, ...], list[tuple[int, Terms, int]], int]:
        """polys; for each nonzero polynomial, its entry b, its terms by
        ascending degree (stable) and its denominator, from `_integer_form`;
        and the lcm of the denominators."""
        entry = self._columns.get(id(polys))
        if entry is None:
            dshift, tables = self.dshift, []
            for b, p in enumerate(polys):
                nums, den = _integer_form(p)
                if nums:
                    terms = sorted(((key >> dshift, key, num) for key, num in nums.items()),
                                   key=itemgetter(0))
                    tables.append((b, terms, den))
            entry = self._columns[id(polys)] = (polys, tables, math.lcm(*(d for *_, d in tables)))
        return entry

    def place(self, unknowns: Iterable[tuple[int, Exponents, tuple[Poly, ...]]],
              scale: int = 0) -> None:
        """Enter the entries of each unknown (c, m_c, v_c), up to degree k, in
        column c: x^(m_c) times each polynomial of v_c, scaled to integers
        over Q by scale, a multiple of every denominator, or when 0 by the
        lcm of the denominators of v_c, which is kept in `scales`."""
        columns, weights, dshift, k, rows = (
            self._columns, self.weights, self.dshift, self.k, self.rows)
        for column, shift, polys in unknowns:
            _, tables, lcm = columns.get(id(polys)) or self.column(polys)
            if not tables:
                continue
            if not scale and lcm != 1:
                self.scales[column] = lcm
            at = sum(map(mul, shift, weights))
            # the degree field of a shift's key is at least its degree
            room = k - (at >> dshift)
            for b, terms, den in tables:
                factor = (scale or lcm) // den
                for degree, key, num in terms:
                    if degree > room:
                        break
                    rows.setdefault((b, at + key), {})[column] = num if factor == 1 else num * factor


def _integer_form(p: Poly) -> tuple[dict[int, Scalar], int]:
    """p's numerators over its denominator, by packed monomial key: the
    ints of its form over Q; over Q(c), for each monomial the numerators
    that its c field splits off, as an ExtScalar over 1 when a power of c
    is left, else as the int."""
    nums, den = p._ints
    if p.field is None:
        return nums, den
    return {key: ExtScalar._make(p.field, tuple(cs), 1) if any(cs[1:]) else cs[0]
            for key, cs in _by_monomial(p).items()}, den


def jet_solve(k: int, monos: Sequence[Exponents], rhs: Sequence[Poly],
              unknowns: Iterable[Streamed]) -> dict[int, Scalar] | None:
    """Solve jet_k(sum_c u_c * x^(m_c) * v_c) = rhs entrywise for the u_c.

    Each unknown is streamed as (bound, c, m_c, v_c): its column c, and a
    lower bound on the degree of every term of x^(m_c) * v_c, in
    nondecreasing order of bound (an unknown of bound above k adds nothing
    and may be left out).  The equations enter in (entry, monomial) order,
    monomials in the order of `monos`.  An unknown is pulled from the stream,
    and its entries placed, when the first equation of degree >= its bound
    is reached, which is enough: the equations of degree d involve only
    unknowns of bound <= d.  Returns None at the first inconsistent
    equation, so that the unknowns of higher bound are never pulled, else
    the values of `solve()`.  Like k, every monomial must have a degree
    below 2**FIELD_BITS.

    The equations are integer rows: column c is scaled by D_c, the lcm of
    the denominators of v_c, and the right-hand sides by L, the lcm of
    theirs, so u_c = v_c * D_c / L for the solution v of the integer system.
    """
    n = len(monos[0]) if monos else 0
    builder = _RowBuilder(k, n)
    weights, dshift = builder.weights, builder.dshift
    keys = [sum(map(mul, mono, weights)) for mono in monos]
    if keys and max(keys) >> dshift + FIELD_BITS:
        raise ValueError(f"a monomial is not of degree below 2**{FIELD_BITS}")
    targets = [_integer_form(p) for p in rhs]
    lcm = math.lcm(*(den for _, den in targets))
    stream = iter(unknowns)
    pending = next(stream, None)
    levels = [(key, min(key >> dshift, k)) for key in keys]
    rows, solver = builder.rows, SparseSolver()
    for b, (coeffs, den) in enumerate(targets):
        factor = lcm // den
        for key, degree in levels:
            if pending is not None and pending[0] <= degree:
                batch = []
                while pending is not None and pending[0] <= degree:
                    batch.append(pending[1:])
                    pending = next(stream, None)
                builder.place(batch)
            value = coeffs.get(key, 0)
            solver.add_row(rows.pop((b, key), {}), value if factor == 1 else value * factor)
            if solver.inconsistent:
                return None
    values = solver.solve()
    scales = builder.scales
    for c, v in values.items():
        scale = scales.get(c, 1)
        if scale != lcm:
            values[c] = v * Fraction(scale, lcm)
    return values
