"""Exact linear algebra over the coefficient field, with no floats.

Used for ranks of scalar matrices (corank, conormal independence, inverses in
Q(6^(1/k))), and for the sparse jet-level systems of the local-algebra and
ramification modules, built by `order_rows` and `jet_solve`.  Rows are dicts
keyed by integer column indices; column order is the integer order, which
callers fix deterministically, so elimination and the extracted solutions
are reproducible.  Every row is eliminated fraction-free over Z[c], c the
generator of Q(6^(1/k)), with no reciprocal, through `SparseSolver.add_row`;
a row of scalars is brought into Z[c] by `scaled_row`.  Fractions and
ExtScalar quotients appear only in the values of `SparseSolver.solve()`.

The jet systems are rows over Z[c] by construction, keyed by the packed
monomial keys of `frontals.poly`: `scaled_form` gives each polynomial as
the numerators of its packed form, an ExtScalar over 1 where a power of c
is left, over one common denominator, which moves no pivot and changes no
rank.  Each system has one scaling rule.  A `Form` of one polynomial over
Q is its packed form (nums, den) as ([nums], den), so a caller that keeps
packed forms hands them over with no Poly; over Q(c) `_entries` groups
the numerators by monomial as `scaled_form` does.

`order_rows` gives the equations that jet order k adds to the multiplicity
system of `frontals.local_algebra`, those at the monomials of degree k.
Every row is scaled by one L, the lcm of the generators' denominators, so
that the rows of all orders share one solver.

`jet_solve` scales each column by the lcm of its own denominators and
builds its system one degree at a time.  Its unknowns arrive in
nondecreasing order of a lower bound on the degree of their terms, and
each is placed when the equations reach its bound: the equations of
degree d involve only unknowns of bound <= d.  The equations enter in the
order of the whole order-k system, so a solve that stops at an
inconsistent equation of degree d makes the same solver calls and proves
the same: the equations entered are rows of the whole system, which has
no solution then.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .poly import FIELD_BITS, Poly, _by_monomial, _level, _monomial_keys
from .scalars import ExtField, ExtScalar, Scalar

# an element of Z[c]: an int, or an ExtScalar over 1 where a power of c is left
Entry = Union[int, ExtScalar]
# polynomials over one denominator D (`scaled_form`): for each, its
# numerators by packed monomial key, and D; ([nums], den) for the packed
# form of one polynomial over Q
Form = tuple[list[dict[int, Entry]], int]
# one unknown of `jet_solve`: a bound on its degree, its column, the packed
# key of its monomial shift and the form of the polynomials it multiplies
Streamed = tuple[int, int, int, Form]


class SparseSolver:
    """Incremental row echelon over the scalars, with optional right-hand sides.

    Each inserted row is reduced against the stored pivot rows (pivot = its
    smallest column index); a row that vanishes against a nonzero right-hand
    side marks the system inconsistent.  Rows and right-hand sides are over
    Z[c], c the generator of Q(6^(1/k)): their entries are Entries, and a
    row of scalars is brought there by `scaled_row`.

    Elimination is fraction-free and takes no reciprocal.  A row with entry
    a in the column of a pivot row with leading entry p is reduced to
    p*row - a*pivot.  A new pivot row is stored primitive: the gcd of its
    integers (ints and the numerators of ExtScalars, right-hand side
    included) is divided out, and an int leading entry is made positive.
    Scaling a row never moves its smallest column, and the solution with
    every free column at zero is unique, so the pivot set and the values of
    `solve()` are those of plain Gaussian elimination.  `solve()` divides
    by a leading entry only where it produces a value.
    """

    def __init__(self) -> None:
        # pivot column -> (the row without its leading entry, rhs, leading entry)
        self.pivots: dict[int, tuple[dict[int, Entry], Entry, Entry]] = {}
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict[int, Entry], rhs: Entry = 0) -> None:
        """Reduce a row of Entries, none of them zero, which the solver then
        owns; store it as a pivot row or mark the system inconsistent."""
        pivots = self.pivots
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(lead, row, rhs)
                return
            prow, prhs, p = pivot
            factor = row.pop(lead)
            if p != 1:
                for c in row:
                    row[c] *= p
                rhs = p * rhs
            for c, v in prow.items():
                prev = row.get(c)
                nv = -(factor * v) if prev is None else prev - factor * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
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
                values[col] = (Fraction(acc, lead) if type(acc) is int and type(lead) is int
                               else acc / lead)
        return values


_INT = frozenset((int,))
_SCALARS = frozenset((int, Fraction, ExtScalar))


def scaled_row(row: Mapping[int, Scalar], rhs: Scalar = 0) -> tuple[dict[int, Entry], Entry]:
    """A row of scalars without its zero entries, and its rhs, times the lcm
    of their denominators: the arguments of `SparseSolver.add_row`.  Entries
    are ints, Fractions and ExtScalars; a float raises TypeError."""
    work = {c: v for c, v in row.items() if v}
    kinds = set(map(type, work.values()))
    kinds.add(type(rhs))
    if kinds == _INT:
        return work, rhs
    if not kinds <= _SCALARS:
        bad = ", ".join(sorted(k.__name__ for k in kinds - _SCALARS))
        raise TypeError(f"scaled_row takes ints, Fractions and ExtScalars, not {bad}")
    den = math.lcm(*(v.den if type(v) is ExtScalar else v.denominator
                     for v in (rhs, *work.values())))
    return {c: _times(v, den) for c, v in work.items()}, _times(rhs, den)


def _times(v: Scalar, den: int) -> Entry:
    """v * den, for den a multiple of the denominator of v."""
    if type(v) is ExtScalar:
        factor = den // v.den
        return _entry(v.field, tuple(n * factor for n in v.nums))
    return v.numerator * (den // v.denominator)


def _quotient(v: Entry, g: int) -> Entry:
    """v / g, for an integer g that divides v."""
    if type(v) is ExtScalar:
        return _entry(v.field, tuple(n // g for n in v.nums))
    return v // g


def _entry(field: ExtField, nums: tuple[int, ...]) -> Entry:
    """The Entry with these numerators of 1, c, ..., c^(k-1)."""
    return ExtScalar._make(field, nums, 1) if any(nums[1:]) else nums[0]


def _primitive(lead: int, work: dict[int, Entry], rhs: Entry
               ) -> tuple[dict[int, Entry], Entry, Entry]:
    """The stored form of a row: primitive, with an int leading entry
    positive, and an ExtScalar with no power of c left turned into its int.
    A row with one entry and a zero right-hand side says that its column is
    zero, whatever the entry, and is stored as ({}, 0, 1)."""
    if not rhs and len(work) == 1:
        return {}, 0, 1
    try:
        g = math.gcd(rhs, *work.values())
    except TypeError:  # an ExtScalar among them
        g = math.gcd(*(n for v in (rhs, *work.values())
                       for n in (v.nums if type(v) is ExtScalar else (v,))))
        head = _quotient(work[lead], 1)
        if type(head) is int and head < 0:
            g = -g
        work = {c: _quotient(v, g) for c, v in work.items()}
        return work, _quotient(rhs, g), work.pop(lead)
    if work[lead] < 0:
        g = -g
    if g != 1:
        work = {c: v // g for c, v in work.items()}
        rhs //= g
    return work, rhs, work.pop(lead)


def scalar_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """The rank of rows of scalars, each brought into Z[c] by `scaled_row`."""
    solver = SparseSolver()
    for row in rows:
        solver.add_row(*scaled_row(dict(enumerate(row))))
    return solver.rank


def _check_order(k: int) -> None:
    if k >= 1 << FIELD_BITS:
        raise ValueError(f"jet order {k} is not below 2**{FIELD_BITS}")


def order_rows(k: int, gens: Sequence[Poly]) -> list[dict[int, Entry]]:
    """The equations that jet order k adds to the system of
    sum_(t,i) u_(t,i) * x^(m_t) * gens[i] over unknown scalars u_(t,i),
    m_t the monomials of degree < k in `_monomial_keys` order: one row for
    each monomial of degree k that the sum reaches, in the order the
    unknowns first reach them.

    Unknown (t, i) is column len(gens) * t + i, and its entry in the row of
    x^a is the coefficient of x^(a - m_t) in gens[i], times L, the lcm of
    the denominators of gens (`scaled_form`).  The monomials of an order
    are a prefix of those of the next and one L scales every row, so the
    rows of every order share one solver, with the rank and pivots of the
    rational rows.  The order k must be below 2**FIELD_BITS.

    A shift of degree d reaches degree k only through the terms of degree
    k - d, so with the generators' terms of degrees lo..hi only the shifts
    of degree k - hi .. k - lo (and below k) add entries.  The monomial list
    is graded, so these are one index range of it, visited in order, and
    each generator's terms are grouped by degree once, keeping their order:
    the rows and their order are those of a pass over every shift.
    """
    _check_order(k)
    n = len(gens[0].vars) if gens else 0
    dshift = n * FIELD_BITS
    forms, _ = scaled_form(gens)
    # for each generator, its (key, numerator) pairs by degree
    parts: list[dict[int, list[tuple[int, Entry]]]] = []
    for nums in forms:
        by_degree: dict[int, list[tuple[int, Entry]]] = {}
        for key, num in nums.items():
            by_degree.setdefault(key >> dshift, []).append((key, num))
        parts.append(by_degree)
    degrees = [d for part in parts for d in part]
    if not degrees:
        return []
    first, last = max(0, k - max(degrees)), min(k - 1, k - min(degrees))
    if first > last:
        return []
    shifts = _monomial_keys(n, last)
    rows: dict[int, dict[int, Entry]] = {}
    width = len(gens)
    for d in range(first, last + 1):
        reach = [(i, part[k - d]) for i, part in enumerate(parts) if k - d in part]
        for t in _level(n, d):
            at = shifts[t]
            for i, terms in reach:
                column = width * t + i
                for key, num in terms:
                    rows.setdefault(at + key, {})[column] = num
    return list(rows.values())


def scaled_form(polys: Sequence[Poly]) -> Form:
    """The numerators of each of polys over D, the lcm of their
    denominators, by packed monomial key, and D: ints, and over Q(c) an
    ExtScalar over 1 for a monomial whose coefficient keeps a power of c.
    A polynomial over Q with denominator D is given as its own numerator
    dict, which no caller may change."""
    lcm = math.lcm(*(p._ints[1] for p in polys))
    forms = []
    for p in polys:
        nums, den = p._ints
        factor = lcm // den
        if p.field is not None:
            nums = _entries(nums, len(p.vars), p.field, factor)
        elif factor != 1:
            nums = {key: num * factor for key, num in nums.items()}
        forms.append(nums)
    return forms, lcm


def _entries(nums: dict[int, int], n: int, field: ExtField,
             factor: int = 1) -> dict[int, Entry]:
    """Packed numerators in n variables over Q(c), times factor, as the
    Entries of `scaled_form`: one per monomial, an ExtScalar over 1 where a
    power of c is left, else an int."""
    return {key: _entry(field, tuple(num * factor for num in cs))
            for key, cs in _by_monomial(nums, n, field).items()}


def jet_solve(k: int, keys: Sequence[int], rhs: Sequence[Poly],
              unknowns: Iterable[Streamed]) -> dict[int, Scalar] | None:
    """Solve jet_k(sum_c u_c * x^(m_c) * v_c) = rhs entrywise for the u_c.

    `keys` are the packed keys of the monomials of degree <= k in the
    variables of rhs, ascending (`poly._monomial_keys`).  Each unknown is
    streamed as (bound, c, key of m_c, `scaled_form` of v_c), in
    nondecreasing order of bound, a lower bound on the degree of every term
    of x^(m_c) * v_c (an unknown of bound above k adds nothing and may be
    left out); entry b of the sum is sum_c u_c * x^(m_c) * v_c[b], for b
    below len(rhs).  The equations enter in (entry, monomial) order,
    monomials in the order of `keys`, and an equation 0 = 0 is passed over.
    An unknown is pulled from the stream, and its entries placed, when the
    first equation of degree >= its bound is reached, which is enough: the
    equations of degree d involve only unknowns of bound <= d.  Returns None
    at the first inconsistent equation, so that the unknowns of higher bound
    are never pulled, else the values of `solve()`.  The order k must be
    below 2**FIELD_BITS.

    The equations are integer rows: column c is scaled by D_c, the
    denominator of the form of v_c, and the right-hand sides by L, that of
    the form of rhs, so u_c = v_c * D_c / L for the solution v of the
    integer system.
    """
    _check_order(k)
    dshift = len(rhs[0].vars) * FIELD_BITS if rhs else 0
    # for each entry, packed monomial -> row
    rows: list[dict[int, dict[int, Entry]]] = [{} for _ in rhs]
    # column -> its scale D_c
    scales: dict[int, int] = {}

    def place(column: int, at: int, form: Form) -> None:
        """Enter x^m times each polynomial of a form, up to degree k, in
        column, m the monomial of key at."""
        tables, scales[column] = form
        room = k - (at >> dshift)
        for entry, nums in zip(rows, tables):
            for key, num in nums.items():
                if key >> dshift <= room:
                    entry.setdefault(at + key, {})[column] = num

    targets, lcm = scaled_form(rhs)
    stream = iter(unknowns)
    pending = next(stream, None)
    solver = SparseSolver()
    for entry, coeffs in zip(rows, targets):
        for key in keys:
            while pending is not None and pending[0] <= key >> dshift:
                place(*pending[1:])
                pending = next(stream, None)
            row = entry.pop(key, None)
            value = coeffs.get(key, 0)
            if row is None and not value:
                # 0 = 0 adds nothing
                continue
            solver.add_row(row or {}, value)
            if solver.inconsistent:
                return None
    values = solver.solve()
    for c, v in values.items():
        scale = scales[c]
        if scale != lcm:
            values[c] = v * Fraction(scale, lcm)
    return values
