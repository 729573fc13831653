from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontals.linalg import (SparseSolver, _primitive, jet_solve, order_rows, scalar_rank,
                             scaled_form, scaled_row)
from frontals.poly import FIELD_BITS, Poly, _monomial_keys, _unpacker, parse_poly
from frontals.scalars import ExtField, ExtScalar

from helpers import monomials, reference_order_rows

XY = ("x", "y")


def test_order_rows_select_degree_k_and_number_columns_by_shift_and_generator():
    g0, g1 = parse_poly("x + y + x^2", XY), parse_poly("x*y", XY)
    # unknown (t, i) multiplies x^(m_t) * g_i and is column 2*t + i, m_t the
    # monomials of degree < 2 in graded-lex order: 1, y, x.  Order 2
    # adds the rows of x^2, x*y and y^2, in the order the columns first
    # reach them: u0*x^2 and u1*x*y, then y*(x + y), then x*(x + y); the
    # degree-1 terms of g0 * 1 and the x^3 of g0 * x belong to other orders
    assert order_rows(2, [g0, g1]) == [{0: 1, 4: 1}, {1: 1, 2: 1, 4: 1}, {2: 1}]
    assert all(type(v) is int for row in order_rows(2, [g0, g1]) for v in row.values())
    assert order_rows(0, [g0, g1]) == [] and order_rows(2, []) == []


def test_order_rows_drop_a_shift_beyond_the_order():
    # order k multiplies by the monomials of degree < k only: x times the
    # constant of 1 + x would reach degree 1 too, but is not a column
    one_plus_x = parse_poly("1 + x", ("x",))
    assert order_rows(1, [one_plus_x]) == [{0: 1}]
    assert order_rows(0, [one_plus_x]) == []


def test_order_rows_scale_every_row_by_one_lcm_of_the_denominators():
    gens = [parse_poly("1/2*x + 1/3*y + 1/7*x^2", XY), parse_poly("2/15*x", XY)]
    shifts = monomials(XY, 2)
    # the rows of the coefficients as Fractions, built from the term tables
    rational: dict = {}
    for t, shift in enumerate(shifts):
        for i, g in enumerate(gens):
            for mono, coeff in g.terms.items():
                target = (shift[0] + mono[0], shift[1] + mono[1])
                rational.setdefault(target, {})[2 * t + i] = coeff
    solvers = SparseSolver(), SparseSolver()
    for k in range(4):
        rows = order_rows(k, gens)
        # every row is the rational row times lcm(42, 15) = 210, in integers
        expected = [row for mono, row in rational.items() if sum(mono) == k]
        assert rows == [{c: v * 210 for c, v in row.items()} for row in expected]
        assert all(type(v) is int for row in rows for v in row.values())
        for solver, system in zip(solvers, (rows, expected)):
            for row in system:
                solver.add_row(*scaled_row(row))
    # one solver over all orders has the rank of the rational rows
    ncols = 2 * len(shifts)
    kept = [(row, 0) for mono, row in rational.items() if sum(mono) <= 3]
    assert solvers[0].rank == solvers[1].rank == _dense_reference(kept, ncols)[0]
    assert solvers[0].pivots == solvers[1].pivots


def test_order_rows_keep_a_power_of_c_as_an_ext_scalar_over_one():
    field = ExtField(2)
    c = ExtScalar(field, [0, 1])
    g = parse_poly("c*x + 1/2*y + 3*x^2", XY, field)
    rows = order_rows(1, [g])
    # L = 2: c*x gives 2c, an ExtScalar over 1; y/2 gives the int 1
    assert rows == [{0: 2 * c}, {0: 1}]
    ext, one = rows[0][0], rows[1][0]
    assert type(ext) is ExtScalar and ext.den == 1 and ext.nums == (0, 2)
    assert type(one) is int
    # order 2, rows x^2, x*y, y^2: 3*x^2 at the shift 1 gives the int 6,
    # and the shifts y and x (columns 1 and 2) meet c*x and y/2
    rows = order_rows(2, [g])
    assert rows == [{0: 6, 2: 2 * c}, {1: 2 * c, 2: 1}, {1: 1}]
    assert type(rows[0][0]) is int


@st.composite
def _generator_lists(draw):
    """(k, gens): 1..3 generators in n = 1..3 variables over Q or
    Q(6^(1/3)), their terms of degrees drawn from a set that may have gaps
    and hold 0, and an order k = 0..10."""
    n = draw(st.integers(1, 3))
    vs = ("x", "y", "z")[:n]
    field = draw(st.sampled_from((None, ExtField(3))))
    degrees = draw(st.sets(st.integers(0, 6), min_size=1, max_size=3))
    monos = [m for m in monomials(vs, max(degrees)) if sum(m) in degrees]
    rational = st.builds(lambda a, neg, d: Fraction(-a if neg else a, d),
                         st.integers(1, 5), st.booleans(), st.integers(1, 4))
    coeff = rational if field is None else st.one_of(
        rational, st.builds(lambda a, b: ExtScalar(field, [a, b, 0]), rational, rational))
    gens = draw(st.lists(st.dictionaries(st.sampled_from(monos), coeff, max_size=4),
                         min_size=1, max_size=3))
    return draw(st.integers(0, 10)), [Poly(vs, g) for g in gens]


@settings(max_examples=200, deadline=None)
# term degrees with gaps ({3, 5}, {2, 5}) and with a constant term ({0, 2}), over Q
# and over Q(6^(1/3))
@example((5, [parse_poly("x^2*y + 3*y^5 - 1/2*x^5", XY), parse_poly("2 + x*y - y^2", XY)]))
@example((7, [parse_poly("c*x^2 + 1/3*y^5", XY, ExtField(3)),
              parse_poly("1 + c^2*y^2", XY, ExtField(3))]))
@given(_generator_lists())
def test_order_rows_match_a_pass_over_every_shift(case):
    # the same rows, each with its columns in the same order
    k, gens = case
    assert ([list(row.items()) for row in order_rows(k, gens)]
            == [list(row.items()) for row in reference_order_rows(k, gens)])


def test_scaled_form_matches_the_term_tables():
    field = ExtField(3)
    cases = [
        [parse_poly("1/2*x + 1/3*y + 1/7*x^2", XY), parse_poly("2/15*x", XY), Poly.zero(XY)],
        [parse_poly("x - y", XY)],
        [Poly.zero(XY)],
        [],
        [parse_poly("1/6*c^2*x + 1/4*y + c*x*y", XY, field), parse_poly("3/10*x^2", XY),
         parse_poly("c - 1/9*c^2*y^2 + 1/2*x", XY, field), Poly.zero(XY)],
    ]
    unpack = _unpacker(2)
    for polys in cases:
        forms, den = scaled_form(polys)
        assert den == math.lcm(*(v.den if type(v) is ExtScalar else v.denominator
                                 for p in polys for v in p.terms.values()))
        assert len(forms) == len(polys)
        for p, nums in zip(polys, forms):
            # one numerator over den for each monomial of p: an int, or an
            # ExtScalar over 1 where a power of c is left
            assert {unpack(key): Fraction(num, den) if type(num) is int else num / den
                    for key, num in nums.items()} == p.terms
            for num in nums.values():
                assert type(num) is int or (type(num) is ExtScalar and num.den == 1
                                            and any(num.nums[1:]))


def test_primitive_form_of_a_one_entry_row():
    c = ExtScalar(ExtField(3), [0, 1])
    # with a zero right-hand side the row says its column is zero, whatever
    # the entry: it is stored as the unit row
    for entry in (1, -4, 12, 2 * c, -c - c * c):
        assert _primitive(3, {3: entry}, 0) == ({}, 0, 1)
    # with a nonzero one the value is kept: primitive, int lead positive
    assert _primitive(3, {3: -4}, 6) == ({}, -3, 2)
    assert _primitive(3, {3: 5}, 7) == ({}, 7, 5)
    assert _primitive(0, {0: 2 * c}, 4) == ({}, 2, c)
    # a row with more entries keeps them, with a zero right-hand side too
    assert _primitive(1, {1: -2, 4: 6}, 0) == ({4: -3}, 0, 1)
    solver = SparseSolver()
    solver.add_row(*scaled_row({0: 5}, 3))
    solver.add_row(*scaled_row({1: Fraction(-2, 3)}, 0))
    solver.add_row(*scaled_row({0: 2, 1: 7, 2: 4}, 2))
    assert solver.solve() == {0: Fraction(3, 5), 2: Fraction(1, 5)}


def test_jet_solve_unscales_columns_and_right_hand_sides():
    # column c is solved over D_c, the lcm of its denominators, and the
    # right-hand sides over theirs: u_c = v_c * D_c / L
    vs = ("x",)
    keys = _monomial_keys(1, 2)   # 1, x, x^2
    unknowns = [(1, 0, keys[0], scaled_form([parse_poly("1/2*x + 1/3*x^2", vs)])),
                (2, 1, keys[1], scaled_form([parse_poly("2/5*x", vs)]))]
    rhs = [parse_poly("3/7*x + 1/4*x^2", vs)]
    x = jet_solve(2, keys, rhs, unknowns)
    # x/2 * u0 = 3x/7 and x^2 * (u0/3 + 2*u1/5) = x^2/4
    assert x == {0: Fraction(6, 7), 1: Fraction(-5, 56)}
    assert all(type(v) is Fraction for v in x.values())


def test_jet_solve_solution_inconsistency_and_truncated_rhs():
    vs = ("x",)
    keys = _monomial_keys(1, 2)
    # (bound, column, shift key, form): x has degree >= 1
    unknowns = [(1, 0, keys[0], scaled_form([parse_poly("x", vs)]))]
    assert jet_solve(2, keys, [parse_poly("3*x", vs)], unknowns) == {0: Fraction(3)}
    assert jet_solve(2, keys, [parse_poly("x^2", vs)], unknowns) is None
    # the x^3 of the right-hand side lies beyond the 2-jet: zero solves it
    assert jet_solve(2, keys, [parse_poly("x^3", vs)], unknowns) == {}
    # x^2 * x lies beyond it too, so a shift of degree 2 adds no entry
    shifted = [(3, 0, keys[2], scaled_form([parse_poly("x", vs)]))]
    assert jet_solve(2, keys, [parse_poly("x^3", vs)], shifted) == {}


def test_jet_systems_refuse_degrees_past_the_packed_keys():
    # the rows are keyed by packed monomials, exact below degree 2**FIELD_BITS
    vs = ("x",)
    x = parse_poly("x", vs)
    with pytest.raises(ValueError):
        order_rows(2**FIELD_BITS, [x])
    with pytest.raises(ValueError):
        jet_solve(2**FIELD_BITS, [0], [x], [])
    # x^(2**FIELD_BITS - 2) * x, of the largest degree a key holds
    assert order_rows(2**FIELD_BITS - 1, [x]) == [{2**FIELD_BITS - 2: 1}]


# -- SparseSolver ----------------------------------------------------------


def _dot(row, x):
    return sum((v * x.get(c, 0) for c, v in row.items()), Fraction(0))


def test_int_rows_solve_to_fractions():
    solver = SparseSolver()
    solver.add_row(*scaled_row({0: 2, 1: 1}, 1))
    solver.add_row(*scaled_row({0: 1, 1: 3}, 2))
    x = solver.solve()
    assert x == {0: Fraction(1, 5), 1: Fraction(3, 5)}
    assert all(type(v) is Fraction for v in x.values())
    # an int right-hand side alone is exact too
    solver = SparseSolver()
    solver.add_row(*scaled_row({0: Fraction(2)}, 3))
    assert solver.solve() == {0: Fraction(3, 2)}
    assert type(solver.solve()[0]) is Fraction


def test_float_entries_are_refused():
    with pytest.raises(TypeError, match="float"):
        scaled_row({0: 1, 1: 0.5})
    with pytest.raises(TypeError, match="float"):
        scalar_rank([[1, 0.5]])
    with pytest.raises(TypeError, match="float"):
        scaled_row({0: Fraction(1)}, 0.5)
    c = ExtScalar(ExtField(2), [0, 1])
    with pytest.raises(TypeError, match="float"):
        scaled_row({0: c, 1: 2.0})
    with pytest.raises(TypeError, match="float"):
        scalar_rank([[c, 2.0]])


def test_mixed_rational_and_extension_rows_in_either_order():
    # every row is eliminated fraction-free over Z[c], whatever the kinds
    # of its entries and of the pivots it meets; solve() divides by an
    # extension leading entry only where that gives a value
    c = ExtScalar(ExtField(2), [0, 1])
    rows = [
        ({0: 2, 1: Fraction(3, 2), 2: 1}, Fraction(1, 3)),
        ({0: c, 1: 1 + c, 3: 2}, c),
        ({1: Fraction(4, 3), 2: -2, 3: 5, 4: 7}, 3),
        ({0: 4, 1: c, 2: 2 * c, 3: 1}, 1 + c),
    ]
    # a dependent row: consistent, then with its rhs moved
    r1, r2 = rows[0], rows[1]
    combo = {col: c * r1[0].get(col, 0) + r2[0].get(col, 0) for col in range(4)}
    combo_rhs = c * r1[1] + r2[1]
    solutions = []
    for order in (rows, rows[::-1]):
        solver = SparseSolver()
        for row, rhs in order:
            solver.add_row(*scaled_row(row, rhs))
        solver.add_row(*scaled_row(combo, combo_rhs))
        assert solver.rank == 4 and not solver.inconsistent
        x = solver.solve()
        assert 4 not in x  # the free column is set to zero
        for row, rhs in rows + [(combo, combo_rhs)]:
            assert _dot(row, x) == rhs
        solutions.append(x)
        solver.add_row(*scaled_row(combo, combo_rhs + 1))
        assert solver.inconsistent and solver.rank == 4
    assert solutions[0] == solutions[1]


def _dense_reference(rows, ncols, field=None):
    """Rank, inconsistency and the solution with every free column zero, by
    dense Gauss-Jordan elimination over Fractions, or in ExtScalar
    arithmetic over the field when one is given."""
    def scalar(v):
        if field is None:
            return Fraction(v)
        return v if isinstance(v, ExtScalar) else ExtScalar(field, [v])

    m = [[scalar(row.get(j, 0)) for j in range(ncols)] + [scalar(rhs)] for row, rhs in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][col]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        lead = m[r][col]
        inv = 1 / lead
        assert inv * lead == 1
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    rank = len(pivots)
    inconsistent = any(row[-1] for row in m[rank:])
    solution = {col: m[i][-1] for i, col in enumerate(pivots) if m[i][-1]}
    return rank, inconsistent, solution


_NONZERO = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
    st.builds(Fraction, st.integers(-10**15, 10**15).filter(bool), st.integers(1, 10**15)),
)
# mostly zero, so rows are sparse and some are zero altogether
_ENTRY = st.one_of(st.just(0), st.just(Fraction(0)), _NONZERO)


def _ext_entries(k):
    """The strategies of one nonzero scalar and of one entry (zero allowed)
    of a system over Q(6^(1/k)): those of _NONZERO and _ENTRY, and elements
    with a power of c in them."""
    field = ExtField(k)
    # (n_0 + n_j*c^j + ...) / d with n_j nonzero, j drawn from 1..k-1
    ext = st.builds(
        lambda nums, j, nj, d: ExtScalar(field, [Fraction(n, d) for n in
                                                 nums[:j] + [nj] + nums[j + 1:]]),
        st.lists(st.integers(-4, 4), min_size=k, max_size=k), st.integers(1, k - 1),
        st.integers(-4, 4).filter(bool), st.integers(1, 6))
    return st.one_of(_NONZERO, ext), st.one_of(_ENTRY, ext, ext)


@st.composite
def _systems(draw):
    """A system over Q, or over Q(6^(1/k)) for k = 2..4 with ints,
    Fractions and ExtScalars mixed; returns the field (None for Q) too."""
    k = draw(st.sampled_from((None, None, None, 2, 3, 4)))
    nonzero, entry = (_NONZERO, _ENTRY) if k is None else _ext_entries(k)
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
                                   entry), max_size=7))
    # rank deficiency: combinations of drawn rows, some with a moved rhs
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        (ra, ba), (rb, bb) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(nonzero), draw(entry)
        row = {col: s * ra.get(col, 0) + t * rb.get(col, 0) for col in set(ra) | set(rb)}
        rhs = s * ba + t * bb + draw(st.sampled_from((0, 0, 1, Fraction(-2, 7))))
        rows.insert(draw(st.integers(0, len(rows))), (row, rhs))
    return (None if k is None else ExtField(k)), ncols, rows


def _integers(v):
    return v.nums if isinstance(v, ExtScalar) else (v,)


@settings(max_examples=250, deadline=None)
@given(_systems())
def test_sparse_solver_matches_dense_gauss_jordan(system):
    field, ncols, rows = system
    solver = SparseSolver()
    for row, rhs in rows:
        solver.add_row(*scaled_row(row, rhs))
    rank, inconsistent, solution = _dense_reference(rows, ncols, field)
    assert solver.rank == rank
    assert solver.inconsistent == inconsistent
    # stored pivot rows lie in Z[c]: ints, and ExtScalars over 1 with a power
    # of c left; primitive, with an int leading entry positive
    for prow, prhs, lead in solver.pivots.values():
        entries = [lead, prhs, *prow.values()]
        for v in entries:
            assert type(v) is int or (type(v) is ExtScalar and v.den == 1
                                      and not v.is_rational())
        assert math.gcd(*(n for v in entries for n in _integers(v))) == 1
        assert type(lead) is ExtScalar or lead > 0
    if inconsistent:
        with pytest.raises(ValueError):
            solver.solve()
    else:
        x = solver.solve()
        assert x == solution
        if field is None:
            assert all(type(v) is Fraction for v in x.values())
