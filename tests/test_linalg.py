from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals.linalg import SparseSolver, jet_rows, jet_solve
from frontals.poly import monomials_up_to, parse_poly
from frontals.scalars import ExtField

XY = ("x", "y")


def test_jet_rows_shift_truncate_and_key_by_entry():
    x_plus_y = parse_poly("x + y + x^2", XY)
    x, y = parse_poly("x", XY), parse_poly("y", XY)
    unknowns = [
        ((0, 0), (x_plus_y,)),      # u0 * (x + y + x^2)
        ((1, 0), (x_plus_y,)),      # u1 * x * (x + y + x^2): x^3 is dropped
        ((0, 1), (x, y)),           # u2 * y * (x, y): two entries
    ]
    one = Fraction(1)
    assert jet_rows(2, unknowns) == {
        (0, (1, 0)): {0: one},
        (0, (0, 1)): {0: one},
        (0, (2, 0)): {0: one, 1: one},
        (0, (1, 1)): {1: one, 2: one},
        (1, (0, 2)): {2: one},
    }


def test_jet_rows_drops_a_shift_beyond_the_order():
    x = parse_poly("x", XY)
    assert jet_rows(1, [((2, 0), (x,)), ((0, 0), (x,))]) == {(0, (1, 0)): {1: Fraction(1)}}


def test_jet_solve_solution_inconsistency_and_truncated_rhs():
    vs = ("x",)
    x = parse_poly("x", vs)
    monos = monomials_up_to(vs, 2)
    unknowns = [((0,), (x,))]
    assert jet_solve(2, monos, [parse_poly("3*x", vs)], unknowns) == {0: Fraction(3)}
    assert jet_solve(2, monos, [parse_poly("x^2", vs)], unknowns) is None
    # the x^3 of the right-hand side lies beyond the 2-jet: zero solves it
    assert jet_solve(2, monos, [parse_poly("x^3", vs)], unknowns) == {}


# -- SparseSolver ----------------------------------------------------------


def _dot(row, x):
    return sum((v * x.get(c, 0) for c, v in row.items()), Fraction(0))


def test_int_rows_solve_to_fractions():
    solver = SparseSolver()
    solver.add_row({0: 2, 1: 1}, 1)
    solver.add_row({0: 1, 1: 3}, 2)
    x = solver.solve()
    assert x == {0: Fraction(1, 5), 1: Fraction(3, 5)}
    assert all(type(v) is Fraction for v in x.values())
    # an int right-hand side alone is exact too
    solver = SparseSolver()
    solver.add_row({0: Fraction(2)}, 3)
    assert solver.solve() == {0: Fraction(3, 2)}
    assert type(solver.solve()[0]) is Fraction


def test_float_entries_are_refused():
    with pytest.raises(TypeError, match="float"):
        SparseSolver().add_row({0: 1, 1: 0.5})
    with pytest.raises(TypeError, match="float"):
        SparseSolver().add_row({0: Fraction(1)}, 0.5)
    c = ExtField(2).generator
    with pytest.raises(TypeError, match="float"):
        SparseSolver().add_row({0: c, 1: 2.0})


def test_mixed_rational_and_extension_rows_in_either_order():
    # rational rows are eliminated over the integers and extension rows by
    # one reciprocal per pivot; a row that meets a pivot of the other kind
    # carries on over the scalars
    c = ExtField(2).generator
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
            solver.add_row(row, rhs)
        solver.add_row(combo, combo_rhs)
        assert solver.rank == 4 and not solver.inconsistent
        x = solver.solve()
        assert 4 not in x  # the free column is set to zero
        for row, rhs in rows + [(combo, combo_rhs)]:
            assert _dot(row, x) == rhs
        solutions.append(x)
        solver.add_row(combo, combo_rhs + 1)
        assert solver.inconsistent and solver.rank == 4
    assert solutions[0] == solutions[1]


def _dense_reference(rows, ncols):
    """Rank, inconsistency and the solution with every free column zero, by
    dense Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] + [Fraction(rhs)] for row, rhs in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][col]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        lead = m[r][col]
        m[r] = [v / lead for v in m[r]]
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


@st.composite
def _rational_systems(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.dictionaries(st.integers(0, ncols - 1), _ENTRY, max_size=ncols),
                                   _ENTRY), max_size=7))
    # rank deficiency: combinations of drawn rows, some with a moved rhs
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        (ra, ba), (rb, bb) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(_NONZERO), draw(_ENTRY)
        row = {col: s * ra.get(col, 0) + t * rb.get(col, 0) for col in set(ra) | set(rb)}
        rhs = s * ba + t * bb + draw(st.sampled_from((0, 0, 1, Fraction(-2, 7))))
        rows.insert(draw(st.integers(0, len(rows))), (row, rhs))
    return ncols, rows


@settings(max_examples=150, deadline=None)
@given(_rational_systems())
def test_sparse_solver_matches_dense_gauss_jordan(system):
    ncols, rows = system
    solver = SparseSolver()
    for row, rhs in rows:
        solver.add_row(row, rhs)
    rank, inconsistent, solution = _dense_reference(rows, ncols)
    assert solver.rank == rank
    assert solver.inconsistent == inconsistent
    # stored integer pivot rows are primitive with a positive leading entry
    for prow, prhs, lead in solver.pivots.values():
        assert type(lead) is int and lead > 0
        assert math.gcd(lead, prhs, *prow.values()) == 1
    if inconsistent:
        with pytest.raises(ValueError):
            solver.solve()
    else:
        x = solver.solve()
        assert x == solution
        assert all(type(v) is Fraction for v in x.values())
