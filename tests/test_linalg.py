from __future__ import annotations

from fractions import Fraction

from frontals.linalg import jet_rows, jet_solve
from frontals.poly import monomials_up_to, parse_poly

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
