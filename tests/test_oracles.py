"""Multiplicity and membership checked against independent computations.

The sympy oracles rebuild each answer from scratch: the multiplicity as the
number of standard monomials of a grevlex Groebner basis, and each membership
system from symbolic unknowns solved by `linsolve`.  The generator-row oracle
is the row construction `local_algebra` used before the jet equations: one
row per generator jet_k(m * f_i), whose rank is that of the equation rows.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from frontals.corpus import a_k_front
from frontals.linalg import SparseSolver, scaled_row
from frontals.local_algebra import _codimensions, _reduce_linear_part, multiplicity
from frontals.maps import PolyMap
from frontals.poly import Poly, parse_poly
from frontals.ramification import (
    NOT_MEMBER_MOD_JET,
    gradient_module_membership,
    jsq_plus_pullback_membership,
)
from frontals.scalars import ExtField

from helpers import VARSETS, monomials, random_origin_germ, random_poly


def _to_sympy(sympy, p: Poly, xs):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * prod(x**e for x, e in zip(xs, m)) for m, c in p.terms.items()),
               sympy.Integer(0))


def _quasi_homogeneous_germ(rng: random.Random) -> PolyMap:
    """Components of weighted degrees d_i for weights w, with random terms."""
    n = rng.choice([2, 3])
    vs = VARSETS[n]
    weights = [rng.choice([1, 1, 2]) for _ in range(n)]
    comps = []
    for _ in range(n):
        d = rng.choice([2, 3, 4])
        monos = [m for m in monomials(vs, d)
                 if sum(w * e for w, e in zip(weights, m)) == d]
        picked = rng.sample(monos, min(len(monos), rng.randint(2, 4)))
        comps.append(Poly(vs, {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                           rng.choice([1, 2, 3])) for m in picked}))
    return PolyMap(tuple(comps))


def _standard_monomial_count(sympy, f: PolyMap) -> int | None:
    """dim Q[x]/I from the grevlex basis of I; None unless V(I) is finite."""
    xs = sympy.symbols(f.source_vars)
    basis = sympy.groebner([_to_sympy(sympy, c, xs) for c in f.components], *xs,
                           order="grevlex")
    if not basis.is_zero_dimensional:
        return None
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    # a zero-dimensional basis has a pure power of each variable among its leads
    bounds = [min(lead[j] for lead in leads
                  if all(e == 0 for i, e in enumerate(lead) if i != j))
              for j in range(len(xs))]
    return sum(
        1 for m in itertools.product(*(range(b) for b in bounds))
        if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
    )


def test_multiplicity_matches_groebner_standard_monomials():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    checked = 0
    while checked < 8:
        f = _quasi_homogeneous_germ(rng)
        expected = _standard_monomial_count(sympy, f)
        if expected is None:
            continue
        # quasi-homogeneous with V(f) = {0}: I is m-primary, so the global
        # quotient is the local algebra
        result = multiplicity(f, 40)
        assert result.value == expected, (f, result)
        checked += 1


def _truncated_coefficients(sympy, expr, xs, k: int) -> list:
    return [c for m, c in sympy.Poly(sympy.expand(expr), *xs).terms() if sum(m) <= k]


def _feasible(sympy, equations, unknowns) -> bool:
    equations = [e for e in equations if e != 0]
    return not equations or sympy.linsolve(equations, unknowns) != sympy.S.EmptySet


def _gradient_feasible(sympy, psi: Poly, f: PolyMap, k: int) -> bool:
    xs = sympy.symbols(f.source_vars)
    monos = monomials(f.source_vars, k)
    unknowns, a = [], []
    for i in range(f.source_dim):
        coeffs = sympy.symbols(f"a{i}_0:{len(monos)}")
        unknowns += coeffs
        a.append(sum(c * prod(x**e for x, e in zip(xs, m)) for c, m in zip(coeffs, monos)))
    comps = [_to_sympy(sympy, c, xs) for c in f.components]
    target = _to_sympy(sympy, psi, xs)
    equations = []
    for x in xs:
        residual = sympy.diff(target, x) - sum(ai * sympy.diff(fi, x) for ai, fi in zip(a, comps))
        equations += _truncated_coefficients(sympy, residual, xs, k)
    return _feasible(sympy, equations, unknowns)


def _jsq_feasible(sympy, psi: Poly, f: PolyMap, k: int) -> bool:
    xs = sympy.symbols(f.source_vars)
    monos = monomials(f.source_vars, k)
    comps = [_to_sympy(sympy, c, xs) for c in f.components]
    mu = sympy.symbols(f"mu0:{len(monos)}")
    eta = sympy.symbols(f"eta0:{len(monos)}")  # target monomials: same exponents
    jsq = sympy.Matrix(comps).jacobian(xs).det() ** 2
    residual = (_to_sympy(sympy, psi, xs)
                - sum(c * prod(x**e for x, e in zip(xs, m)) for c, m in zip(mu, monos)) * jsq
                - sum(c * prod(fi**e for fi, e in zip(comps, m)) for c, m in zip(eta, monos)))
    return _feasible(sympy, _truncated_coefficients(sympy, residual, xs, k), mu + eta)


def _membership_cases(seed: int):
    """Seeded 1- and 2-variable (psi, f, k), k <= 4; the first component of
    every other germ starts at degree 2, so both verdicts occur.  Last, a
    germ with a constant term, whose component of order 0 gives bounds of
    degree 0 in the degree-ordered systems."""
    rng = random.Random(seed)
    for t in range(14):
        n = rng.choice([1, 2])
        vs = VARSETS[n]
        f = random_origin_germ(rng, n, 3)
        if t % 2:
            first = random_poly(rng, vs, 3, min_degree=2)
            f = PolyMap((first,) + f.components[1:])
        yield random_poly(rng, vs, 4, max_terms=3), f, rng.randint(1, 4)
    unit = PolyMap.from_exprs(["1 + x^2 + x*y", "y"], VARSETS[2])
    for text in ("x^2 + x*y + y^3", "x + y^2"):
        yield parse_poly(text, VARSETS[2]), unit, 3


@pytest.mark.parametrize("decide, oracle", [
    (gradient_module_membership, _gradient_feasible),
    (jsq_plus_pullback_membership, _jsq_feasible),
])
def test_membership_matches_a_sympy_linear_solve(decide, oracle):
    sympy = pytest.importorskip("sympy")
    statuses = set()
    for psi, f, k in _membership_cases(5151):
        verdict = decide(psi, f, k)
        statuses.add(verdict.status)
        assert (verdict.status == NOT_MEMBER_MOD_JET) == (not oracle(sympy, psi, f, k)), \
            (psi, f, k, verdict)
    assert len(statuses) == 2, statuses


def _generator_row_codimension(f: PolyMap, k: int) -> int:
    """len(P_k) minus the rank of the rows jet_k(m * f_i), deg(m) <= k."""
    monos = monomials(f.source_vars, k)
    index = {m: i for i, m in enumerate(monos)}
    solver = SparseSolver()
    for comp in f.components:
        comp_k = comp.jet(k)
        for m in monos:
            row: dict = {}
            for term, coeff in comp_k.terms.items():
                shifted = tuple(a + b for a, b in zip(m, term))
                if sum(shifted) <= k:
                    row[index[shifted]] = row.get(index[shifted], 0) + coeff
            if row:
                solver.add_row(*scaled_row(row))
    return len(monos) - solver.rank


def test_codimensions_match_the_generator_rows():
    rng = random.Random(6161)
    germs = [PolyMap.from_exprs(["x^2", "0"], ("x", "y")),
             PolyMap.from_exprs(["x^2", "x*y", "z"], ("x", "y", "z"))]
    germs += [random_origin_germ(rng, rng.choice([1, 2, 3]), 3) for _ in range(12)]
    cases = [(f, 6) for f in germs]
    # the corank reduction: Jf(0) invertible, a pivot with a free linear part, a
    # non-finite corank-1 germ, corank 1 in five variables, three variables,
    # and a germ over Q(6^(1/3))
    cases += [(f, 8) for f in (
        PolyMap.from_exprs(["x + y^2", "y + x^3"], ("x", "y")),
        PolyMap.from_exprs(["x^2 + x + 2*y", "y^3 + 3*x + 6*y"], ("x", "y")),
        PolyMap.from_exprs(["y^2 + x", "y^3 + x*y"], ("x", "y")),
        a_k_front(5),
        PolyMap.from_exprs(["x^2 + y", "x*y + z", "x^3 + y^2 + z^2"], ("x", "y", "z")),
        PolyMap.from_exprs(["c*x + y^2", "x*y + c^2*y^3"], ("x", "y"), ExtField(3)),
    )]
    for f, order in cases:
        seq = multiplicity(f, order).dimension_sequence
        assert seq == tuple(_generator_row_codimension(f, k) for k in range(len(seq))), f
        codims = list(itertools.islice(_codimensions(f, _reduce_linear_part(f)), order + 1))
        assert all(codims[k] == _generator_row_codimension(f, k)
                   for k in range(len(seq), order + 1)), f
