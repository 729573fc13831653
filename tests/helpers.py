"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from frontals.maps import PolyMap
from frontals.poly import Poly, monomials_up_to

VARSETS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def random_poly(rng: random.Random, vars: tuple[str, ...], max_degree: int,
                min_degree: int = 0, max_terms: int = 4) -> Poly:
    monos = [m for m in monomials_up_to(vars, max_degree) if sum(m) >= min_degree]
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        terms[m] = terms.get(m, Fraction(0)) + c
    return Poly(vars, terms)


def random_nonzero_poly(rng: random.Random, vars: tuple[str, ...], max_degree: int,
                        min_degree: int = 0) -> Poly:
    while True:
        p = random_poly(rng, vars, max_degree, min_degree)
        if not p.is_zero():
            return p


def random_origin_germ(rng: random.Random, n: int, max_degree: int) -> PolyMap:
    vars = VARSETS[n]
    return PolyMap(tuple(
        random_poly(rng, vars, max_degree, min_degree=1) for _ in range(n)
    ))


def random_linear_iso(rng: random.Random, n: int) -> PolyMap:
    """Random invertible linear map, by rejection on the exact rank."""
    from frontals.linalg import scalar_rank

    vars = VARSETS[n]
    while True:
        entries = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if scalar_rank(entries) == n:
            break
    comps = []
    for i in range(n):
        p = Poly.zero(vars)
        for j, v in enumerate(vars):
            p = p + Poly.variable(vars, v).scale(entries[i][j])
        comps.append(p)
    return PolyMap(tuple(comps))


# -- expression strings for the fuzz tests --------------------------------

GRAMMAR_TOKENS = st.one_of(st.sampled_from([*"+-*^()/", "x", "y", "c", " "]),
                           st.integers(0, 200).map(str))
GRAMMAR_ATOMS = st.one_of(st.sampled_from(["x", "y", "c"]), st.integers(0, 200).map(str))


def joined(inner):
    return st.one_of(st.tuples(inner, st.sampled_from([*"+-*/^"]), inner).map("".join),
                     inner.map("({})".format))


# nested expressions over the tokens, which parse more often than token
# strings drawn at random; GRAMMAR_STRINGS draws either
GRAMMAR_EXPRS = st.recursive(GRAMMAR_ATOMS, joined, max_leaves=16)
GRAMMAR_STRINGS = st.one_of(st.lists(GRAMMAR_TOKENS, max_size=30).map("".join), GRAMMAR_EXPRS)
