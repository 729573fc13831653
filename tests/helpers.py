"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, seed, settings
from hypothesis import strategies as st

from frontals import corpus, germfile, poly
from frontals.linalg import scalar_rank
from frontals.maps import PolyMap, PolyMatrix, _jacobian_at_zero, jacobian_det
from frontals.poly import Poly, parse_poly, sum_of_products
from frontals.scalars import ExtField, ExtScalar, Scalar

VARSETS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


@functools.cache
def monomials(vars: tuple[str, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Every exponent tuple of total degree <= k, by brute force, sorted by
    (degree, exponents): graded-lex ascending, the order of the library's
    `poly._monomial_keys`."""
    return tuple(sorted((m for m in itertools.product(range(k + 1), repeat=len(vars))
                         if sum(m) <= k), key=lambda m: (sum(m), m)))


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The matrix product a*b, one `sum_of_products` per entry."""
    return PolyMatrix(tuple(tuple(sum_of_products(a.vars, zip(row, col)) for col in zip(*b.rows))
                            for row in a.rows))


def times_identity(p: Poly, n: int) -> PolyMatrix:
    """p*I, the n x n matrix with p on the diagonal and 0 elsewhere."""
    return PolyMatrix(tuple(tuple(p if i == j else Poly.zero(p.vars) for j in range(n))
                            for i in range(n)))


def substituted(m: PolyMatrix, images: list[Poly]) -> PolyMatrix:
    """m with every entry substituted at images."""
    return PolyMatrix(tuple(tuple(e.substitute(images) for e in row) for row in m.rows))


def a_k_axis_jacobian(k: int) -> Poly:
    """det(Jf) of the A_k front germ `corpus.a_k_front(k)` restricted to the
    x1-axis, x2 = ... = xk = 0, as a polynomial in x1."""
    axis = ("x1",)
    images = [Poly.variable(axis, "x1")] + [Poly.zero(axis)] * (k - 1)
    return jacobian_det(corpus.a_k_front(k)).substitute(images)


def random_poly(rng: random.Random, vars: tuple[str, ...], max_degree: int,
                min_degree: int = 0, max_terms: int = 4) -> Poly:
    monos = [m for m in monomials(vars, max_degree) if sum(m) >= min_degree]
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


def corank(f: PolyMap) -> int:
    """n minus the rank of the differential Jf(0) of an equidimensional germ."""
    return f.source_dim - scalar_rank(_jacobian_at_zero(f))


def evaluate(p: Poly, point) -> Scalar:
    """p at a point of scalars, summed term by term over p.terms, each power
    of a coordinate a repeated product."""
    assert len(point) == len(p.vars)
    total = Fraction(0)
    for mono, term in p.terms.items():
        for v, e in zip(point, mono):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def generator(k: int) -> ExtScalar:
    """c, the real k-th root of 6, in ExtField(k): the residue c, or 6 when k = 1."""
    return ExtScalar(ExtField(k), [0, 1] if k > 1 else [6])


def coeffs(x: ExtScalar) -> tuple[Fraction, ...]:
    """The rational coefficients of 1, c, ..., c^(k-1) of x."""
    return tuple(Fraction(n, x.den) for n in x.nums)


def reference_order_rows(k: int, gens: list[Poly]) -> list[dict]:
    """`linalg.order_rows` as a pass over every monomial shift of degree < k,
    each meeting every term of every generator: the rows it adds at order
    k, in the order the unknowns first reach them."""
    from frontals.linalg import scaled_form

    n = len(gens[0].vars) if gens else 0
    dshift = n * poly.FIELD_BITS
    forms, _ = scaled_form(gens)
    rows: dict = {}
    for t, at in enumerate(poly._monomial_keys(n, k - 1)):
        room = k - (at >> dshift)
        for i, nums in enumerate(forms):
            for key, num in nums.items():
                if key >> dshift == room:
                    rows.setdefault(at + key, {})[len(gens) * t + i] = num
    return list(rows.values())


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


# -- an exact reference for the parser -----------------------------------------

PARSER_REFERENCE = Path(__file__).resolve().parent / "parser_reference.json"
GERMS = Path(__file__).resolve().parent.parent / "germs"
PARSER_REFERENCE_FIELDS = (None, 1, 2, 3)
PARSER_REFERENCE_DRAWS = 500  # per field
PARSER_REFERENCE_SEED = 20261018
# products and powers of atoms at zero, at c and at every cap, for each field
PARSER_REFERENCE_EDGES = (
    "0^0", "0^3", "c^0", "(c)^0", "x^0*c^0", "0*c", "c*0", "c - c", "-0/3*x", "0*x^5",
    "x*-1", "-1*x", "12/8*c^5", "c^7*c^8", "c^99", "c^100*c^100*c^77", "2^100*3^100",
    "(2/3)^100*(3/2)^100", "1/2*c*x^3*y^2 - 5/6*c^2*y + c", "1/3*c*x^3*y^2",
    "x*(x + y)^2*c", "(x + y)*c^3*x", "2*(x + 1)^3*3", "-5/2*x*(y - 1)^2*1/3",
    "(1 + c + c^2)^100", "(c + c^2 + x)^50", "(1 + c)^2*c^3", "c*(c - 1)^0*x^2",
    "x^100*y^100*x^100", "x^101", "1/0", "1/x", "x/2", "2x", "x + @", "x^-1",
    "((2/3)^100)^6*((2/3)^100)^6", "((2/3)^100)^6*((2/3)^100)^6*((2/3)^100)^6",
    "*".join(["6^100"] * 9), "*".join(["c^100"] * 9), "((3/7 + 2/3*x)^100)^5",
    "((x^100)^100)^100", "((x^16)^64)^63*(x^16)^63*x^15", "((x^16)^64)^63*(x^16)^63*x^15*y",
    "((x^16)^64)^64", "*".join(["x^100"] * 656), "*".join(["y^100"] * 655) + "*x^35",
    "(((x^10)^10)^10)^10", "(1 + x + y)^20*(1 + x + y)^24", "(" * 100 + "x" + ")" * 100,
    "(" * 101 + "x" + ")" * 101, "1/1000000^99", "1/1000000^100", "x*1/1000000^99*y",
    "1/1000000^50*1/1000000^50", "1/1000000^50*1/1000000^50*1/1000000^50", "-7/1024^150",
)


def recorded_parse_inputs() -> list[tuple[str, tuple[str, ...], int | None]]:
    """(text, vars, k) of every expression parsed while the germ files of
    germs/ and the corpus entries (4_k for k = 2..8) are loaded."""
    calls = []
    parse = poly.parse_poly

    def recording(text, vars, field=None):
        calls.append((text, tuple(vars), None if field is None else field.k))
        return parse(text, vars, field)

    modules = (poly, germfile, corpus)
    for module in modules:
        module.parse_poly = recording
    try:
        for path in sorted(GERMS.glob("*.germ")):
            germfile.load_germ_file(path)
        for name in corpus.FIXED_ENTRY_NAMES:
            corpus.get_entry(name)
        for k in range(2, 9):
            for sign in ("+", "-"):
                corpus.get_entry("four_k", k=k, sign=sign)
    finally:
        for module in modules:
            module.parse_poly = parse
    return calls


def drawn_parse_inputs() -> list[tuple[str, tuple[str, ...], int | None]]:
    """(text, ("x", "y"), k) for PARSER_REFERENCE_DRAWS fixed-seed draws of
    GRAMMAR_STRINGS per k in PARSER_REFERENCE_FIELDS (None for Q)."""
    out = []
    for i, k in enumerate(PARSER_REFERENCE_FIELDS):
        drawn = []

        @seed(PARSER_REFERENCE_SEED + i)
        @settings(max_examples=PARSER_REFERENCE_DRAWS, database=None, deadline=None,
                  phases=[Phase.generate], suppress_health_check=list(HealthCheck))
        @given(GRAMMAR_STRINGS)
        def draw(text):
            drawn.append(text)

        draw()
        out += [(text, ("x", "y"), k) for text in drawn]
    return out


def parse_outcome(text: str, vars: tuple[str, ...], k: int | None) -> dict:
    """What parse_poly makes of one input: the packed form, field and printed
    string of the result, or the class, message and position of the error."""
    try:
        p = parse_poly(text, vars, None if k is None else ExtField(k))
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "position": getattr(exc, "position", None)}
    nums, den = p._ints
    return {"nums": sorted(nums.items()), "den": den,
            "field": None if p.field is None else p.field.k, "str": str(p)}


def write_parser_reference(path: Path = PARSER_REFERENCE) -> None:
    """Record parse_outcome for every recorded, edge and drawn input in path, as
    JSON.  Run from the repository root with the library under test on the
    path: PYTHONPATH=src:tests python -c
    'import helpers; helpers.write_parser_reference()'."""
    edges = [(text, ("x", "y"), k) for text in PARSER_REFERENCE_EDGES
             for k in PARSER_REFERENCE_FIELDS]
    inputs = list(dict.fromkeys(recorded_parse_inputs() + edges + drawn_parse_inputs()))
    cases = [{"text": text, "vars": list(vars), "k": k, **parse_outcome(text, vars, k)}
             for text, vars, k in inputs]
    path.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n", encoding="utf-8")


# -- a reference printer, rendered from the terms table ------------------------


def reference_scalar_str(q) -> str:
    """A Fraction, or an ExtScalar written from its Fraction coefficients
    in descending powers of c, the leading sign inside an int literal."""
    if not isinstance(q, ExtScalar):
        return str(q)
    if not q:
        return "0"
    parts: list[str] = []
    qs = coeffs(q)
    for i in range(q.field.k - 1, -1, -1):
        a = qs[i]
        if a == 0:
            continue
        if i == 0:
            body = str(abs(a))
        else:
            head = "c" if i == 1 else f"c^{i}"
            body = head if abs(a) == 1 else f"{abs(a)}*{head}"
        if not parts:
            parts.append(("-" + body if body[0].isdigit() else "-1*" + body) if a < 0 else body)
        else:
            parts.append(f"+ {body}" if a > 0 else f"- {body}")
    return " ".join(parts)


def reference_term_str(vars: tuple[str, ...], mono: tuple[int, ...], coeff) -> tuple[bool, str]:
    """One term as (is_negative, body); the sign is the caller's."""
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(vars, mono) if e > 0]
    if isinstance(coeff, ExtScalar) and not coeff.is_rational():
        nonzero = [(i, q) for i, q in enumerate(coeffs(coeff)) if q]
        if len(nonzero) == 1:
            # a single power of c: its rational sign is pulled out
            i, q = nonzero[0]
            cpow = "c" if i == 1 else f"c^{i}"
            head = [] if abs(q) == 1 else [str(abs(q))]
            return q < 0, "*".join(head + [cpow] + factors)
        return False, "*".join([f"({reference_scalar_str(coeff)})"] + factors)
    q = coeffs(coeff)[0] if isinstance(coeff, ExtScalar) else coeff
    if not factors:
        return q < 0, str(abs(q))
    if abs(q) == 1:
        return q < 0, "*".join(factors)
    return q < 0, "*".join([str(abs(q))] + factors)


def reference_str(p: Poly) -> str:
    """p printed term by term from p.terms, in descending graded-lex order."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for mono, coeff in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        negative, body = reference_term_str(p.vars, mono, coeff)
        if not pieces:
            pieces.append(("-" + body if body[0].isdigit() else "-1*" + body) if negative
                          else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
