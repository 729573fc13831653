"""Sparse multivariate polynomials over an exact coefficient field.

A ``Poly`` is a fixed, ordered variable list plus a term table mapping
exponent tuples to nonzero coefficients (``Fraction`` or ``ExtScalar``).
Every operation is exact; there is no floating point anywhere.  Terms are
kept canonical (no zero coefficients) and printed in descending
graded-lexicographic order, so canonical printing is deterministic and
``parse(print(p)) == p``.

The accepted expression grammar (ASCII, whitespace insignificant):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | ident | '(' expr ')'
    rational := int ('/' nat)?

Implicit multiplication is rejected ("2x" is a syntax error; write "2*x").
The sign of a literal lives in the int, so a negative leading term prints
as "-1*x", which re-parses under this grammar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Sequence, Union

from .scalars import ExtField, ExtScalar, Scalar

Exponents = tuple[int, ...]


class PolyError(ValueError):
    """Base error for polynomial operations."""


class VariableMismatchError(PolyError):
    """Operands do not share a variable list, or an arity is wrong."""


class PolyParseError(PolyError):
    """Syntax or name error while parsing an expression; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _grlex_descending(monomials: Iterable[Exponents]) -> list[Exponents]:
    return sorted(monomials, key=lambda m: (sum(m), m), reverse=True)


def _coerce_coeff(value: Union[int, Fraction, ExtScalar]) -> Scalar:
    if isinstance(value, (Fraction, ExtScalar)):
        return value
    return Fraction(value)


class Poly:
    """Immutable sparse polynomial with exact coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: dict[Exponents, Scalar]):
        vs = tuple(vars)
        table: dict[Exponents, Scalar] = {}
        for mono, coeff in terms.items():
            if len(mono) != len(vs):
                raise VariableMismatchError(
                    f"exponent tuple {mono} does not match {len(vs)} variables"
                )
            c = _coerce_coeff(coeff)
            if c:
                table[mono] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", table)

    @classmethod
    def _raw(cls, vars: tuple[str, ...], table: dict[Exponents, Scalar]) -> "Poly":
        """Trusted constructor for results that are already canonical: a
        variable tuple, and a table the new Poly owns whose exponent tuples
        match it and whose coefficients are nonzero Fractions or ExtScalars."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", table)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: Sequence[str], value: Union[int, Fraction, ExtScalar]) -> "Poly":
        return cls(vars, {(0,) * len(tuple(vars)): value})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        vs = tuple(vars)
        if name not in vs:
            raise VariableMismatchError(f"unknown variable {name!r} (have {vs})")
        mono = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {mono: Fraction(1)})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, mono: Exponents) -> Scalar:
        return self.terms.get(tuple(mono), Fraction(0))

    def degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def order(self) -> Union[int, float]:
        """Minimal total degree of a term; math.inf for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(sum(m) for m in self.terms)

    def sorted_terms(self) -> Iterator[tuple[Exponents, Scalar]]:
        for mono in _grlex_descending(self.terms):
            yield mono, self.terms[mono]

    def is_rational(self) -> bool:
        """True when every coefficient lies in Q (extension residues of degree 0 count)."""
        return all(not isinstance(c, ExtScalar) or c.is_rational() for c in self.terms.values())

    def demote_rational(self) -> "Poly":
        """Convert degree-0 extension coefficients back to plain Fractions."""
        out: dict[Exponents, Scalar] = {}
        for mono, coeff in self.terms.items():
            if isinstance(coeff, ExtScalar) and coeff.is_rational():
                out[mono] = coeff.to_fraction()
            else:
                out[mono] = coeff
        return Poly(self.vars, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        # a rational ExtScalar hashes like its Fraction, so this agrees with ==
        return hash((self.vars, frozenset(self.terms.items())))

    # -- ring operations -----------------------------------------------------

    def _check_same_vars(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"mismatched variable lists {self.vars} vs {other.vars}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = out.get(mono)
            if prev is None:
                out[mono] = coeff
            else:
                s = prev + coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly._raw(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return sum_of_products(self.vars, ((self, other),))

    def scale(self, value: Union[int, Fraction, ExtScalar]) -> "Poly":
        c = _coerce_coeff(value)
        if not c:
            return Poly.zero(self.vars)
        # both coefficient rings are fields: a nonzero times a nonzero is nonzero
        return Poly._raw(self.vars, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError(f"polynomial exponent must be a non-negative integer, got {exponent}")
        result = Poly.const(self.vars, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and composition ---------------------------------------------

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative with respect to one variable."""
        if var not in self.vars:
            raise VariableMismatchError(f"unknown variable {var!r} (have {self.vars})")
        idx = self.vars.index(var)
        # distinct monomials have distinct derivatives and e >= 1: no term
        # collects or vanishes
        out: dict[Exponents, Scalar] = {}
        for mono, coeff in self.terms.items():
            e = mono[idx]
            if e:
                out[mono[:idx] + (e - 1,) + mono[idx + 1 :]] = coeff * e
        return Poly._raw(self.vars, out)

    def substitute(self, images: Sequence["Poly"], jet: int | None = None) -> "Poly":
        """Exact composition p(images); a ring homomorphism into the images' ring.

        With ``jet`` = k the result is the k-jet of the composition, and every
        product is truncated at degree k as it is formed.
        """
        images = list(images)
        if len(images) != len(self.vars):
            raise VariableMismatchError(
                f"expected {len(self.vars)} images, got {len(images)}"
            )
        if not images:
            raise VariableMismatchError("cannot substitute into a polynomial with no variables")
        target_vars = images[0].vars
        for g in images[1:]:
            if g.vars != target_vars:
                raise VariableMismatchError("images must share one variable list")

        def cut(p: Poly) -> Poly:
            return p if jet is None else p.jet(jet)

        result = Poly.zero(target_vars)
        # powers e >= 1 only: a zero exponent never reaches image_power
        pow_cache: list[dict[int, Poly]] = [{1: g} for g in images]

        def image_power(i: int, e: int) -> Poly:
            cache = pow_cache[i]
            if e not in cache:
                half = image_power(i, e // 2)
                sq = cut(half * half)
                cache[e] = sq if e % 2 == 0 else cut(sq * images[i])
            return cache[e]

        zero_mono = (0,) * len(target_vars)
        for mono, coeff in self.terms.items():
            term = Poly._raw(target_vars, {zero_mono: coeff})
            for i, e in enumerate(mono):
                if e:
                    term = cut(term * image_power(i, e))
            result = result + term
        return result

    def eval(self, point: Sequence[Union[int, Fraction, ExtScalar]]) -> Scalar:
        """Exact evaluation at a point of scalars."""
        values = [_coerce_coeff(v) for v in point]
        if len(values) != len(self.vars):
            raise VariableMismatchError(
                f"expected {len(self.vars)} coordinates, got {len(values)}"
            )
        total: Scalar = Fraction(0)
        for mono, coeff in self.terms.items():
            term: Scalar = coeff
            for v, e in zip(values, mono):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def jet(self, k: int) -> "Poly":
        """Truncate to total degree <= k (the k-jet at the origin)."""
        if k < 0:
            raise PolyError(f"jet order must be >= 0, got {k}")
        return Poly._raw(self.vars, {m: c for m, c in self.terms.items() if sum(m) <= k})

    # -- printing --------------------------------------------------------------

    def _term_str(self, mono: Exponents, coeff: Scalar) -> tuple[bool, str]:
        """Render one term as (is_negative, body); sign handling is the caller's."""
        factors = [
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(self.vars, mono)
            if e > 0
        ]
        if isinstance(coeff, ExtScalar) and not coeff.is_rational():
            nonzero = [(i, q) for i, q in enumerate(coeff.coeffs) if q]
            if len(nonzero) == 1:
                # single power of c: pull its rational sign out
                i, q = nonzero[0]
                sym = coeff.field.symbol
                cpow = sym if i == 1 else f"{sym}^{i}"
                head = [] if abs(q) == 1 else [str(abs(q))]
                return q < 0, "*".join(head + [cpow] + factors)
            return False, "*".join([f"({coeff})"] + factors)
        q = coeff.to_fraction() if isinstance(coeff, ExtScalar) else coeff
        if not factors:
            return q < 0, str(abs(q))
        if abs(q) == 1:
            return q < 0, "*".join(factors)
        return q < 0, "*".join([str(abs(q))] + factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in self.sorted_terms():
            negative, body = self._term_str(mono, coeff)
            if not pieces:
                # a leading negative must stay inside the grammar: the sign can
                # only live in an int literal, so "-x" becomes "-1*x"
                if negative:
                    pieces.append("-" + body if body[0].isdigit() else "-1*" + body)
                else:
                    pieces.append(body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _over_common_denominator(p: Poly) -> tuple[list[tuple[Exponents, int]], int] | None:
    """p's terms as integer numerators over their common denominator, or None
    when a coefficient is not a Fraction."""
    coeffs = p.terms.values()
    if not all(type(c) is Fraction for c in coeffs):
        return None
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*[d for _, d in ratios])
    return [(m, n * (den // d)) for m, (n, d) in zip(p.terms, ratios)], den


def sum_of_products(vars: Sequence[str], pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """Sum of a_i * b_i over the (a_i, b_i) pairs, collected in one term table.

    Over Q every operand is taken as integer numerators over its common
    denominator, and each pair's numerators are brought to the common
    denominator D of all pair products; the loop then adds plain int products
    and each output term becomes one Fraction(v, D).  With an ExtScalar
    coefficient anywhere, the same loop runs on the coefficients as they are.
    """
    vs = tuple(vars)
    pairs = list(pairs)
    for a, b in pairs:
        if a.vars != vs or b.vars != vs:
            raise VariableMismatchError(
                f"mismatched variable lists {a.vars} * {b.vars}, expected {vs}")
    pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
    integral = [(_over_common_denominator(a), _over_common_denominator(b)) for a, b in pairs]
    if all(ia and ib for ia, ib in integral):
        den = math.lcm(*(da * db for (_, da), (_, db) in integral))
        tables = [(ta if den == da * db else [(m, v * (den // (da * db))) for m, v in ta], tb)
                  for (ta, da), (tb, db) in integral]
    else:
        den = None
        tables = [(a.terms.items(), b.terms.items()) for a, b in pairs]
    out: dict = {}
    get = out.get
    for ta, tb in tables:
        for ma, ca in ta:
            for mb, cb in tb:
                mono = tuple(map(add, ma, mb))
                prev = get(mono)
                out[mono] = ca * cb if prev is None else prev + ca * cb
    if den is None:
        table = {m: v for m, v in out.items() if v}
    elif den == 1:
        table = {m: Fraction(v) for m, v in out.items() if v}
    else:
        table = {m: Fraction(v, den) for m, v in out.items() if v}
    return Poly._raw(vs, table)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")
# each open parenthesis costs four nested parser calls; the cap keeps a
# parse well inside the interpreter's default recursion limit
MAX_NESTING = 100
# the size of a power grows with its exponent: (x + y + z)^100 already has
# 5151 terms
MAX_EXPONENT = 100
# largest term count a parsed '^' or '*' may reach by the bound of
# _Parser.check_terms, so nested powers cannot grow without limit
MAX_TERMS = 1000
# largest coefficient bit height (see _height) a parsed '^' or '*' may reach
# by the same a-priori bound: ((3/7 + 2/3*x)^100)^9 would reach about 4000
MAX_COEFF_BITS = 2000


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # "int" | "ident" | "op" | "end"
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _height(p: Poly) -> int:
    """Bit height of p over one common denominator D: the bits of D or of the
    largest integer numerator, extension residues included, if that is more."""
    pairs = [(c.nums, c.den) if isinstance(c, ExtScalar) else ((c.numerator,), c.denominator)
             for c in p.terms.values()]
    den = math.lcm(*[d for _, d in pairs])
    top = max((abs(n) * (den // d) for nums, d in pairs for n in nums), default=0)
    return max(den.bit_length(), top.bit_length())


def _known_height(p: Poly, height: int | None) -> int:
    return _height(p) if height is None else height


class _Parser:
    def __init__(self, tokens: list[_Token], vars: tuple[str, ...], field: ExtField | None):
        self.tokens = tokens
        self.i = 0
        self.vars = vars
        self.field = field
        self.depth = 0
        # a product of two residues of Q(c), c^k = 6, sums k products, each
        # at most 6 times a numerator product
        self.fold = 6 * field.k if field is not None else 1

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise PolyParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse_expr(self) -> Poly:
        result = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                result = result + rhs if tok.text == "+" else result - rhs
            else:
                return result

    def check_terms(self, what: str, tok: _Token, terms: int, degree: int, bits: int) -> None:
        """Refuse, before computing it, a result with at most ``terms`` terms
        and at most the monomials of degree <= ``degree`` if that exceeds
        MAX_TERMS, or one whose height may reach ``bits`` above MAX_COEFF_BITS."""
        n = len(self.vars)
        bound = min(terms, math.comb(n + max(degree, 0), n))
        if bound > MAX_TERMS:
            raise PolyParseError(
                f"{what} may have up to {bound} terms, more than {MAX_TERMS}", tok.pos)
        if bits > MAX_COEFF_BITS:
            raise PolyParseError(
                f"{what} may have coefficients of up to {bits} bits, more than"
                f" {MAX_COEFF_BITS}", tok.pos)

    def parse_term(self) -> Poly:
        result, height = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                rhs, rhs_height = self.parse_factor()
                # each coefficient sums at most min(t_a, t_b) products of the
                # numerators over the product of the two denominators
                pairs = min(len(result.terms), len(rhs.terms))
                self.check_terms("product", tok, len(result.terms) * len(rhs.terms),
                                 result.degree() + rhs.degree(),
                                 _known_height(result, height) + _known_height(rhs, rhs_height)
                                 + (pairs * self.fold).bit_length())
                result, height = result * rhs, None
            elif tok.kind == "op" and tok.text == "/":
                raise PolyParseError(
                    "division by a non-constant: '/' is only allowed inside a"
                    " rational literal like 1/2", tok.pos)
            elif tok.kind in ("int", "ident") or (tok.kind == "op" and tok.text == "("):
                raise PolyParseError(
                    f"implicit multiplication is not allowed before {tok.text!r};"
                    " write an explicit '*'", tok.pos)
            else:
                return result

    def parse_factor(self) -> tuple[Poly, int | None]:
        """A factor and its _height, or None while that is not computed."""
        base, height = self.parse_base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise PolyParseError("exponent must be a non-negative integer", exp_tok.pos)
            exponent = int(exp_tok.text)
            if exponent > MAX_EXPONENT:
                raise PolyParseError(f"exponent above {MAX_EXPONENT}", exp_tok.pos)
            if base.terms:
                # one term per multiset of e of the t terms of the base; the
                # numerators of p^e are at most (t * fold * 2^H(p))^e
                t = len(base.terms)
                self.check_terms("power", tok, math.comb(t + exponent - 1, exponent),
                                 exponent * base.degree(),
                                 exponent * (_known_height(base, height)
                                             + (t * self.fold).bit_length()))
            self.advance()
            return base ** exponent, None
        return base, height

    def parse_base(self) -> tuple[Poly, int | None]:
        """A base and its _height: known for a number or a variable, None
        for a parenthesised expression or the extension generator."""
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.pos)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner, None
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            num_tok = self.peek()
            if num_tok.kind != "int":
                raise PolyParseError("expected an integer after '-'", num_tok.pos)
            return self.parse_rational(negative=True)
        if tok.kind == "int":
            return self.parse_rational(negative=False)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.field is not None and name == self.field.symbol:
                return Poly.const(self.vars, self.field.generator), None
            if name not in self.vars:
                raise PolyParseError(f"unknown variable {name!r}", tok.pos)
            return Poly.variable(self.vars, name), 1
        raise PolyParseError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}",
            tok.pos)

    def parse_rational(self, negative: bool) -> tuple[Poly, int]:
        num_tok = self.advance()
        numerator = -int(num_tok.text) if negative else int(num_tok.text)
        tok = self.peek()
        if tok.kind == "op" and tok.text == "/":
            self.advance()
            den_tok = self.peek()
            if den_tok.kind == "ident":
                raise PolyParseError("division by a non-constant", den_tok.pos)
            if den_tok.kind != "int":
                raise PolyParseError("expected an integer denominator", den_tok.pos)
            self.advance()
            denominator = int(den_tok.text)
            if denominator == 0:
                raise PolyParseError("zero denominator in rational literal", den_tok.pos)
            value = Fraction(numerator, denominator)
        else:
            value = Fraction(numerator)
        return (Poly.const(self.vars, value),
                max(abs(value.numerator).bit_length(), value.denominator.bit_length()))


def parse_poly(text: str, vars: Sequence[str], field: ExtField | None = None) -> Poly:
    """Parse an expression into a canonical Poly over the given variables.

    When ``field`` is an ExtField, its generator symbol (default "c") is
    accepted as a coefficient constant; the symbol must then not collide
    with a variable name.
    """
    vs = tuple(vars)
    if field is not None and field.symbol in vs:
        raise PolyParseError(
            f"variable name {field.symbol!r} collides with the extension generator", 0)
    parser = _Parser(_tokenize(text), vs, field)
    result = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise PolyParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return result


def monomials_up_to(vars: Sequence[str], k: int) -> list[Exponents]:
    """All exponent tuples of total degree <= k, ascending graded-lex order."""
    vs = tuple(vars)
    n = len(vs)
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, pos: int) -> None:
        if pos == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(prefix, remaining - e, pos + 1)
            prefix.pop()

    rec([], k, 0)
    return sorted(out, key=lambda m: (sum(m), m))
