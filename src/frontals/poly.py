"""Sparse multivariate polynomials over an exact coefficient field.

A ``Poly`` is a fixed, ordered variable list plus a term table mapping
exponent tuples to nonzero coefficients (``Fraction`` or ``ExtScalar``).
Every operation is exact; there is no floating point anywhere.  Terms are
kept canonical (no zero coefficients) and printed in descending
graded-lexicographic order, so canonical printing is deterministic and
``parse(print(p)) == p``.

A polynomial over Q has a second, internal form: ``_ints = (nums, den)``,
a table of nonzero integer numerators over one denominator ``den > 0``
whose gcd with all the numerators is 1, so the form is unique.  Its keys are
packed monomials, one int each (after Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  The layout is graded: exponent e_i of variable i sits in a field of
FIELD_BITS bits, e_1 highest, and the total degree sits above all of them,

    key = deg << (n * FIELD_BITS) | e_1 << ((n - 1) * FIELD_BITS) | ... | e_n,

so the integer order of keys is graded-lexicographic order, the key of a
product of monomials is the sum of their keys, and a key's degree is
``key >> (n * FIELD_BITS)``.  No e_i exceeds the total degree, so a
polynomial has an integer form only while its degree is below
2**FIELD_BITS; then no field can overflow, in it or in a product whose
degree stays below that bound.  A polynomial of higher degree, or a
product that would reach it, keeps the Fraction table with exponent tuples
(``_ints`` is False).  Products, derivatives, jets, sums, negations,
scalings and substitutions of polynomials in integer form are computed and
returned in it, and the public ``terms`` table of Fractions, keyed by
exponent tuples, is built from it only when something reads ``terms``, then
kept; once built it equals ``nums[key] / den`` exactly, term by term.  A
Poly built from Fractions gets its integer form on first use by a kernel
(`_over_common_denominator`), also kept.  ``ExtScalar`` polynomials have
``terms`` only.

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

import functools
import math
import struct
from fractions import Fraction
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence, Union

from .scalars import ExtField, ExtScalar, Scalar

Exponents = tuple[int, ...]

# bits of one exponent field of a packed monomial key (module docstring);
# `_unpacker` reads the fields back as big-endian unsigned 16-bit integers
FIELD_BITS = 16


@functools.cache
def _weights(n: int) -> tuple[int, ...]:
    """The weights w_i of packed keys in n variables: the key of an exponent
    tuple is the sum of e_i * w_i, and w_i is the key of the variable x_i."""
    dshift = n * FIELD_BITS
    return tuple((1 << dshift) + (1 << (dshift - (i + 1) * FIELD_BITS)) for i in range(n))


@functools.cache
def _unpacker(n: int) -> Callable[[int], Exponents]:
    """The function from a packed key in n variables, of degree below
    2**FIELD_BITS, back to its exponent tuple."""
    # the degree field is skipped as padding
    fields = struct.Struct(">" + "x" * (FIELD_BITS // 8) + "H" * n).unpack
    size = (n + 1) * FIELD_BITS // 8

    def unpack(key: int) -> Exponents:
        return fields(key.to_bytes(size, "big"))

    return unpack


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

    # _terms is None on a Poly made in integer form until terms is read;
    # _ints is None until a kernel asks for it, False when a coefficient is
    # not a Fraction or the degree is 2**FIELD_BITS or more
    __slots__ = ("vars", "_terms", "_ints")

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
        _set_vars(self, vs)
        _set_terms(self, table)
        _set_ints(self, None)

    @classmethod
    def _raw(cls, vars: tuple[str, ...],
             table: dict[Exponents, Scalar] | tuple[dict[int, int], int]) -> "Poly":
        """Trusted constructor for results that are already canonical: a
        variable tuple, and either a term table whose coefficients are nonzero
        Fractions or ExtScalars, keyed by exponent tuples that match the
        variables, or the integer form (nums, den) of the module docstring,
        keyed by packed monomials.  The new Poly owns the table."""
        p = object.__new__(cls)
        _set_vars(p, vars)
        if type(table) is tuple:
            _set_terms(p, None)
            _set_ints(p, table)
        else:
            _set_terms(p, table)
            _set_ints(p, None)
        return p

    @property
    def terms(self) -> dict[Exponents, Scalar]:
        """The term table: exponent tuples to nonzero coefficients."""
        table = self._terms
        if table is None:
            nums, den = self._ints
            unpack = _unpacker(len(self.vars))
            if den == 1:
                table = {unpack(m): Fraction(n) for m, n in nums.items()}
            else:
                table = {unpack(m): Fraction(n, den) for m, n in nums.items()}
            _set_terms(self, table)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return _monomial(cls(vars, {}), 0)

    @classmethod
    def const(cls, vars: Sequence[str], value: Union[int, Fraction, ExtScalar]) -> "Poly":
        vs = tuple(vars)
        return _monomial(cls(vs, {(0,) * len(vs): value}), 0)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        vs = tuple(vars)
        if name not in vs:
            raise VariableMismatchError(f"unknown variable {name!r} (have {vs})")
        mono = tuple(1 if v == name else 0 for v in vs)
        return _monomial(cls(vs, {mono: Fraction(1)}), _weights(len(vs))[vs.index(name)])

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        ints = self._ints
        return not (ints[0] if ints else self._terms)

    def constant_term(self) -> Scalar:
        ints = self._ints
        if ints:
            return Fraction(ints[0].get(0, 0), ints[1])
        return self._terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, mono: Exponents) -> Scalar:
        mono = tuple(mono)
        ints = self._ints
        # only an exponent tuple of this arity has a packed key
        if ints and len(mono) == len(self.vars) and min(mono, default=0) >= 0:
            n = ints[0].get(sum(map(mul, mono, _weights(len(mono)))))
            return Fraction(0) if n is None else Fraction(n, ints[1])
        return self.terms.get(mono, Fraction(0))

    def degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        ints = self._ints
        if ints and ints[0]:
            return max(ints[0]) >> len(self.vars) * FIELD_BITS
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def order(self) -> Union[int, float]:
        """Minimal total degree of a term; math.inf for the zero polynomial."""
        ints = self._ints
        if ints and ints[0]:
            return min(ints[0]) >> len(self.vars) * FIELD_BITS
        if not self.terms:
            return math.inf
        return min(sum(m) for m in self.terms)

    def sorted_terms(self) -> Iterator[tuple[Exponents, Scalar]]:
        ints = self._ints
        if ints:
            nums, den = ints
            unpack = _unpacker(len(self.vars))
            for key in sorted(nums, reverse=True):
                yield unpack(key), Fraction(nums[key], den)
            return
        terms = self._terms
        for mono in _grlex_descending(terms):
            yield mono, terms[mono]

    def is_rational(self) -> bool:
        """True when every coefficient lies in Q (extension residues of degree 0 count)."""
        return bool(self._ints) or all(
            not isinstance(c, ExtScalar) or c.is_rational() for c in self._terms.values())

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
        if self._ints or other._ints:
            a, b = _over_common_denominator(self), _over_common_denominator(other)
            if a and b:
                (na, da), (nb, db) = a, b
                den = math.lcm(da, db)
                sa, sb = den // da, den // db
                nums = dict(na) if sa == 1 else {m: n * sa for m, n in na.items()}
                for mono, n in nb.items():
                    prev = nums.get(mono)
                    if prev is None:
                        nums[mono] = n * sb
                    else:
                        s = prev + n * sb
                        if s:
                            nums[mono] = s
                        else:
                            del nums[mono]
                return _lowest(self.vars, nums, den)
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
        ints = self._ints
        if ints:
            return Poly._raw(self.vars, ({m: -n for m, n in ints[0].items()}, ints[1]))
        return Poly._raw(self.vars, {m: -c for m, c in self._terms.items()})

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
        ints = type(c) is Fraction and _over_common_denominator(self)
        if ints:
            n, d = c.as_integer_ratio()
            return _lowest(self.vars, {m: v * n for m, v in ints[0].items()}, ints[1] * d)
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
        ints = _over_common_denominator(self)
        if ints:
            # e_idx sits in field idx; dividing by the variable subtracts its key
            shift = (len(self.vars) - 1 - idx) * FIELD_BITS
            mask = (1 << FIELD_BITS) - 1
            step = _weights(len(self.vars))[idx]
            nums: dict[int, int] = {}
            for key, n in ints[0].items():
                e = key >> shift & mask
                if e:
                    nums[key - step] = n * e
            return _lowest(self.vars, nums, ints[1])
        out: dict[Exponents, Scalar] = {}
        for mono, coeff in self._terms.items():
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

        ints = _over_common_denominator(self)
        if ints:
            unpack = _unpacker(len(self.vars))
            consts = ((unpack(key), _lowest(target_vars, {0: n}, ints[1]))
                      for key, n in ints[0].items())
        else:
            zero_mono = (0,) * len(target_vars)
            consts = ((mono, Poly._raw(target_vars, {zero_mono: coeff}))
                      for mono, coeff in self._terms.items())
        for mono, term in consts:
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
        ints = self._ints
        if ints:
            limit = (k + 1) << len(self.vars) * FIELD_BITS
            nums = {m: n for m, n in ints[0].items() if m < limit}
            return self if len(nums) == len(ints[0]) else _lowest(self.vars, nums, ints[1])
        return Poly._raw(self.vars, {m: c for m, c in self._terms.items() if sum(m) <= k})

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
        if self.is_zero():
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


# the slots' own setters: Poly refuses attribute assignment, and these cost
# less than object.__setattr__
_set_vars, _set_terms, _set_ints = (Poly.__dict__[name].__set__ for name in Poly.__slots__)


def _monomial(p: Poly, key: int) -> Poly:
    """p, a Poly of at most one term, whose monomial packs to key, with its
    integer form set when it is zero or its coefficient is a Fraction."""
    coeffs = list(p._terms.values())
    if not coeffs:
        _set_ints(p, ({}, 1))
    elif type(coeffs[0]) is Fraction:
        n, d = coeffs[0].as_integer_ratio()
        _set_ints(p, ({key: n}, d))
    return p


def _over_common_denominator(p: Poly) -> tuple[dict[int, int], int] | bool:
    """The integer form (nums, den) of p, or False when a coefficient is not
    a Fraction or the degree is 2**FIELD_BITS or more.  Worked out from the
    terms at most once per Poly, then kept."""
    ints = p._ints
    if ints is None:
        coeffs = p._terms.values()
        ints = False
        if all(type(c) is Fraction for c in coeffs):
            n = len(p.vars)
            weights = _weights(n)
            ratios = [c.as_integer_ratio() for c in coeffs]
            # each coefficient is in lowest terms, so no prime of den divides
            # every numerator: the form is already reduced
            den = math.lcm(*[d for _, d in ratios])
            nums = {sum(map(mul, m, weights)): num * (den // d)
                    for m, (num, d) in zip(p._terms, ratios)}
            # an exponent of 2**FIELD_BITS or more carries into the degree
            # field, so the largest key is below the limit exactly when
            # every field holds its exponent
            if not nums or max(nums) < 1 << (n + 1) * FIELD_BITS:
                ints = nums, den
        _set_ints(p, ints)
    return ints


def _lowest(vars: tuple[str, ...], nums: dict[int, int], den: int) -> Poly:
    """The Poly of nonzero numerators nums over den > 0, with their common
    factor with den divided out."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {m: n // g for m, n in nums.items()}
            den //= g
    return Poly._raw(vars, (nums, den))


def sum_of_products(vars: Sequence[str], pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """Sum of a_i * b_i over the (a_i, b_i) pairs, collected in one term table.

    Over Q every operand is taken in integer form, and each pair's numerators
    are brought to the common denominator D of all pair products; the loop
    then adds plain int products under the sum of two packed keys, and the
    result is returned in integer form over D with the common factor divided
    out.  With an ExtScalar coefficient anywhere, or a pair product of degree
    2**FIELD_BITS or more, the same loop runs on the Fraction or ExtScalar
    coefficients under exponent tuples.
    """
    vs = tuple(vars)
    pairs = list(pairs)
    for a, b in pairs:
        if a.vars != vs or b.vars != vs:
            raise VariableMismatchError(
                f"mismatched variable lists {a.vars} * {b.vars}, expected {vs}")
    out: dict = {}
    get = out.get
    integral = [(_over_common_denominator(a), _over_common_denominator(b)) for a, b in pairs]
    if all(ia and ib for ia, ib in integral):
        integral = [(ia, ib) for ia, ib in integral if ia[0] and ib[0]]
        # the product of the largest keys has the largest degree, below
        # 2**FIELD_BITS exactly when it is below the limit
        limit = 1 << (len(vs) + 1) * FIELD_BITS
        if all(max(ta) + max(tb) < limit for (ta, _), (tb, _) in integral):
            den = math.lcm(*(da * db for (_, da), (_, db) in integral))
            for (ta, da), (tb, db) in integral:
                scale = den // (da * db)
                for ka, ca in ta.items():
                    if scale != 1:
                        ca *= scale
                    for kb, cb in tb.items():
                        key = ka + kb
                        prev = get(key)
                        out[key] = ca * cb if prev is None else prev + ca * cb
            return _lowest(vs, {m: v for m, v in out.items() if v}, den)
    for ta, tb in ((a.terms, b.terms) for a, b in pairs):
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                mono = tuple(map(add, ma, mb))
                prev = get(mono)
                out[mono] = ca * cb if prev is None else prev + ca * cb
    return Poly._raw(vs, {m: v for m, v in out.items() if v})


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


def _term_count(p: Poly) -> int:
    ints = p._ints
    return len(ints[0]) if ints else len(p.terms)


def _height(p: Poly) -> int:
    """Bit height of p over one common denominator D: the bits of D or of the
    largest integer numerator, extension residues included, if that is more."""
    ints = p._ints
    if ints:
        nums, den = ints
        return max(den.bit_length(), max(map(abs, nums.values()), default=0).bit_length())
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
                ta, tb = _term_count(result), _term_count(rhs)
                pairs = min(ta, tb)
                self.check_terms("product", tok, ta * tb,
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
            t = _term_count(base)
            if t:
                # one term per multiset of e of the t terms of the base; the
                # numerators of p^e are at most (t * fold * 2^H(p))^e
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
    # by_degree[d] lists the tuples of degree d over the variables added so
    # far, in lex order; each round puts one more variable in front
    by_degree: list[list[Exponents]] = [[()]] + [[] for _ in range(k)]
    for _ in vars:
        by_degree = [[(e,) + rest for e in range(d + 1) for rest in by_degree[d - e]]
                     for d in range(k + 1)]
    return [mono for level in by_degree for mono in level]
