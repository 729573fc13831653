"""Sparse multivariate polynomials over Q or Q(6^(1/k)), exact.

A ``Poly`` is a fixed, ordered variable list, a coefficient field ``field``
and one internal form, built when the Poly is: ``_ints = (nums, den)``,
nonzero integer numerators over one denominator ``den > 0`` with no factor
common to all.  ``field`` is the ``ExtField`` Q(c) = Q[c]/(c^k - 6) when a
power of c is left in some coefficient, and None, for Q, exactly when none
is: every constructor enforces this, so equal polynomials have equal
``(vars, _ints, field)`` and a Poly holds nothing else.  There is no
floating point anywhere.

The keys of ``nums`` are packed monomials, one int each (after Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007); over Q(c) c is one more variable, with every
power below k.  The layout is graded: exponent e_i of variable i sits in a
field of FIELD_BITS bits, e_1 highest, the total degree d above all of
them, and the exponent j of c above the degree,

    key = j << ((n + 1) * FIELD_BITS) | d << (n * FIELD_BITS)
          | e_1 << ((n - 1) * FIELD_BITS) | ... | e_n,

so the coefficient of x^e is the sum over j of nums[key(e) + j * C] * c^j
/ den, C the key of c.  Over Q every j is 0, and a Q operand mixes with a
Q(c) operand as it is.  With the c field masked, the integer order of keys
is graded-lexicographic order.  The key of a product of monomials is the
sum of their keys; a product then folds each c^j with j >= k (j <= 2k - 2)
to 6 * c^(j - k).  No Poly has a degree above MAX_DEGREE = 2**FIELD_BITS -
1: construction, products and powers raise PolyError before they build
one, so no exponent or degree field overflows, in a Poly or in a product
of two.  The c field is the highest and has no width limit.

Products, derivatives, jets, sums, negations, scalings and substitutions
are computed on this form and return it; a result in which every power of
c cancelled is over Q.  Every product runs one kernel, `_products`: one
term loop, then one tail, which folds the powers of c, drops zeros and,
for a cut product, the terms above a jet order, and divides out the common
factor.  The cut products of `Poly.substitute(jet=k)`, and of callers that
keep packed forms, go through `_cut_product`.  The public ``terms`` table,
keyed by exponent tuples, is built from the form on each read: the c field
is grouped back into one coefficient per monomial, an ExtScalar when a
power of c is left in it, else a Fraction.  Printing is in descending
graded-lexicographic order, so it is deterministic and
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

import functools
import math
import struct
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .scalars import (GENERATOR, ExtField, ExtScalar, Scalar, ScalarError, ratio_str,
                      residue_str, signed_sum)

Exponents = tuple[int, ...]
# the packed form (nums, den) of a polynomial (module docstring)
Packed = tuple[dict[int, int], int]

# bits of one exponent field of a packed monomial key (module docstring);
# `_fields` reads and writes them as big-endian unsigned 16-bit integers
FIELD_BITS = 16
# largest total degree of a Poly: the degree field holds it
MAX_DEGREE = 2**FIELD_BITS - 1


@functools.cache
def _weights(n: int) -> tuple[int, ...]:
    """The weights w_i of packed keys in n variables: the key of an exponent
    tuple is the sum of e_i * w_i, and w_i is the key of the variable x_i."""
    dshift = n * FIELD_BITS
    return tuple((1 << dshift) + (1 << (dshift - (i + 1) * FIELD_BITS)) for i in range(n))


@functools.cache
def _fields(n: int) -> struct.Struct:
    """The fields of a packed key in n variables without its c field, as
    big-endian unsigned 16-bit integers: the degree, then e_1, ..., e_n."""
    return struct.Struct(">" + "H" * (n + 1))


@functools.cache
def _unpacker(n: int) -> Callable[[int], Exponents]:
    """The function from a packed key in n variables, without its c field,
    back to its exponent tuple."""
    unpack, size = _fields(n).unpack, (n + 1) * FIELD_BITS // 8
    return lambda key: unpack(key.to_bytes(size, "big"))[1:]


def _c_shift(n: int) -> int:
    """The shift of the c field of packed keys in n variables."""
    return (n + 1) * FIELD_BITS


class PolyError(ValueError):
    """Base error for polynomial operations."""


class VariableMismatchError(PolyError):
    """Operands do not share a variable list, or an arity is wrong."""


class PolyParseError(PolyError):
    """Syntax or name error while parsing an expression; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _coerce_coeff(value: Union[int, Fraction, ExtScalar]) -> Scalar:
    if isinstance(value, (Fraction, ExtScalar)):
        return value
    return Fraction(value)


def _common_field(fields: set[ExtField | None]) -> ExtField | None:
    """The field of a result computed over the given fields, None standing
    for Q: the one ExtField among them, or None.  Only an operand that keeps
    a power of c has a field, so only two such operands can clash."""
    fields.discard(None)
    if len(fields) > 1:
        raise ScalarError("cannot mix polynomials over different extension fields")
    return fields.pop() if fields else None


class Poly:
    """Immutable sparse polynomial with exact coefficients."""

    __slots__ = ("vars", "field", "_ints")

    def __init__(self, vars: Sequence[str], terms: dict[Exponents, Scalar]):
        vs = tuple(vars)
        n = len(vs)
        pack, cshift = _fields(n).pack, _c_shift(n)
        field = None
        # (key, numerator, denominator) of each nonzero rational part
        parts: list[tuple[int, int, int]] = []
        for mono, value in terms.items():
            if len(mono) != n:
                raise VariableMismatchError(f"exponent tuple {mono} does not match {n} variables")
            try:
                key = int.from_bytes(pack(sum(mono), *mono), "big")
            except struct.error:
                raise PolyError(f"exponent tuple {mono} has a negative exponent or a degree"
                                f" above MAX_DEGREE = {MAX_DEGREE}") from None
            c = value if type(value) is Fraction else _coerce_coeff(value)
            if isinstance(c, ExtScalar):
                # a rational ExtScalar is rational: it adds no power of c
                if any(c.nums[1:]) and c.field is not field:
                    field = _common_field({field, c.field})
                parts += [(key + (j << cshift), num, c.den) for j, num in enumerate(c.nums) if num]
            else:
                num, d = c.as_integer_ratio()
                if num:
                    parts.append((key, num, d))
        # each coefficient is in lowest terms, so no prime of den divides
        # every numerator: the form is already reduced
        den = math.lcm(*[d for _, _, d in parts])
        _set_vars(self, vs)
        _set_field(self, field)
        _set_ints(self, ({key: num * (den // d) for key, num, d in parts}, den))

    @classmethod
    def _raw(cls, vars: tuple[str, ...], nums: dict[int, int], den: int,
             field: ExtField | None = None) -> "Poly":
        """Trusted constructor for results that are already canonical: a
        variable tuple and the form of the module docstring, nonzero integer
        numerators keyed by packed monomials, every power of c below the
        field's k, over den > 0 with nothing common to all.  The field is
        the one the numerators were computed over, and is dropped when no
        key has a power of c left.  The new Poly owns nums."""
        p = object.__new__(cls)
        _set_vars(p, vars)
        if field is not None and max(nums, default=0) < 1 << _c_shift(len(vars)):
            field = None
        _set_field(p, field)
        _set_ints(p, (nums, den))
        return p

    @property
    def terms(self) -> dict[Exponents, Scalar]:
        """The term table: exponent tuples to nonzero coefficients, built from
        the packed form on each read.  A coefficient is a Fraction, or an
        ExtScalar when a power of c is left in it."""
        unpack, (nums, den), field = _unpacker(len(self.vars)), self._ints, self.field
        if field is None:
            return {unpack(key): Fraction(n, den) for key, n in nums.items()}
        return {unpack(key): _scalar(field, cs, den)
                for key, cs in _by_monomial(nums, len(self.vars), field).items()}

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls._raw(tuple(vars), {}, 1)

    @classmethod
    def const(cls, vars: Sequence[str], value: Union[int, Fraction, ExtScalar]) -> "Poly":
        vs = tuple(vars)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        vs = tuple(vars)
        if name not in vs:
            raise VariableMismatchError(f"unknown variable {name!r} (have {vs})")
        return cls._raw(vs, {_weights(len(vs))[vs.index(name)]: 1}, 1)

    # -- inspection ----------------------------------------------------------

    def _monomials(self) -> Iterable[int]:
        """The packed keys of the monomials, c field masked."""
        nums = self._ints[0]
        if self.field is None:
            return nums
        low = (1 << _c_shift(len(self.vars))) - 1
        return {key & low for key in nums}

    def _coefficient(self, key: int) -> Scalar:
        """The coefficient of the monomial with packed key."""
        nums, den = self._ints
        field = self.field
        if field is None:
            return Fraction(nums.get(key, 0), den)
        step = 1 << _c_shift(len(self.vars))
        return _scalar(field, [nums.get(key + j * step, 0) for j in range(field.k)], den)

    def is_zero(self) -> bool:
        return not self._ints[0]

    def constant_term(self) -> Scalar:
        return self._coefficient(0)

    def degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        keys = self._monomials()
        return max(keys) >> len(self.vars) * FIELD_BITS if keys else -1

    def order(self) -> Union[int, float]:
        """Minimal total degree of a term; math.inf for the zero polynomial."""
        keys = self._monomials()
        return min(keys) >> len(self.vars) * FIELD_BITS if keys else math.inf

    def is_rational(self) -> bool:
        """True when every coefficient lies in Q: no power of c is left."""
        return self.field is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.vars == other.vars and self._ints == other._ints
                and self.field == other.field)

    def __hash__(self) -> int:
        nums, den = self._ints
        return hash((self.vars, frozenset(nums.items()), den, self.field))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if self.vars != other.vars:
            raise VariableMismatchError(f"mismatched variable lists {self.vars} vs {other.vars}")
        field = self.field
        if other.field is not field:
            field = _common_field({field, other.field})
        (na, da), (nb, db) = self._ints, other._ints
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
        return _lowest(self.vars, nums, den, field)

    def __neg__(self) -> "Poly":
        nums, den = self._ints
        return Poly._raw(self.vars, {m: -n for m, n in nums.items()}, den, self.field)

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
        if isinstance(c, ExtScalar):
            return self * Poly.const(self.vars, c)
        # a nonzero rational times a nonzero numerator is nonzero
        n, d = c.as_integer_ratio()
        nums, den = self._ints
        return _lowest(self.vars, {m: v * n for m, v in nums.items()}, den * d, self.field)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError(f"polynomial exponent must be a non-negative integer, got {exponent}")
        if self.degree() * exponent > MAX_DEGREE:
            raise PolyError(f"a power of degree {self.degree() * exponent} is above"
                            f" MAX_DEGREE = {MAX_DEGREE}")
        if not exponent:
            return Poly.const(self.vars, 1)
        # left to right over the bits of the exponent, from the base itself
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- calculus and composition ---------------------------------------------

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative with respect to one variable."""
        if var not in self.vars:
            raise VariableMismatchError(f"unknown variable {var!r} (have {self.vars})")
        idx = self.vars.index(var)
        # distinct monomials have distinct derivatives and e >= 1: no term
        # collects or vanishes.  e_idx sits in field idx, and dividing by the
        # variable subtracts its key, leaving the c field as it is
        shift = (len(self.vars) - 1 - idx) * FIELD_BITS
        mask = (1 << FIELD_BITS) - 1
        step = _weights(len(self.vars))[idx]
        nums, den = self._ints
        out: dict[int, int] = {}
        for key, n in nums.items():
            e = key >> shift & mask
            if e:
                out[key - step] = n * e
        return _lowest(self.vars, out, den, self.field)

    def substitute(self, images: Sequence["Poly"], jet: int | None = None) -> "Poly":
        """Exact composition p(images); a ring homomorphism into the images' ring.

        Each power of an image is formed once.  A monomial's image is the
        product of its images' powers.  With ``jet`` = k, each image is cut
        at degree k, and each product of two of these is one pass of the
        product kernel, whose tail drops the terms of degree above k: no
        uncut product and no `.jet` pass.  A monomial is dropped before any
        product when the image of one of its variables is zero, or when the
        orders of its images sum to more than k.  One `sum_of_products` then
        collects every (coefficient, image) pair, so with ``jet`` = k the
        result is the k-jet of the composition.  The zero polynomial maps to
        zero over the images' variables once the arguments are checked, with
        no power or order formed.
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
        if jet is not None and jet < 0:
            raise PolyError(f"jet order must be >= 0, got {jet}")
        if not self._ints[0]:
            return Poly.zero(target_vars)

        def times(a: Poly, b: Poly) -> Poly:
            """a * b, cut at degree jet by the product's own tail when given."""
            if jet is None:
                return a * b
            field = a.field if a.field is b.field else _common_field({a.field, b.field})
            return Poly._raw(target_vars, *_cut_product(a._ints, b._ints, len(target_vars),
                                                        field, jet), field)

        # powers e >= 1 only: a zero exponent never reaches image_power
        pow_cache: list[dict[int, Poly]] = [{} for _ in images]

        def image_power(i: int, e: int) -> Poly:
            cache = pow_cache[i]
            if e not in cache:
                if e == 1:
                    cache[e] = images[i] if jet is None else images[i].jet(jet)
                else:
                    half = image_power(i, e // 2)
                    sq = times(half, half)
                    cache[e] = sq if e % 2 == 0 else times(sq, image_power(i, 1))
            return cache[e]

        den = self._ints[1]
        unpack = _unpacker(len(self.vars))
        # math.inf for a zero image; the coefficients form a field, so the
        # order of a product is the sum of its factors' orders
        orders = [g.order() for g in images]
        one = Poly._raw(target_vars, {0: 1}, 1)
        # one constant per monomial, its powers of c keyed over the targets
        step = 1 << _c_shift(len(target_vars))
        pairs = []
        for key, cs in _by_monomial(self._ints[0], len(self.vars), self.field).items():
            exponents = unpack(key)
            reach = sum([o * e for o, e in zip(orders, exponents) if e])
            if reach == math.inf or jet is not None and reach > jet:
                # a zero factor, or an image with no term of degree <= jet
                continue
            # every power and partial product has an order <= reach: no cut
            # leaves one zero
            image = one
            for i, e in enumerate(exponents):
                if e:
                    power = image_power(i, e)
                    image = power if image is one else times(image, power)
            pairs.append((_lowest(target_vars, {j * step: n for j, n in enumerate(cs) if n},
                                  den, self.field), image))
        return sum_of_products(target_vars, pairs)

    def jet(self, k: int) -> "Poly":
        """Truncate to total degree <= k (the k-jet at the origin)."""
        if k < 0:
            raise PolyError(f"jet order must be >= 0, got {k}")
        nums, den = self._ints
        n = len(self.vars)
        low = (1 << _c_shift(n)) - 1
        limit = (k + 1) << n * FIELD_BITS
        kept = {m: v for m, v in nums.items() if m & low < limit}
        return self if len(kept) == len(nums) else _lowest(self.vars, kept, den, self.field)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        """Descending graded-lex order, written from the packed form's integers."""
        nums, den = self._ints
        if not nums:
            return "0"
        if self.field is None:
            terms = [(key, ((0, nums[key]),)) for key in sorted(nums, reverse=True)]
        else:
            groups = _by_monomial(nums, len(self.vars), self.field)
            terms = [(key, [(j, n) for j, n in reversed(list(enumerate(groups[key]))) if n])
                     for key in sorted(groups, reverse=True)]
        names, unpack = self.vars, _unpacker(len(self.vars))
        pieces: list[tuple[bool, str]] = []
        for key, parts in terms:
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, unpack(key)) if e]
            if len(parts) > 1:
                # no single sign to pull out of a residue with two powers of c
                pieces.append((False, "*".join([f"({residue_str(parts, den)})"] + factors)))
                continue
            j, num = parts[0]
            if j:
                factors.insert(0, GENERATOR if j == 1 else f"{GENERATOR}^{j}")
            if abs(num) != den or not factors:
                factors.insert(0, ratio_str(num, den))
            pieces.append((num < 0, "*".join(factors)))
        return signed_sum(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


# the slots' own setters: Poly refuses attribute assignment, and these cost
# less than object.__setattr__
_set_vars, _set_field, _set_ints = (
    Poly.__dict__[name].__set__ for name in Poly.__slots__)


def _by_monomial(nums: dict[int, int], n: int, field: ExtField | None) -> dict[int, list[int]]:
    """Packed numerators in n variables over field by monomial: each key
    with the c field masked, to the numerators of 1, c, ..., c^(k-1) (k = 1
    over Q)."""
    k = 1 if field is None else field.k
    cshift = _c_shift(n)
    low = (1 << cshift) - 1
    out: dict[int, list[int]] = {}
    for key, num in nums.items():
        out.setdefault(key & low, [0] * k)[key >> cshift] = num
    return out


def _scalar(field: ExtField, nums: list[int], den: int) -> Scalar:
    """The scalar sum_j nums[j] * c^j / den: a Fraction when no power of c
    is left, else an ExtScalar."""
    if any(nums[1:]):
        return ExtScalar._make(field, tuple(nums), den)
    return Fraction(nums[0], den)


def _lowest(vars: tuple[str, ...], nums: dict[int, int], den: int,
            field: ExtField | None) -> Poly:
    """The Poly of nonzero numerators nums over den > 0, with their common
    factor with den divided out."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {m: n // g for m, n in nums.items()}
            den //= g
    return Poly._raw(vars, nums, den, field)


def _products(operands: Iterable[tuple[Packed, Packed]], den: int, field: ExtField | None,
              cshift: int, jet: int | None = None) -> Packed:
    """The product kernel: the packed form of the sum of a * b over the
    pairs (a, b) of packed forms of nonzero polynomials over field (None
    for Q), c field shift ``cshift``, cut at degree ``jet`` when given.

    The term loop brings each pair to den, a multiple of every da * db, and
    adds the product of two terms under the sum of their keys.  The
    operand with fewer terms is the outer loop and the other's items are
    taken once per pair, so a long factor times a one-term factor costs one
    outer step, not one per long term.  A pair whose degrees sum to more
    than MAX_DEGREE raises PolyError before any of its term pairs is
    formed.  The tail folds each c^j with j >= k to 6 * c^(j - k), drops the
    zero entries and, with ``jet`` = k, every term of degree above k in the
    same pass, and divides out the common factor with den.  Without a cut,
    an entry over Q can be zero only where two term pairs met under one
    key, so zero entries are looked for only then.
    """
    out: dict[int, int] = {}
    get = out.get
    formed = 0
    for (ta, da), (tb, db) in operands:
        # a masked key is at most the key, and the sum of two masked keys
        # is below 1 << cshift exactly when their degrees sum to at most
        # MAX_DEGREE: the degrees are worked out only past that bound
        if max(ta) + max(tb) >> cshift:
            low, dshift = (1 << cshift) - 1, cshift - FIELD_BITS
            degree = sum(max(key & low for key in t) >> dshift for t in (ta, tb))
            if degree > MAX_DEGREE:
                raise PolyError(f"a product of degree {degree} is above"
                                f" MAX_DEGREE = {MAX_DEGREE}")
        scale = den // (da * db)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        formed += len(ta) * len(tb)
        inner = tb.items()
        for ka, ca in ta.items():
            if scale != 1:
                ca *= scale
            for kb, cb in inner:
                key = ka + kb
                prev = get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
    if field is not None:
        # the factors' powers of c are below k, so their sums are below 2k
        # and one pass leaves every power below k
        top = field.k << cshift
        for key in [key for key in out if key >= top]:
            folded = key - top
            out[folded] = get(folded, 0) + 6 * out.pop(key)
    if jet is not None:
        # a term has degree <= jet exactly when its masked key is below the
        # key of degree jet + 1
        low, limit = (1 << cshift) - 1, (jet + 1) << (cshift - FIELD_BITS)
        out = {m: v for m, v in out.items() if v and m & low < limit}
    elif field is not None or len(out) < formed:
        out = {m: v for m, v in out.items() if v}
    if den != 1:
        g = math.gcd(den, *out.values())
        if g != 1:
            out = {m: n // g for m, n in out.items()}
            den //= g
    return out, den


def sum_of_products(vars: Sequence[str], pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """Sum of a_i * b_i over the (a_i, b_i) pairs, collected in one table.

    One pass over the pairs checks their variables, finds the field and
    keeps the pairs with two nonzero operands, whose products `_products`
    collects over the common denominator of all pair products (da * db for
    a single pair, else their lcm).  A pair product of degree above
    MAX_DEGREE raises PolyError before any of its term pairs is formed, and
    operands over two different fields raise ScalarError.
    """
    vs = tuple(vars)
    field = None
    operands = []
    for a, b in pairs:
        if a.vars != vs or b.vars != vs:
            raise VariableMismatchError(
                f"mismatched variable lists {a.vars} * {b.vars}, expected {vs}")
        if a.field is not field or b.field is not field:
            field = _common_field({field, a.field, b.field})
        ia, ib = a._ints, b._ints
        if ia[0] and ib[0]:
            operands.append((ia, ib))
    if len(operands) == 1:
        (_, da), (_, db) = operands[0]
        den = da * db
    else:
        den = math.lcm(*[da * db for (_, da), (_, db) in operands])
    nums, den = _products(operands, den, field, _c_shift(len(vs)))
    return Poly._raw(vs, nums, den, field)


def _cut_product(a: Packed, b: Packed, n: int, field: ExtField | None, k: int) -> Packed:
    """The packed form of the k-jet of a * b, for the packed forms a and b
    of two nonzero polynomials in n variables over field (None for Q): one
    pass of the product kernel, cutting at degree k, and no Poly."""
    return _products(((a, b),), a[1] * b[1], field, _c_shift(n), k)


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
# the digits of 2**MAX_COEFF_BITS: an integer literal with more digits,
# leading zeros aside, has more than MAX_COEFF_BITS bits
MAX_LITERAL_DIGITS = len(str(2**MAX_COEFF_BITS))


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
        # ASCII digits only: str.isdigit also takes '²' or '١'
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
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


def _int_value(tok: _Token, max_digits: int) -> int | None:
    """The value of an int token, or None when it has more than max_digits
    digits after its leading zeros, which int() then never reads."""
    digits = tok.text.lstrip("0") or "0"
    return int(digits) if len(digits) <= max_digits else None


def _literal_value(tok: _Token) -> int:
    """The value of an int token of a rational literal, which must have at
    most MAX_COEFF_BITS bits."""
    value = _int_value(tok, MAX_LITERAL_DIGITS)
    if value is None or value.bit_length() > MAX_COEFF_BITS:
        raise PolyParseError(f"integer literal of more than {MAX_COEFF_BITS} bits", tok.pos)
    return value


def _height(p: Poly) -> int:
    """Bit height of p over its denominator D: the bits of D or of the
    largest integer numerator, extension residues included, if that is more."""
    nums, den = p._ints
    return max(den.bit_length(), max(map(abs, nums.values()), default=0).bit_length())


# a product of atoms (rational literals, variables and c, each possibly to
# a power) is one packed monomial (key, num, den): num * x^key / den in
# lowest terms, key 0 when num is 0; the parser's field goes with it
Monomial = tuple[int, int, int]


class _Parser:
    def __init__(self, tokens: list[_Token], vars: tuple[str, ...], field: ExtField | None):
        self.tokens = tokens
        self.i = 0
        self.vars = vars
        self.field = field
        self.depth = 0
        self.dshift, self.cshift = len(vars) * FIELD_BITS, _c_shift(len(vars))
        # fold: a product of two residues of Q(c), c^k = 6, sums k products,
        # each at most 6 times a numerator product
        self.k, self.fold = (1, 1) if field is None else (field.k, 6 * field.k)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> Poly:
        terms = [self.parse_term()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                term = self.parse_term()
                if tok.text == "-":
                    term = -term if type(term) is Poly else (term[0], -term[1], term[2])
                terms.append(term)
            else:
                return self.sum(terms)

    def sum(self, terms: list[Poly | Monomial]) -> Poly:
        """The monomials collected over one common denominator, plus each Poly."""
        polys = [t for t in terms if type(t) is Poly]
        monomials = [t for t in terms if type(t) is not Poly]
        if monomials:
            den = math.lcm(*[d for _, _, d in monomials])
            nums: dict[int, int] = {}
            for key, num, d in monomials:
                nums[key] = nums.get(key, 0) + num * (den // d)
            polys.insert(0, _lowest(self.vars, {m: v for m, v in nums.items() if v}, den,
                                    self.field))
        return functools.reduce(Poly.__add__, polys)

    def poly(self, factor: Poly | Monomial) -> Poly:
        if type(factor) is Poly:
            return factor
        key, num, den = factor
        return Poly._raw(self.vars, {key: num} if num else {}, den, self.field)

    def measure(self, factor: Poly | Monomial) -> tuple[int, int, int]:
        """The term count, degree and _height of a factor."""
        if type(factor) is Poly:
            return len(factor._monomials()), factor.degree(), _height(factor)
        key, num, den = factor
        if not num:
            return 0, -1, 1
        return 1, key >> self.dshift & MAX_DEGREE, max(abs(num).bit_length(), den.bit_length())

    def monomial(self, key: int, num: int, den: int) -> Monomial:
        """num * x^key / den in lowest terms, with c^(q*k + r) folded to 6^q * c^r."""
        if not num:
            return 0, 0, 1
        q = (key >> self.cshift) // self.k
        num *= 6**q
        g = math.gcd(num, den)
        return key - (q * self.k << self.cshift), num // g, den // g

    def check_terms(self, what: str, tok: _Token, terms: int, degree: int, bits: int) -> None:
        """Refuse, before computing it, a result with at most ``terms`` terms
        and at most the monomials of degree <= ``degree`` if that exceeds
        MAX_TERMS, one whose height may reach ``bits`` above MAX_COEFF_BITS,
        or one whose degree may reach ``degree`` above MAX_DEGREE."""
        n = len(self.vars)
        bound = min(terms, math.comb(n + max(degree, 0), n))
        if bound > MAX_TERMS:
            raise PolyParseError(
                f"{what} may have up to {bound} terms, more than {MAX_TERMS}", tok.pos)
        if bits > MAX_COEFF_BITS:
            raise PolyParseError(
                f"{what} may have coefficients of up to {bits} bits, more than"
                f" {MAX_COEFF_BITS}", tok.pos)
        if degree > MAX_DEGREE:
            raise PolyParseError(
                f"{what} may have degree up to {degree}, more than {MAX_DEGREE}", tok.pos)

    def parse_term(self) -> Poly | Monomial:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                rhs = self.parse_factor()
                # each coefficient sums at most min(t_a, t_b) products of the
                # numerators over the product of the two denominators
                (ta, da, ha), (tb, db, hb) = self.measure(result), self.measure(rhs)
                self.check_terms("product", tok, ta * tb, da + db,
                                 ha + hb + (min(ta, tb) * self.fold).bit_length())
                if type(result) is Poly or type(rhs) is Poly:
                    result = self.poly(result) * self.poly(rhs)
                else:
                    # keys add
                    (ka, na, da), (kb, nb, db) = result, rhs
                    result = self.monomial(ka + kb, na * nb, da * db)
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

    def parse_factor(self) -> Poly | Monomial:
        base = self.parse_base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise PolyParseError("exponent must be a non-negative integer", exp_tok.pos)
            exponent = _int_value(exp_tok, len(str(MAX_EXPONENT)))
            if exponent is None or exponent > MAX_EXPONENT:
                raise PolyParseError(f"exponent above {MAX_EXPONENT}", exp_tok.pos)
            t, degree, height = self.measure(base)
            if t:
                # one term per multiset of e of the t terms of the base; the
                # numerators of p^e are at most (t * fold * 2^H(p))^e
                self.check_terms("power", tok, math.comb(t + exponent - 1, exponent),
                                 exponent * degree,
                                 exponent * (height + (t * self.fold).bit_length()))
            self.advance()
            if type(base) is Poly:
                return base ** exponent
            key, num, den = base
            return self.monomial(key * exponent, num**exponent, den**exponent)
        return base

    def parse_base(self) -> Poly | Monomial:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.pos)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            close = self.advance()
            if close.kind != "op" or close.text != ")":
                raise PolyParseError(
                    f"expected ')', found {close.text or 'end of input'!r}", close.pos)
            self.depth -= 1
            return inner
        negative = tok.kind == "op" and tok.text == "-"
        if negative:
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise PolyParseError("expected an integer after '-'", tok.pos)
        if tok.kind == "int":
            # a rational literal, its sign in the numerator
            self.advance()
            numerator, denominator = _literal_value(tok), 1
            if negative:
                numerator = -numerator
            if self.peek().kind == "op" and self.peek().text == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind == "ident":
                    raise PolyParseError("division by a non-constant", den_tok.pos)
                if den_tok.kind != "int":
                    raise PolyParseError("expected an integer denominator", den_tok.pos)
                self.advance()
                denominator = _literal_value(den_tok)
                if denominator == 0:
                    raise PolyParseError("zero denominator in rational literal", den_tok.pos)
            return self.monomial(0, numerator, denominator)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.field is not None and name == GENERATOR:
                return self.monomial(1 << self.cshift, 1, 1)
            if name not in self.vars:
                raise PolyParseError(f"unknown variable {name!r}", tok.pos)
            return _weights(len(self.vars))[self.vars.index(name)], 1, 1
        raise PolyParseError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}",
            tok.pos)


def parse_poly(text: str, vars: Sequence[str], field: ExtField | None = None) -> Poly:
    """Parse an expression into a canonical Poly over the given variables.

    When ``field`` is an ExtField, its generator c is accepted as a
    coefficient constant, and no variable may then be named c.  The result
    is over ``field`` when a power of c is left in it, else over Q.
    """
    vs = tuple(vars)
    if field is not None and GENERATOR in vs:
        raise PolyParseError(
            f"variable name {GENERATOR!r} collides with the extension generator", 0)
    parser = _Parser(_tokenize(text), vs, field)
    result = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise PolyParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return result


def _monomial_keys(n: int, k: int) -> list[int]:
    """The packed keys of all monomials of total degree <= k in n variables,
    in ascending order, which is graded-lex order."""
    if not n:
        return [0] if k >= 0 else []
    # by_degree[d] lists the keys of degree d over the last variables,
    # without their degree field, ascending; each round puts one more
    # variable in front
    by_degree = [[d] for d in range(k + 1)]
    for i in range(1, n):
        shift = i * FIELD_BITS
        by_degree = [[(e << shift) + rest for e in range(d + 1) for rest in by_degree[d - e]]
                     for d in range(k + 1)]
    dshift = n * FIELD_BITS
    return [(d << dshift) + rest for d, level in enumerate(by_degree) for rest in level]


def _level(n: int, d: int) -> range:
    """The indices of the monomials of degree d in `_monomial_keys` order
    of n variables (empty for d < 0)."""
    if d < 0:
        return range(0)
    return range(math.comb(n + d - 1, n), math.comb(n + d, n))
