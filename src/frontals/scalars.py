"""Exact coefficient arithmetic: rationals and the radical extension Q(6^(1/k)).

Rational scalars are plain ``fractions.Fraction`` (already canonical a/b in
lowest terms with positive denominator).  The extension field Q[c]/(c^k - 6)
exists for compositions whose diffeomorphisms contain the k-th root of 6;
c^k - 6 is irreducible over Q (Eisenstein at 2), so the quotient is a field
and every nonzero residue is invertible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Rational = Fraction
Scalar = Union[Fraction, "ExtScalar"]


class ScalarError(ArithmeticError):
    pass


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient/remainder of dense univariate rational polynomials (lists, low degree first)."""
    a = list(a)
    db = len(b) - 1
    while b and b[-1] == 0:
        b = b[:-1]
        db -= 1
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        coeff = a[-1] / b[-1]
        shift = len(a) - 1 - db
        q[shift] = coeff
        for i, bc in enumerate(b):
            a[shift + i] -= coeff * bc
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _poly_ext_gcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Return (g, s) with s*a = g modulo b, g the gcd of a and b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while any(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        # s_next = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1))
        for i, qc in enumerate(q):
            for j, sc in enumerate(s1):
                prod[i + j] += qc * sc
        nxt = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            nxt[i] += c
        for i, c in enumerate(prod):
            nxt[i] -= c
        s0, s1 = s1, nxt
    return r0, s0


class ExtField:
    """The field Q[c]/(c^k - 6), i.e. rationals adjoined the real k-th root of 6."""

    def __init__(self, k: int, symbol: str = "c"):
        if k < 1:
            raise ValueError(f"extension order must be >= 1, got {k}")
        self.k = k
        self.symbol = symbol

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExtField) and other.k == self.k and other.symbol == self.symbol

    def __hash__(self) -> int:
        return hash((self.k, self.symbol))

    def __repr__(self) -> str:
        return f"ExtField({self.k})"

    def element(self, coeffs: Sequence[Union[int, Fraction]]) -> "ExtScalar":
        """Residue with the given coefficients of 1, c, ..., c^(k-1)."""
        cs = [Fraction(v) for v in coeffs]
        if len(cs) > self.k:
            raise ValueError(f"residue degree must be < {self.k}")
        cs += [Fraction(0)] * (self.k - len(cs))
        return ExtScalar(self, tuple(cs))

    @property
    def generator(self) -> "ExtScalar":
        return self.element([0, 1] if self.k > 1 else [6])

    @property
    def zero(self) -> "ExtScalar":
        return self.element([])

    @property
    def one(self) -> "ExtScalar":
        return self.element([1])

    def coerce(self, value: Union[int, Fraction, "ExtScalar"]) -> "ExtScalar":
        if isinstance(value, ExtScalar):
            if value.field != self:
                raise ScalarError("cannot mix elements of different extension fields")
            return value
        return self.element([Fraction(value)])


class ExtScalar:
    """Element of an ExtField, stored as the reduced residue (degree < k)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- structure ---------------------------------------------------------

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtScalar):
            if other.field == self.field:
                return self.coeffs == other.coeffs
            if self.is_rational() and other.is_rational():
                return self.coeffs[0] == other.coeffs[0]
            return False
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other) -> "ExtScalar | None":
        if isinstance(other, ExtScalar):
            if other.field != self.field:
                raise ScalarError("cannot mix elements of different extension fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ExtScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ExtScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        k = self.field.k
        prod = [Fraction(0)] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b != 0:
                    prod[i + j] += a * b
        # reduce with c^k = 6
        for i in range(2 * k - 2, k - 1, -1):
            if prod[i] != 0:
                prod[i - k] += 6 * prod[i]
                prod[i] = Fraction(0)
        return ExtScalar(self.field, tuple(prod[:k]))

    __rmul__ = __mul__

    def inverse(self) -> "ExtScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero in extension field")
        k = self.field.k
        modulus = [Fraction(-6)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
        g, s = _poly_ext_gcd(list(self.coeffs), modulus)
        # modulus irreducible, so g is a nonzero constant
        g0 = g[0]
        inv = [c / g0 for c in s]
        _, rem = _poly_divmod(inv, modulus)
        rem += [Fraction(0)] * (k - len(rem))
        return ExtScalar(self.field, tuple(rem[:k]))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        sym = self.field.symbol
        parts: list[str] = []
        for i in range(self.field.k - 1, -1, -1):
            q = self.coeffs[i]
            if q == 0:
                continue
            if i == 0:
                body = str(abs(q))
            else:
                head = sym if i == 1 else f"{sym}^{i}"
                body = head if abs(q) == 1 else f"{abs(q)}*{head}"
            if not parts:
                if q < 0:
                    # keep the leading sign inside an int literal so the
                    # rendering re-parses under the expression grammar
                    parts.append("-" + body if body[0].isdigit() else "-1*" + body)
                else:
                    parts.append(body)
            else:
                parts.append(f"+ {body}" if q > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ExtScalar({self.field!r}, {self})"


def scalar_str(value: Scalar) -> str:
    """Render a scalar exactly: "a/b" for rationals, a polynomial in c otherwise."""
    if isinstance(value, ExtScalar):
        if value.is_rational():
            return str(value.to_fraction())
        return str(value)
    return str(value)


def as_rational(value: Scalar) -> Fraction:
    """Demote to a Fraction; raises ScalarError for genuine extension elements."""
    if isinstance(value, ExtScalar):
        return value.to_fraction()
    return Fraction(value)
