"""Exact coefficient arithmetic: rationals and the radical extension Q(6^(1/k)).

Rational scalars are plain ``fractions.Fraction`` (already canonical a/b in
lowest terms with positive denominator).  The extension field Q[c]/(c^k - 6)
exists for compositions whose diffeomorphisms contain the k-th root of 6;
c^k - 6 is irreducible over Q (Eisenstein at 2), so the quotient is a field
and every nonzero residue is invertible.

An extension element is stored as k integer numerators of 1, c, ...,
c^(k-1) over one positive denominator, in lowest terms: products are integer
convolutions folded with c^k = 6, sums work over the common denominator, and
each result is normalised by a single gcd.  The canonical form makes
equality and hashing plain field compares; a residue of degree 0 equals and
hashes like its ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Sequence, Union

Scalar = Union[Fraction, "ExtScalar"]

# largest extension order accepted from input (germ files, corpus --k); the
# cost of one product grows as k^2 and of one inverse as k^3
MAX_EXT_ORDER = 32


class ScalarError(ArithmeticError):
    pass


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
        return ExtScalar(self, coeffs)

    @property
    def generator(self) -> "ExtScalar":
        return self.element([0, 1] if self.k > 1 else [6])

    @property
    def zero(self) -> "ExtScalar":
        return self.element([])

    @property
    def one(self) -> "ExtScalar":
        return self.element([1])


class ExtScalar:
    """Element of an ExtField: the reduced residue
    (nums[0] + nums[1]*c + ... + nums[k-1]*c^(k-1)) / den, with integer
    numerators, den > 0 and gcd(den, *nums) == 1."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: ExtField, coeffs: Sequence[Union[int, Fraction]]):
        """The residue with the given rational coefficients of 1, c, ...;
        coefficients beyond the given ones are zero."""
        if len(coeffs) > field.k:
            raise ValueError(f"residue degree must be < {field.k}")
        qs = [Fraction(v) for v in coeffs]
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = math.lcm(*(q.denominator for q in qs))
        self.field = field
        self.nums = (tuple(q.numerator * (den // q.denominator) for q in qs)
                     + (0,) * (field.k - len(qs)))
        self.den = den

    @classmethod
    def _make(cls, field: ExtField, nums: tuple[int, ...], den: int) -> "ExtScalar":
        """Trusted constructor: k integer numerators over den > 0, brought to
        lowest terms here."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        x = object.__new__(cls)
        x.field = field
        x.nums = nums
        x.den = den
        return x

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, c, ..., c^(k-1)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtScalar):
            if other.field is self.field or other.field == self.field:
                return self.nums == other.nums and self.den == other.den
            return (self.is_rational() and other.is_rational()
                    and self.nums[0] == other.nums[0] and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.nums[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field, self.nums, self.den))

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other) -> "tuple[tuple[int, ...], int] | None":
        """other as (numerators, denominator) in this field; None when it is
        not a scalar."""
        if isinstance(other, ExtScalar):
            if other.field is not self.field and other.field != self.field:
                raise ScalarError("cannot mix elements of different extension fields")
            return other.nums, other.den
        if isinstance(other, (int, Fraction)):
            return (other.numerator,) + (0,) * (self.field.k - 1), other.denominator
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        nums, den = o
        if den == self.den:
            return ExtScalar._make(self.field, tuple(map(add, self.nums, nums)), den)
        return ExtScalar._make(
            self.field, tuple(a * den + b * self.den for a, b in zip(self.nums, nums)),
            self.den * den)

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar._make(self.field, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        nums, den = o
        if den == self.den:
            return ExtScalar._make(self.field, tuple(map(sub, self.nums, nums)), den)
        return ExtScalar._make(
            self.field, tuple(a * den - b * self.den for a, b in zip(self.nums, nums)),
            self.den * den)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, ExtScalar):
            field = self.field
            if other.field is not field and other.field != field:
                raise ScalarError("cannot mix elements of different extension fields")
            k = field.k
            prod = [0] * (2 * k - 1)
            right = [(j, b) for j, b in enumerate(other.nums) if b]
            for i, a in enumerate(self.nums):
                if a:
                    for j, b in right:
                        prod[i + j] += a * b
            # reduce with c^k = 6
            for i in range(k, 2 * k - 1):
                prod[i - k] += 6 * prod[i]
            return ExtScalar._make(field, tuple(prod[:k]), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return ExtScalar._make(self.field, tuple(a * p for a in self.nums),
                                   self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "ExtScalar":
        """1/self: the solution x of N x = den*e_0, N the matrix of
        multiplication by nums[0] + nums[1]*c + ... on the basis 1, c, ...;
        N is invertible because c^k - 6 is irreducible."""
        from .linalg import SparseSolver  # linalg imports this module

        if not self:
            raise ZeroDivisionError("inverse of zero in extension field")
        k, a = self.field.k, self.nums
        solver = SparseSolver()
        for r in range(k):
            # entry (r, j) is the coefficient of c^r in nums(c) * c^j
            solver.add_row({j: a[r - j] if j <= r else 6 * a[r - j + k] for j in range(k)},
                           self.den if r == 0 else 0)
        x = solver.solve()
        return ExtScalar(self.field, [x.get(j, 0) for j in range(k)])

    def __truediv__(self, other):
        if isinstance(other, ExtScalar):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

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
        coeffs = self.coeffs
        sym = self.field.symbol
        parts: list[str] = []
        for i in range(self.field.k - 1, -1, -1):
            q = coeffs[i]
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
