"""OBJ mesh export for surface frontals (n = 2, one multiplier, image in R^3).

The frontal is sampled exactly on an (m+1) x (m+1) rational grid over
[-r, r]^2; only the final decimal rendering is lossy (12 significant digits,
round-half-even), so the byte output is deterministic for fixed inputs.
Each coordinate is an integer over a common denominator: each component is
restricted to a grid row as integer coefficients in x, evaluated by
Horner's rule at the integer grid values, and the quotient is rounded once
from the two integers, with no Fraction built.
Vertices are emitted row-major (y rows, x fastest), each grid cell split
into two triangles.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction

from .frontal import build_frontal
from .maps import PolyMap
from .poly import Poly, PolyError, _unpacker

# largest grid resolution m accepted: the OBJ text grows as m^2
MAX_RESOLUTION = 256
# largest total degree d of F accepted: the power table of the grid rows
# holds (m+1)(d+1) integers of up to about d*log2(2*m*|r|) bits each.  The
# tests, the germs/ files and the benchmark's mesh tasks reach degree 12; a
# dense degree-63 F at the largest resolution takes a few seconds
MAX_DEGREE = 64
# largest bit length of the numerator and of the denominator of the grid
# half-width r: the grid values and the rendered quotients grow with them
MAX_RANGE_BITS = 128
# the digits of 2**MAX_RANGE_BITS: an integer with more digits, leading
# zeros aside, has more than MAX_RANGE_BITS bits
MAX_RANGE_DIGITS = len(str(2**MAX_RANGE_BITS))
# the texts Fraction reads, with looser digit groups: [sign] a/b, or
# [sign] digits [. digits] [e [sign] digits]
_RANGE_TEXT = re.compile(r"\s*[-+]?(?=\d|\.\d)(?:(?P<num>[\d_]+)\s*/\s*(?P<den>[\d_]+)"
                         r"|(?P<int>[\d_]*)(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?)\s*")
# shared: a fresh local context per coordinate cost as much as the rendering
CTX = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _decimal12(num: int, den: int) -> str:
    """num / den, den > 0 and not necessarily in lowest terms, with 12
    significant digits, round-half-even: the quotient is rounded once, from
    the exact integers."""
    if not num:
        return "0"
    return format(CTX.divide(num, den).normalize(CTX), "f")


def _over_range_bits(digits: str, zeros: int = 0) -> bool:
    """Whether the integer written by digits and then that many zeros has
    more than MAX_RANGE_BITS bits; nothing larger than that is built."""
    digits = digits.replace("_", "").lstrip("0")
    if not digits:
        return False
    return (len(digits) + zeros > MAX_RANGE_DIGITS
            or (int(digits) * 10**zeros).bit_length() > MAX_RANGE_BITS)


def parse_range(text: str) -> Fraction:
    """The grid half-width r written in text, as Fraction reads it.

    The text is refused, before any integer is built from it, when one of
    the integers it writes r with has more than MAX_RANGE_BITS bits: a and
    b of a/b, or of a decimal with significant digits N and decimal
    exponent s, N * 10^s when s >= 0, else N and 10^-s.
    """
    m = _RANGE_TEXT.fullmatch(text)
    if m is None:
        # nor does Fraction read it
        return Fraction(text)
    too_large = PolyError(f"grid half-width must have a numerator and a denominator of at"
                          f" most {MAX_RANGE_BITS} bits")
    if m["den"] is not None:
        if _over_range_bits(m["num"]) or _over_range_bits(m["den"]):
            raise too_large
        if not int(m["den"].replace("_", "")):
            raise PolyError("grid half-width has a zero denominator")
        return Fraction(text)
    frac = m["frac"] or ""
    mantissa = (m["int"] + frac).replace("_", "").lstrip("0")
    significant = mantissa.rstrip("0")
    if not significant:
        # zero, whatever its exponent; build_obj refuses it
        return Fraction(0)
    exp = (m["exp"] or "0").replace("_", "")
    # an exponent of 19 digits or more is beyond any text's length
    if len(exp.lstrip("+-").lstrip("0")) > 18:
        raise too_large
    s = int(exp) - len(frac.replace("_", "")) + len(mantissa) - len(significant)
    if (_over_range_bits(significant, s) if s >= 0
            else _over_range_bits(significant) or _over_range_bits("1", -s)):
        raise too_large
    return Fraction(text)


def frontal_surface(germ: PolyMap, multipliers: tuple[Poly, ...]) -> PolyMap:
    if germ.source_dim != 2:
        raise PolyError(f"mesh export needs a 2-variable base germ, got {germ.source_dim}")
    if len(multipliers) != 1:
        raise PolyError(
            f"mesh export needs exactly one multiplier (image in R^3), got {len(multipliers)}")
    F = build_frontal(germ, multipliers)
    if not F.is_rational():
        raise PolyError("mesh export needs rational coefficients")
    return F


def build_obj(F: PolyMap, r: Fraction, m: int) -> str:
    """Sample F on the grid and emit an OBJ string (v and f records only)."""
    if F.source_dim != 2 or F.target_dim != 3:
        raise PolyError(f"OBJ export needs a map R^2 -> R^3, got "
                        f"{F.source_dim} -> {F.target_dim}")
    if r <= 0:
        raise PolyError(f"grid half-width must be positive, got {r}")
    if max(r.numerator.bit_length(), r.denominator.bit_length()) > MAX_RANGE_BITS:
        raise PolyError(f"grid half-width must have a numerator and a denominator of at"
                        f" most {MAX_RANGE_BITS} bits")
    if m < 2:
        raise PolyError(f"grid resolution must be at least 2, got {m}")
    if m > MAX_RESOLUTION:
        raise PolyError(f"grid resolution must be at most {MAX_RESOLUTION}, got {m}")
    degree = max(c.degree() for c in F.components)
    if degree > MAX_DEGREE:
        raise PolyError(f"mesh export needs a map of degree at most {MAX_DEGREE}, got {degree}")
    if not F.is_rational():
        raise PolyError("mesh export needs rational coefficients")
    # over Q the packed keys have no c field
    tables = [c._ints for c in F.components]
    unpack = _unpacker(2)
    # grid coordinate i is -r + i*2r/m = grid[i] / q, and a component of
    # degree d with integer numerators over D is S / (D * q^d) at a grid
    # point, S an integer polynomial in the grid values
    grid = [(2 * i - m) * r.numerator for i in range(m + 1)]
    q = r.denominator * m
    components = []
    for nums, den in tables:
        terms = [(*unpack(key), n) for key, n in nums.items()]
        deg = max((ex + ey for ex, ey, _ in terms), default=0)
        components.append(([(ex, ey, n * q ** (deg - ex - ey)) for ex, ey, n in terms],
                           den * q**deg))
    powers = [[a**e for e in range(max(degree, 0) + 1)] for a in grid]
    lines: list[str] = []
    for py in powers:
        # each component restricted to this row: its integer coefficients of
        # x^e, highest e first, for Horner's rule
        rows = []
        for terms, den in components:
            row = [0] * (max((ex for ex, _, _ in terms), default=0) + 1)
            for ex, ey, n in terms:
                row[ex] += n * py[ey]
            rows.append((row[::-1], den))
        for a in grid:
            coords = []
            for row, den in rows:
                s = 0
                for c in row:
                    s = s * a + c
                coords.append(_decimal12(s, den))
            lines.append("v " + " ".join(coords))
    width = m + 1
    for j in range(m):
        for i in range(m):
            a = j * width + i + 1  # OBJ indices are 1-based
            b = a + 1
            c = a + width + 1
            d = a + width
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"
