"""Line-oriented germ files: variable list, map block, optional multipliers.

Format ('#' starts a comment, blank lines ignored):

    vars: x y
    ext: 3            # optional, enables the 6^(1/3) extension symbol c
    map:
    f1 = 1/2*x^2 + x*y
    f2 = y
    mu:               # optional block
    m1 = 1

Each of vars:, ext:, map: and mu: appears at most once.  Component lines
are taken in file order; names must be unique within their block.  The map
must parse to an origin-preserving PolyMap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .maps import PolyMap
from .poly import Poly, PolyParseError, parse_poly
from .scalars import MAX_EXT_ORDER, ExtField


# the order of an ext: line: an integer in ASCII digits (int() also takes
# other scripts' digits, such as the Arabic-Indic three, and '_' between
# digits); the groups are its sign and its digits after leading zeros
_ORDER = re.compile(r"([+-]?)0*([0-9]+)")


class GermFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


@dataclass(frozen=True)
class GermFile:
    vars: tuple[str, ...]
    germ: PolyMap
    multipliers: tuple[Poly, ...]
    field: ExtField | None  # the ext: field; a Poly holds it only where a power of c is left

    @property
    def ext_order(self) -> int | None:
        return self.field.k if self.field is not None else None


def parse_germ_file(text: str) -> GermFile:
    vars_: tuple[str, ...] | None = None
    ext_order: int | None = None
    map_items: list[tuple[str, str, int]] = []
    mu_items: list[tuple[str, str, int]] = []
    block: str | None = None
    opened: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("vars:"):
            if vars_ is not None:
                raise GermFileError("duplicate vars: line", lineno)
            names = line[5:].split()
            if not names:
                raise GermFileError("vars: line lists no variables", lineno)
            if len(set(names)) != len(names):
                raise GermFileError("duplicate variable name", lineno)
            vars_ = tuple(names)
            continue
        if lowered.startswith("ext:"):
            if ext_order is not None:
                raise GermFileError("duplicate ext: line", lineno)
            match = _ORDER.fullmatch(line[4:].strip())
            if match is None:
                raise GermFileError("ext: expects an integer order", lineno)
            sign, digits = match.groups()
            # an order with more digits than MAX_EXT_ORDER is refused from
            # its digit count, before int() reads it
            if (len(digits) > len(str(MAX_EXT_ORDER))
                    or not 1 <= int(sign + digits) <= MAX_EXT_ORDER):
                raise GermFileError(f"ext: order must be between 1 and {MAX_EXT_ORDER}", lineno)
            ext_order = int(sign + digits)
            continue
        if lowered in ("map:", "mu:"):
            if lowered[:-1] in opened:
                raise GermFileError(f"duplicate {lowered} block", lineno)
            block = lowered[:-1]
            opened.add(block)
            continue
        if "=" in line:
            if block is None:
                raise GermFileError("component line outside map:/mu: block", lineno)
            name, expr = (part.strip() for part in line.split("=", 1))
            if not name:
                raise GermFileError("component line has no name", lineno)
            (map_items if block == "map" else mu_items).append((name, expr, lineno))
            continue
        raise GermFileError(f"unrecognized line {line!r}", lineno)

    if vars_ is None:
        raise GermFileError("missing vars: line")
    if not map_items:
        raise GermFileError("missing map: block with at least one component")
    for items in (map_items, mu_items):
        names = [name for name, _, _ in items]
        if len(set(names)) != len(names):
            raise GermFileError("duplicate component name")

    field = ExtField(ext_order) if ext_order is not None else None

    def parse_item(name: str, expr: str, lineno: int) -> Poly:
        try:
            return parse_poly(expr, vars_, field)
        except PolyParseError as exc:
            raise GermFileError(f"in {name}: {exc}", lineno) from exc

    components = tuple(parse_item(*item) for item in map_items)
    multipliers = tuple(parse_item(*item) for item in mu_items)
    germ = PolyMap(components)
    if not germ.is_origin_preserving:
        raise GermFileError("map components must have zero constant term")
    return GermFile(vars=vars_, germ=germ, multipliers=multipliers, field=field)


def load_germ_file(path: str | Path) -> GermFile:
    return parse_germ_file(Path(path).read_text(encoding="utf-8"))
