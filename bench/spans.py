"""Per-layer spans, recorded from outside the program.

The tracer wraps the public functions of each `frontals` module and
replaces every binding of the original object in every loaded `frontals`
module (so `frontals.frontal.adjugate` and `frontals.cli.jacobian_det` are
wrapped along with `frontals.maps.adjugate`), and every alias of a method in
its class.  A stack of open spans gives each call its self time: its
duration minus the time of the wrapped calls it made.  Totals per span name
are kept in memory and read out when the run ends.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a method of a class
TARGETS = (
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.add", "poly", "Poly.__add__"),
    ("poly.init", "poly", "Poly.__init__"),
    ("poly.substitute", "poly", "Poly.substitute"),
    ("poly.diff", "poly", "Poly.diff"),
    ("poly.jet", "poly", "Poly.jet"),
    ("maps.jacobian_det", "maps", "jacobian_det"),
    ("maps.adjugate", "maps", "adjugate"),
    ("maps.det", "maps", "PolyMatrix.det"),
    ("maps.compose", "maps", "compose"),
    ("linalg.add_row", "linalg", "SparseSolver.add_row"),
    ("linalg.solve", "linalg", "SparseSolver.solve"),
    ("scalars.ext_mul", "scalars", "ExtScalar.__mul__"),
    ("scalars.ext_inverse", "scalars", "ExtScalar.inverse"),
    ("frontal.build", "frontal", "build_frontal"),
    ("frontal.conormals", "frontal", "conormals"),
    ("frontal.certify", "frontal", "certify_frontal"),
    ("local_algebra.multiplicity", "local_algebra", "multiplicity"),
    ("ramification.gradient", "ramification", "gradient_module_membership"),
    ("ramification.jsq", "ramification", "jsq_plus_pullback_membership"),
    ("ramification.recheck", "ramification", "GradientCertificate.recheck"),
    ("ramification.recheck", "ramification", "PullbackCertificate.recheck"),
    ("corpus.run_entry", "corpus", "run_entry"),
    ("germfile.parse", "germfile", "parse_germ_file"),
    ("cli.main", "cli", "main"),
    ("mesh.build_obj", "mesh", "build_obj"),
)


def _unknowns(blocks):
    """Unknown count of a membership system, as the public API defines it:
    blocks(n) coefficient polynomials of degree <= k in n variables."""
    def count(args, kwargs, result):
        f = args[1] if len(args) > 1 else kwargs["f"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        n = f.source_dim
        return {"ramification.unknowns": blocks(n) * comb(n + k, n)}
    return count


# work counters taken from a wrapped call's arguments and result
COUNTERS = {
    "poly.mul": lambda args, kwargs, result: {"poly.mul.terms_out": len(result.terms)},
    "local_algebra.multiplicity": lambda args, kwargs, result: {
        "local_algebra.orders": len(result.dimension_sequence)},
    "ramification.gradient": _unknowns(lambda n: n),      # a_1..a_n
    "ramification.jsq": _unknowns(lambda n: 2),           # mu and eta
    "corpus.run_entry": lambda args, kwargs, result: {"corpus.entries": 1},
}


class Tracer:
    """Span totals per name; recording only while ``on`` is true."""

    def __init__(self) -> None:
        self.on = False
        self.stack: list[list[float]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self.stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        counter = COUNTERS.get(name)
        is_add_row = name == "linalg.add_row"
        tracer = self

        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            rank_before = len(args[0].pivots) if is_add_row else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if is_add_row:
                counts["linalg.pivots"] = (counts.get("linalg.pivots", 0)
                                           + len(args[0].pivots) - rank_before)
            elif counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return span

    def install(self, package: str) -> None:
        """Wrap every target, at every binding site in the loaded package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module, attr in TARGETS:
            owner = sys.modules[f"{package}.{module}"]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[fn_name]
            wrapper = self.wrap(name, original)
            sites = [owner] if cls_path else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patched.append((site, key, value))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, value in reversed(self._patched):
            setattr(site, key, value)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        rows = self.calls.get("linalg.add_row", 0)
        pivots = self.counts.get("linalg.pivots", 0)
        out["linalg.rows"] = (rows, "count")
        out["linalg.pivots"] = (pivots, "count")
        out["linalg.useful_row_ratio"] = (pivots / rows if rows else 0.0, "ratio")
        for key in ("poly.mul.terms_out", "local_algebra.orders",
                    "ramification.unknowns", "corpus.entries"):
            out[key] = (self.counts.get(key, 0), "count")
        return out
