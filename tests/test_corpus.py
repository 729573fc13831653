from __future__ import annotations

import math

import pytest

from frontals.corpus import (
    ENTRY_NAMES,
    FIXED_ENTRY_NAMES,
    a_k_front,
    compose_chain,
    four_k_entry,
    get_entry,
    run_all,
    run_entry,
)
from frontals.local_algebra import multiplicity
from frontals.maps import PolyMap, jacobian_det
from frontals.poly import Poly, parse_poly
from frontals.scalars import MAX_EXT_ORDER

from helpers import a_k_axis_jacobian, corank, generator

XY = ("x", "y")
XYZ = ("X", "Y", "Z")


def test_every_entry_is_certified_before_composition():
    for name in FIXED_ENTRY_NAMES:
        report = run_entry(name)
        assert report.certified, name


def test_every_transform_is_a_diffeomorphism_witness():
    # run_entry trusts its built-in data: every chain step and correction is a
    # diffeomorphism germ fixing the origin, and every claimed form fixes it
    entries = [get_entry(name) for name in FIXED_ENTRY_NAMES]
    for k in range(2, MAX_EXT_ORDER + 1):
        entries += [four_k_entry(k, "+"), four_k_entry(k, "-")]
    for entry in entries:
        label = (entry.name, tuple(entry.parameters.values()))
        steps = [(s.name, s.transform) for s in entry.chain]
        steps += [(c.step_name, c.transform) for c in entry.corrections]
        for name, transform in steps:
            assert transform.is_origin_preserving, (label, name)
            assert corank(transform) == 0, (label, name)
        assert entry.claimed.is_origin_preserving, label


@pytest.mark.parametrize("sign", ["+", "-"])
def test_four_k_scalings_are_the_generator_powers(sign):
    X, Y, Z = (Poly.variable(XYZ, v) for v in XYZ)
    x, y = (Poly.variable(XY, v) for v in XY)
    for k in range(2, MAX_EXT_ORDER + 1):
        c = generator(k)
        steps = {s.name: s.transform for s in four_k_entry(k, sign).chain}
        assert steps["h1"] == PolyMap((x, y.scale(math.prod([c] * (k - 1)) / 6))), k
        assert steps["H3"] == PolyMap((X, Y.scale(c / 6), Z)), k


def test_fold_needs_the_sign_correction():
    report = run_entry("fold")
    assert not report.literal.matches
    assert report.literal.residual == PolyMap.from_exprs(["2*y^2", "0", "-2*y^2"], XY)
    assert report.corrected is not None and report.corrected.matches
    assert report.path == "corrected"
    assert report.entry.claimed == PolyMap.from_exprs(["x^2", "y", "0"], XY)


def test_cuspidal_edge_needs_both_corrections():
    report = run_entry("cuspidal_edge")
    assert not report.literal.matches
    assert report.corrected is not None and report.corrected.matches
    assert report.entry.claimed == PolyMap.from_exprs(["x^2", "y", "x^3"], XY)
    # dropping either correction alone must not reach the claim
    entry = report.entry
    F = report.package.frontal_map
    only_h1 = {c.step_name: c.transform for c in entry.corrections if c.step_name == "H1"}
    only_h2 = {c.step_name: c.transform for c in entry.corrections if c.step_name == "H2"}
    assert compose_chain(F, entry.chain, only_h1) != entry.claimed
    assert compose_chain(F, entry.chain, only_h2) != entry.claimed


def test_corrected_h1_reaches_the_intermediate_forms():
    # both reductions pass through (1/2*(x+y)^2, y, ...) after the first target
    # map; only the corrected H1 = (X + 1/2*Y^2, Y, Z) produces it
    from frontals.maps import compose

    h1_fixed = PolyMap.from_exprs(["X + 1/2*Y^2", "Y", "Z"], ("X", "Y", "Z"))
    h1_literal = PolyMap.from_exprs(["X - 1/2*Y^2", "Y", "Z"], ("X", "Y", "Z"))

    fold_F = run_entry("fold").package.frontal_map
    intermediate_fold = PolyMap.from_exprs(["1/2*(x+y)^2", "y", "(x+y)^2"], XY)
    assert compose(h1_fixed, fold_F) == intermediate_fold
    assert compose(h1_literal, fold_F) != intermediate_fold

    edge_F = run_entry("cuspidal_edge").package.frontal_map
    intermediate_edge = PolyMap.from_exprs(
        ["1/2*(x+y)^2", "y", "(x+y)^3 - y*(x+y)^2"], XY)
    assert compose(h1_fixed, edge_F) == intermediate_edge
    assert compose(h1_literal, edge_F) != intermediate_edge


def test_folded_umbrella_literal():
    report = run_entry("folded_umbrella")
    assert report.literal.matches and report.path == "literal"
    assert report.entry.claimed == PolyMap.from_exprs(
        ["x^2 + x*y", "y", "x^4 + 2/3*x^3*y"], XY)


def test_cuspidal_crosscap_alt_quartic_correction():
    report = run_entry("cuspidal_crosscap_alt")
    assert not report.literal.matches
    # the literal H3 leaves exactly -1/2*y^4 in the third slot
    assert report.literal.residual == PolyMap.from_exprs(["0", "0", "-1/2*y^4"], XY)
    assert report.corrected is not None and report.corrected.matches
    assert report.entry.claimed == PolyMap.from_exprs(["x^2", "y", "x^3*y"], XY)


def test_open_folded_umbrella_literal():
    report = run_entry("open_folded_umbrella")
    assert report.literal.matches
    assert report.entry.claimed == PolyMap.from_exprs(
        ["x^2 + x*y", "y", "x^4 + 2/3*x^3*y", "x^5 + 5/8*x^4*y", "0"], XY)


def test_swallowtail_literal():
    report = run_entry("swallowtail")
    assert report.literal.matches
    assert report.entry.claimed == PolyMap.from_exprs(
        ["-4*x^3 - 2*x*y", "y", "3*x^4 + x^2*y"], XY)


def test_open_swallowtail_literal():
    report = run_entry("open_swallowtail")
    assert report.literal.matches
    assert report.entry.claimed == PolyMap.from_exprs(
        ["x^3 + x*y", "y", "x^4 + 2/3*x^2*y", "x^5 + 5/9*x^3*y", "0"], XY)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_four_k_composes_over_the_extension(k, sign):
    report = run_entry("four_k", k=k, sign=sign)
    assert report.literal.matches
    assert report.literal.rational
    s = sign
    assert report.entry.claimed == PolyMap.from_exprs(
        [f"2*x^3 {s} x*y^{k}", "y", f"3*x^4 {s} x^2*y^{k}"], XY)


def test_four_k_rejects_k_one():
    with pytest.raises(ValueError, match="greater than 1"):
        four_k_entry(1, "+")
    with pytest.raises(ValueError):
        four_k_entry(2, "plus")


def test_run_all_default():
    summary = run_all()
    assert summary.all_ok
    labels = [(r.entry.name, tuple(sorted(r.entry.parameters.items())))
              for r in summary.reports]
    assert len(labels) == len(FIXED_ENTRY_NAMES) + 4
    assert len(set(labels)) == len(labels)
    # the three literal mismatches are the documented corrections
    flagged = {r.entry.name for r in summary.reports if not r.literal.matches}
    assert flagged == {"fold", "cuspidal_edge", "cuspidal_crosscap_alt"}
    assert summary.discrepancies


def test_run_all_empty_k_range_skips_family():
    summary = run_all(k_values=())
    assert [r.entry.name for r in summary.reports] == list(FIXED_ENTRY_NAMES)
    assert summary.all_ok


def test_unknown_entry():
    with pytest.raises(KeyError):
        get_entry("lips")
    assert "four_k" in ENTRY_NAMES


# -- A_k front -----------------------------------------------------------------


def test_a_k_front_germ_shape():
    f3 = a_k_front(3)
    assert f3 == PolyMap.from_exprs(
        ["1/4*x1^4 + 1/2*x1^2*x2 + x1*x3", "x2", "x3"],
        ("x1", "x2", "x3"))
    # k=2 specializes to the swallowtail base germ up to variable names
    f2 = a_k_front(2)
    assert f2 == PolyMap.from_exprs(["1/3*x1^3 + x1*x2", "x2"], ("x1", "x2"))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_k_front_checks(k):
    assert multiplicity(a_k_front(k), 12).value == k + 1
    restricted = a_k_axis_jacobian(k)
    assert restricted == parse_poly(f"x1^{k}", ("x1",))
    assert restricted.order() == k
    assert (restricted * restricted).order() == 2 * k


def test_a_k_front_rejects_small_k():
    with pytest.raises(ValueError):
        a_k_front(1)


def test_restricted_jacobian_order_oracle():
    # oracle: substitute x2=...=xk=0 into det(Jf_k) and inspect the exponent
    for k in (2, 3, 4):
        f = a_k_front(k)
        det = jacobian_det(f)
        axis = ("x1",)
        images = [parse_poly("x1", axis)] + [parse_poly("0", axis)] * (k - 1)
        restricted = det.substitute(images)
        assert restricted.terms == {(k,): 1}
        square = restricted * restricted
        assert square.order() == 2 * k
