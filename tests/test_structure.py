"""Symbolic classification: critical indices, classes, critical set,
discriminant, weights, and the verdict tree."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnorscope import (
    ComplexRational,
    DiagonalMixedPolynomial,
    MixedTerm,
    VerdictKind,
    analyze,
    colinearity_classes,
    critical_indices,
    parse_mixed,
    radial_weights,
    reals_to_complex,
    DiscriminantComponent,
    special_family_form,
)
from milnorscope import structure

from critical_values import contains_value, sample_critical_subspace

WORKED = "(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~"
G_POLY = "z1 z1~ + z2^2 z2~"
H_POLY = "z1 z1~ - z2 z2~ + z3^2 z3~"


def C(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def direction_pair(cls):
    return (cls.direction.re, cls.direction.im)


# ----------------------------------------------------------------------
# critical indices and classes


def test_critical_indices_examples():
    assert critical_indices(parse_mixed(WORKED)) == {1, 2}
    assert critical_indices(parse_mixed("z1^2 z1~")) == frozenset()
    assert critical_indices(parse_mixed(G_POLY)) == {1}


def test_classes_worked_example():
    part = colinearity_classes(parse_mixed(WORKED))
    assert part.critical == {1, 2}
    assert len(part.classes) == 2
    by_index = {cls.indices: cls for cls in part.classes}
    c1 = by_index[(1,)]
    c2 = by_index[(2,)]
    assert direction_pair(c1) == (1, 1)
    assert direction_pair(c2) == (-2, -1)
    assert c1.ratios == {1: Fraction(1)}
    assert c2.ratios == {2: Fraction(1)}
    assert c1.all_same_argument and c2.all_same_argument


def test_classes_merge_proportional_coefficients():
    psi = DiagonalMixedPolynomial(2, [
        MixedTerm(1, C(1, 1), 1, 1),
        MixedTerm(2, C(2, 2), 2, 2),
    ])
    part = colinearity_classes(psi)
    assert len(part.classes) == 1
    cls = part.classes[0]
    assert cls.indices == (1, 2)
    assert cls.ratios == {1: Fraction(1), 2: Fraction(2)}
    assert cls.all_same_argument


def test_classes_opposite_signs():
    psi = DiagonalMixedPolynomial(2, [
        MixedTerm(1, C(1), 1, 1),
        MixedTerm(2, C(-3), 1, 1),
    ])
    cls = colinearity_classes(psi).classes[0]
    assert cls.indices == (1, 2)
    assert cls.ratios[2] == Fraction(-3)
    assert not cls.all_same_argument


def test_classes_are_an_equivalence_partition():
    rng = np.random.default_rng(3)
    pool = [C(1, 2), C(2, 4), C(-1, -2), C(3, 1), C(-6, -2), C(0, 5), C(1)]
    for _ in range(25):
        k = int(rng.integers(2, 6))
        coeffs = [pool[i] for i in rng.integers(0, len(pool), size=k)]
        terms = [MixedTerm(j + 1, c, 1, 1) for j, c in enumerate(coeffs)]
        part = colinearity_classes(DiagonalMixedPolynomial(k, terms))
        seen = sorted(j for cls in part.classes for j in cls.indices)
        assert seen == sorted(part.critical)
        for cls_a, cls_b in itertools.combinations(part.classes, 2):
            ja, jb = cls_a.indices[0], cls_b.indices[0]
            assert coeffs[ja - 1].cross(coeffs[jb - 1]) != 0
        for cls in part.classes:
            for ja, jb in itertools.combinations(cls.indices, 2):
                assert coeffs[ja - 1].cross(coeffs[jb - 1]) == 0


def test_class_mu_reconstructs_coefficient():
    psi = parse_mixed(H_POLY)
    cls = colinearity_classes(psi).classes[0]
    for j in cls.indices:
        lam = psi.term_for(j).coeff
        mu = cls.mu(j)
        rebuilt = mu * np.exp(1j * cls.theta)
        assert rebuilt == pytest.approx(complex(float(lam.re), float(lam.im)))


# ----------------------------------------------------------------------
# critical set


def test_critical_set_g():
    desc = analyze(parse_mixed(G_POLY)).critical_set
    assert len(desc.subspaces) == 1
    sub = desc.subspaces[0]
    assert sub.class_indices == (1,)
    assert sub.zero_indices == (2,)
    assert sub.free_indices == (1,)
    assert sub.real_dim == 2


def test_critical_set_worked_example():
    desc = analyze(parse_mixed(WORKED)).critical_set
    subs = {s.class_indices: s for s in desc.subspaces}
    assert set(subs) == {(1,), (2,)}
    assert subs[(1,)].zero_indices == (2, 3)
    assert subs[(2,)].zero_indices == (1, 3)


def test_critical_set_no_critical_indices():
    desc = analyze(parse_mixed("z1^2 z1~ + z2^3 z2~")).critical_set
    assert len(desc.subspaces) == 1
    assert desc.subspaces[0].zero_indices == (1, 2)
    assert desc.subspaces[0].free_indices == ()
    assert "origin" in desc.note


def test_critical_set_all_critical_notes():
    desc = analyze(parse_mixed("z1 z1~ + z2 z2~")).critical_set
    assert "all indices are critical" in desc.note


def test_critical_set_linear_term_is_empty():
    desc = analyze(parse_mixed("z1 + z2 z2~")).critical_set
    assert desc.subspaces == ()
    assert "nowhere-zero differential" in desc.note


def test_critical_set_soundness_on_and_off():
    rng = np.random.default_rng(41)
    for text in (WORKED, G_POLY):
        psi = parse_mixed(text)
        desc = analyze(psi).critical_set
        for sub in desc.subspaces:
            Z = sample_critical_subspace(psi, sub, 200, rng)
            for z in Z:
                J = psi.real_jacobian(z)
                for c1, c2 in itertools.combinations(range(2 * psi.n), 2):
                    minor = J[0, c1] * J[1, c2] - J[0, c2] * J[1, c1]
                    assert abs(minor) < 1e-9
        # off the union, at distance >= 0.05 from every subspace
        kept = 0
        while kept < 200:
            z = rng.uniform(-2, 2, size=psi.n) + 1j * rng.uniform(-2, 2, size=psi.n)
            dists = [np.linalg.norm([z[k - 1] for k in sub.zero_indices])
                     for sub in desc.subspaces]
            if min(dists) < 0.05:
                continue
            kept += 1
            J = psi.real_jacobian(z)
            assert np.linalg.svd(J, compute_uv=False)[1] > 1e-6


# ----------------------------------------------------------------------
# discriminant


def test_discriminant_worked_example():
    geo = analyze(parse_mixed(WORKED)).discriminant
    assert len(geo.components) == 2
    dirs = {(c.direction.re, c.direction.im): c.kind for c in geo.components}
    assert dirs == {(1, 1): "ray", (-2, -1): "ray"}
    assert not geo.has_complete_line


def test_discriminant_full_line():
    psi = DiagonalMixedPolynomial(2, [
        MixedTerm(1, C(1), 1, 1),
        MixedTerm(2, C(-1), 1, 1),
    ])
    geo = analyze(psi).discriminant
    assert len(geo.components) == 1
    assert geo.components[0].kind == "full_line"
    assert geo.has_complete_line


def test_discriminant_single_ray_for_g():
    geo = analyze(parse_mixed(G_POLY)).discriminant
    assert len(geo.components) == 1
    comp = geo.components[0]
    assert (comp.direction.re, comp.direction.im) == (1, 0)
    assert comp.kind == "ray"


def test_contains_value_geometry():
    ray = DiscriminantComponent((1,), C(1, 1), "ray")
    assert contains_value(ray, 2 + 2j)
    assert not contains_value(ray, -1 - 1j)
    assert not contains_value(ray, 1 - 1j)
    assert contains_value(ray, 0j)
    line = DiscriminantComponent((1,), C(1, 1), "full_line")
    assert contains_value(line, -3 - 3j)
    assert not contains_value(line, 1j)


def test_contains_value_rejects_non_finite_values():
    for kind in ("ray", "full_line"):
        comp = DiscriminantComponent((1,), C(1), kind)
        for w in (complex(math.nan, 0), complex(math.inf, 0), complex(0, -math.inf)):
            with pytest.raises(ValueError, match="value must be finite"):
                contains_value(comp, w)


def test_discriminant_sampling_consistency():
    rng = np.random.default_rng(47)
    for text in (WORKED, G_POLY, H_POLY):
        psi = parse_mixed(text)
        rep = analyze(psi)
        comp_by_class = {c.class_indices: c for c in rep.discriminant.components}
        for sub in rep.critical_set.subspaces:
            comp = comp_by_class[sub.class_indices]
            Z = sample_critical_subspace(psi, sub, 500, rng)
            vals = psi.eval_many(Z)
            for w in vals:
                assert contains_value(comp, complex(w))


# ----------------------------------------------------------------------
# radial weights


def test_radial_weights_examples():
    rw = radial_weights(parse_mixed(G_POLY))
    assert (rw.degree, rw.weights) == (6, (3, 2))
    rw = radial_weights(parse_mixed(WORKED))
    assert (rw.degree, rw.weights) == (12, (6, 3, 4))
    rw = radial_weights(parse_mixed("z1 z1~"))
    assert (rw.degree, rw.weights) == (2, (1,))


def test_radial_weights_missing_variable():
    with pytest.raises(ValueError, match="no term in z1"):
        radial_weights(parse_mixed("z2 z2~"))


def test_radial_weights_divisibility():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        terms = []
        for j in range(1, n + 1):
            a = int(rng.integers(0, 4))
            b = int(rng.integers(0 if a else 1, 4))
            terms.append(MixedTerm(j, C(int(rng.integers(1, 5))), a, b))
        psi = DiagonalMixedPolynomial(n, terms)
        rw = radial_weights(psi)
        for t in psi.terms:
            assert rw.weights[t.j - 1] * (t.a + t.b) == rw.degree


# ----------------------------------------------------------------------
# sigma cap V


def test_sigma_cap_v_trivial_for_g():
    flag, cert = analyze(parse_mixed(G_POLY)).sigma_cap_v
    assert flag
    assert cert["witness"] is None
    assert cert["classes"][0]["same_sign"]


def test_sigma_cap_v_nontrivial_for_h():
    psi = parse_mixed(H_POLY)
    flag, cert = analyze(psi).sigma_cap_v
    assert not flag
    z = reals_to_complex([c for pair in cert["witness"] for c in pair])
    assert abs(psi.eval(z)) < 1e-9
    assert z[2] == 0  # witness lies on the critical subspace


def test_sigma_cap_v_missing_variable_axis():
    flag, cert = analyze(parse_mixed("z2 z2~")).sigma_cap_v
    assert not flag
    assert "z1" in cert["note"]


# ----------------------------------------------------------------------
# special family


def test_special_family_h():
    form = special_family_form(parse_mixed(H_POLY))
    assert form is not None
    assert form.odd_index == 3
    assert form.odd_exponents == (2, 1)
    assert form.critical == (1, 2)
    assert form.positive_block() == (1,)
    assert form.negative_block() == (2,)


def test_special_family_position_independent():
    form = special_family_form(parse_mixed("z1^2 z1~ + z2 z2~"))
    assert form is not None
    assert form.odd_index == 1
    assert form.critical == (2,)


def test_special_family_rejections():
    assert special_family_form(parse_mixed(WORKED)) is None
    assert special_family_form(parse_mixed("z1 z1~ + z2^3 z2~^2")) is None
    assert special_family_form(parse_mixed("z1 z1~ vars=2")) is None
    assert special_family_form(parse_mixed("z1^2 z1~")) is None


# ----------------------------------------------------------------------
# verdict


def test_verdict_main_theorem_examples():
    v = analyze(parse_mixed(WORKED)).verdict
    assert v.kind is VerdictKind.FIBRATION_MAIN_THEOREM
    assert v.preconditions["proper_critical_range"]
    assert v.preconditions["classes_all_same_argument"]
    assert not v.preconditions["discriminant_has_complete_line"]
    assert analyze(parse_mixed(G_POLY)).verdict.kind is \
        VerdictKind.FIBRATION_MAIN_THEOREM


def test_verdict_special_case_h():
    v = analyze(parse_mixed(H_POLY)).verdict
    assert v.kind is VerdictKind.FIBRATION_SPECIAL_CASE
    assert v.preconditions["special_family"]
    assert v.preconditions["discriminant_has_complete_line"]
    assert not v.preconditions["sigma_cap_v_trivial"]


def test_verdict_submersion():
    v = analyze(parse_mixed("(1+i) z1 + (2-i) z2~")).verdict
    assert v.kind is VerdictKind.SUBMERSION


def test_verdict_submersion_from_any_linear_term():
    # one term lambda z_j (or its conjugate) makes psi a submersion,
    # whatever the other terms and wherever lambda lies
    for text in ("z1 + z2 z2~", "z1", "-3 z1~ + z2^2 z2~", "i z2 + z1 z1~"):
        rep = analyze(parse_mixed(text))
        assert rep.verdict.kind is VerdictKind.SUBMERSION
        assert rep.critical_set.subspaces == ()


@st.composite
def mixed_polys(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    indices = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
    part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = []
    for j in sorted(indices):
        a = draw(st.integers(min_value=0, max_value=3))
        b = draw(st.integers(min_value=0 if a else 1, max_value=3))
        coeff = draw(st.builds(C, part, part).filter(lambda c: not c.is_zero()))
        terms.append(MixedTerm(j, coeff, a, b))
    return DiagonalMixedPolynomial(n, terms)


@settings(max_examples=200, deadline=None)
@given(mixed_polys())
@example(parse_mixed("z1 + z2 z2~"))
def test_submersion_exactly_when_critical_set_is_empty(psi):
    rep = analyze(psi)
    empty = rep.critical_set.subspaces == ()
    assert empty == (rep.verdict.kind is VerdictKind.SUBMERSION)


def test_verdict_isolated_critical_point():
    v = analyze(parse_mixed("z1^2 z1~")).verdict
    assert v.kind is VerdictKind.ISOLATED_CRITICAL_POINT


def test_verdict_undetermined_with_reasons():
    v = analyze(parse_mixed("z1 z1~ - z2 z2~ + z3^3 z3~^2")).verdict
    assert v.kind is VerdictKind.UNDETERMINED
    assert any("mix coefficient signs" in r for r in v.reasons)

    v = analyze(parse_mixed("z1 z1~ + z2 z2~")).verdict
    assert v.kind is VerdictKind.UNDETERMINED
    assert any("every index is critical" in r for r in v.reasons)

    v = analyze(parse_mixed("z2 z2~")).verdict
    assert v.kind is VerdictKind.UNDETERMINED
    assert any("do not occur" in r for r in v.reasons)


def test_verdict_invariant_under_common_scaling():
    scalars = [C(2), C(0, 1), C(-1, 3), C(Fraction(1, 2), Fraction(-5, 3))]
    for text in (WORKED, G_POLY, H_POLY, "z1^2 z1~", "z1 z1~ + z2 z2~"):
        psi = parse_mixed(text)
        base = analyze(psi)
        for c in scalars:
            rep = analyze(psi.scale(c))
            assert rep.verdict.kind is base.verdict.kind
            assert rep.partition.critical == base.partition.critical
            assert [cls.indices for cls in rep.partition.classes] == \
                [cls.indices for cls in base.partition.classes]
            assert rep.discriminant.has_complete_line == \
                base.discriminant.has_complete_line


# ----------------------------------------------------------------------
# report


def test_analyze_bundles_everything():
    rep = analyze(parse_mixed(WORKED))
    assert rep.partition.critical == {1, 2}
    assert rep.radial_weights.degree == 12
    assert rep.radial_weights_error is None
    assert rep.verdict.kind is VerdictKind.FIBRATION_MAIN_THEOREM


def test_analyze_builds_each_quantity_once(monkeypatch):
    calls = []
    for name in ("colinearity_classes", "_critical_set", "_discriminant",
                 "_sigma_cap_v", "special_family_form", "_verdict"):
        def counted(*args, _name=name, _build=getattr(structure, name)):
            calls.append(_name)
            return _build(*args)

        monkeypatch.setattr(structure, name, counted)
    # the index scans: (helper, the function that called it)
    scans = []
    for name in ("_linear_indices", "_missing_indices"):
        def scan(psi, _name=name, _scan=getattr(structure, name)):
            scans.append((_name, sys._getframe(1).f_code.co_name))
            return _scan(psi)

        monkeypatch.setattr(structure, name, scan)
    for text in (WORKED, H_POLY, "z1 + z2 z2~", "z2 z2~"):
        calls.clear()
        scans.clear()
        analyze(parse_mixed(text))
        assert sorted(calls) == sorted(["colinearity_classes", "_critical_set",
                                        "_discriminant", "_sigma_cap_v",
                                        "special_family_form", "_verdict"])
        assert [s for s in scans if s[0] == "_linear_indices"] == \
            [("_linear_indices", "colinearity_classes")]
        assert not {caller for _, caller in scans} & {
            "_critical_set", "_discriminant", "_sigma_cap_v", "_verdict"}
        if text != "z2 z2~":
            # every variable occurs: only the partition lists the missing ones
            assert [s for s in scans if s[0] == "_missing_indices"] == \
                [("_missing_indices", "colinearity_classes")]


@settings(max_examples=200, deadline=None)
@given(mixed_polys())
def test_verdict_reads_the_report_it_sits_in(psi):
    rep = analyze(psi)
    pre = rep.verdict.preconditions
    assert pre["discriminant_has_complete_line"] == rep.discriminant.has_complete_line
    assert pre["sigma_cap_v_trivial"] == rep.sigma_cap_v[0]
    assert pre["special_family"] == (rep.special_family is not None)


def test_analyze_reports_weight_error():
    rep = analyze(parse_mixed("z2 z2~"))
    assert rep.radial_weights is None
    assert "no term in z1" in rep.radial_weights_error


def test_sample_critical_subspace_respects_zeros():
    psi = parse_mixed(WORKED)
    desc = analyze(psi).critical_set
    rng = np.random.default_rng(61)
    for sub in desc.subspaces:
        Z = sample_critical_subspace(psi, sub, 50, rng)
        assert Z.shape == (50, 3)
        for k in sub.zero_indices:
            assert np.all(Z[:, k - 1] == 0)
        for k in sub.free_indices:
            assert np.all(Z[:, k - 1] != 0)
