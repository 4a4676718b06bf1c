"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "[criterion N] label: PASS|FAIL" line and pins
its budgets, seeds and tolerances inline.  All random inputs come from
fixed seeds, so reruns are identical; the seeds were checked to be
non-load-bearing (neighbouring seeds pass too).
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy import ndimage

from milnorscope import (ComplexRational, DiagonalMixedPolynomial, MixedTerm,
                         TransversalityVerdict, VerdictKind, analyze,
                         colinearity_classes, critical_indices,
                         falsify_transversality, fiber_compare,
                         parse_mixed, parse_real_map, radial_weights,
                         sample_critical_subspace, search_tangency_locus,
                         special_family_claim_check, special_family_form,
                         special_family_minor, tangency_minors_exact)
from milnorscope.realpoly import minors_exact

WORKED = parse_mixed("(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~")
G_POLY = parse_mixed("z1 z1~ + z2^2 z2~")
H_POLY = parse_mixed("z1 z1~ - z2 z2~ + z3^2 z3~")
FAILING_MAP = parse_real_map("(x*y + z^2, x) vars x,y,z")

TS = [0.2, 0.4, 0.6, 0.8, 1.0]

DIRS = [ComplexRational(Fraction(1), Fraction(0)),
        ComplexRational(Fraction(0), Fraction(1)),
        ComplexRational(Fraction(1), Fraction(1)),
        ComplexRational(Fraction(-2), Fraction(-1)),
        ComplexRational(Fraction(3), Fraction(-2))]
MUS = [Fraction(k) for k in (1, -1, 2, -2, 3, -3)] + [Fraction(1, 2),
                                                      Fraction(-1, 2)]


def _line(num: int, label: str, ok: bool) -> None:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")


def _coeff(mu: Fraction, d: ComplexRational) -> ComplexRational:
    return ComplexRational(mu * d.re, mu * d.im)


# ----------------------------------------------------------------------
# random generators (fixed seeds at the call sites)


def _random_psi(rng) -> DiagonalMixedPolynomial:
    # every variable occurs; term degrees divide 6 so lcm(degrees) <= 6
    # and t^degree stays well inside double range for t <= 3
    n = int(rng.integers(1, 5))
    terms = []
    for j in range(1, n + 1):
        d = int(rng.choice([1, 2, 3, 6]))
        a = int(rng.integers(0, d + 1))
        mu = MUS[rng.integers(0, len(MUS))]
        direc = DIRS[rng.integers(0, len(DIRS))]
        terms.append(MixedTerm(j, _coeff(mu, direc), a, d - a))
    return DiagonalMixedPolynomial(n, terms)


def _random_classified_psi(rng) -> DiagonalMixedPolynomial:
    # two shared coefficient directions per draw so classes can merge and
    # mixed ratio signs can turn a discriminant component into a full line
    n = int(rng.integers(2, 5))
    pool = [DIRS[i] for i in rng.choice(len(DIRS), size=2, replace=False)]
    terms = []
    for j in range(1, n + 1):
        if j == 1 or rng.random() < 0.6:
            a = int(rng.integers(1, 4))
            ab = (a, a)
        else:
            ab = [(2, 1), (1, 2), (3, 1), (1, 3), (2, 0), (0, 3)][
                rng.integers(0, 6)]
        mu = MUS[rng.integers(0, len(MUS))]
        terms.append(MixedTerm(j, _coeff(mu, pool[rng.integers(0, 2)]), *ab))
    return DiagonalMixedPolynomial(n, terms)


def _random_family(rng, force_mixed: bool) -> DiagonalMixedPolynomial:
    """One non-critical index with exponents (2,1) or (1,2), the rest
    critical, all coefficients on a common line through 0."""
    n = int(rng.integers(3 if force_mixed else 2, 5))
    odd = int(rng.integers(1, n + 1))
    d = DIRS[rng.integers(0, len(DIRS))]
    shape = []
    for j in range(1, n + 1):
        mu = MUS[rng.integers(0, len(MUS))]
        if j == odd:
            ab = (2, 1) if rng.random() < 0.5 else (1, 2)
        else:
            a = int(rng.integers(1, 4))
            ab = (a, a)
        shape.append([j, ab, mu])
    if force_mixed:
        crit = [s for s in shape if s[0] != odd]
        crit[0][2] = abs(crit[0][2])
        crit[1][2] = -abs(crit[1][2])
    return DiagonalMixedPolynomial(
        n, [MixedTerm(j, _coeff(mu, d), *ab) for j, ab, mu in shape])


def _random_real_map(rng):
    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, min(n, 3) + 1))
    names = ["x", "y", "z", "w"][:n]
    comps = []
    for _ in range(p):
        parts = []
        for _ in range(int(rng.integers(2, 5))):
            c = int(rng.integers(1, 4))
            vs = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
            mono = "*".join(f"{names[v]}^{int(rng.integers(1, 4))}"
                            for v in vs)
            parts.append(("-" if rng.random() < 0.5 else "+", f"{c}*{mono}"))
        s = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, t in parts[1:]:
            s += f" {sign} {t}"
        comps.append(s)
    return parse_real_map(f"({', '.join(comps)}) vars {','.join(names)}")


# ----------------------------------------------------------------------
# 1. structure goldens


def test_structure_goldens():
    ok = False
    start = time.perf_counter()
    try:
        assert critical_indices(WORKED) == frozenset({1, 2})
        part = colinearity_classes(WORKED)
        assert [c.indices for c in part.classes] == [(1,), (2,)]
        assert [(c.direction.re, c.direction.im) for c in part.classes] \
            == [(1, 1), (-2, -1)]
        rep = analyze(WORKED)
        geo = rep.discriminant
        assert [c.kind for c in geo.components] == ["ray", "ray"]
        cs = rep.critical_set
        assert [(s.zero_indices, s.free_indices) for s in cs.subspaces] \
            == [((2, 3), (1,)), ((1, 3), (2,))]
        rw = radial_weights(WORKED)
        assert (rw.degree, rw.weights) == (12, (6, 3, 4))
        assert rep.verdict.kind \
            is VerdictKind.FIBRATION_MAIN_THEOREM

        assert critical_indices(G_POLY) == frozenset({1})
        part = colinearity_classes(G_POLY)
        assert [c.indices for c in part.classes] == [(1,)]
        rep = analyze(G_POLY)
        geo = rep.discriminant
        assert [(c.kind, c.direction.re, c.direction.im)
                for c in geo.components] == [("ray", 1, 0)]
        cs = rep.critical_set
        assert [(s.zero_indices, s.free_indices) for s in cs.subspaces] \
            == [((2,), (1,))]
        rw = radial_weights(G_POLY)
        assert (rw.degree, rw.weights) == (6, (3, 2))
        assert rep.verdict.kind \
            is VerdictKind.FIBRATION_MAIN_THEOREM

        assert critical_indices(H_POLY) == frozenset({1, 2})
        part = colinearity_classes(H_POLY)
        assert [c.indices for c in part.classes] == [(1, 2)]
        assert part.classes[0].ratios == {1: Fraction(1), 2: Fraction(-1)}
        rep = analyze(H_POLY)
        geo = rep.discriminant
        assert [(c.kind, c.direction.re, c.direction.im)
                for c in geo.components] == [("full_line", 1, 0)]
        cs = rep.critical_set
        assert [(s.zero_indices, s.free_indices) for s in cs.subspaces] \
            == [((3,), (1, 2))]
        rw = radial_weights(H_POLY)
        assert (rw.degree, rw.weights) == (6, (3, 3, 2))
        assert rep.verdict.kind \
            is VerdictKind.FIBRATION_SPECIAL_CASE

        # failing map: both 2x2 Jacobian minors vanish exactly on the
        # y-axis and the image of the axis is the origin
        F = Fraction
        for y in (F(-2), F(1, 3), F(5)):
            rows = FAILING_MAP.jacobian_exact([F(0), y, F(0)])
            assert all(m == 0 for m in minors_exact(rows, 2))
            assert FAILING_MAP.eval_exact([F(0), y, F(0)]) == (F(0), F(0))
        for pt in ([F(1), F(0), F(0)], [F(0), F(0), F(1)],
                   [F(1), F(2), F(3)]):
            rows = FAILING_MAP.jacobian_exact(pt)
            assert any(m != 0 for m in minors_exact(rows, 2))
        # the lone 3x3 sphere-tangency minor vanishes on the whole z = 0
        # plane, which meets every sphere arbitrarily close to the zero
        # set: the structural reason the map fails the criterion
        for pt in ([F(1), F(2), F(0)], [F(-3), F(1, 2), F(0)],
                   [F(1, 100), F(1), F(0)]):
            assert tangency_minors_exact(FAILING_MAP, pt) == [F(0)]
        assert tangency_minors_exact(FAILING_MAP, [F(1), F(2), F(3)]) \
            != [F(0)]

        assert time.perf_counter() - start < 1.0
        ok = True
    finally:
        _line(1, "structure goldens", ok)


# ----------------------------------------------------------------------
# 2. transversality falsification


def test_falsifier_finds_witness_sequence():
    ok = False
    start = time.perf_counter()
    try:
        rep = falsify_transversality(FAILING_MAP, 1.0, seeds=256)
        assert rep.verdict is TransversalityVerdict.FAILS
        assert len(rep.witnesses) >= 3
        for w in rep.witnesses:
            assert w.sigma < 1e-8
            assert abs(w.point[2]) < 1e-6          # along z = 0
            assert abs(np.linalg.norm(w.point) - 1.0) <= 1e-9
            assert not w.near_critical
        fns = [w.f_norm for w in rep.witnesses]
        for a, b in zip(fns, fns[1:]):
            assert a >= 10.0 * b
        assert time.perf_counter() - start < 30.0
        ok = True
    finally:
        _line(2, "falsifier witness sequence", ok)


# ----------------------------------------------------------------------
# 3. transversality support with known tangency curves


def _g_tangency_curve(eps, ts):
    # minus branch of 3(z^2 + w^2) = 2z on the radius-eps sphere, y = 0
    pts = []
    for t in ts:
        z = (1.0 - math.sqrt(1.0 - t * t)) / 3.0
        pts.append([math.sqrt(eps * eps - 2.0 * z / 3.0), 0.0, z, t / 3.0])
    return np.asarray(pts)


def _h_tangency_curves(eps, ts):
    # branches 3(t^2 + r^2) = 2t (plus-sign block carries the norm) and
    # 3(t^2 + r^2) = -2t (minus-sign block), both on the radius-eps sphere
    p, q = [], []
    for s in ts:
        t = (1.0 - math.sqrt(1.0 - s * s)) / 3.0
        p.append([math.sqrt(eps * eps - 2.0 * t / 3.0), 0.0, 0.0, 0.0,
                  t, s / 3.0])
        t = (-1.0 + math.sqrt(1.0 - s * s)) / 3.0
        q.append([0.0, 0.0, math.sqrt(eps * eps + 2.0 * t / 3.0), 0.0,
                  t, s / 3.0])
    return np.asarray(p), np.asarray(q)


def test_holds_at_budget_with_curves():
    ok = False
    start = time.perf_counter()
    try:
        for psi, curves_of in ((G_POLY, lambda e: [_g_tangency_curve(e, TS)]),
                               (H_POLY, lambda e: list(_h_tangency_curves(e, TS)))):
            f = psi.to_real_map()
            for eps in (1.0, 0.5):
                rep = falsify_transversality(f, eps, seeds=128, iters=300)
                assert rep.verdict is TransversalityVerdict.HOLDS
                curves = curves_of(eps)
                loc = search_tangency_locus(f, eps, seeds=64, iters=200,
                                            extra_seeds=np.vstack(curves))
                W = np.asarray([w.point for w in loc.witnesses])
                for curve in curves:
                    for c in curve:
                        d = np.min(np.linalg.norm(W - c, axis=1))
                        assert d < 1e-3
        # the first tangency branch closes into a curve on the radius-2/3
        # sphere once the free coordinates are tied to the branch
        for t in TS:
            u = math.sqrt(1.0 - t * t)
            p = np.array([(1.0 - u) / 3.0, t / 3.0, (1.0 + u) / 3.0, t / 3.0])
            assert abs(np.linalg.norm(p) - 2.0 / 3.0) < 1e-9
        assert time.perf_counter() - start < 120.0
        ok = True
    finally:
        _line(3, "holds at budget with tangency curves", ok)


# ----------------------------------------------------------------------
# 4. fiber component counts against a grid flood-fill oracle


def _grid_components(f, c, eps, h, delta):
    """Components of {x in eps-ball : |f(x) - c| <= delta} on a grid."""
    ax = np.linspace(-eps, eps, int(round(2 * eps / h)) + 1)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    near = np.linalg.norm(f.eval_many(P) - np.asarray(c, float), axis=1)
    mask = (near <= delta) & (np.linalg.norm(P, axis=1) <= eps)
    _, n = ndimage.label(mask.reshape(X.shape),
                         structure=np.ones((3, 3, 3), int))
    return n


def test_fiber_component_counts():
    ok = False
    try:
        cmp = fiber_compare(FAILING_MAP, (1.0, 0.0), (0.0, 1.0), 3.0,
                            count=2000)
        assert cmp.component_counts == (2, 1)
        assert not cmp.first.unreliable and not cmp.second.unreliable
        # oracle: 26-connected flood fill over a thin tube around each
        # fiber (h and delta sit mid-range of a stable parameter sweep)
        for c, expected in (((1.0, 0.0), 2), ((0.0, 1.0), 1)):
            assert _grid_components(FAILING_MAP, c, 3.0, 0.075, 0.25) \
                == expected
        ok = True
    finally:
        _line(4, "fiber component counts", ok)


# ----------------------------------------------------------------------
# 5. equivariance under the weighted scaling action


def test_equivariance_property():
    ok = False
    try:
        rng = np.random.default_rng(2025)
        for _ in range(5):
            psi = _random_psi(rng)
            rw = radial_weights(psi)
            p = np.array(rw.weights, dtype=float)
            for _ in range(100):
                Z = rng.uniform(-1, 1, psi.n) + 1j * rng.uniform(-1, 1, psi.n)
                t = float(rng.uniform(0.02, 3.0))
                base = psi.eval(Z)
                err = abs(psi.eval(Z * t ** p) - t ** rw.degree * base)
                assert err <= 1e-9 * (1.0 + abs(base))
        ok = True
    finally:
        _line(5, "equivariance property", ok)


# ----------------------------------------------------------------------
# 6. closed-form minor against brute-force determinants


def _brute_minor(psi, j, x, component):
    f = psi.to_real_map()
    M = np.vstack([f.grad_many(x), x])
    o = special_family_form(psi).odd_index
    cols = [2 * (j - 1) + (0 if component == "x" else 1),
            2 * (o - 1), 2 * (o - 1) + 1]
    return float(np.linalg.det(M[:, cols]))


def test_special_family_minor_oracle():
    ok = False
    try:
        rng = np.random.default_rng(41)
        nonvacuous = 0
        for k in range(5):
            psi = _random_family(rng, force_mixed=k < 2)
            form = special_family_form(psi)
            assert form is not None
            chk = special_family_claim_check(psi)
            assert chk.holds
            if not chk.vacuous:
                nonvacuous += 1
                assert chk.min_cross_ratio > 1.0
            for x in rng.uniform(-1.5, 1.5, size=(200, 2 * psi.n)):
                j = form.critical[rng.integers(0, len(form.critical))]
                comp = "x" if rng.random() < 0.5 else "y"
                closed = special_family_minor(psi, j, x, comp)
                brute = _brute_minor(psi, j, x, comp)
                assert abs(closed - brute) <= 1e-10 * (1.0 + abs(brute))
        assert nonvacuous >= 2
        ok = True
    finally:
        _line(6, "special family minor oracle", ok)


# ----------------------------------------------------------------------
# 7. gradients against central finite differences


def _fd_jacobian(f, x, h=1e-6):
    J = np.empty((f.p, f.n))
    for k in range(f.n):
        e = np.zeros(f.n)
        e[k] = h
        J[:, k] = (f.eval_many(x + e) - f.eval_many(x - e)) / (2 * h)
    return J


def test_gradient_finite_difference():
    ok = False
    try:
        rng = np.random.default_rng(12)
        for _ in range(5):
            psi = _random_psi(rng)
            f = psi.to_real_map()
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=f.n)
                J = psi.real_jacobian(x[0::2] + 1j * x[1::2])
                err = np.linalg.norm(J - _fd_jacobian(f, x))
                assert err <= 1e-6 * (1.0 + np.linalg.norm(J))
        for _ in range(5):
            f = _random_real_map(rng)
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=f.n)
                J = f.grad_many(x)
                err = np.linalg.norm(J - _fd_jacobian(f, x))
                assert err <= 1e-6 * (1.0 + np.linalg.norm(J))
        ok = True
    finally:
        _line(7, "gradient finite differences", ok)


# ----------------------------------------------------------------------
# 8. discriminant sampling consistency


def test_discriminant_sampling():
    ok = False
    try:
        rng = np.random.default_rng(77)
        kinds = set()
        for _ in range(5):
            psi = _random_classified_psi(rng)
            rep = analyze(psi)
            cs = rep.critical_set
            by_idx = {c.class_indices: c for c in rep.discriminant.components}
            for sub in cs.subspaces:
                comp = by_idx[sub.class_indices]
                kinds.add(comp.kind)
                Z = sample_critical_subspace(psi, sub, 500, rng)
                for v in psi.eval_many(Z):
                    assert comp.contains_value(complex(v))
        assert kinds == {"ray", "full_line"}   # the draw covers both shapes
        ok = True
    finally:
        _line(8, "discriminant sampling", ok)
