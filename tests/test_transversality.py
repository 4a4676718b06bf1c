"""Tangency detection and the transversality falsifier/supporter."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorscope import (
    ComplexRational,
    DiagonalMixedPolynomial,
    MixedTerm,
    RealPolynomialMap,
    TransversalityVerdict,
    falsify_transversality,
    parse_mixed,
    parse_real_map,
    search_tangency_locus,
    sample_fiber,
    special_family_claim_check,
    special_family_minor,
    tangency_minors_exact,
)
from milnorscope import sampling
from milnorscope.fiber import NEWTON_TOL, newton_batch
from milnorscope.realpoly import minors_exact
from milnorscope.transversality import (_certify, _fnorm, _matrices,
                                        _normalized, _sigma_min, _tangency_system)

FAILING_MAP = parse_real_map("(x*y + z^2, x) vars x,y,z")
G_MIXED = parse_mixed("z1 z1~ + z2^2 z2~")
H_MIXED = parse_mixed("z1 z1~ - z2 z2~ + z3^2 z3~")


# ----------------------------------------------------------------------
# tangency matrix and dependence measure


def test_tangency_matrix_shape():
    M = _matrices(FAILING_MAP, np.array([0.6, 0.8, 0.0])[None])[0]
    assert M.shape == (3, 3)
    assert np.array_equal(M[-1], [0.6, 0.8, 0.0])
    assert np.array_equal(M[0], [0.8, 0.6, 0.0])
    assert np.array_equal(M[1], [1.0, 0.0, 0.0])


def test_dependence_zero_on_tangency_plane():
    # fibers of (xy + z^2, x) touch every sphere along z = 0
    X = np.array([[0.6, 0.8, 0.0]])
    assert _sigma_min(_matrices(FAILING_MAP, X))[0] < 1e-12
    # and along x = 2y
    X = np.array([[0.8, 0.4, math.sqrt(0.2)]])
    sigma = _sigma_min(_matrices(FAILING_MAP, X))[0]
    assert sigma < 1e-12


def test_dependence_positive_off_the_tangency_set():
    x = np.array([0.3, 0.5, math.sqrt(1 - 0.34)])
    assert _sigma_min(_matrices(FAILING_MAP, x[None]))[0] > 1e-3


def test_dependence_measure_conventions():
    assert _sigma_min(np.eye(3)[None])[0] == pytest.approx(1.0)
    assert _sigma_min(np.array([[[0.0, 0.0], [1.0, 0.0]]]))[0] == 0.0
    assert _sigma_min(np.array([[[1.0, 0], [0, 1], [1, 1]]]))[0] == 0.0
    M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [3.0, 0.0, 1.0]])
    scaled = np.diag([10.0, 0.01, 7.0]) @ M
    assert _sigma_min(scaled[None])[0] == pytest.approx(_sigma_min(M[None])[0])


def test_dependence_agrees_with_exact_minors():
    rng = np.random.default_rng(17)

    def rand_row():
        return [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                for _ in range(5)]

    for k in range(60):
        r1, r2 = rand_row(), rand_row()
        if k % 2 == 0:
            alpha = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
            beta = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
            r3 = [alpha * a + beta * b for a, b in zip(r1, r2)]
        else:
            r3 = rand_row()
        rows = [r1, r2, r3]
        dependent = all(m == 0 for m in minors_exact(rows, 3))
        sigma = _sigma_min(np.array(rows, dtype=float)[None])[0]
        if dependent:
            assert sigma < 1e-10
        else:
            assert sigma > 1e-10


def test_tangency_minors_exact_ex12():
    on_plane = tangency_minors_exact(FAILING_MAP, [Fraction(1, 2), Fraction(1, 3), 0])
    assert on_plane == [Fraction(0)]
    other_branch = tangency_minors_exact(
        FAILING_MAP, [Fraction(2, 3), Fraction(1, 3), Fraction(1, 5)])
    assert other_branch == [Fraction(0)]
    generic = tangency_minors_exact(
        FAILING_MAP, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
    assert generic == [Fraction(1, 24)]


def test_tangency_minors_exact_g():
    g = G_MIXED.to_real_map()
    ms = tangency_minors_exact(g, [0, 0, Fraction(2, 3), 0])
    assert len(ms) == 4
    assert all(m == 0 for m in ms)


@pytest.mark.parametrize("psi", [G_MIXED, H_MIXED], ids=["G", "H"])
@pytest.mark.parametrize("eps", [1.0, 0.25])
def test_witness_sigma_bounds_the_exact_minors(psi, eps):
    # by Cauchy-Binet the root-sum-square of the (p+1)-minors over the
    # product of the row norms is the product of the row-normalised
    # singular values, each at most sqrt(p+1): at most 3 sigma for p = 2
    f = psi.to_real_map()
    locus = search_tangency_locus(f, eps, seeds=64, iters=200, rng_seed=0)
    assert locus.witnesses
    for w in locus.witnesses:
        xs = [Fraction(v) for v in w.point]
        norms2 = math.prod(sum(v * v for v in row) for row in f.jacobian_exact(xs) + [xs])
        minors2 = sum(m * m for m in tangency_minors_exact(f, xs))
        assert math.sqrt(minors2 / norms2) <= 3 * w.sigma + 1e-14


# ----------------------------------------------------------------------
# locus search


def test_search_rejects_bad_inputs():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            search_tangency_locus(FAILING_MAP, bad)
    square = parse_real_map("(x1) vars x1")
    with pytest.raises(ValueError, match="more variables"):
        search_tangency_locus(square, 1.0)


def test_search_and_falsifier_check_the_budget_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew points before checking the budget")

    monkeypatch.setattr(sampling, "sphere_points", no_draw)
    cases = (({"seeds": 0}, r"seeds must be positive and finite, got 0"),
             ({"iters": -1}, r"iters must be zero or positive and finite, got -1"),
             ({"tol_tangency": math.nan},
              r"tol_tangency must be positive and finite, got nan"),
             ({"seeds": 2.5}, r"seeds must be a non-negative integer, got 2\.5"),
             ({"iters": 2.5}, r"iters must be a non-negative integer, got 2\.5"))
    for kwargs, message in cases:
        for call in (search_tangency_locus, falsify_transversality):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(FAILING_MAP, 1.0, **kwargs)


def test_search_lands_on_known_planes():
    res = search_tangency_locus(FAILING_MAP, 1.0, seeds=64, iters=200, rng_seed=0)
    assert res.witnesses
    assert res.converged > 0
    fn = [w.f_norm for w in res.witnesses]
    assert fn == sorted(fn)
    for w in res.witnesses:
        assert abs(np.linalg.norm(w.point) - 1.0) < 1e-9
        assert w.sigma < 1e-8
        x, y, z = w.point
        assert min(abs(z), abs(x - 2 * y)) < 1e-6
        assert not w.near_critical
        assert w.f_norm == pytest.approx(
            float(np.linalg.norm(FAILING_MAP.eval_many(w.point))), abs=1e-12)


def test_search_extra_seeds_are_kept():
    seed = np.array([0.6, 0.8, 0.0])
    res = search_tangency_locus(FAILING_MAP, 1.0, seeds=8, iters=120, rng_seed=1,
                                extra_seeds=[seed])
    dists = [np.linalg.norm(w.point - seed) for w in res.witnesses]
    assert min(dists) < 1e-3


def test_negative_rng_seed_is_rejected_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(sampling, "_sobol", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for call in (lambda: sample_fiber(FAILING_MAP, (1.0, 0.0), 1.0, rng_seed=-1),
                 lambda: search_tangency_locus(FAILING_MAP, 1.0, rng_seed=-1),
                 lambda: falsify_transversality(FAILING_MAP, 1.0, rng_seed=-1)):
        with pytest.raises(ValueError, match="^rng_seed must be a non-negative integer, got -1$"):
            call()


def test_search_deduplicates():
    res = search_tangency_locus(FAILING_MAP, 1.0, seeds=64, iters=200, rng_seed=0)
    pts = [w.point for w in res.witnesses]
    for a, b in itertools.combinations(pts, 2):
        assert np.linalg.norm(a - b) > 1e-4


# ----------------------------------------------------------------------
# batching invariants: a batched step leaves every row's floats as they
# are when the row runs alone


def test_newton_batch_line_search_rule():
    # R(x) = x0 with a Jacobian chosen per row by the tag x1, so the
    # step is -x0 / J[0]; every row starts at x0 = 1
    J = {0.0: [1.0, 0.0], 1.0: [-1.0, 0.0], 2.0: [np.nan, 0.0], 3.0: [0.5, 0.0]}
    X = np.array([[1.0, tag] for tag in J])
    calls = []

    def residual(Y):
        calls.append(Y.tolist())
        return Y[:, :1].copy()

    def jacobian(Y):
        return np.array([[J[tag]] for tag in Y[:, 1]])

    Z, rn = newton_batch(residual, jacobian, X, 5)
    # row 0 lands on 0 at the first trial; row 1 climbs to 1 + 2^-k at
    # each of its 12 trials, k = 0..11, and is never tried again; row 2 (a NaN
    # Jacobian) never reaches the residual; row 3 first lands on -1, an
    # equal |R|, which is rejected, then on 0
    assert calls[0] == X.tolist()
    assert calls[1] == [[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]]
    assert calls[2] == [[1.5, 1.0], [0.0, 3.0]]
    assert calls[3:] == [[[1.0 + 0.5 ** k, 1.0]] for k in range(2, 12)]
    assert Z.tolist() == [[0.0, 0.0], [1.0, 1.0], [1.0, 2.0], [0.0, 3.0]]
    assert rn.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_tangency_system_builds_no_map_after_the_first(monkeypatch):
    # the Hessians come from f.derivative, built once per map
    Y = np.array([[0.6, 0.0, 0.8, 0.0, 0.0, 0.0, 0.6, 0.0, 0.8]])
    f = H_MIXED.to_real_map()
    _tangency_system(f, 1.0, 0.1)[1](Y)
    built = []
    init = RealPolynomialMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RealPolynomialMap, "__init__", counting_init)
    residual, jacobian = _tangency_system(f, 0.25, 0.05)
    assert np.all(np.isfinite(jacobian(Y))) and np.all(np.isfinite(residual(Y)))
    assert built == []


def jacobian_error(f, eps, system, rng):
    # largest relative error of the analytic Jacobian against central
    # differences, at sphere points with random unit multipliers w
    residual, jacobian = system
    X = sampling.sphere_points(f.n, 8, eps, 5)
    w = rng.normal(size=(8, f.p + 1))
    Y = np.hstack([X, w / np.linalg.norm(w, axis=1, keepdims=True)])
    A = jacobian(Y)
    fd = np.empty_like(A)
    for j in range(Y.shape[1]):
        h = 1e-6 * (eps if j < f.n else 1.0)
        E = np.zeros(Y.shape[1])
        E[j] = h
        fd[:, :, j] = (residual(Y + E) - residual(Y - E)) / (2.0 * h)
    return (np.linalg.norm(A - fd, axis=(1, 2)) / np.linalg.norm(A, axis=(1, 2))).max()


@pytest.mark.parametrize("f", [G_MIXED.to_real_map(), H_MIXED.to_real_map(), FAILING_MAP],
                         ids=["G", "H", "FAILING_MAP"])
def test_tangency_jacobian_matches_central_differences(f):
    # the finite-difference oracle is the arbiter of the analytic Jacobian
    rng = np.random.default_rng(11)
    for eps in (1.0, 0.25):
        assert jacobian_error(f, eps, _tangency_system(f, eps), rng) < 1e-6


@pytest.mark.parametrize("f", [G_MIXED.to_real_map(), H_MIXED.to_real_map(), FAILING_MAP],
                         ids=["G", "H", "FAILING_MAP"])
def test_level_jacobian_matches_central_differences(f):
    rng = np.random.default_rng(12)
    for eps in (1.0, 0.25):
        t = 0.1 * float(np.median(_fnorm(f, sampling.sphere_points(f.n, 64, eps, 3))))
        assert jacobian_error(f, eps, _tangency_system(f, eps, t), rng) < 1e-6


def test_tangency_residual_is_nan_where_a_gradient_norm_overflows():
    # the gradient of x^300*y is finite at (4.64, 1, 0), its squared norm is not;
    # a finite residual there would let Newton accept a meaningless trial
    residual, _ = _tangency_system(parse_real_map("(x^300*y + z^2, x) vars x,y,z"), 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        R = residual(np.array([[4.64, 1.0, 0.0, 0.6, 0.0, 0.8], [2.0, 2.0, 1.0, 0.6, 0.0, 0.8]]))
    assert np.all(np.isnan(R[0, :3])) and np.all(np.isfinite(R[1]))


def test_level_solve_keeps_non_finite_starts_without_a_warning():
    # the level row log(|f|/t) is -inf on V and not finite where |f|
    # overflows; the solver leaves such a start where it is, silently
    big = parse_real_map("(x^300*y + z^2, x) vars x,y,z")
    for f, x in ((FAILING_MAP, [0.0, 1.0, 0.0]), (big, [8.0, 0.5, 0.0])):
        Y = np.array([x + [0.6, 0.0, 0.8]])
        system = _tangency_system(f, float(np.linalg.norm(x)), 1e-3)
        Z, rn = newton_batch(*system, Y, 10)
        assert np.array_equal(Z, Y) and not np.isfinite(rn[0])


def test_tangency_solve_batch_equals_single_rows():
    h_map = H_MIXED.to_real_map()
    X = sampling.sphere_points(h_map.n, 6, 1.0, 2)
    w = np.linalg.svd(_normalized(_matrices(h_map, X))[0], full_matrices=False)[0][:, :, -1]
    Y = np.hstack([X, w])
    system = _tangency_system(h_map, 1.0)
    batch = newton_batch(*system, Y, 40)
    assert np.all(batch[1] <= NEWTON_TOL)
    for k in range(len(Y)):
        single = newton_batch(*system, Y[k:k + 1], 40)
        for b, s in zip(batch, single):
            assert np.array_equal(b[k], s[0])


def test_certify_batch_equals_single_rows():
    h_map = H_MIXED.to_real_map()
    locus = search_tangency_locus(h_map, 1.0, seeds=96, iters=250, rng_seed=0)
    X = np.array([w.point for w in locus.witnesses[:3]])
    assert len(X) == 3
    scale = float(np.median(_fnorm(h_map, sampling.sphere_points(6, 2048, 1.0, 101))))
    args = (1.0, 0.5e-2 * scale, 1e-8)
    batch = _certify(h_map, X, *args)
    singles = [_certify(h_map, x[None], *args)[0] for x in X]
    assert len(batch) == 3
    for b, s in zip(batch, singles):
        assert np.array_equal(b.point, s.point)
        for name in ("eps", "sigma", "sigma_grad", "f_norm", "dist_v_estimate",
                     "near_critical"):
            assert getattr(b, name) == getattr(s, name), name


# ----------------------------------------------------------------------
# falsifier


def test_falsifier_ex12_fails_with_certified_sequence():
    rep = falsify_transversality(FAILING_MAP, 1.0, seeds=96, iters=300, rng_seed=0)
    assert rep.verdict is TransversalityVerdict.FAILS
    assert len(rep.witnesses) >= 3
    for w in rep.witnesses:
        assert w.sigma < rep.tolerances["tol_tangency"]
        assert abs(np.linalg.norm(w.point) - 1.0) < 1e-9
        assert not w.near_critical
    for prev, nxt in zip(rep.witnesses, rep.witnesses[1:]):
        assert nxt.f_norm <= prev.f_norm / 10.0
    assert rep.witnesses[-1].f_norm < rep.tolerances["tol_v"]
    assert any("certified" in r for r in rep.reasons)
    assert rep.scale > 0 and rep.margin > 0


def test_falsifier_sequence_after_a_continuation_kick():
    # at this seed a continuation step fails and the start point is
    # kicked; every later witness must still sit 10x below the last
    # certified one, not below the kicked point
    rep = falsify_transversality(FAILING_MAP, 0.25, seeds=256, rng_seed=1417903077)
    assert rep.verdict is TransversalityVerdict.FAILS
    fns = [w.f_norm for w in rep.witnesses]
    assert len(fns) >= 3
    for prev, nxt in zip(fns, fns[1:]):
        assert nxt <= prev / 10.0
    assert fns[-1] < rep.tolerances["tol_v"]


def test_falsifier_finds_the_zero_set_on_the_sphere():
    # V meets every sphere about the origin; a min |f| estimate above the
    # margin would return HoldsAtBudget because "the zero set stays away"
    for rng_seed in range(4):
        for eps in (1.0, 0.5, 0.25, 0.125):
            rep = falsify_transversality(FAILING_MAP, eps, seeds=16, iters=5, rng_seed=rng_seed)
            assert rep.v_min_estimate < 1e-6 * rep.margin


def test_falsifier_rejects_bad_radius():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            falsify_transversality(FAILING_MAP, bad)
    for bad in ({"tol_tangency": math.inf}, {"tol_tangency": 0.0},
                {"tol_v": math.nan}, {"tol_v": -1e-6},
                {"margin": math.nan}, {"margin": -1.0}, {"margin": math.inf},
                {"seeds": 0}, {"iters": -5}):
        with pytest.raises(ValueError, match="positive and finite"):
            falsify_transversality(FAILING_MAP, 1.0, **bad)


def test_falsifier_states_evaluator_overflow():
    # |f| overflows float64 at about 19% (x^400) and 60% (x^2000) of the
    # 2048 sphere samples at eps 3
    for text in ("(x^400*y + z^2, x) vars x,y,z", "(x^2000*y + z^2, x) vars x,y,z"):
        with pytest.raises(ValueError, match="overflow"):
            falsify_transversality(parse_real_map(text), 3.0, seeds=16, iters=20)


def test_falsifier_overflowing_trials_raise_no_warning():
    # Newton trials leave float range here; pytest turns a warning into an error
    f = parse_real_map("(x^300*y + z^2, x) vars x,y,z")
    verdicts = [falsify_transversality(f, eps, seeds=32).verdict for eps in (1.5, 2.0, 2.5, 3.0)]
    assert verdicts == [TransversalityVerdict.HOLDS, TransversalityVerdict.HOLDS,
                        TransversalityVerdict.INCONCLUSIVE, TransversalityVerdict.INCONCLUSIVE]


def test_falsifier_names_what_overflowed():
    f = parse_real_map("(x^300*y + z^2, x) vars x,y,z")
    # every value of f is finite on the samples at eps 8; only |f|^2 overflows
    with pytest.raises(ValueError, match=r"\|f\|\^2 is not finite at 1220 of 2048 .* "
                                         r"\(f itself is not finite at 0 of them\)"):
        falsify_transversality(f, 8.0, seeds=16, iters=20)
    # |f| is finite at the samples at eps 3.25, but a gradient row's norm
    # overflows at a start of the search
    with pytest.raises(ValueError, match="gradient row of f has no finite norm at 1 of 64"):
        falsify_transversality(f, 3.25, seeds=64, iters=100)


def test_falsifier_is_deterministic():
    a = falsify_transversality(FAILING_MAP, 1.0, seeds=48, iters=150, rng_seed=5)
    b = falsify_transversality(FAILING_MAP, 1.0, seeds=48, iters=150, rng_seed=5)
    assert a.verdict is b.verdict
    assert len(a.witnesses) == len(b.witnesses)
    for wa, wb in zip(a.witnesses, b.witnesses):
        assert np.array_equal(wa.point, wb.point)
        assert wa.f_norm == wb.f_norm


def test_supporter_g_holds():
    rep = falsify_transversality(G_MIXED.to_real_map(), 1.0,
                                 seeds=96, iters=250, rng_seed=0)
    assert rep.verdict is TransversalityVerdict.HOLDS
    assert rep.min_locus_f_norm > rep.margin
    for w in rep.witnesses:
        assert not w.near_critical
        assert w.f_norm > rep.margin


def test_supporter_h_holds():
    rep = falsify_transversality(H_MIXED.to_real_map(), 1.0,
                                 seeds=96, iters=250, rng_seed=0)
    assert rep.verdict is TransversalityVerdict.HOLDS
    assert rep.min_locus_f_norm > rep.margin


def test_report_carries_budget_and_tolerances():
    rep = falsify_transversality(FAILING_MAP, 0.5, seeds=32, iters=100, rng_seed=3,
                                 tol_tangency=1e-7, tol_v=1e-5)
    assert (rep.seeds, rep.iters, rep.rng_seed) == (32, 100, 3)
    assert rep.eps == 0.5
    assert rep.tolerances["tol_tangency"] == 1e-7
    assert rep.tolerances["tol_v"] == 1e-5
    assert rep.caveats


# ----------------------------------------------------------------------
# special family: the numeric falsifier agrees with the paper's theorem


@st.composite
def special_family_members(draw):
    # one non-critical index with exponents (2,1) or (1,2), the others
    # critical, all coefficients real multiples of one direction
    n = draw(st.integers(min_value=2, max_value=3))
    odd = draw(st.integers(min_value=1, max_value=n))
    re, im = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]))
    terms = []
    for j in range(1, n + 1):
        a, b = draw(st.sampled_from([(2, 1), (1, 2)])) if j == odd else (
            (draw(st.integers(min_value=1, max_value=3)),) * 2)
        mu = Fraction(draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])))
        terms.append(MixedTerm(j, ComplexRational(mu * re, mu * im), a, b))
    return DiagonalMixedPolynomial(n, terms)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(special_family_members())
def test_special_family_members_never_fail(psi):
    assert special_family_claim_check(psi, samples=40).holds
    f = psi.to_real_map()
    for eps in (1.0, 0.25):
        rep = falsify_transversality(f, eps, seeds=32, iters=40)
        assert rep.verdict is not TransversalityVerdict.FAILS, (eps, rep.reasons)


# ----------------------------------------------------------------------
# special family closed-form minor


def brute_minor(psi, j, x, component):
    f = psi.to_real_map()
    form_o = [t.j for t in psi.terms if t.a != t.b][0]
    M = np.vstack([f.grad_many(np.asarray(x, dtype=float)),
                   np.asarray(x, dtype=float)[None, :]])
    cj = 2 * (j - 1) + (0 if component == "x" else 1)
    cols = [cj, 2 * (form_o - 1), 2 * (form_o - 1) + 1]
    return float(np.linalg.det(M[:, cols]))


@pytest.mark.parametrize("text", [
    "z1 z1~ - z2 z2~ + z3^2 z3~",
    "z1^2 z1~ + z2 z2~",
    "z1 z1~ + 2 z2^2 z2~^2 + z3 z3~^2",
    "-3 z1^3 z1~^3 + z2 z2~ + (1/2) z3^2 z3~",
])
def test_special_family_minor_matches_bruteforce(text):
    psi = parse_mixed(text)
    crit = [t.j for t in psi.terms if t.a == t.b]
    rng = np.random.default_rng(29)
    for _ in range(30):
        x = rng.uniform(-1.5, 1.5, size=2 * psi.n)
        for j in crit:
            for comp in ("x", "y"):
                closed = special_family_minor(psi, j, x, comp)
                brute = brute_minor(psi, j, x, comp)
                assert abs(closed - brute) <= 1e-10 * (1.0 + abs(brute))


def test_special_family_minor_vanishing_slices():
    psi = H_MIXED
    x = np.array([0.0, 0.0, 0.7, -0.2, 0.5, 0.1])
    assert special_family_minor(psi, 1, x, "x") == pytest.approx(0.0, abs=1e-15)
    x2 = np.array([0.4, 0.3, 0.7, -0.2, 0.0, 0.0])
    for j in (1, 2):
        assert special_family_minor(psi, j, x2, "y") == pytest.approx(0.0, abs=1e-15)


def test_special_family_minor_errors():
    worked = parse_mixed("(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~")
    x6 = np.zeros(6) + 0.5
    with pytest.raises(ValueError, match="not in the special family"):
        special_family_minor(worked, 1, x6)
    with pytest.raises(ValueError, match="not a critical index"):
        special_family_minor(H_MIXED, 3, x6)
    with pytest.raises(ValueError, match="component"):
        special_family_minor(H_MIXED, 1, x6, component="z")
    with pytest.raises(ValueError):
        special_family_minor(H_MIXED, 1, np.zeros(4) + 0.5)


def test_claim_check_h():
    res = special_family_claim_check(H_MIXED, samples=200, rng_seed=0)
    assert res.holds
    assert not res.vacuous
    assert res.samples > 0
    assert res.min_cross_ratio > 1.0


def test_claim_check_single_block_is_vacuous():
    res = special_family_claim_check(G_MIXED)
    assert res.holds
    assert res.vacuous
    assert "single sign block" in res.note
