"""Radial flow, phase, and fiber sampling."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from milnorscope import (
    RadialWeights,
    fiber_compare,
    inflate_to_sphere,
    parse_mixed,
    parse_real_map,
    phase,
    radial_weights,
    rplus_flow,
    sample_fiber,
    sampling,
)
from milnorscope import fiber
from milnorscope.fiber import (
    CONTRACT_GAPS,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SWEEP_PAIRS,
    _cut_labels,
    _min_norm_step,
    _mst,
    _persistent_count,
    _short_forest,
    _singular_count,
    newton_batch,
)

FAILING_MAP = parse_real_map("(x*y + z^2, x) vars x,y,z")
G_MIXED = parse_mixed("z1 z1~ + z2^2 z2~")
WORKED = parse_mixed("(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~")


# ----------------------------------------------------------------------
# flow


def test_flow_params_from_weights():
    params = radial_weights(G_MIXED)
    assert (params.degree, params.weights) == (6, (3, 2))
    assert radial_weights(WORKED) == RadialWeights(12, (6, 3, 4))
    with pytest.raises(ValueError, match="no term in z1"):
        radial_weights(parse_mixed("z2 z2~"))


def test_flow_identity_and_group_action():
    params = radial_weights(G_MIXED)
    z = np.array([0.3 + 0.4j, -0.2 + 0.9j])
    assert np.allclose(rplus_flow(params, 1.0, z), z, atol=0)
    a = rplus_flow(params, 0.7, rplus_flow(params, 2.0, z))
    b = rplus_flow(params, 1.4, z)
    assert np.allclose(a, b, rtol=1e-14)


def test_flow_equivariance():
    rng = np.random.default_rng(11)
    for psi in (G_MIXED, WORKED, parse_mixed("z1 z1~")):
        params = radial_weights(psi)
        for _ in range(20):
            z = rng.uniform(-1, 1, psi.n) + 1j * rng.uniform(-1, 1, psi.n)
            t = float(rng.uniform(0.2, 1.5))
            lhs = psi.eval(rplus_flow(params, t, z))
            rhs = t ** params.degree * psi.eval(z)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_flow_rejects_bad_input():
    params = radial_weights(G_MIXED)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            rplus_flow(params, bad, [1j, 0j])
    with pytest.raises(ValueError, match="dimension"):
        rplus_flow(params, 1.0, [1j])
    with pytest.raises(ValueError, match="point must be finite"):
        rplus_flow(params, 1.0, [complex(math.nan, 0.0), 1j])


def test_flow_leaves_the_float_range_only_with_its_product():
    # t^20 = 1e400 and 1e-400 are no floats; t^20 z_1 is
    params = RadialWeights(40, (20, 1))
    up = rplus_flow(params, 1e20, [1e-300, 1e-10])
    assert up[0] == pytest.approx(1e100, rel=1e-15) and up[1] == pytest.approx(1e10, rel=1e-15)
    assert rplus_flow(params, 1e-20, [1e300, 1])[0] == pytest.approx(1e-100, rel=1e-15)
    # a subnormal coordinate is scaled up exactly, also where t^p overflows
    assert rplus_flow(RadialWeights(1, (1,)), 2.0, [5e-324])[0] == 1e-323
    assert rplus_flow(RadialWeights(2, (2,)), 2.0 ** 600, [5e-324])[0] == 2.0 ** 126
    # parts are scaled separately: an overflowed part leaves the other alone
    out = rplus_flow(RadialWeights(1, (1,)), 1e300, [1e10 - 0.5j])
    assert (out.real[0], out.imag[0]) == (math.inf, -5e299)
    assert rplus_flow(RadialWeights(1, (1,)), 1e-300, [1e-30j])[0] == 0j


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2044), st.integers(-2000, 2000), st.integers(-1000, 1000),
       st.floats(0.5, 1.0, exclude_max=True))
@example(2044, 1200, -1000, 0.75)   # t^p alone overflows
@example(2044, -1200, 1000, 0.75)   # t^p alone underflows
@example(1100, 1101, -1000, 0.75)   # and t = 2^(1101/1100): 0.5^1100 would underflow too
def test_flow_matches_the_exact_product(p, k, zexp, mant):
    """t^p z, with t = 2^(k/p) and z = mant 2^zexp, against the exact
    rational product, where that is a normal float (weights up to 2044)."""
    assume(abs(k) <= 1000 * p and abs(k + zexp) <= 1000)
    t, z = 2.0 ** (k / p), math.ldexp(mant, zexp)
    exact = float(Fraction(t) ** p * Fraction(z))
    got = rplus_flow(RadialWeights(p, (p,)), t, [z])[0]
    assert got.imag == 0.0
    assert got.real == pytest.approx(exact, rel=4e-16 * (1 + 2 * math.log2(p)))


def test_inflate_homogeneous_closed_form():
    params = radial_weights(parse_mixed("z1 z1~ + z2 z2~"))
    z = np.array([0.3 + 0.4j, 1.0 - 2.0j])
    t, zs = inflate_to_sphere(params, z, 2.0)
    assert t == pytest.approx(2.0 / np.linalg.norm(z), abs=1e-12)
    assert np.linalg.norm(zs) == pytest.approx(2.0, abs=1e-12)


def test_inflate_weighted_root():
    # |t.z|^2 = t^6 + t^4 at z = (1, 1); the root comes from an
    # independent cubic solve in u = t^2
    params = radial_weights(G_MIXED)
    roots = np.roots([1.0, 1.0, 0.0, -1.0])
    u = float(next(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0))
    t, zs = inflate_to_sphere(params, [1.0 + 0j, 1.0 + 0j], 1.0)
    assert t == pytest.approx(math.sqrt(u), abs=1e-10)
    assert np.linalg.norm(zs) == pytest.approx(1.0, abs=1e-12)


def test_inflate_is_idempotent_on_the_sphere():
    params = radial_weights(G_MIXED)
    _, zs = inflate_to_sphere(params, [0.2 + 0.1j, -0.4 + 0.8j], 1.5)
    t2, zs2 = inflate_to_sphere(params, zs, 1.5)
    assert t2 == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(zs2, zs, atol=1e-10)


def test_inflate_rejects_bad_input():
    params = radial_weights(G_MIXED)
    with pytest.raises(ValueError, match="origin"):
        inflate_to_sphere(params, [0j, 0j], 1.0)
    with pytest.raises(ValueError, match="positive"):
        inflate_to_sphere(params, [1j, 0j], -1.0)
    with pytest.raises(ValueError, match="dimension"):
        inflate_to_sphere(params, [1j], 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            inflate_to_sphere(params, [1j, 0j], bad)
        with pytest.raises(ValueError, match="point must be finite"):
            inflate_to_sphere(params, [1j, bad], 1.0)


def test_radial_weights_check_themselves():
    assert RadialWeights(6, (3, 2)).weights == (3, 2)
    for degree, weights in ((1, (0, 1)), (0, (1,)), (6, (3, -2)), (6, (3, 2.0)),
                            (6.0, (3, 2))):
        with pytest.raises(ValueError, match="positive integer"):
            RadialWeights(degree, weights)


@pytest.mark.parametrize("z1", [1e-320, complex(1e-320, 1e-320)])
def test_inflate_subnormal_point(z1):
    # |z1|^2 underflows to 0, yet z1 is not the origin
    t, zs = inflate_to_sphere(radial_weights(G_MIXED), [z1, 0j], 1.0)
    assert math.isfinite(t) and t > 0
    assert math.hypot(zs[0].real, zs[0].imag) == pytest.approx(1.0, rel=1e-12)
    assert zs[1] == 0


@st.composite
def inflation_cases(draw):
    n = draw(st.integers(1, 5))
    weights = tuple(draw(st.integers(1, 12)) for _ in range(n))
    moduli = [0.0 if draw(st.booleans()) else 10.0 ** draw(st.floats(-300, 300))
              for _ in range(n)]
    if not any(moduli):
        moduli[draw(st.integers(0, n - 1))] = 10.0 ** draw(st.floats(-300, 300))
    angles = [draw(st.floats(0.0, 2 * math.pi)) for _ in range(n)]
    z = [m * complex(math.cos(a), math.sin(a)) for m, a in zip(moduli, angles)]
    return RadialWeights(math.lcm(*weights), weights), z, 10.0 ** draw(st.floats(-300, 300))


@settings(max_examples=300, deadline=None)
@given(inflation_cases())
# t = 1e-315 is subnormal: log t holds about 8 digits, not the 12 tested
@example((RadialWeights(1, (1,)), [1e290 + 0j], 1e-25))
def test_inflate_lands_on_the_sphere_at_every_radius(case):
    params, z, eps = case
    t, zs = inflate_to_sphere(params, z, eps)
    if not (0.0 < t < math.inf):
        return
    radius = math.hypot(*np.concatenate([zs.real, zs.imag]).tolist())
    assert abs(radius - eps) <= 1e-11 * eps
    log_t = math.log(t)
    for p, w, ws in zip(params.weights, z, zs.tolist()):
        # a subnormal or underflowed t or coordinate holds too few bits to test
        if t >= 2.3e-308 and abs(w) >= 2.3e-308 and abs(ws) >= 2.3e-308:
            moved = math.log(abs(ws)) - math.log(abs(w))
            assert moved == pytest.approx(p * log_t, rel=1e-12, abs=1e-12 * (
                1.0 + abs(math.log(abs(w))) + abs(math.log(abs(ws)))))


# ----------------------------------------------------------------------
# phase


def test_phase_values():
    assert phase(G_MIXED, [1 + 0j, 0j]) == pytest.approx(1.0)
    cube = parse_mixed("z1^2 z1~")
    w = np.exp(1j * np.pi / 3)
    assert phase(cube, [w]) == pytest.approx(w)


def test_phase_is_orbit_invariant():
    # weights (6, 3, 4), then (2, 1, 1), so that t . z stays a float up to
    # t = 1e150, where psi(t . z) and its terms leave the float range
    small = parse_mixed("(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~^2")
    rng = np.random.default_rng(13)
    for psi, ts in ((WORKED, (0.3, 2.0)), (small, (0.3, 2.0, 1e-150, 1e150))):
        params = radial_weights(psi)
        for _ in range(20):
            z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            if abs(psi.eval(z)) < 1e-6:
                continue
            p0 = phase(psi, z)
            for t in ts:
                assert phase(psi, rplus_flow(params, t, z)) == pytest.approx(p0, rel=1e-12)


def test_phase_is_relative_to_the_terms():
    # psi(t . z) = 2e-18 at t = 1e-3: small, but far from V
    z = [1.0 + 0j, 1.0 + 0j]
    zt = rplus_flow(radial_weights(G_MIXED), 1e-3, z)
    assert phase(G_MIXED, zt) == phase(G_MIXED, z) == 1.0


def test_phase_undefined_on_zero_set():
    with pytest.raises(ValueError, match="phase undefined"):
        phase(G_MIXED, [0j, 0j])


def test_phase_survives_overflow():
    # |z1|^40 at |z1| = 1e20 leaves float range; the phase does not
    assert phase(parse_mixed("z1^20 z1~^20 + z2 z2~"), [1e20, 1]) == 1


def test_phase_rejects_non_finite_points():
    with pytest.raises(ValueError, match="point must be finite"):
        phase(G_MIXED, [complex(math.inf, 0.0), 1j])


# ----------------------------------------------------------------------
# newton


def fiber_newton(c, X, max_iter=NEWTON_MAX_ITER, jacobian=FAILING_MAP.grad_many):
    return newton_batch(lambda Y: FAILING_MAP.eval_many(Y) - c, jacobian, X, max_iter)


def test_newton_converges_to_fiber():
    X, rn = fiber_newton(np.array([1.0, 0.0]), np.array([[0.2, 0.5, 0.7]]))
    assert rn[0] <= NEWTON_TOL
    assert np.allclose(FAILING_MAP.eval_many(X[0]), [1.0, 0.0], atol=2e-10)


def test_newton_zero_iterations_on_the_fiber():
    def no_jacobian(Y):
        raise AssertionError("a point on the fiber takes no step")

    x0 = np.array([1.0, 2.0, 3.0])
    X, rn = fiber_newton(FAILING_MAP.eval_many(x0), x0[None], jacobian=no_jacobian)
    assert rn[0] <= NEWTON_TOL
    assert np.array_equal(X[0], x0)


def jacobians_taken(budget):
    c = np.array([1.0, 0.0])
    taken = []

    def jacobian(Y):
        taken.append(Y[0].copy())
        return FAILING_MAP.grad_many(Y)

    _, rn = fiber_newton(c, np.array([[0.2, 0.5, 0.7]]), budget, jacobian)
    return [np.linalg.norm(FAILING_MAP.eval_many(x) - c) for x in taken], rn[0]


def test_newton_respects_budget():
    norms, rn = jacobians_taken(1)
    assert len(norms) == 1
    assert not rn <= NEWTON_TOL


def test_newton_takes_jacobians_only_at_accepted_iterates():
    # one Jacobian per iteration, first at the start, then at points whose
    # residual fell at every step: the accepted iterates, never a trial
    norms, rn = jacobians_taken(NEWTON_MAX_ITER)
    assert rn <= NEWTON_TOL
    assert norms[0] == np.linalg.norm(FAILING_MAP.eval_many(np.array([0.2, 0.5, 0.7])) - [1.0, 0.0])
    assert 2 <= len(norms) <= NEWTON_MAX_ITER
    assert all(b < a for a, b in zip(norms, norms[1:]))


# ----------------------------------------------------------------------
# the minimum-norm step


def pinv_step(A, R):
    return (np.linalg.pinv(A) @ R[:, :, None])[:, :, 0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.integers(0, 9), st.integers(1, 64),
       st.integers(0, 2 ** 32 - 1))
def test_min_norm_step_matches_pinv_on_full_row_rank(m, extra, count, seed):
    # A = U diag(s) V^T with singular values in [1, 100]: full row rank,
    # condition number at most 100
    k = min(m + extra, 10)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((count, m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((count, k, m)))[0]
    s = 10.0 ** rng.uniform(0.0, 2.0, (count, 1, m))
    A = (U * s) @ V.transpose(0, 2, 1)
    R = rng.standard_normal((count, m))
    D, P = _min_norm_step(A, R), pinv_step(A, R)
    assert np.all(np.abs(D - P) <= 1e-10 * np.max(np.abs(P), axis=1, keepdims=True))


def test_min_norm_step_takes_pinv_bits_where_rows_are_dependent():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 3, 5))
    A[0, 2] = A[0, 0]                     # a duplicated row
    A[1] = 0.0                            # all zeros
    R = rng.standard_normal((4, 3))
    D, P = _min_norm_step(A, R), pinv_step(A, R)
    assert np.array_equal(D[:2], P[:2])
    assert not np.array_equal(D[2:], P[2:])
    assert np.allclose(D[2:], P[2:], rtol=1e-10, atol=0)
    tall = rng.standard_normal((3, 5, 4))  # more equations than unknowns
    R = rng.standard_normal((3, 5))
    assert np.array_equal(_min_norm_step(tall, R), pinv_step(tall, R))


def test_min_norm_step_batch_equals_single_rows():
    # 8 x 9 and 9 x 9 are H_POLY's tangency and level systems; numpy sums
    # a lone run of 8 or more terms pairwise, so a batch of one must not
    # reduce over its 9 columns in a single lane
    rng = np.random.default_rng(6)
    for m, k in [(5, 6), (8, 9), (9, 9)]:
        A = rng.standard_normal((9, m, k))
        A[3, 4] = A[3, 1]
        A[7] = 0.0
        R = rng.standard_normal((9, m))
        D = _min_norm_step(A, R)
        for j in range(len(A)):
            assert np.array_equal(D[j], _min_norm_step(A[j:j + 1], R[j:j + 1])[0])
        assert np.array_equal(D[2:6], _min_norm_step(A[2:6], R[2:6]))


@pytest.mark.parametrize("m, k", [(2, 3), (3, 3), (5, 6), (8, 9), (9, 9), (4, 10)])
def test_min_norm_step_matches_pinv_on_ill_conditioned_rows(m, k):
    # full row rank with condition numbers 1e4 to 1e7 at scales 1e-3 to
    # 1e3: the step's error stays within a few units of rounding times
    # the condition number (about 3e-16 times it for this kernel and for a
    # Householder QR)
    rng = np.random.default_rng(m * 100 + k)
    count = 64
    U = np.linalg.qr(rng.standard_normal((count, m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((count, k, m)))[0]
    cond = 10.0 ** rng.uniform(4.0, 7.0, (count, 1, 1))
    s = cond ** np.linspace(0.0, 1.0, m) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1, 1))
    A = (U * s) @ V.transpose(0, 2, 1)
    R = rng.standard_normal((count, m))
    D, P = _min_norm_step(A, R), pinv_step(A, R)
    err = np.max(np.abs(D - P), axis=1) / np.max(np.abs(P), axis=1)
    assert np.all(err <= 1e-14 * cond[:, 0, 0])


def test_fiber_newton_takes_no_pinv_step(monkeypatch):
    # FAILING_MAP's Jacobian rows (y, x, 2z) and (1, 0, 0) are independent
    # off the x-axis, so every step of a fiber sample runs on Gram-Schmidt
    pinv_rows = []
    pinv = np.linalg.pinv

    def counting_pinv(A, *args, **kwargs):
        pinv_rows.append(len(A))
        return pinv(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    seeds = sampling.ball_points(3, 500, 3.0, 0)
    _, rn = fiber_newton(np.array([1.0, 0.0]), seeds)
    assert sum(pinv_rows) == 0
    assert np.count_nonzero(rn <= NEWTON_TOL) > 400


# ----------------------------------------------------------------------
# fiber sampling


def test_sample_fiber_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        sample_fiber(FAILING_MAP, (1.0, 0.0), 0.0)
    for count in (0, -3):
        with pytest.raises(ValueError, match=f"count must be positive and finite, got {count}"):
            sample_fiber(FAILING_MAP, (1.0, 0.0), 1.0, count=count)
    with pytest.raises(ValueError, match=r"^count must be a non-negative integer, got 2\.5$"):
        sample_fiber(FAILING_MAP, (1.0, 0.0), 1.0, count=2.5)
    with pytest.raises(ValueError, match="dimension"):
        sample_fiber(FAILING_MAP, (1.0, 0.0, 0.0), 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            sample_fiber(FAILING_MAP, (1.0, 0.0), bad)
        with pytest.raises(ValueError, match="target value must be finite"):
            sample_fiber(FAILING_MAP, (1.0, bad), 1.0)


def test_fiber_counts_two_lines_vs_parabola():
    # over (1, 0) the fiber is the pair of lines {x=0, z=+-1}; over
    # (0, 1) it is the single parabola {x=1, y=-z^2}
    s1 = sample_fiber(FAILING_MAP, (1.0, 0.0), 3.0, count=600, rng_seed=0)
    s2 = sample_fiber(FAILING_MAP, (0.0, 1.0), 3.0, count=600, rng_seed=0)
    assert s1.component_count == 2
    assert s2.component_count == 1
    assert not s1.unreliable and not s2.unreliable
    assert s1.singular_count == 0


def test_fiber_points_lie_on_the_fiber_in_the_ball():
    s = sample_fiber(FAILING_MAP, (1.0, 0.0), 3.0, count=400, rng_seed=2)
    assert len(s.points) > 100
    assert np.all(np.linalg.norm(s.points, axis=1) <= 3.0 + 1e-12)
    direct = np.linalg.norm(FAILING_MAP.eval_many(s.points) - np.array([1.0, 0.0]), axis=1)
    assert np.max(direct) <= 1e-10
    assert np.array_equal(np.sort(np.unique(s.labels)),
                          np.arange(s.component_count))


def test_fiber_labels_split_by_branch():
    s = sample_fiber(FAILING_MAP, (1.0, 0.0), 3.0, count=600, rng_seed=0)
    for lab in range(s.component_count):
        zs = s.points[s.labels == lab][:, 2]
        assert len(zs)
        assert np.all(zs > 0.5) or np.all(zs < -0.5)


@pytest.mark.xfail(strict=True, reason="program defect: the final one-component interval, "
                   "capped at the cloud diameter, outlasts the two-line plateau")
def test_fiber_two_lines_with_an_outlying_sample():
    # over (0.254227, 0) the fiber is the pair of lines {x=0, z=+-0.504}, 1.008
    # apart; one sample near the ball's edge sits 0.176 from the rest of its line
    s = sample_fiber(FAILING_MAP, (0.254227, 0.0), 3.0, count=2000, rng_seed=1390379062)
    assert s.component_count == 2


def test_fiber_count_connected_surface():
    g = G_MIXED.to_real_map()
    s = sample_fiber(g, (1.0, 0.0), 2.0, count=600, rng_seed=0)
    assert s.component_count == 1
    assert not s.unreliable


def test_fiber_empty_is_unreliable():
    s = sample_fiber(FAILING_MAP, (0.0, 100.0), 3.0, count=200, rng_seed=0)
    assert len(s.points) == 0
    assert s.component_count == 0
    assert s.unreliable


def test_fiber_zero_dimensional_roots():
    two = parse_real_map("(x^2 - 1, y) vars x,y")
    s = sample_fiber(two, (0.0, 0.0), 3.0, count=400, rng_seed=0)
    assert s.component_count == 2
    assert s.linkage_radius < 1e-3


def test_fiber_determinism_and_seed_stability():
    a = sample_fiber(FAILING_MAP, (1.0, 0.0), 3.0, count=500, rng_seed=7)
    b = sample_fiber(FAILING_MAP, (1.0, 0.0), 3.0, count=500, rng_seed=7)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    c = sample_fiber(FAILING_MAP, (1.0, 0.0), 3.0, count=500, rng_seed=8)
    assert c.component_count == a.component_count == 2


def test_fiber_sample_validates_itself():
    s = sample_fiber(FAILING_MAP, (1.0, 0.0), 3.0, count=300, rng_seed=0)
    with pytest.raises(ValueError, match="eps-ball"):
        dataclasses.replace(s, points=s.points * 10)
    with pytest.raises(ValueError, match="residual"):
        dataclasses.replace(s, residuals=s.residuals + 1.0)


def test_fiber_compare_counts_and_note():
    cmp = fiber_compare(FAILING_MAP, (1.0, 0.0), (0.0, 1.0), 3.0,
                        count=600, rng_seed=0)
    assert cmp.component_counts == (2, 1)
    assert cmp.first.rng_seed == cmp.second.rng_seed
    assert "prove nothing" in cmp.note


def test_fiber_compare_equal_targets_agree():
    cmp = fiber_compare(FAILING_MAP, (0.0, 1.0), (0.0, 1.0), 3.0,
                        count=400, rng_seed=3)
    assert cmp.component_counts == (1, 1)
    assert np.array_equal(cmp.first.points, cmp.second.points)


# ----------------------------------------------------------------------
# components from the minimum spanning tree


def brute_single_linkage(P, radius):
    """Reference partition: components of the graph that joins points at
    distance <= radius, numbered by first appearance."""
    adj = cdist(P, P) <= radius
    labels = np.full(len(P), -1)
    k = 0
    for s in range(len(P)):
        if labels[s] >= 0:
            continue
        labels[s] = k
        frontier = np.array([s])
        while frontier.size:
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (labels < 0))
            labels[frontier] = k
        k += 1
    return labels


@pytest.fixture(scope="module")
def acceptance_fibers():
    cmp = fiber_compare(FAILING_MAP, (1.0, 0.0), (0.0, 1.0), 3.0, count=2000)
    return cmp.first, cmp.second


def test_fiber_labels_match_bruteforce_single_linkage(acceptance_fibers):
    for s in acceptance_fibers:
        ref = brute_single_linkage(s.points, s.linkage_radius)
        assert np.array_equal(s.labels, ref)
        assert s.component_count == ref.max() + 1


def test_fiber_labels_numbered_by_first_appearance(acceptance_fibers):
    for s in acceptance_fibers:
        first = np.unique(s.labels, return_index=True)[1]
        assert first[0] == 0
        assert np.all(np.diff(first) > 0)


def test_fiber_nn_median_matches_kdtree(acceptance_fibers):
    for s in acceptance_fibers:
        nn = cKDTree(s.points).query(s.points, k=2)[0][:, 1]
        assert s.nn_median == pytest.approx(float(np.median(nn)), rel=1e-12)


def assert_spanning_tree(P, a, b, length):
    n = len(P)
    assert len(a) == len(b) == len(length) == n - 1
    graph = coo_matrix((np.ones(n - 1), (a, b)), shape=(n, n))
    assert connected_components(graph, directed=False)[0] == 1


def test_mst_cut_with_duplicates_and_two_blobs():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 3)) * 0.1
    b = rng.normal(size=(30, 3)) * 0.1 + [5.0, 0.0, 0.0]
    # 11 exact duplicates: a[0] three times, a[1..6] and b[0..2] twice
    P = np.vstack([a, a[:7], b, b[:3], a[:1]])
    P = P[rng.permutation(len(P))]
    ea, eb, length = _mst(P)
    assert_spanning_tree(P, ea, eb, length)
    assert np.count_nonzero(length == 0.0) == 11
    for radius in (0.0, 0.05, 0.2, 1.0, 10.0):
        labels, count = _cut_labels(ea, eb, length, radius)
        ref = brute_single_linkage(P, radius)
        assert np.array_equal(labels, ref)
        assert count == ref.max() + 1
    assert _cut_labels(ea, eb, length, 1.0)[1] == 2


def reference_mst(P):
    """The reference for `_mst`: Prim where every step takes
    np.linalg.norm from the new tree point to all N points and masks the
    tree out."""
    n = len(P)
    order = np.zeros(n, dtype=int)
    parent = np.full(n, -1)
    length = np.full(n, np.inf)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    d = np.linalg.norm(P - P[0], axis=1)
    near = np.zeros(n, dtype=int)
    for k in range(1, n):
        i = int(np.argmin(np.where(in_tree, np.inf, d)))
        order[k], parent[i], length[i] = i, near[i], d[i]
        in_tree[i] = True
        di = np.linalg.norm(P - P[i], axis=1)
        closer = di < d
        d[closer] = di[closer]
        near[closer] = i
    return order, parent, length


def point_prim_mst(P):
    """The second reference: the point-by-point frontier Prim that `_mst`
    replaced.  It sums squared coordinate differences in order, as `_mst`
    does, so sorted lengths agree bit for bit in every dimension."""
    n = len(P)
    order = np.zeros(n, dtype=int)
    parent = np.full(n, -1)
    length = np.full(n, np.inf)
    Q, idx = P.T[:, 1:].copy(), np.arange(1, n)
    d, near = np.full(n - 1, np.inf), np.zeros(n - 1, dtype=int)
    i = 0
    for k in range(1, n):
        D = Q - P[i, :, None]
        D *= D
        di = np.add.reduce(D, axis=0)
        closer = di < d
        np.copyto(d, di, where=closer)
        np.copyto(near, i, where=closer)
        j = int(np.argmin(d))
        i = int(idx[j])
        order[k], parent[i], length[i] = i, near[j], d[j]
        m = n - 1 - k
        Q[:, j], idx[j], d[j], near[j] = Q[:, m], idx[m], d[m], near[m]
        Q, idx, d, near = Q[:, :m], idx[:m], d[:m], near[:m]
    return order, parent, np.sqrt(length)


def tree_edges(parent, length):
    """A parent-array tree as the edge arrays `_mst` returns."""
    child = np.flatnonzero(parent >= 0)
    return parent[child], child, length[child]


def shortest_edges(n, a, b, length):
    nn = np.full(n, np.inf)
    np.minimum.at(nn, a, length)
    np.minimum.at(nn, b, length)
    return nn


def mst_clouds(dim):
    """Clouds that stress ties and the contraction: two points, a scaled
    Gaussian blob with exact duplicates, collinear points at repeated
    spacings, integer lattice points (whose distances tie in many ways),
    every point equal (median gap 0: no contraction), a lattice whose
    widest coordinate repeats but whose median gap is 1, and from dim 2 a
    comb where no pair lies within the contraction radius."""
    rng = np.random.default_rng(100 + dim)
    blob = rng.normal(size=(150, dim)) * rng.uniform(0.01, 10.0, size=dim)
    blob = np.vstack([blob, blob[:12], blob[:3]])
    steps = rng.choice([0.0, 0.25, 0.5, 1.0], size=120)
    line = np.cumsum(steps)[:, None] * rng.normal(size=dim) + rng.normal(size=dim)
    lattice = rng.integers(-3, 4, size=(150, dim)).astype(float)
    equal = np.tile(rng.normal(size=dim), (40, 1))
    column = np.repeat(np.arange(60), rng.integers(1, 3, size=60))
    repeats = np.column_stack([column, rng.integers(-2, 3, size=(len(column), dim - 1))])
    clouds = [rng.normal(size=(2, dim)), blob[rng.permutation(len(blob))],
              line[rng.permutation(len(line))], lattice, equal,
              repeats[rng.permutation(len(repeats))].astype(float)]
    if dim >= 2:
        clouds.append(comb_cloud(dim)[rng.permutation(200)])
    clouds.append(gappy_curve(dim, rng))
    return clouds


def gappy_curve(dim, rng):
    """1200 points along a smooth curve, spaced by exponential gaps with
    a few long jumps: it contracts into components large enough that the
    Prim bounds them by their boxes."""
    gaps = rng.exponential(1.0, size=1200) * np.where(rng.random(1200) < 0.01, 40.0, 1.0)
    t = np.cumsum(gaps) / 400.0
    freq = rng.uniform(0.5, 3.0, size=dim)
    phases = rng.uniform(0.0, 2 * np.pi, size=dim)
    P = np.sin(t[:, None] * freq + phases) * rng.uniform(0.5, 2.0, size=dim)
    return P[rng.permutation(len(P))]


def comb_cloud(dim):
    """200 points x = k, y = (K + 1) (k mod (K + 1)), K = CONTRACT_GAPS:
    x is the widest coordinate with median gap 1, and any two points
    within K along x differ by at least K + 1 in y."""
    k = np.arange(200)
    P = np.zeros((200, dim))
    P[:, 0] = k
    P[:, 1] = (CONTRACT_GAPS + 1) * (k % (CONTRACT_GAPS + 1))
    return P


@pytest.fixture(scope="module")
def pileup_parabola():
    """A parabola fiber of FAILING_MAP (seed-7 `fiber` benchmark cloud):
    x is constant, and along y, its widest coordinate, points near the
    vertex pile up."""
    return sample_fiber(FAILING_MAP, (0.558424, -0.612945), 3.0, count=2000,
                        rng_seed=1955719539).points


def sweep_pairs_per_point(P, w):
    """Pairs per point in the sweep window along coordinate w, with the
    contraction radius set by that coordinate's median gap."""
    xs = np.sort(P[:, w])
    r = CONTRACT_GAPS * float(np.median(np.diff(xs)))
    window = np.searchsorted(xs, xs + r, side="right") - np.arange(1, len(xs) + 1)
    return window.sum() / len(xs)


def test_short_forest_contracts_only_where_pairs_are_short(acceptance_fibers, pileup_parabola):
    for P in (np.tile([1.0, 2.0, 3.0], (40, 1)), comb_cloud(3)):
        root, a, b = _short_forest(P)
        assert len(a) == len(b) == 0
        assert np.array_equal(root, np.arange(len(P)))
    # sorted along its widest coordinate the parabola would skip the
    # contraction; its largest median gap is along z
    widest = int(np.argmax(np.ptp(pileup_parabola, axis=0)))
    assert widest == 1 and sweep_pairs_per_point(pileup_parabola, widest) > SWEEP_PAIRS
    for P in (*(s.points for s in acceptance_fibers), pileup_parabola):
        root, a, b = _short_forest(P)
        components = len(np.unique(root))
        assert len(a) == len(P) - components
        assert components < len(P) // 10


@pytest.mark.parametrize("dim", range(1, 8))
def test_squared_distances_in_coordinate_order_have_the_norm_bits(dim):
    # _mst's byte-identity with the norm-based Prim rests on this
    rng = np.random.default_rng(dim)
    P = rng.normal(size=(500, dim)) * rng.uniform(1e-3, 1e3, size=dim)
    for i in (0, 17, 499):
        D = (P - P[i]).T.copy()
        D *= D
        assert np.array_equal(np.sqrt(np.add.reduce(D, axis=0)),
                              np.linalg.norm(P - P[i], axis=1))


@pytest.mark.parametrize("dim", range(1, 8))
def test_mst_matches_the_norm_prim_reference(dim):
    for P in mst_clouds(dim):
        a, b, length = _mst(P)
        ref_order, ref_parent, ref_length = reference_mst(P)
        assert_spanning_tree(P, a, b, length)
        assert np.array_equal(length, np.linalg.norm(P[a] - P[b], axis=1))
        assert np.array_equal(np.sort(length), np.sort(ref_length[1:]))
        ref = tree_edges(ref_parent, ref_length)
        assert np.array_equal(shortest_edges(len(P), a, b, length),
                              shortest_edges(len(P), *ref))
        edges = np.sort(ref_length[1:])
        for radius in (0.0, *np.quantile(edges, [0.1, 0.5, 0.9]), edges[len(edges) // 2], edges[-1]):
            labels, count = _cut_labels(a, b, length, radius)
            ref_labels, ref_count = _cut_labels(*ref, radius)
            assert count == ref_count
            assert np.array_equal(labels, ref_labels)


@pytest.mark.parametrize("dim", range(1, 11))
def test_mst_matches_the_point_by_point_prim_bit_for_bit(dim):
    for P in mst_clouds(dim):
        a, b, length = _mst(P)
        ref = tree_edges(*point_prim_mst(P)[1:])
        assert np.array_equal(np.sort(length), np.sort(ref[2]))
        assert np.array_equal(shortest_edges(len(P), a, b, length),
                              shortest_edges(len(P), *ref))


@pytest.mark.parametrize("dim", range(8, 11))
def test_mst_lengths_at_dim_8_and_above_match_to_rounding(dim):
    # numpy's norm sums 8 or more squares pairwise, _mst in order
    for P in mst_clouds(dim):
        length = np.sort(_mst(P)[2])
        np.testing.assert_allclose(length, np.sort(reference_mst(P)[2][1:]), rtol=1e-15, atol=0)


def two_parallel_lines():
    """Two parallel segments 0.3 apart in R^3, sampled at random spacings
    with repeats: their boxes are flat, and many distances tie."""
    rng = np.random.default_rng(12)
    t = np.round(rng.uniform(0.0, 4.0, size=(2, 900)), 3)
    u, v = np.array([1.0, 2.0, -0.5]) / math.sqrt(5.25), np.array([0.0, 0.3, 1.2])
    P = np.vstack([t[0][:, None] * u, t[1][:, None] * u + 0.3 * v / np.linalg.norm(v)])
    return P[rng.permutation(len(P))]


def test_mst_on_sampled_fibers_matches_the_point_by_point_prim(acceptance_fibers, pileup_parabola):
    # FAILING_MAP's two lines and parabolas (one piled up along its widest
    # coordinate), two parallel lines, and 4-D fibers of a mixed map
    mixed = sample_fiber(G_MIXED.to_real_map(), (1.0, 0.0), 2.0, count=600, rng_seed=0)
    surface = sample_fiber(G_MIXED.to_real_map(), (0.2, 0.0), 1.0, count=2000, rng_seed=0)
    assert len(surface.points) == 2000
    for P in (*(s.points for s in acceptance_fibers), pileup_parabola, two_parallel_lines(),
              mixed.points, surface.points):
        a, b, length = _mst(P)
        assert_spanning_tree(P, a, b, length)
        ref = tree_edges(*point_prim_mst(P)[1:])
        assert np.array_equal(np.sort(length), np.sort(ref[2]))
        assert np.array_equal(shortest_edges(len(P), a, b, length),
                              shortest_edges(len(P), *ref))
        for radius in np.quantile(length, [0.5, 0.99, 1.0]):
            assert np.array_equal(_cut_labels(a, b, length, radius)[0],
                                  _cut_labels(*ref, radius)[0])


@pytest.mark.parametrize("dim", (1, 3, 9))
def test_mst_bounds_large_components_and_stays_exact(dim, monkeypatch):
    # a component too large to measure in one block is bounded by its box,
    # and the bounds are measured as they reach the front
    bounded = []
    box_sq = fiber._box_sq

    def counted(*boxes):
        bounded.append(1)
        return box_sq(*boxes)

    monkeypatch.setattr(fiber, "_box_sq", counted)
    P = gappy_curve(dim, np.random.default_rng(40 + dim))
    a, b, length = _mst(P)
    assert bounded
    assert_spanning_tree(P, a, b, length)
    ref = tree_edges(*point_prim_mst(P)[1:])
    assert np.array_equal(np.sort(length), np.sort(ref[2]))
    assert np.array_equal(shortest_edges(len(P), a, b, length), shortest_edges(len(P), *ref))


def full_svd_singular_count(J):
    sv = np.linalg.svd(J, compute_uv=False)
    return int(np.count_nonzero(sv[:, -1] <= 1e-8 * np.maximum(sv[:, 0], 1e-300)))


def matrices_with_ratios(rng, p, n, ratios, scale):
    """(p, n) matrices U diag(s) V^T whose smallest to largest singular
    value ratio is each of `ratios`."""
    out = []
    k = min(p, n)
    for ratio in ratios:
        U = np.linalg.qr(rng.normal(size=(p, k)))[0]
        V = np.linalg.qr(rng.normal(size=(n, k)))[0]
        s = np.sort(rng.uniform(ratio, 1.0, size=k))[::-1]
        s[0], s[-1] = 1.0, ratio
        out.append(scale * (U * s) @ V.T)
    return np.array(out)


@pytest.mark.parametrize("p, n", [(1, 3), (2, 3), (2, 4), (3, 6), (3, 3), (3, 2), (4, 1)])
def test_singular_count_matches_the_full_svd(p, n):
    rng = np.random.default_rng(10 * p + n)
    ratios = np.concatenate([10.0 ** rng.uniform(-9, -5, size=300), 10.0 ** -np.arange(5, 10)])
    for scale in (1.0, 1e-150, 1e150):
        J = matrices_with_ratios(rng, p, n, ratios, scale)
        J = np.concatenate([J, np.zeros((3, p, n)), rng.normal(size=(40, p, n)) * 1e200])
        J = J[rng.permutation(len(J))]
        assert _singular_count(J) == full_svd_singular_count(J)
    assert _singular_count(np.zeros((0, p, n))) == full_svd_singular_count(np.zeros((0, p, n))) == 0
    for bad in (np.nan, np.inf):
        J = rng.normal(size=(20, p, n))
        J[7, 0, 0] = bad
        assert outcome(_singular_count, J) == outcome(full_svd_singular_count, J)


def outcome(count, J):
    """count(J), or the name of the exception it raised, and whether it
    warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = count(J)
        except np.linalg.LinAlgError as exc:
            result = type(exc).__name__
    return result, [str(w.message) for w in caught]


def test_mst_memory_stays_below_the_newton_that_made_the_cloud():
    # the MST's blocks are capped so that fiber sampling's peak stays the
    # Newton step's: 2000 seeds on FAILING_MAP's two lines
    seeds = sampling.ball_points(3, 2000, 3.0, 0)
    tracemalloc.start()
    try:
        X, rn = fiber_newton(np.array([1.0, 0.0]), seeds)
        newton_peak = tracemalloc.get_traced_memory()[1]
        P = X[(rn <= NEWTON_TOL) & (np.linalg.norm(X, axis=1) <= 3.0)]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _mst(P)
        mst_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(P) > 1900
    assert mst_peak < newton_peak


def persistent_count_loop(edges, floor, start, diameter):
    """The reference for `_persistent_count`: one math.log per plateau."""
    n = len(edges) + 1
    e = np.maximum(edges, floor)
    top = max(diameter, float(e[-1]) * 2.0, start * 2.0)
    uniq, mult = np.unique(e, return_counts=True)
    merged = np.cumsum(mult)
    lefts = np.concatenate([[floor], uniq])
    rights = np.concatenate([uniq, [top]])
    counts = np.concatenate([[n], n - merged])
    best = (0.0, 1, top)
    for c, lo, hi in zip(counts, lefts, rights):
        lo = max(lo, start)
        if hi <= lo:
            continue
        span = math.log(hi / lo)
        if span > best[0]:
            best = (span, int(c), math.sqrt(lo * hi))
    return best[1], best[2]


def test_persistent_count_takes_the_first_of_equal_spans():
    # counts 3, 2 and 1 hold over [1, 2), [2, 4) and [4, 8): one ratio
    assert _persistent_count(np.array([1.0, 2.0, 4.0]), 0.5, 1.0, 8.0) == (3, math.sqrt(2.0))
    # [3, 6) follows a shorter plateau and ties with [6, 12)
    assert _persistent_count(np.array([2.0, 3.0, 6.0]), 0.5, 2.0, 12.0) == (2, math.sqrt(18.0))


def test_persistent_count_matches_the_loop(acceptance_fibers):
    cases = [(np.array([1.0, 2.0, 4.0, 8.0]), 0.5, 0.5, 8.0),   # equal spans: the first wins
             (np.array([0.0, 0.0, 3.0, 3.0, 3.0]), 1e-9, 1e-9, 6.0),
             (np.array([1.0, 1.0]), 1e-9, 5.0, 1.0)]
    for s in acceptance_fibers:
        a, b, length = _mst(s.points)
        floor = 1e-9 * s.eps
        diameter = float(np.linalg.norm(s.points.max(axis=0) - s.points.min(axis=0)))
        cases.append((np.sort(length), floor, max(s.nn_median, floor), diameter))
    rng = np.random.default_rng(9)
    for _ in range(200):
        edges = np.sort(np.round(rng.lognormal(0.0, 2.0, rng.integers(1, 40)), 1))
        cases.append((edges, 0.01, float(rng.choice(edges)), float(edges[-1]) * rng.uniform(1, 3)))
    for case in cases:
        assert _persistent_count(*case) == persistent_count_loop(*case)


def test_fiber_components_on_and_off_the_discriminant_ray():
    """ROADMAP item 3, pinned as found: `analyze` calls z1 z1~ + z2^3 z2~
    a FibrationMainTheorem member whose discriminant is the ray of
    positive reals, and the sampled fiber has 1 component on the ray and
    2 off it.

    By hand: with w = c - |z1|^2 the fiber is z2^2 |z2|^2 = w.  For w != 0
    z2 takes two opposite values, real when w > 0 and imaginary when
    w < 0.  Off the ray w never vanishes, so the fiber is two disjoint
    graphs over the z1-disk; on the ray (c > 0) the two sheets meet where
    z2 = 0 on the circle |z1|^2 = c, which lies in the critical set, and
    the fiber is connected there.  The verdict claims nothing about
    component counts over discriminant values.
    """
    f = parse_mixed("z1 z1~ + z2^3 z2~").to_real_map()
    for c, expected in ((0.05, 1), (0.2, 1), (-0.05, 2), (-0.2, 2), (0.05j, 2)):
        s = sample_fiber(f, (c.real, c.imag), 1.0, count=2000, rng_seed=0)
        assert s.component_count == expected, c
        assert not s.unreliable
