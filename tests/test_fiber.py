"""Radial flow, phase, and fiber sampling."""

import dataclasses
import math

import numpy as np
import pytest
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
)
from milnorscope.fiber import NEWTON_MAX_ITER, NEWTON_TOL, _cut_labels, _mst, _newton_batch

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
    with pytest.raises(ValueError, match="positive"):
        rplus_flow(params, 0.0, [1j, 0j])
    with pytest.raises(ValueError, match="dimension"):
        rplus_flow(params, 1.0, [1j])


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


# ----------------------------------------------------------------------
# phase


def test_phase_values():
    assert phase(G_MIXED, [1 + 0j, 0j]) == pytest.approx(1.0)
    cube = parse_mixed("z1^2 z1~")
    w = np.exp(1j * np.pi / 3)
    assert phase(cube, [w]) == pytest.approx(w)


def test_phase_is_orbit_invariant():
    params = radial_weights(WORKED)
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        if abs(WORKED.eval(z)) < 1e-6:
            continue
        p0 = phase(WORKED, z)
        for t in (0.3, 2.0):
            assert phase(WORKED, rplus_flow(params, t, z)) == pytest.approx(p0)


def test_phase_undefined_on_zero_set():
    with pytest.raises(ValueError, match="phase undefined"):
        phase(G_MIXED, [0j, 0j])


def test_phase_states_overflow():
    # |z1|^40 at |z1| = 1e20 leaves float range
    with pytest.raises(ValueError, match="overflow"):
        phase(parse_mixed("z1^20 z1~^20 + z2 z2~"), [1e20, 1])


# ----------------------------------------------------------------------
# newton


def test_newton_converges_to_fiber():
    X, rn, its = _newton_batch(FAILING_MAP, np.array([1.0, 0.0]), np.array([[0.2, 0.5, 0.7]]),
                               NEWTON_TOL, NEWTON_MAX_ITER)
    assert rn[0] <= NEWTON_TOL
    assert rn[0] <= 1e-10
    assert its[0] >= 1
    assert np.allclose(FAILING_MAP.eval_many(X[0]), [1.0, 0.0], atol=2e-10)


def test_newton_zero_iterations_on_the_fiber():
    x0 = np.array([1.0, 2.0, 3.0])
    X, rn, its = _newton_batch(FAILING_MAP, FAILING_MAP.eval_many(x0), x0[None],
                               NEWTON_TOL, NEWTON_MAX_ITER)
    assert rn[0] <= NEWTON_TOL
    assert its[0] == 0
    assert np.array_equal(X[0], x0)


def test_newton_respects_budget():
    X, rn, its = _newton_batch(FAILING_MAP, np.array([1.0, 0.0]), np.array([[0.2, 0.5, 0.7]]),
                               NEWTON_TOL, 1)
    assert its[0] <= 1
    assert not rn[0] <= NEWTON_TOL


# ----------------------------------------------------------------------
# fiber sampling


def test_sample_fiber_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        sample_fiber(FAILING_MAP, (1.0, 0.0), 0.0)
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


def test_mst_cut_with_duplicates_and_two_blobs():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 3)) * 0.1
    b = rng.normal(size=(30, 3)) * 0.1 + [5.0, 0.0, 0.0]
    # 11 exact duplicates: a[0] three times, a[1..6] and b[0..2] twice
    P = np.vstack([a, a[:7], b, b[:3], a[:1]])
    P = P[rng.permutation(len(P))]
    order, parent, length = _mst(P)
    assert sorted(order) == list(range(len(P)))
    assert np.count_nonzero(length == 0.0) == 11
    for radius in (0.0, 0.05, 0.2, 1.0, 10.0):
        labels, count = _cut_labels(order, parent, length, radius)
        ref = brute_single_linkage(P, radius)
        assert np.array_equal(labels, ref)
        assert count == ref.max() + 1
    assert _cut_labels(order, parent, length, 1.0)[1] == 2
