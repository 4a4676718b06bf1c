"""Differential calculus of mixed polynomials against hand values and a
finite-difference oracle, plus the exact real expansion."""

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
    complex_to_reals,
    parse_mixed,
    parse_real_map,
    reals_to_complex,
)
from milnorscope.realpoly import det_exact, minors_exact

FD_H = 1e-6


def C(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def fd_jacobian(func, x, p, h=FD_H):
    # central differences of a vector map at x
    x = np.asarray(x, dtype=float)
    J = np.zeros((p, len(x)))
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        J[:, j] = (np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2 * h)
    return J


def random_mixed(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    terms = []
    for j in range(1, n + 1):
        if n > 1 and rng.random() < 0.2:
            continue
        a = int(rng.integers(0, 4))
        b = int(rng.integers(0 if a else 1, 4))
        re = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        im = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        if re == 0 and im == 0:
            re = Fraction(1)
        terms.append(MixedTerm(j, ComplexRational(re, im), a, b))
    if not terms:
        terms = [MixedTerm(1, C(1), 1, 1)]
    return DiagonalMixedPolynomial(n, terms)


# ----------------------------------------------------------------------
# construction invariants


def test_mixed_term_validation():
    with pytest.raises(ValueError):
        MixedTerm(1, C(0), 1, 1)
    with pytest.raises(ValueError):
        MixedTerm(1, C(1), 0, 0)
    with pytest.raises(ValueError):
        MixedTerm(0, C(1), 1, 0)
    with pytest.raises(ValueError):
        MixedTerm(1, C(1), -1, 2)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        DiagonalMixedPolynomial(2, [MixedTerm(1, C(1), 1, 1),
                                    MixedTerm(1, C(2), 2, 2)])
    with pytest.raises(ValueError):
        DiagonalMixedPolynomial(1, [MixedTerm(2, C(1), 1, 1)])


# ----------------------------------------------------------------------
# evaluation


def test_eval_hand_values():
    psi = parse_mixed("z1 z1~ + z2^2 z2~")
    assert psi.eval([1, 0]) == pytest.approx(1)
    assert psi.eval([0, 1]) == pytest.approx(1)
    lam = parse_mixed("(1+i) z1 z1~ vars=2")
    assert lam.eval([2, 5 - 1j]) == pytest.approx(4 + 4j)


def test_eval_many_matches_pointwise():
    psi = parse_mixed("(1-2i) z1^2 z1~ + 3 z2 z2~^3")
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    vals = psi.eval_many(Z)
    for z, v in zip(Z, vals):
        assert abs(psi.eval(z) - v) < 1e-12 * (1 + abs(v))


def test_eval_conjugate_exponent():
    # z^2 zbar = |z|^2 z, so the value at e^{i pi/3} has the same argument
    psi = parse_mixed("z1^2 z1~")
    z = np.exp(1j * math.pi / 3)
    assert psi.eval([z]) == pytest.approx(z)


# ----------------------------------------------------------------------
# wirtinger derivatives


def test_wirtinger_hand_values():
    psi = parse_mixed("z1 z1~")
    c = 0.7 - 0.4j
    dz, dzb = psi.wirtinger([c])
    assert dz[0] == pytest.approx(np.conj(c))
    assert dzb[0] == pytest.approx(c)

    psi2 = parse_mixed("z1^2 z1~")
    dz, dzb = psi2.wirtinger([1])
    assert dz[0] == pytest.approx(2)
    assert dzb[0] == pytest.approx(1)


def test_wirtinger_zero_at_origin():
    psi = parse_mixed("(2-i) z1 z1~ + z2^2 z2~^3")
    dz, dzb = psi.wirtinger([0, 0])
    assert np.all(dz == 0)
    assert np.all(dzb == 0)


def test_wirtinger_exponent_zero_kills_derivative():
    psi = parse_mixed("z1~^2")
    dz, dzb = psi.wirtinger([0.3 + 0.1j])
    assert dz[0] == 0
    assert dzb[0] == pytest.approx(2 * np.conj(0.3 + 0.1j))


def test_wirtinger_against_finite_differences():
    # dpsi/dz = (d/dx - i d/dy)/2, dpsi/dzbar = (d/dx + i d/dy)/2
    rng = np.random.default_rng(7)
    for _ in range(10):
        psi = random_mixed(rng)
        z = rng.normal(size=psi.n) + 1j * rng.normal(size=psi.n)
        dz, dzb = psi.wirtinger(z)
        for j in range(psi.n):
            e = np.zeros(psi.n, dtype=complex)
            e[j] = FD_H
            dx = (psi.eval(z + e) - psi.eval(z - e)) / (2 * FD_H)
            dy = (psi.eval(z + 1j * e) - psi.eval(z - 1j * e)) / (2 * FD_H)
            fd_dz = (dx - 1j * dy) / 2
            fd_dzb = (dx + 1j * dy) / 2
            assert abs(dz[j] - fd_dz) < 1e-6 * (1 + abs(dz[j]))
            assert abs(dzb[j] - fd_dzb) < 1e-6 * (1 + abs(dzb[j]))


# ----------------------------------------------------------------------
# real jacobian


def test_real_jacobian_modulus_squared():
    psi = parse_mixed("z1 z1~")
    x, y = 0.8, -1.3
    J = psi.real_jacobian([complex(x, y)])
    assert J == pytest.approx(np.array([[2 * x, 2 * y], [0.0, 0.0]]))


def test_real_jacobian_z2zbar_rows():
    psi = parse_mixed("z1^2 z1~")
    z, w = 0.6, 0.25
    J = psi.real_jacobian([complex(z, w)])
    expected = np.array([
        [3 * z * z + w * w, 2 * z * w],
        [2 * z * w, 3 * w * w + z * z],
    ])
    assert J == pytest.approx(expected)


def test_real_jacobian_against_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi = random_mixed(rng)
        x = rng.uniform(-1, 1, size=2 * psi.n)

        def func(v):
            val = psi.eval(reals_to_complex(v))
            return [val.real, val.imag]

        J = psi.real_jacobian(reals_to_complex(x))
        J_fd = fd_jacobian(func, x, 2)
        assert np.linalg.norm(J - J_fd) < 1e-6 * (1 + np.linalg.norm(J))


def test_real_jacobian_matches_grad_map_of_expansion():
    rng = np.random.default_rng(13)
    for _ in range(5):
        psi = random_mixed(rng)
        f = psi.to_real_map()
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=2 * psi.n)
            J1 = psi.real_jacobian(reals_to_complex(x))
            J2 = f.grad_many(x)
            assert np.allclose(J1, J2, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# exact real expansion


def test_to_real_map_matches_hand_expansion():
    psi = parse_mixed("z1 z1~ + z2^2 z2~")
    f = psi.to_real_map()
    assert (f.n, f.p) == (4, 2)
    g = parse_real_map("(x^2+y^2+z^3+z*w^2, w^3+w*z^2) vars x,y,z,w")
    assert f.components == g.components


def test_to_real_map_times_i():
    psi = parse_mixed("i z1")
    f = psi.to_real_map()
    assert f.components[0] == {(0, 1): Fraction(-1)}
    assert f.components[1] == {(1, 0): Fraction(1)}


def test_to_real_map_evaluation_equality():
    rng = np.random.default_rng(17)
    for _ in range(6):
        psi = random_mixed(rng)
        f = psi.to_real_map()
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2 * psi.n)
            w = psi.eval(reals_to_complex(x))
            v = f.eval_many(x)
            assert abs(complex(v[0], v[1]) - w) < 1e-9 * (1 + abs(w))


def test_conj_swap_identity():
    rng = np.random.default_rng(19)
    for _ in range(6):
        psi = random_mixed(rng)
        swapped = psi.conj_swap()
        assert swapped.conj_swap() == psi
        z = rng.normal(size=psi.n) + 1j * rng.normal(size=psi.n)
        assert abs(swapped.eval(z) - np.conj(psi.eval(z))) < 1e-12 * (
            1 + abs(psi.eval(z)))


def test_scale_multiplies_values():
    psi = parse_mixed("z1 z1~ + z2^2 z2~")
    c = C(Fraction(1, 2), -2)
    scaled = psi.scale(c)
    z = [0.3 + 1j, -0.2 + 0.4j]
    assert scaled.eval(z) == pytest.approx(complex(0.5, -2) * psi.eval(z))


def test_reals_complex_round_trip():
    x = np.array([1.0, 2.0, -0.5, 0.25])
    z = reals_to_complex(x)
    assert z == pytest.approx(np.array([1 + 2j, -0.5 + 0.25j]))
    assert complex_to_reals(z) == pytest.approx(x)


# ----------------------------------------------------------------------
# real polynomial maps


def test_eval_and_grad_map_hand_values():
    f = parse_real_map("(x*y + z^2, x) vars x,y,z")
    assert f.eval_many([1, 2, 3]) == pytest.approx([11.0, 1.0])
    J = f.grad_many([1, 2, 3])
    assert J == pytest.approx(np.array([[2, 1, 6], [1, 0, 0]], dtype=float))


def test_grad_map_zero_at_origin_for_high_degree():
    f = parse_real_map("(x^2 + y^3, x*y) vars x,y")
    assert f.grad_many([0, 0]) == pytest.approx(np.zeros((2, 2)))


def test_grad_map_against_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        comps = []
        for _ in range(p):
            comp = {}
            for _ in range(rng.integers(1, 5)):
                expo = tuple(int(e) for e in rng.integers(0, 3, size=n))
                comp[expo] = Fraction(int(rng.integers(-5, 6)), 2)
            comps.append(comp)
        f = RealPolynomialMap(n, comps)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=n)
            J = f.grad_many(x)
            J_fd = fd_jacobian(f.eval_many, x, p)
            assert np.linalg.norm(J - J_fd) < 1e-6 * (1 + np.linalg.norm(J))


def test_eval_exact_vs_float():
    f = parse_real_map("(1/3*x^2 - y, x*y^3) vars x,y")
    xq = [Fraction(3, 2), Fraction(-1, 3)]
    exact = f.eval_exact(xq)
    assert exact == (Fraction(3, 4) + Fraction(1, 3), Fraction(3, 2) * Fraction(-1, 27))
    v = f.eval_many([float(q) for q in xq])
    assert v == pytest.approx([float(e) for e in exact])


def test_jacobian_exact_matches_grad_map():
    f = parse_real_map("(x^2*y - z, y*z^2) vars x,y,z")
    xq = [Fraction(1, 2), Fraction(2), Fraction(-3, 4)]
    rows = f.jacobian_exact(xq)
    J = f.grad_many([float(q) for q in xq])
    assert np.allclose([[float(v) for v in row] for row in rows], J)


def test_exact_layer_rejects_wrong_dimension():
    f = parse_real_map("(x*y + z^2, x) vars x,y,z")
    for evaluate in (f.eval_exact, f.jacobian_exact):
        with pytest.raises(ValueError, match="wrong dimension"):
            evaluate([Fraction(1)])


def test_det_and_minors_exact():
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert det_exact(rows) == Fraction(-2)
    m = [[Fraction(1), Fraction(0), Fraction(2)],
         [Fraction(0), Fraction(1), Fraction(4)]]
    assert minors_exact(m, 2) == [Fraction(1), Fraction(4), Fraction(-2)]


def test_map_equality_and_batched_eval():
    f = parse_real_map("(x^2 - y, x*y) vars x,y")
    g = parse_real_map("(x*x - y, y*x) vars x,y")
    assert f == g
    rng = np.random.default_rng(29)
    X = rng.normal(size=(30, 2))
    V = f.eval_many(X)
    for x, v in zip(X, V):
        assert v == pytest.approx(f.eval_many(x))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_wirtinger_consistency_property(seed):
    """real_jacobian equals the gradient of the exact expansion."""
    rng = np.random.default_rng(seed)
    psi = random_mixed(rng, n_max=3)
    f = psi.to_real_map()
    x = rng.uniform(-1.5, 1.5, size=2 * psi.n)
    J1 = psi.real_jacobian(reals_to_complex(x))
    J2 = f.grad_many(x)
    assert np.allclose(J1, J2, rtol=1e-9, atol=1e-9)
