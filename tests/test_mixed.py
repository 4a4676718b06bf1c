"""Differential calculus of mixed polynomials against hand values and a
finite-difference oracle, plus the exact real expansion."""

import math
import warnings
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


def _pow(c, k):
    out = C(1)
    for _ in range(k):
        out = out * c
    return out


def test_to_real_map_is_exact_at_rational_points():
    # the oracle: psi evaluated in ComplexRational arithmetic, no expansion
    rng = np.random.default_rng(23)
    for _ in range(30):
        psi = random_mixed(rng, n_max=3)
        f = psi.to_real_map()
        for _ in range(5):
            x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                 for _ in range(2 * psi.n)]
            w = C(0)
            for t in psi.terms:
                zj = ComplexRational(x[2 * t.j - 2], x[2 * t.j - 1])
                w = w + t.coeff * _pow(zj, t.a) * _pow(zj.conj(), t.b)
            assert f.eval_exact(x) == (w.re, w.im)


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


def test_derivative_is_one_map_of_the_partials():
    f = parse_real_map("(x^2*y - z, y*z^2 + 3) vars x,y,z")
    d = f.derivative
    assert d is f.derivative
    assert (d.n, d.p, d.var_names) == (3, 6, f.var_names)
    for i in range(f.p):
        for j in range(f.n):
            assert d.components[i * f.n + j] == f.partial(i, j)
    X = np.random.default_rng(5).uniform(-2, 2, size=(7, 3))
    assert f.grad_many(X).tobytes() == d.eval_many(X).reshape(7, 2, 3).tobytes()


def test_partial_indices_are_checked():
    f = parse_real_map("(x^2*y - z, y*z^2 + 3) vars x,y,z")
    assert f.partial(0, 0) == {(1, 1, 0): 2}
    assert f.partial(1, 2) == {(0, 1, 1): 2}
    # i * n + j would read d f_1 / d x_0 for (-1, 0) and (0, 3)
    with pytest.raises(ValueError, match="component index i = -1"):
        f.partial(-1, 0)
    with pytest.raises(ValueError, match="component index i = 2"):
        f.partial(2, 0)
    with pytest.raises(ValueError, match="variable index j = 3"):
        f.partial(0, 3)
    with pytest.raises(ValueError, match="variable index j = -1"):
        f.partial(0, -1)


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


# ----------------------------------------------------------------------
# the compiled evaluators, pinned bit for bit to the plain formula


def reference_evaluate(f, X, grad=False):
    """The evaluators' values by the plain formula: every point raised to
    every monomial's full exponent row, one product per monomial, and the
    coefficient-weighted monomials summed into their polynomial by
    np.add.at in monomial order."""
    polys = ([f.partial(i, j) for i in range(f.p) for j in range(f.n)] if grad
             else f.components)
    E = np.array([e for poly in polys for e in poly], dtype=np.int64).reshape(-1, f.n)
    C = np.array([float(c) for poly in polys for c in poly.values()])
    S = np.array([k for k, poly in enumerate(polys) for _ in poly], dtype=np.int64)
    X2 = np.asarray(X, dtype=float).reshape(-1, f.n)
    P = np.prod(X2[:, None, :] ** E[None, :, :], axis=2)
    vals = np.zeros((X2.shape[0], len(polys)))
    np.add.at(vals.T, S, (P * C).T)
    vals = vals.reshape((X2.shape[0], f.p) + ((f.n,) if grad else ()))
    return vals[0] if np.ndim(X) == 1 else vals


PINNED_MAPS = {
    "G": parse_mixed("z1 z1~ + z2^2 z2~").to_real_map(),
    # four partials of H are identically zero: empty sums
    "H": parse_mixed("z1 z1~ - z2 z2~ + z3^2 z3~").to_real_map(),
    "worked": parse_mixed("(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~").to_real_map(),
    "failing": parse_real_map("(x*y + z^2, x) vars x,y,z"),
    "overflow": parse_real_map("(x^2000*y + z^2, x) vars x,y,z"),
    # one (variable, exponent) pair in all
    "one pair x": parse_real_map("(x^2, 3*x^2) vars x"),
    "one pair y": parse_real_map("(y^2, y^2 - 2) vars x,y"),
    # one monomial in one variable
    "square": parse_real_map("(x^2) vars x"),
    "cube": parse_real_map("(-1/3*x^3) vars x"),
    # pow raises one exponent-2 column beside the ones column; the
    # exponent-1 columns are gathered (names sort last, which keeps the
    # other maps' seeds)
    "x^2 beside linear": parse_real_map("(x^2 + y, x*y - 3*y) vars x,y"),
    # every factor has exponent 1: pow raises the ones column alone
    "xyz linear": parse_real_map("(x*y + 2*z, x - y*z) vars x,y,z"),
}
BATCH_SIZES = (1, 2, 5, 2048)
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                           1e-300, -1e300, 1e300, 1.5, -3.0])


def pinned_points(rng, N, n):
    """Three batches: moderate values, magnitudes from 1e-300 to 1e300,
    and those mixed with signed zeros, subnormals, infinities and nan."""
    moderate = 3 * rng.standard_normal((N, n))
    wide = rng.choice([-1.0, 1.0], (N, n)) * 10.0 ** rng.uniform(-300, 300, (N, n))
    mixed = np.where(rng.random((N, n)) < 0.3, rng.choice(SPECIAL_VALUES, (N, n)), wide)
    return moderate, wide, mixed


def recorded(evaluate, X):
    """evaluate(X) and whether it emitted a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = evaluate(X)
    return out, any(issubclass(w.category, RuntimeWarning) for w in caught)


def assert_pinned(f, rng):
    for grad, evaluate in ((False, f.eval_many), (True, f.grad_many)):
        batches = [X for N in BATCH_SIZES for X in pinned_points(rng, N, f.n)]
        for X in batches + [X[0] for X in pinned_points(rng, 1, f.n)]:
            want, want_warned = recorded(lambda X: reference_evaluate(f, X, grad), X)
            got, warned = recorded(evaluate, X)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (f, grad, X.shape)
            assert warned == want_warned, (f, grad, X.shape)


@pytest.mark.parametrize("name", PINNED_MAPS)
def test_evaluators_match_the_plain_formula_bit_for_bit(name):
    assert_pinned(PINNED_MAPS[name], np.random.default_rng(sorted(PINNED_MAPS).index(name)))


@st.composite
def sparse_maps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    exponent = st.sampled_from((0, 0, 0, 1, 2, 3, 7))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    comps = [draw(st.dictionaries(st.tuples(*[exponent] * n), coeff, max_size=6))
             for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return RealPolynomialMap(n, comps)


@settings(max_examples=25, deadline=None)
@given(sparse_maps(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_evaluators_match_the_plain_formula_on_sparse_maps(f, seed):
    assert_pinned(f, np.random.default_rng(seed))


@pytest.mark.parametrize("name", PINNED_MAPS)
def test_evaluator_rows_are_independent_of_the_batch(name):
    """Row i of a batch equals, bit for bit, the batch of one and the 1-D
    call on point i (stacked finite differences and batched certification
    rely on this)."""
    f = PINNED_MAPS[name]
    rng = np.random.default_rng(31)
    for X in pinned_points(rng, 40, f.n):
        with np.errstate(all="ignore"):
            for evaluate in (f.eval_many, f.grad_many):
                batch = evaluate(X)
                for i, x in enumerate(X):
                    for alone in (evaluate(X[i:i + 1])[0], evaluate(x)):
                        assert np.array_equal(alone.view(np.int64), batch[i].view(np.int64))
