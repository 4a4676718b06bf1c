"""Sparse real polynomial maps R^n -> R^p with exact rational coefficients.

A map is stored as one coefficient dictionary per component, keyed by
exponent tuples.  Coefficients are `fractions.Fraction`, so symbolic
manipulation (partial derivatives, restriction to coordinate subspaces,
evaluation at rational points) is exact.  Floating point enters only in
the compiled evaluators used for numerics, which are vectorised over
batches of points.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Monomials = Mapping[tuple[int, ...], Fraction]


def _clean(component: Monomials, n: int) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for expo, coeff in component.items():
        expo = tuple(int(e) for e in expo)
        if len(expo) != n:
            raise ValueError(f"exponent tuple {expo} has length {len(expo)}, expected {n}")
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        c = Fraction(coeff)
        if c != 0:
            out[expo] = out.get(expo, Fraction(0)) + c
            if out[expo] == 0:
                del out[expo]
    return out


def _eval_exact(poly: Monomials, xs: Sequence[Fraction]) -> Fraction:
    acc = Fraction(0)
    for expo, coeff in poly.items():
        term = coeff
        for xv, e in zip(xs, expo):
            if e:
                term *= xv ** e
        acc += term
    return acc


def _flatten(polys: Sequence[Monomials], n: int):
    # one row of exponents per monomial, with the index of the polynomial
    # it belongs to, and the number of polynomials
    expos, coeffs, seg = [], [], []
    for k, poly in enumerate(polys):
        for e, c in poly.items():
            expos.append(e)
            coeffs.append(float(c))
            seg.append(k)
    return (np.array(expos, dtype=np.int64).reshape(-1, n), np.array(coeffs, dtype=float),
            np.array(seg, dtype=np.int64), len(polys))


class RealPolynomialMap:
    """Polynomial map f : R^n -> R^p held as sparse rational data.

    Parameters
    ----------
    n : int
        Number of variables.
    components : sequence of dict
        One dict per component, mapping exponent tuples of length `n`
        to rational coefficients.
    var_names : sequence of str, optional
        Display names for the variables; defaults to x1..xn.
    """

    def __init__(self, n: int, components: Sequence[Monomials],
                 var_names: Sequence[str] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        if not components:
            raise ValueError("need at least one component")
        self.n = int(n)
        self.p = len(components)
        self.components: tuple[dict[tuple[int, ...], Fraction], ...] = tuple(
            _clean(c, self.n) for c in components)
        if var_names is None:
            var_names = tuple(f"x{i+1}" for i in range(self.n))
        else:
            var_names = tuple(var_names)
            if len(var_names) != self.n:
                raise ValueError("var_names length does not match n")
            if len(set(var_names)) != self.n:
                raise ValueError("duplicate variable name")
        self.var_names = var_names
        self._partials: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}

    # ------------------------------------------------------------------
    # exact layer

    def _exact_point(self, x: Sequence[Fraction]) -> list[Fraction]:
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        return [Fraction(v) for v in x]

    def eval_exact(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Evaluate at a rational point, exactly."""
        xs = self._exact_point(x)
        return tuple(_eval_exact(comp, xs) for comp in self.components)

    def partial(self, i: int, j: int) -> dict[tuple[int, ...], Fraction]:
        """Sparse dict of d f_i / d x_j (0-based indices)."""
        key = (i, j)
        if key not in self._partials:
            # distinct monomials have distinct, nonzero derivatives
            self._partials[key] = {
                expo[:j] + (expo[j] - 1,) + expo[j + 1:]: coeff * expo[j]
                for expo, coeff in self.components[i].items() if expo[j]}
        return self._partials[key]

    def jacobian_exact(self, x: Sequence[Fraction]) -> list[list[Fraction]]:
        """Exact p-by-n Jacobian matrix at a rational point."""
        xs = self._exact_point(x)
        return [[_eval_exact(self.partial(i, j), xs) for j in range(self.n)]
                for i in range(self.p)]

    def restricted_to_zero(self, zero_vars: Iterable[int]) -> "RealPolynomialMap":
        """The map obtained by setting the given variables (0-based) to zero."""
        zv = set(zero_vars)
        comps = []
        for comp in self.components:
            kept = {e: c for e, c in comp.items() if all(e[j] == 0 for j in zv)}
            comps.append(kept)
        return RealPolynomialMap(self.n, comps, self.var_names)

    # ------------------------------------------------------------------
    # compiled float layer

    @functools.cached_property
    def _compiled(self):
        return _flatten(self.components, self.n)

    @functools.cached_property
    def _compiled_grad(self):
        return _flatten([self.partial(i, j) for i in range(self.p) for j in range(self.n)],
                        self.n)

    def _evaluate(self, X, compiled, shape: tuple[int, ...]) -> np.ndarray:
        # sum each monomial's value into the polynomial it belongs to
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n:
            raise ValueError("points have wrong dimension")
        E, C, S, count = compiled
        P = np.prod(X[:, None, :] ** E[None, :, :], axis=2)
        vals = np.zeros((X.shape[0], count))
        np.add.at(vals.T, S, (P * C).T)
        vals = vals.reshape((X.shape[0],) + shape)
        return vals[0] if single else vals

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points.  X is (N, n); returns (N, p)."""
        return self._evaluate(X, self._compiled, (self.p,))

    def grad_many(self, X: np.ndarray) -> np.ndarray:
        """Jacobians at a batch of points.  X is (N, n); returns (N, p, n)."""
        return self._evaluate(X, self._compiled_grad, (self.p, self.n))

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealPolynomialMap):
            return NotImplemented
        return (self.n == other.n and self.components == other.components
                and self.var_names == other.var_names)

    def __repr__(self) -> str:
        return f"RealPolynomialMap(n={self.n}, p={self.p}, vars={self.var_names})"


def det_exact(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a small square matrix of Fractions (Laplace expansion)."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix is not square")
    if m == 1:
        return Fraction(rows[0][0])
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = Fraction(0)
    sign = 1
    for k in range(m):
        if rows[0][k] != 0:
            minor = [[rows[i][j] for j in range(m) if j != k] for i in range(1, m)]
            acc += sign * rows[0][k] * det_exact(minor)
        sign = -sign
    return acc


def minors_exact(matrix: Sequence[Sequence[Fraction]], size: int) -> list[Fraction]:
    """All size-by-size minors taken from the full set of rows of `matrix`.

    Rows are used in the given order; columns run over all increasing
    column selections.  Requires len(matrix) == size.
    """
    rows = [list(r) for r in matrix]
    if len(rows) != size:
        raise ValueError("row count must equal minor size")
    ncols = len(rows[0])
    out = []
    for cols in itertools.combinations(range(ncols), size):
        sub = [[row[c] for c in cols] for row in rows]
        out.append(det_exact(sub))
    return out
