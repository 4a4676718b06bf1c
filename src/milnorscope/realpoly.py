"""Sparse real polynomial maps R^n -> R^p with exact rational coefficients.

A map is stored as one coefficient dictionary per component, keyed by
exponent tuples.  Coefficients are `fractions.Fraction`, so symbolic
manipulation (partial derivatives, evaluation at rational points) is
exact.  Floating point enters only in the compiled evaluators used for
numerics, which are vectorised over batches of points.

`eval_many` and `grad_many` run one kernel, compiled once per map by
`_flatten`; `grad_many` runs the kernel of the map's `derivative`:

- a power table: the distinct (variable, exponent >= 1) pairs that occur,
  plus a ones column; the exponent-1 columns are gathered from the
  points, and the others are raised with one array-exponent `np.power`
  per call;
- each monomial's value: the product of its non-trivial factors in
  variable order (padded with the ones column), times its coefficient;
- each polynomial's value: its monomials summed by `np.add.at`, in
  monomial order from +0.0.

Contract: the values are bit-identical, NaN signs included, to raising
every point to every monomial's full exponent row (`x ** E`), taking
each row's product and summing as above, and the kernel warns on exactly
the inputs that formula warns on (the skipped factors are x**0 = 1.0
and the gathered ones x**1 = x, both exact and raising nothing).  Each
row depends only on its own point, so a batch gives the same bits as its
rows one at a time.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Mapping, Sequence

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
    # Compile the polynomials into the kernel `_evaluate` runs (see the
    # module docstring); row k of F, C and S belongs to monomial k.
    #   pv      variable of each power-table column: first the k columns
    #           of exponent 1, then those pow raises, the last (0, 0)
    #   ep      exponents of the raised columns; pow makes (0, 0) 1.0
    #   F       (m, w) power-table columns of each monomial's factors, in
    #           variable order, padded with the ones column
    #   C, S    (m, 1) coefficients and (m,) polynomial indices
    rows = [[(j, e) for j, e in enumerate(expo) if e] for poly in polys for expo in poly]
    if n == 1 and rows == [[(0, 2)]]:
        # one monomial in one variable: x ** E then takes numpy's
        # scalar-exponent path, which squares as x * x
        rows = [[(0, 1), (0, 1)]]
    pairs = sorted({pair for row in rows for pair in row})
    ones = [pair for pair in pairs if pair[1] == 1]
    raised = [pair for pair in pairs if pair[1] != 1] + [(0, 0)]
    column = {pair: i for i, pair in enumerate(ones + raised)}
    width = max([1] + [len(row) for row in rows])
    factors = [[column[pair] for pair in row] + [len(column) - 1] * (width - len(row))
               for row in rows]
    return (np.array([j for j, _ in ones + raised], dtype=np.intp),
            len(ones),
            np.array([e for _, e in raised], dtype=float),
            np.array(factors, dtype=np.intp).reshape(-1, width),
            np.array([float(c) for poly in polys for c in poly.values()])[:, None],
            np.array([k for k, poly in enumerate(polys) for _ in poly], dtype=np.intp),
            len(polys))


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
        if not 0 <= i < self.p:
            raise ValueError(f"component index i = {i} is out of range 0..{self.p - 1}")
        if not 0 <= j < self.n:
            raise ValueError(f"variable index j = {j} is out of range 0..{self.n - 1}")
        return self.derivative.components[i * self.n + j]

    def jacobian_exact(self, x: Sequence[Fraction]) -> list[list[Fraction]]:
        """Exact p-by-n Jacobian matrix at a rational point."""
        xs = self._exact_point(x)
        return [[_eval_exact(self.partial(i, j), xs) for j in range(self.n)]
                for i in range(self.p)]

    # ------------------------------------------------------------------
    # compiled float layer

    @functools.cached_property
    def _compiled(self):
        return _flatten(self.components, self.n)

    @functools.cached_property
    def derivative(self) -> RealPolynomialMap:
        """The p*n partials d f_i / d x_j, row by row, as one map."""
        # distinct monomials have distinct, nonzero derivatives
        return RealPolynomialMap(self.n, [
            {expo[:j] + (expo[j] - 1,) + expo[j + 1:]: coeff * expo[j]
             for expo, coeff in comp.items() if expo[j]}
            for comp in self.components for j in range(self.n)], self.var_names)

    def _evaluate(self, X, compiled, shape: tuple[int, ...]) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n:
            raise ValueError("points have wrong dimension")
        pv, k, ep, F, C, S, count = compiled
        # x ** 1 is x, bit for bit and without a warning, so the first k
        # columns are gathered only; pow raises the rest in place, and
        # their exponents vary along its inner loop (with the ones column,
        # at least two wherever a column is raised), which keeps numpy on
        # its array-exponent path, as x ** E takes; raised alone, the ones
        # column is 1.0 on any path
        T = X[:, pv]
        R = T[:, k:]
        np.power(R, ep, out=R)
        T = T.T.copy()
        # numpy multiplies along a reduction in order, so each product
        # rounds as the full row's did (its other factors were exact 1.0s)
        P = np.multiply.reduce(T.take(F, axis=0), axis=1) * C
        vals = np.zeros((X.shape[0], count))
        np.add.at(vals.T, S, P)
        vals = vals.reshape((X.shape[0],) + shape)
        return vals[0] if single else vals

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points.  X is (N, n); returns (N, p)."""
        return self._evaluate(X, self._compiled, (self.p,))

    def grad_many(self, X: np.ndarray) -> np.ndarray:
        """Jacobians at a batch of points.  X is (N, n); returns (N, p, n)."""
        return self._evaluate(X, self.derivative._compiled, (self.p, self.n))

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
