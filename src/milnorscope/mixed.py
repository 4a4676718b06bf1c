"""Diagonal mixed polynomials in complex variables and their conjugates.

A diagonal mixed polynomial is a finite sum

    psi(z) = sum_j  lambda_j * z_j^{a_j} * conj(z_j)^{b_j}

with at most one term per variable.  Coefficients are Gaussian
rationals, kept exact.  The module provides evaluation, Wirtinger
derivatives, the real Jacobian of psi viewed as a map R^{2n} -> R^2,
and the exact expansion of that real map into polynomial components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .realpoly import RealPolynomialMap


@dataclass(frozen=True)
class ComplexRational:
    """Gaussian rational a + b*i with exact arithmetic."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        # the arithmetic below already yields Fractions; wrap only the rest
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def conj(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def cross(self, other: "ComplexRational") -> Fraction:
        """Signed cross product re*other.im - im*other.re.

        Zero exactly when the two numbers are colinear over R.
        """
        return self.re * other.im - self.im * other.re

    def dot(self, other: "ComplexRational") -> Fraction:
        return self.re * other.re + self.im * other.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


_I_POWERS = (ComplexRational(1, 0), ComplexRational(0, 1),
             ComplexRational(-1, 0), ComplexRational(0, -1))


@dataclass(frozen=True)
class MixedTerm:
    """One term lambda * z_j^a * conj(z_j)^b.  Variable index j is 1-based."""

    j: int
    coeff: ComplexRational
    a: int
    b: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("variable index must be >= 1")
        if self.a < 0 or self.b < 0:
            raise ValueError("exponents must be nonnegative")
        if self.a + self.b == 0:
            raise ValueError(f"term in z{self.j} has total degree zero")
        if self.coeff.is_zero():
            raise ValueError(f"zero coefficient on z{self.j}")

    @property
    def degree(self) -> int:
        return self.a + self.b


class DiagonalMixedPolynomial:
    """psi(z) = sum of MixedTerms, at most one per variable index."""

    def __init__(self, n: int, terms):
        terms = tuple(sorted(terms, key=lambda t: t.j))
        if n < 1:
            raise ValueError("need at least one variable")
        seen = set()
        for t in terms:
            if t.j > n:
                raise ValueError(f"term index {t.j} exceeds vars={n}")
            if t.j in seen:
                raise ValueError(f"duplicate variable z{t.j}")
            seen.add(t.j)
        self.n = int(n)
        self.terms = terms
        self._by_index = {t.j: t for t in terms}
        self._real_map: RealPolynomialMap | None = None

    def term_for(self, j: int) -> MixedTerm | None:
        """The term in z_j, or None if z_j does not occur."""
        return self._by_index.get(j)

    # ------------------------------------------------------------------

    def eval(self, z) -> complex:
        """Value of psi at a complex point (sequence of n complex numbers)."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n,):
            raise ValueError("point has wrong dimension")
        acc = 0j
        for t in self.terms:
            zj = z[t.j - 1]
            acc += t.coeff.to_complex() * zj ** t.a * np.conj(zj) ** t.b
        return complex(acc)

    def eval_many(self, Z: np.ndarray) -> np.ndarray:
        """Values at a batch of complex points, shape (N, n) -> (N,)."""
        Z = np.asarray(Z, dtype=complex)
        acc = np.zeros(Z.shape[0], dtype=complex)
        for t in self.terms:
            zj = Z[:, t.j - 1]
            acc += t.coeff.to_complex() * zj ** t.a * np.conj(zj) ** t.b
        return acc

    def wirtinger(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Wirtinger derivatives (d psi / d z_j, d psi / d conj(z_j)).

        Returns two complex arrays of length n.  The convention

            d/dz = (d/dx - i d/dy) / 2,   d/dzbar = (d/dx + i d/dy) / 2

        makes each derivative act termwise: z^a zbar^b has z-derivative
        a z^{a-1} zbar^b and zbar-derivative b z^a zbar^{b-1}.  Exponent
        zero contributes nothing, including at z = 0.
        """
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n,):
            raise ValueError("point has wrong dimension")
        dz = np.zeros(self.n, dtype=complex)
        dzbar = np.zeros(self.n, dtype=complex)
        for t in self.terms:
            zj = z[t.j - 1]
            zbj = np.conj(zj)
            lam = t.coeff.to_complex()
            if t.a > 0:
                dz[t.j - 1] = t.a * lam * zj ** (t.a - 1) * zbj ** t.b
            if t.b > 0:
                dzbar[t.j - 1] = t.b * lam * zj ** t.a * zbj ** (t.b - 1)
        return dz, dzbar

    def real_jacobian(self, z) -> np.ndarray:
        """Jacobian of (Re psi, Im psi) in the real coordinates (x1, y1, ...).

        Built from the Wirtinger derivatives via d/dx_j = d/dz_j +
        d/dzbar_j and d/dy_j = i (d/dz_j - d/dzbar_j).  Returns a real
        (2, 2n) array.
        """
        dz, dzbar = self.wirtinger(z)
        ddx = dz + dzbar
        ddy = 1j * (dz - dzbar)
        J = np.empty((2, 2 * self.n))
        J[0, 0::2] = ddx.real
        J[0, 1::2] = ddy.real
        J[1, 0::2] = ddx.imag
        J[1, 1::2] = ddy.imag
        return J

    def to_real_map(self) -> RealPolynomialMap:
        """Expand psi into (Re psi, Im psi) as exact real polynomials.

        Variables are ordered x1, y1, x2, y2, ... so the real point
        (x1, y1, ...) corresponds to z_j = x_j + i y_j.
        """
        if self._real_map is not None:
            return self._real_map
        re_comp: dict[tuple[int, ...], Fraction] = {}
        im_comp: dict[tuple[int, ...], Fraction] = {}
        for t in self.terms:
            jx = 2 * (t.j - 1)
            # z^a zbar^b = sum_{k,l} C(a,k) C(b,l) i^(k-l) x^(a+b-k-l) y^(k+l),
            # and i^(k-l) = i^m (-1)^l with m = k + l
            for m in range(t.a + t.b + 1):
                binom = sum(comb(t.a, m - l) * comb(t.b, l) * (-1) ** l
                            for l in range(max(0, m - t.a), min(m, t.b) + 1))
                if binom == 0:
                    continue
                c = t.coeff * _I_POWERS[m % 4] * ComplexRational(binom, 0)
                key = (0,) * jx + (t.a + t.b - m, m) + (0,) * (2 * self.n - jx - 2)
                # terms in different variables share no monomial, and the
                # map drops zero coefficients
                re_comp[key] = c.re
                im_comp[key] = c.im
        names = []
        for j in range(1, self.n + 1):
            names += [f"x{j}", f"y{j}"]
        self._real_map = RealPolynomialMap(2 * self.n, [re_comp, im_comp], names)
        return self._real_map

    def conj_swap(self) -> "DiagonalMixedPolynomial":
        """The polynomial with conjugated coefficients and a/b exchanged.

        Satisfies conj_swap(psi)(z) == conj(psi(z)) for every z.
        """
        return DiagonalMixedPolynomial(
            self.n,
            [MixedTerm(t.j, t.coeff.conj(), t.b, t.a) for t in self.terms])

    def scale(self, c: ComplexRational) -> "DiagonalMixedPolynomial":
        return DiagonalMixedPolynomial(
            self.n, [MixedTerm(t.j, c * t.coeff, t.a, t.b) for t in self.terms])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagonalMixedPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        from .parsing import render_mixed
        return f"DiagonalMixedPolynomial({render_mixed(self)!r})"


def reals_to_complex(x) -> np.ndarray:
    """Pack a real vector (x1, y1, x2, y2, ...) into complex (z1, ..., zn)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % 2:
        raise ValueError("real point must have even length")
    return x[0::2] + 1j * x[1::2]


def complex_to_reals(z) -> np.ndarray:
    """Unpack complex (z1, ..., zn) into (x1, y1, x2, y2, ...)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out
