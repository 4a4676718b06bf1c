"""Deterministic low-discrepancy point sets on spheres and balls."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

_TINY = 1e-12


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless the argument `name` is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_seed(rng_seed: int) -> None:
    """Raise ValueError unless `rng_seed` is a non-negative integer."""
    if not isinstance(rng_seed, (int, np.integer)) or rng_seed < 0:
        raise ValueError(f"rng_seed must be a non-negative integer, got {rng_seed!r}")


def _sobol(d: int, count: int, seed: int) -> np.ndarray:
    # draw a full power-of-two block (balance property), keep the prefix
    sob = qmc.Sobol(d=d, scramble=True, seed=seed)
    m = max(1, (count - 1).bit_length())
    return sob.random_base2(m)[:count]


def _normal_quantiles(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # normal quantiles of uniform draws and their row norms; a row of
    # norm ~0 is replaced by the first unit vector
    G = ndtri(np.clip(U, _TINY, 1 - _TINY))
    norms = np.linalg.norm(G, axis=1)
    bad = norms < _TINY
    if np.any(bad):
        G[bad] = np.eye(G.shape[1])[0]
        norms[bad] = 1.0
    return G, norms


def sphere_points(dim: int, count: int, radius: float, seed: int) -> np.ndarray:
    """`count` quasi-random points on the sphere of the given radius in R^dim.

    Sobol samples pushed through the normal quantile and normalised;
    deterministic for a fixed seed.
    """
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    G, norms = _normal_quantiles(_sobol(dim, count, seed))
    return radius * G / norms[:, None]


def ball_points(dim: int, count: int, radius: float, seed: int) -> np.ndarray:
    """`count` quasi-random points in the closed ball of the given radius."""
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    U = _sobol(dim + 1, count, seed)
    G, norms = _normal_quantiles(U[:, :dim])
    r = radius * U[:, dim] ** (1.0 / dim)
    return G / norms[:, None] * r[:, None]
