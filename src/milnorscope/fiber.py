"""Fiber sampling and the radial flow for weighted-homogeneous maps.

Fibers f^{-1}(c) inside a ball are sampled by damped Gauss-Newton from
quasi-random seeds; connected components are estimated by single
linkage at a radius chosen by persistence: along the exact minimum
spanning tree of the converged cloud, the component count that stays
constant over the widest range of merge radii (in log scale, above the
sampling resolution of the cloud) wins, and cutting the same tree at
that radius labels the components.
Sampling gaps of a connected piece close at small radii while genuinely
separate pieces only merge near their true separation, so the stable
count is the sampled one.  The count is descriptive: it says how the
point clouds split, it does not certify a homeomorphism type.

The R+ flow t . z = (t^{p_j} z_j) uses the radial weights of a
diagonal mixed polynomial and satisfies psi(t . z) = t^degree psi(z).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .mixed import DiagonalMixedPolynomial
from .realpoly import RealPolynomialMap
from .structure import RadialWeights

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
MIN_RELIABLE_POINTS = 10


def rplus_flow(params: RadialWeights, t: float, z) -> np.ndarray:
    """Apply the flow: multiply each coordinate z_j by t^{p_j} (t > 0)."""
    if t <= 0:
        raise ValueError("flow parameter t must be positive")
    z = np.asarray(z, dtype=complex)
    if z.shape != (len(params.weights),):
        raise ValueError("point has wrong dimension")
    factors = np.array([np.float64(t) ** p for p in params.weights])
    return z * factors


def inflate_to_sphere(params: RadialWeights, z, eps: float) -> tuple[float, np.ndarray]:
    """Unique t > 0 with |t . z| = eps, and the flowed point.

    |t . z|^2 = sum t^{2 p_j} |z_j|^2 is strictly increasing in t, so
    safeguarded Newton on sqrt of it converges to the unique root; the
    radius error of the returned point is below 1e-12.
    """
    sampling.check_positive("eps", eps)
    z = np.asarray(z, dtype=complex)
    if z.shape != (len(params.weights),):
        raise ValueError("point has wrong dimension")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    m2 = np.abs(z) ** 2
    if not np.any(m2 > 0):
        raise ValueError("cannot inflate the origin")
    pw = np.array(params.weights, dtype=float)

    def radius(t: float) -> float:
        return math.sqrt(float(np.sum(t ** (2 * pw) * m2)))

    lo = hi = 1.0
    while radius(hi) < eps:
        hi *= 2.0
    while radius(lo) > eps:
        lo *= 0.5
    t = 0.5 * (lo + hi)
    for _ in range(200):
        r = radius(t)
        if abs(r - eps) < 1e-13:
            break
        if r > eps:
            hi = t
        else:
            lo = t
        # Newton step on radius(t) - eps, kept inside the bracket
        g2 = float(np.sum(t ** (2 * pw) * m2))
        dg = float(np.sum(2 * pw * t ** (2 * pw - 1) * m2))
        t_next = 0.5 * (lo + hi)
        if dg > 0:
            tn = t - (math.sqrt(g2) - eps) * 2.0 * math.sqrt(g2) / dg
            if lo < tn < hi:
                t_next = tn
        t = t_next
    zs = z * t ** pw
    return float(t), zs


def phase(psi: DiagonalMixedPolynomial, z) -> complex:
    """psi(z)/|psi(z)|; undefined within 1e-12 of the zero set or on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = psi.eval(z)
    if not cmath.isfinite(w):
        raise ValueError(f"phase undefined: psi(z) = {w!r} is not finite (overflow)")
    r = np.hypot(w.real, w.imag)
    if r <= 1e-12:
        raise ValueError("phase undefined: |psi(z)| <= 1e-12, the point lies "
                         "on the zero set V (or its tube W) up to tolerance")
    return w / r


# ----------------------------------------------------------------------
# Newton to the fiber


def _newton_batch(f: RealPolynomialMap, c: np.ndarray, X: np.ndarray,
                  tol: float, max_iter: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised damped Gauss-Newton toward f^{-1}(c).

    Pseudo-inverse steps (minimum-norm for underdetermined systems) are
    halved while the residual fails to decrease; a point stops when no
    step helps or its step is not finite (near rank-deficient
    Jacobians), so it fails cleanly instead of diverging.  Returns the
    final points, their residuals and each point's iteration count.
    """
    X = np.array(X, dtype=float)
    R = f.eval_many(X) - c
    rn = np.linalg.norm(R, axis=1)
    its = np.zeros(len(X), dtype=int)
    active = rn > tol
    for _ in range(max_iter):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        Xa = X[idx]
        J = f.grad_many(Xa)
        delta = (np.linalg.pinv(J) @ (R[idx][:, :, None]))[:, :, 0]
        bad = ~np.all(np.isfinite(delta), axis=1)
        delta[bad] = 0.0
        its[idx[~bad]] += 1
        lam = np.ones(idx.size)
        moved = np.zeros(idx.size, dtype=bool)
        cur = rn[idx].copy()
        newX = Xa.copy()
        newR = R[idx].copy()
        for _ in range(12):
            rem = ~moved & ~bad
            if not rem.any():
                break
            ridx = np.where(rem)[0]
            T = Xa[ridx] - lam[ridx, None] * delta[ridx]
            RT = f.eval_many(T) - c
            rt = np.linalg.norm(RT, axis=1)
            good = rt < cur[ridx]
            hit = ridx[good]
            newX[hit] = T[good]
            newR[hit] = RT[good]
            cur[hit] = rt[good]
            moved[hit] = True
            lam[ridx[~good]] *= 0.5
        X[idx] = newX
        R[idx] = newR
        rn[idx] = cur
        active[idx] = moved & (cur > tol)
    return X, rn, its


# ----------------------------------------------------------------------
# fiber sampling


@dataclass(frozen=True, eq=False)
class FiberSample:
    """Converged fiber points inside the eps-ball with component labels."""

    target: np.ndarray
    eps: float
    seed_count: int
    rng_seed: int
    tol: float
    points: np.ndarray
    residuals: np.ndarray
    labels: np.ndarray
    component_count: int
    linkage_radius: float
    nn_median: float
    singular_count: int
    unreliable: bool

    def __post_init__(self):
        if len(self.points) and float(np.max(np.linalg.norm(self.points, axis=1))) > self.eps * (1 + 1e-12):
            raise ValueError("fiber points must stay in the eps-ball")
        if len(self.residuals) and float(np.max(self.residuals)) > self.tol:
            raise ValueError("fiber points must satisfy the residual tolerance")


def _mst(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Euclidean minimum spanning tree (Prim, O(N^2)).

    Returns the points in the order Prim adds them, starting at point 0,
    and for each point the tree neighbor it joins through and the
    length of that edge (-1 and inf for point 0).
    """
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


def _persistent_count(edges: np.ndarray, floor: float, start: float,
                      diameter: float) -> tuple[int, float]:
    """Most persistent component count and a radius inside its plateau.

    Merging the MST edges in order, the count N - k holds for radii in
    [e_k, e_{k+1}); the count whose interval is longest in log scale
    wins, with the final interval capped at the cloud diameter.  Radii
    below `start` (the sampling scale) describe gaps between individual
    samples rather than structure and are not measured; since the
    smallest MST edge never exceeds the median nearest-neighbor
    distance, the all-separate state in particular never competes.
    Edge lengths below `floor` (duplicates) are clamped.
    """
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


def _cut_labels(order: np.ndarray, parent: np.ndarray, length: np.ndarray,
                radius: float) -> tuple[np.ndarray, int]:
    """Components of the MST once every edge longer than `radius` is cut.

    These are exactly the single-linkage clusters at that radius (Gower
    and Ross 1969).  A parent always precedes its child in Prim order,
    so one pass labels every point; labels are then renumbered by first
    appearance in the point array.
    """
    comp = np.empty(len(order), dtype=int)
    count = 0
    for i, p, e in zip(order.tolist(), parent[order].tolist(), length[order].tolist()):
        if e <= radius:
            comp[i] = comp[p]
        else:
            comp[i] = count
            count += 1
    first = np.unique(comp, return_index=True)[1]
    return np.argsort(first).argsort()[comp], count


def sample_fiber(f: RealPolynomialMap, c, eps: float,
                 count: int = 2000, rng_seed: int = 0) -> FiberSample:
    """Sample f^{-1}(c) inside the closed eps-ball.

    Seeds are quasi-random in the ball; Gauss-Newton runs on all of
    them; converged points that stay inside the ball are kept.  The
    component count is the most persistent one: single linkage over the
    cloud's minimum spanning tree, keeping the count that survives the
    widest log-range of merge radii.  `linkage_radius` is a radius
    inside that stable range; `labels` are the components of the tree
    with every edge longer than it cut, numbered by first appearance in
    `points`, and `nn_median` is the median nearest-neighbor distance,
    read off the same tree.  Fewer than 10 kept points set the
    `unreliable` flag.  Points where the Jacobian is nearly
    rank-deficient (singular-value ratio below 1e-8) are counted in
    singular_count.  eps must be positive and finite, and c finite.
    """
    sampling.check_positive("eps", eps)
    c = np.asarray(c, dtype=float)
    if c.shape != (f.p,):
        raise ValueError("target value has wrong dimension")
    if not np.all(np.isfinite(c)):
        raise ValueError("target value must be finite")
    seeds = sampling.ball_points(f.n, count, eps, rng_seed)
    X, rn, _ = _newton_batch(f, c, seeds, NEWTON_TOL, NEWTON_MAX_ITER)
    keep = (rn <= NEWTON_TOL) & (np.linalg.norm(X, axis=1) <= eps)
    pts = X[keep]
    res = rn[keep]
    if len(pts):
        J = f.grad_many(pts)
        sv = np.linalg.svd(J, compute_uv=False)
        singular = int(np.count_nonzero(sv[:, -1] <= 1e-8 * np.maximum(sv[:, 0], 1e-300)))
    else:
        singular = 0
    if len(pts) >= 2:
        order, parent, length = _mst(pts)
        # a point's nearest-neighbor edge is always a tree edge
        nn = length.copy()
        np.minimum.at(nn, parent[1:], length[1:])
        nn_median = float(np.median(nn))
        spread = pts.max(axis=0) - pts.min(axis=0)
        floor = 1e-9 * eps
        diameter = max(float(np.linalg.norm(spread)), floor)
        _, radius = _persistent_count(np.sort(length[1:]), floor,
                                      max(nn_median, floor), diameter)
        labels, ncomp = _cut_labels(order, parent, length, radius)
    else:
        nn_median = 0.0
        radius = 0.0
        labels = np.zeros(len(pts), dtype=int)
        ncomp = len(pts)
    return FiberSample(
        target=c, eps=eps, seed_count=count, rng_seed=rng_seed, tol=NEWTON_TOL,
        points=pts, residuals=res, labels=labels, component_count=ncomp,
        linkage_radius=radius, nn_median=nn_median, singular_count=singular,
        unreliable=len(pts) < MIN_RELIABLE_POINTS)


@dataclass(frozen=True, eq=False)
class FiberComparison:
    """Side-by-side sampling of two fibers; counts only, no topology claim."""

    first: FiberSample
    second: FiberSample
    note: str

    @property
    def component_counts(self) -> tuple[int, int]:
        return (self.first.component_count, self.second.component_count)


def fiber_compare(f: RealPolynomialMap, c1, c2, eps: float,
                  count: int = 2000, rng_seed: int = 0) -> FiberComparison:
    """Sample the fibers over c1 and c2 with a shared configuration."""
    s1 = sample_fiber(f, c1, eps, count=count, rng_seed=rng_seed)
    s2 = sample_fiber(f, c2, eps, count=count, rng_seed=rng_seed)
    note = ("component counts compare sampled point clouds; differing counts "
            "indicate differing fibers, equal counts prove nothing")
    return FiberComparison(s1, s2, note)
