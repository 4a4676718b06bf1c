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


def _flow_point(params: RadialWeights, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape != (len(params.weights),):
        raise ValueError("point has wrong dimension")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    return z


def rplus_flow(params: RadialWeights, t: float, z) -> np.ndarray:
    """Apply the flow: multiply each coordinate z_j by t^{p_j} (t > 0)."""
    sampling.check_positive("t", t)
    z = _flow_point(params, z)
    factors = np.array([np.float64(t) ** p for p in params.weights])
    return z * factors


def inflate_to_sphere(params: RadialWeights, z, eps: float) -> tuple[float, np.ndarray]:
    """Unique t > 0 with |t . z| = eps, and the flowed point.

    |t . z|^2 = sum t^{2 p_j} |z_j|^2 is strictly increasing in t, so
    safeguarded Newton on sqrt of it converges to the unique root; the
    radius error of the returned point is below 1e-12.
    """
    sampling.check_positive("eps", eps)
    z = _flow_point(params, z)
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
# damped Gauss-Newton: the one solver of every numeric step, for fibers
# and for the tangency search, level solves and v_min of transversality


def _pinv_step(A: np.ndarray, R: np.ndarray) -> np.ndarray:
    return (np.linalg.pinv(A) @ R[:, :, None])[:, :, 0]


def _min_norm_step(A: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The pseudo-inverse step pinv(A) @ R of each (m, k) matrix of a stack.

    Where m <= k and A has full row rank, the reduced QR factorisation
    A^T = Q T gives the minimum-norm solution Q T^{-T} R (Bjorck 1996,
    Numerical Methods for Least Squares Problems, 1.3 and 2.7): one
    Householder sweep per matrix where pinv runs an SVD.  A matrix with
    min |T_ii| <= 1e-8 max |T_ii| (rank-deficient, or all zeros), and
    every matrix of a stack with m > k, takes pinv's step, bit for bit.
    Each row of the result depends only on its own matrix.
    """
    if A.shape[1] > A.shape[2]:
        return _pinv_step(A, R)
    Q, T = np.linalg.qr(A.transpose(0, 2, 1))
    d = np.abs(np.diagonal(T, axis1=1, axis2=2))
    full = d.min(axis=1) > 1e-8 * d.max(axis=1)
    D = np.empty((len(A), A.shape[2]))
    if not full.all():
        D[~full] = _pinv_step(A[~full], R[~full])
        Q, T, R = Q[full], T[full], R[full]
    D[full] = (Q @ np.linalg.solve(T.transpose(0, 2, 1), R[:, :, None]))[:, :, 0]
    return D


def newton_batch(residual, jacobian, X: np.ndarray, max_iter: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised damped Gauss-Newton toward the zeros of a batched system.

    `residual` maps (N, k) points to (N, m) residuals and `jacobian` to
    (N, m, k) Jacobians, row by row; the Jacobian is evaluated only at
    accepted iterates.  Each row tries its pseudo-inverse step (minimum-norm
    for underdetermined systems; see `_min_norm_step`) at 1, 1/2, ...,
    1/2048 of its length until |R| falls strictly, so a trial whose
    residual is not finite is rejected, without a warning.  A point stops
    at |R| <= NEWTON_TOL, when no step helps, or when its Jacobian or step
    is not finite (it is then never tried).
    Returns the final points and their residual norms.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        X = np.array(X, dtype=float)
        R = residual(X)
        rn = np.linalg.norm(R, axis=1)
        active = rn > NEWTON_TOL
        for _ in range(max_iter):
            idx = np.where(active)[0]
            if idx.size == 0:
                break
            A = jacobian(X[idx])
            finite = np.all(np.isfinite(A), axis=(1, 2))
            A[~finite] = 0.0
            D = _min_norm_step(A, R[idx])
            finite &= np.all(np.isfinite(D), axis=1)
            rows, D = idx[finite], D[finite]
            active[idx] = False
            step = 1.0
            for _ in range(12):
                if rows.size == 0:
                    break
                T = X[rows] - step * D
                RT = residual(T)
                tn = np.linalg.norm(RT, axis=1)
                ok = tn < rn[rows]
                moved = rows[ok]
                X[moved], R[moved], rn[moved] = T[ok], RT[ok], tn[ok]
                active[moved] = tn[ok] > NEWTON_TOL
                rows, D = rows[~ok], D[~ok]
                step *= 0.5
    return X, rn


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

    The frontier is a (dim, m) array of the m points outside the tree,
    with their indices, squared distances to the tree and nearest tree
    points; a joining point is swap-removed.  For dim <= 7 the squared
    distances, summed over the coordinates in order, have the bits of
    np.linalg.norm(P - P[i], axis=1) squared (numpy sums 8 or more terms
    pairwise); sqrt is monotone, so the tree is an MST of the lengths.
    Every MST has the same sorted lengths, shortest edge at each point
    and components under any cut radius, so the count, its radius, the
    labels and nn_median do not depend on which MST ties pick.
    """
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
    singular_count.  eps and count must be positive and finite, count an
    integer, c finite and rng_seed a non-negative integer.
    """
    sampling.check_positive("eps", eps)
    sampling.check_positive("count", count)
    sampling.check_whole("count", count)
    c = np.asarray(c, dtype=float)
    if c.shape != (f.p,):
        raise ValueError("target value has wrong dimension")
    if not np.all(np.isfinite(c)):
        raise ValueError("target value must be finite")
    sampling.check_whole("rng_seed", rng_seed)
    seeds = sampling.ball_points(f.n, count, eps, rng_seed)
    X, rn = newton_batch(lambda X: f.eval_many(X) - c, f.grad_many, seeds,
                         NEWTON_MAX_ITER)
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
