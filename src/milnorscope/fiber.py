"""Fiber sampling and the radial flow for weighted-homogeneous maps.

Fibers f^{-1}(c) inside a ball are sampled by damped Gauss-Newton from
quasi-random seeds; connected components are estimated by single
linkage at a radius chosen by persistence: along the exact minimum
spanning tree of the converged cloud, the component count that stays
constant over the widest range of merge radii (in log scale, above the
sampling resolution of the cloud) wins, and cutting the same tree at
that radius labels the components.
The tree is built in two exact steps: the minimum spanning forest of
the pairs closer than a small contraction radius (a sweep along the
coordinate with the largest median gap and a few vectorised Borůvka
rounds), then a lazy Prim over that forest's components.  It bounds a
large component's distances by bounding boxes and measures them only
when a bound reaches the front (Bentley and Friedman 1978), so the
Python loop runs about once per component rather than once per point,
and a curve's cloud takes far fewer than N^2/2 distances.
Sampling gaps of a connected piece close at small radii while genuinely
separate pieces only merge near their true separation, so the stable
count is the sampled one.  The count is descriptive: it says how the
point clouds split, it does not certify a homeomorphism type.

The R+ flow t . z = (t^{p_j} z_j) uses the radial weights of a
diagonal mixed polynomial and satisfies psi(t . z) = t^degree psi(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .mixed import DiagonalMixedPolynomial
from .realpoly import RealPolynomialMap
from .structure import RadialWeights

_LN2 = math.log(2.0)
_LOG_MAX = math.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
MIN_RELIABLE_POINTS = 10


def _flow_point(n: int, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape != (n,):
        raise ValueError("point has wrong dimension")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    return z


def rplus_flow(params: RadialWeights, t: float, z) -> np.ndarray:
    """Apply the flow: multiply each coordinate z_j by t^{p_j} (t > 0).

    Where every t^{p_j} is a normal float, z is multiplied by them.  Else,
    with t = m 2^e, sqrt(1/2) <= m < sqrt(2), and m^{p_j} = r 2^k, 1 <= r < 2
    (a normal float for p_j <= 2044), the parts of z_j are scaled by
    2^(k + e p_j), exactly unless the result is subnormal, then multiplied
    by r.  Either way a normal result is rounded once, and a coordinate
    leaves the float range only where t^{p_j} z_j does.
    """
    sampling.check_positive("t", t)
    z = _flow_point(len(params.weights), z)
    with np.errstate(over="ignore"):
        factors = [np.float64(t) ** p for p in params.weights]
        if _TINY <= min(factors) and max(factors) < math.inf:
            return z * np.array(factors)
        m, e = math.frexp(t)
        if m * m < 0.5:
            m, e = 2.0 * m, e - 1
        r, k = np.frexp([np.float64(m) ** p for p in params.weights])
        x = np.ldexp(np.ascontiguousarray(z).view(float),
                     np.repeat(k - 1 + e * np.array(params.weights), 2))
        return (x * np.repeat(2.0 * r, 2)).view(complex)


def _log_polar(w: complex) -> tuple[float, complex]:
    """(log|w|, w/|w|) of w != 0, from its parts scaled exactly by a power
    of two: no modulus underflows and subnormal parts lose no bits."""
    e = max(math.frexp(w.real)[1], math.frexp(w.imag)[1])
    x, y = math.ldexp(w.real, -e), math.ldexp(w.imag, -e)
    r = math.hypot(x, y)
    return math.log(r) + e * _LN2, complex(x / r, y / r)


def inflate_to_sphere(params: RadialWeights, z, eps: float) -> tuple[float, np.ndarray]:
    """Unique t > 0 with |t . z| = eps, and the flowed point.

    In s = log t, h(s) = log|t . z| is a log-sum-exp of the affine
    log|z_j| + p_j s, so increasing and convex.  From s0 = max_j (log eps
    - log|z_j|)/p_j, where one term alone reaches eps, Newton decreases
    monotonically onto the root.  A step that does not decrease s starts
    at the root up to rounding (a long step may cancel below it); it is
    the last.  In logs, the point lands on the sphere for every eps > 0
    and z != 0, and t = e^s is rounded to the float range (0.0 or inf).
    """
    sampling.check_positive("eps", eps)
    z = _flow_point(len(params.weights), z)
    polar = [_log_polar(w) if w else None for w in z.tolist()]
    parts = [(p, lp[0]) for p, lp in zip(params.weights, polar) if lp]
    if not parts:
        raise ValueError("cannot inflate the origin")
    target = math.log(eps)
    s = max((target - logm) / p for p, logm in parts)
    while True:
        u = [logm + p * s for p, logm in parts]
        top = max(u)
        w = [math.exp(2.0 * (v - top)) for v in u]
        total = sum(w)
        slope = sum(p * wj for (p, _), wj in zip(parts, w)) / total
        s, last = s - (top + 0.5 * math.log(total) - target) / slope, s
        if not s < last:
            break
    # |zs_j| <= eps up to rounding, so the clamp acts only at eps ~ float max
    zs = np.array([math.exp(min(lp[0] + p * s, _LOG_MAX)) * lp[1] if lp else 0j
                   for p, lp in zip(params.weights, polar)])
    return (math.exp(s) if s <= _LOG_MAX else math.inf), zs


def phase(psi: DiagonalMixedPolynomial, z) -> complex:
    """psi(z)/|psi(z)|, in logs, so the same at every point of an R+ orbit.

    Term j is e^{L_j} u_j, |u_j| = 1, L_j = log|lambda_j| + (a_j + b_j) log|z_j|;
    dividing by max_j e^{L_j} moves neither the phase nor |psi(z)|/S(z),
    S(z) = sum_j e^{L_j}, and nothing overflows or underflows.  Raises
    ValueError where |psi(z)| <= 1e-12 S(z): on V up to tolerance.
    """
    zs = _flow_point(psi.n, z).tolist()
    terms = []
    for t in psi.terms:
        w, lam = zs[t.j - 1], t.coeff.to_complex()
        if w and lam:
            (log_w, u), r = _log_polar(w), abs(lam)
            terms.append((math.log(r) + t.degree * log_w,
                          lam / r * u ** t.a * u.conjugate() ** t.b))
    top = max((L for L, _ in terms), default=0.0)
    scales = [math.exp(L - top) for L, _ in terms]
    w = sum(s * unit for s, (_, unit) in zip(scales, terms))
    if not abs(w) > 1e-12 * sum(scales):
        raise ValueError("phase undefined: |psi(z)| <= 1e-12 sum_j |lambda_j| "
                         "|z_j|^(a_j+b_j), the point lies on V up to tolerance")
    return w / abs(w)


# ----------------------------------------------------------------------
# damped Gauss-Newton: the one solver of every numeric step, for fibers
# and for the tangency search, level solves and v_min of transversality


def _pinv_step(A: np.ndarray, R: np.ndarray) -> np.ndarray:
    return (np.linalg.pinv(A) @ R[:, :, None])[:, :, 0]


def _min_norm_step(A: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The pseudo-inverse step pinv(A) @ R of each (m, k) matrix of a stack.

    Where m <= k and A has full row rank, classical Gram-Schmidt applied
    twice to the rows of A (CGS2; Giraud, Langou and Rozloznik 2005, Comput.
    Math. Appl. 50, "twice is enough") factors A = L Q with Q's rows
    orthonormal and L lower triangular, and the minimum-norm solution is
    Q^T y with L y = R (Bjorck 1996, Numerical Methods for Least Squares
    Problems, 1.3).  The stack is stored coordinate-major, (m, k, N), so
    every operation runs on whole lanes of N matrices rather than one
    LAPACK call per matrix.  A matrix with min |L_ii| <= 1e-8 max |L_ii|
    (rank-deficient, all zeros or not finite), and every matrix of a
    stack with m > k, takes pinv's step, bit for bit.

    Each row of the result depends only on its own matrix, at every batch
    width: the kernel uses elementwise operations and sums over axes that
    are not innermost, which numpy adds term by term.  A batch of one runs
    as two equal lanes, since numpy would sum a lone lane's run of 8 or
    more terms pairwise.
    """
    n, m, k = A.shape
    if m > k:
        return _pinv_step(A, R)
    lanes = 2 if n == 1 else n
    # row i of Q holds row i of A and, as coordinate k, R_i; Gram-Schmidt
    # turns the first k coordinates into the unit row and, by the same
    # projections and scaling, coordinate k into y_i of L y = R; d is the
    # diagonal of L
    Q = np.empty((m, k + 1, lanes))
    Q[:, :k] = A.transpose(1, 2, 0)
    Q[:, k] = R.T
    d = np.empty((m, lanes))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(m):
            v = Q[i]
            if i:
                for _ in range(2):
                    # one pass: row i of L gains c, and y_i loses c . y
                    c = np.add.reduce(Q[:i, :k] * v[:k], axis=1)
                    v = v - np.add.reduce(c[:, None] * Q[:i], axis=0)
            d[i] = np.sqrt(np.add.reduce(v[:k] * v[:k], axis=0))
            np.divide(v, d[i], out=Q[i])
        D = np.add.reduce(Q[:, k, None] * Q[:, :k], axis=0).T[:n]
        d = d.T[:n]
        full = d.min(axis=1) > 1e-8 * d.max(axis=1)
    if not full.all():
        D[~full] = _pinv_step(A[~full], R[~full])
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


# Contraction radius of the short-edge forest, in median gaps along the
# sort coordinate; it sets only the speed of `_mst`, never its result.
CONTRACT_GAPS = 12
# A sweep window holding more candidate pairs per point than this (points
# piled up along the sort coordinate) skips the contraction.
SWEEP_PAIRS = 32
# Memory caps: candidate pairs per sweep block, and distances per block
# when a component updates the Prim frontier.
PAIR_BLOCK = 2048
ROW_BLOCK = 8192
# The Prim frontier drops the columns of points that joined one by one
# (moved to infinity) once every this many joins.
COMPACT_JOINS = 32


def _sq(PT: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between columns a and b of the (dim, n) array PT,
    summed over the coordinates in order."""
    D = PT.take(a, axis=1)
    D -= PT.take(b, axis=1)
    D *= D
    return np.add.reduce(D, axis=0)


def _nearest_sq(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """For each column of Q, its squared distance to the nearest column of
    X (both (dim, .)), summed over the coordinates in order, in blocks of
    at most ROW_BLOCK distances."""
    rows = max(1, ROW_BLOCK // max(Q.shape[1], 1))
    best = np.full(Q.shape[1], np.inf)
    for lo in range(0, X.shape[1], rows):
        Xb = X[:, lo:lo + rows]
        acc = Q[0] - Xb[0, :, None]
        acc *= acc
        t = np.empty_like(acc)
        for q, x in zip(Q[1:], Xb[1:]):
            np.subtract(q, x[:, None], out=t)
            t *= t
            acc += t
        np.minimum(best, np.minimum.reduce(acc, axis=0), out=best)
    return best


def _union(comp: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge the components that the edges (a, b) join.

    `comp` maps every point to the smallest point of its component
    (comp[comp] == comp), and so does the result; `comp` itself may be
    overwritten.  Each pass hooks the
    larger root of every joining edge to the smallest root it meets and
    then follows pointers until every point reaches its root; roots only
    ever point lower, so no pass can close a cycle.
    """
    while True:
        ca, cb = comp[a], comp[b]
        join = ca != cb
        if not join.any():
            return comp
        a, b, ca, cb = a[join], b[join], ca[join], cb[join]
        np.minimum.at(comp, np.maximum(ca, cb), np.minimum(ca, cb))
        while True:
            up = comp[comp]
            if (up == comp).all():
                break
            comp = up


def _short_forest(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum spanning forest of the pairs of P closer than a radius r.

    The points are sorted along the coordinate with the largest median
    gap between sorted neighbors, and r is CONTRACT_GAPS times that gap (no
    contraction when it is 0, or when the sweep would test more than
    SWEEP_PAIRS pairs per point).  Along the widest coordinate instead,
    points that pile up in a short stretch of it (a parabola near its
    vertex) crowd the sweep window.  A sweep of the sorted order lists
    every pair whose squared distance is below R = r*r: such a pair is
    closer than r along the sort coordinate too, since each squared term
    of the in-order sum is at most the sum.  Borůvka rounds then join
    every component to its first outgoing pair in a stable sort by
    squared length, so ties never close a cycle.  All pairs below R are
    present, so each pair taken is the shortest edge leaving a component
    of the full graph: by the cut property the forest lies in a minimum
    spanning tree for any r.

    Returns each point's component, as the index of one of its members,
    and the forest's edges (a, b).
    """
    n = len(P)
    none = np.zeros(0, dtype=int)
    gaps = np.median(np.diff(np.sort(P, axis=0), axis=0), axis=0)
    w = int(np.argmax(gaps))
    o = np.argsort(P[:, w], kind="stable")
    xs = P[o, w]
    r = CONTRACT_GAPS * float(gaps[w])
    window = np.searchsorted(xs, xs + r, side="right") - np.arange(1, n + 1)
    ends = np.cumsum(window)
    if r == 0.0 or ends[-1] > SWEEP_PAIRS * n:
        return np.arange(n), none, none
    PT = P.T.take(o, axis=1)
    A, B, W = [], [], []
    lo = 0
    while lo < n:
        hi = max(int(np.searchsorted(ends, ends[lo] - window[lo] + PAIR_BLOCK,
                                     side="right")), lo + 1)
        c = window[lo:hi]
        i = np.repeat(np.arange(lo, hi), c)
        j = i + np.arange(1, len(i) + 1) - np.repeat(np.cumsum(c) - c, c)
        d2 = _sq(PT, j, i)
        short = d2 < r * r
        # positions in sorted order fit in int32, which halves the pairs' memory
        A.append(i[short].astype(np.int32))
        B.append(j[short].astype(np.int32))
        W.append(d2[short])
        lo = hi
    # the dels below keep the traced peak to about two arrays of pairs
    w2 = np.concatenate(W)
    del W
    rank = np.argsort(w2, kind="stable")
    del w2
    a = np.concatenate(A)[rank]
    del A
    b = np.concatenate(B)[rank]
    del B, rank
    comp = np.arange(n, dtype=np.int32)
    fa, fb = [none], [none]
    while True:
        out = comp[a] != comp[b]
        if not out.any():
            break
        a, b = a[out], b[out]
        del out
        ca, cb = comp[a], comp[b]
        first = np.full(n, len(a), dtype=np.int32)
        rank = np.arange(len(a), dtype=np.int32)
        np.minimum.at(first, ca, rank)
        np.minimum.at(first, cb, rank)
        del ca, cb, rank
        pick = np.zeros(len(a), dtype=bool)
        pick[first[first < len(a)]] = True
        fa.append(a[pick])
        fb.append(b[pick])
        comp = _union(comp, a[pick], b[pick])
    root = np.empty(n, dtype=int)
    root[o] = o[comp]
    return root, o[np.concatenate(fa)], o[np.concatenate(fb)]


def _box_sq(lo: np.ndarray, hi: np.ndarray, glo: np.ndarray, ghi: np.ndarray) -> np.ndarray:
    """Squared distances from the boxes [lo, hi] (columns of (dim, .)
    arrays) to the boxes [glo, ghi], summed over the coordinates in order.

    Rounding is monotone, so each is at most the squared distance, summed
    in the same order, between any point of one box and any of the other.
    """
    acc = np.maximum(glo[0] - hi[0], lo[0] - ghi[0])
    np.maximum(acc, 0.0, out=acc)
    acc *= acc
    for l, h, gl, gh in zip(lo[1:], hi[1:], glo[1:], ghi[1:]):
        t = np.maximum(gl - h, l - gh)
        np.maximum(t, 0.0, out=t)
        t *= t
        acc += t
    return acc


def _mst(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Euclidean minimum spanning tree of N >= 2 points: its N - 1
    edges as endpoint arrays a, b and their lengths.

    Step 1 contracts the short-edge forest (`_short_forest`).  Step 2 is
    a lazy Prim over its components: the tree starts as the largest one
    (point 0 when every component is a single point), and the frontier
    component nearest the tree joins whole.  The frontier is a (dim, m)
    array of the points outside the tree, with their indices, exact
    squared distances to the tree and the tree component each is nearest
    to.  A single point that joins moves its column to infinity, where it
    is never nearest (the frontier drops such columns every COMPACT_JOINS
    joins), and updates the frontier in one exact pass; so does a
    component whose distances to the frontier fit in one block of
    ROW_BLOCK.  A larger component computes no distance when it joins:
    every component (a single point is one) takes the squared distance
    between its bounding box and the joining one's as a lower bound (those
    in the tree are dropped when they surface).  Each frontier component
    keeps one pending bound, the smallest over the tree components it has
    not been measured against.  While the smallest pending bound lies
    below every exact distance, its component is measured exactly against
    that tree component and its bound moves on to the next (Bentley and
    Friedman 1978 prune Prim this way); then the point with the smallest
    exact distance joins, and its tree neighbor is found inside the
    component its distance came from.  With no short pair this is the
    point-by-point frontier Prim.

    Every squared distance and bound is summed over the coordinates in
    order, so the forest, the frontier and the neighbor search agree bit
    for bit and no bound exceeds a distance it stands for: the smallest
    key, once exact, is a shortest edge leaving the tree.  For dim <= 7
    these sums have the bits of np.linalg.norm(P - P[i], axis=1) squared
    (numpy sums 8 or more terms pairwise).  sqrt is monotone, so the tree
    is an MST of the lengths.  Every MST has the same sorted lengths,
    shortest edge at each point and components under any cut radius, so
    the count, its radius, the labels and nn_median do not depend on
    which MST the contraction and ties pick.
    """
    n = len(P)
    comp, fa, fb = _short_forest(P)
    PT = P.T
    count = np.bincount(comp, minlength=n)
    start = np.cumsum(count) - count
    members = np.argsort(comp, kind="stable")
    single = (count[comp] == 1).tobytes()
    # per component, by its rank among the roots: its bounding box, its
    # pending bound and the bounded tree components (positions in `tree`,
    # the ranks of those that joined) it was measured against
    roots = np.flatnonzero(count)
    rank = np.zeros(n, dtype=int)
    rank[roots] = np.arange(len(roots))
    ordered = PT.take(members, axis=1)
    lo = np.minimum.reduceat(ordered, start[roots], axis=1)
    hi = np.maximum.reduceat(ordered, start[roots], axis=1)
    del ordered
    bound = np.full(len(roots), np.inf)
    measured: dict[int, list[int]] = {}
    tree: list[int] = []
    pending = np.inf
    i = j = int(count.argmax())
    Q, idx = PT.copy(), np.arange(n)
    d, near = np.full(n, np.inf), np.full(n, i)
    joins = n - 1 - len(fa)
    ea, eb, ew = np.empty(joins, dtype=int), np.empty(joins, dtype=int), np.empty(joins)
    for k in range(-1, joins):
        if k >= 0:
            j = int(d.argmin())
            while pending < d[j]:
                # the smallest bound lies below every distance: measure its
                # component against the nearest box of a tree component not
                # yet measured, then bound it by the next one (a component
                # that joined leaves its bound behind; it is dropped here)
                e = int(bound.argmin())
                sel = np.flatnonzero((comp[idx] == roots[e]) & (Q[0] < np.inf))
                if sel.size:
                    b = _box_sq(lo[:, tree], hi[:, tree], lo[:, e, None], hi[:, e, None])
                    done = measured.setdefault(e, [])
                    b[done] = np.inf
                    t = int(b.argmin())
                    g = int(roots[tree[t]])
                    di = _nearest_sq(Q.take(sel, axis=1),
                                     PT.take(members[start[g]:start[g] + count[g]], axis=1))
                    closer = di < d[sel]
                    d[sel[closer]] = di[closer]
                    near[sel[closer]] = g
                    done.append(t)
                    b[t] = np.inf
                    bound[e] = b.min()
                else:
                    bound[e] = np.inf
                pending = float(bound.min())
                j = int(d.argmin())
            i = int(idx[j])
            h = int(near[j])
            if not single[h]:
                # the first member of h at distance d[j], summed as the frontier's
                grp = members[start[h]:start[h] + count[h]]
                D = PT.take(grp, axis=1) - P[i, :, None]
                D *= D
                h = int(grp[np.add.reduce(D, axis=0).argmin()])
            ea[k], eb[k], ew[k] = h, i, d[j]
        if single[i]:
            Q[:, j], d[j] = np.inf, np.inf
            if k % COMPACT_JOINS == 0:
                keep = Q[0] < np.inf
                Q, idx, d, near = Q.compress(keep, axis=1), idx[keep], d[keep], near[keep]
            D = Q - P[i, :, None]
            D *= D
            di, src = np.add.reduce(D, axis=0), i
        else:
            g = comp[i]
            keep = (comp[idx] != g) & (Q[0] < np.inf)
            Q, idx, d, near = Q.compress(keep, axis=1), idx[keep], d[keep], near[keep]
            grp = PT.take(members[start[g]:start[g] + count[g]], axis=1)
            if grp.shape[1] * Q.shape[1] > ROW_BLOCK:
                # too many distances for one block: bound them instead
                e = int(rank[g])
                tree.append(e)
                np.minimum(bound, _box_sq(lo, hi, lo[:, e, None], hi[:, e, None]), out=bound)
                pending = float(bound.min())
                continue
            di, src = _nearest_sq(Q, grp), g
        closer = di < d
        np.copyto(d, di, where=closer)
        np.copyto(near, src, where=closer)
    return (np.concatenate([fa, ea]), np.concatenate([fb, eb]),
            np.sqrt(np.concatenate([_sq(PT, fa, fb), ew])))


def _persistent_count(edges: np.ndarray, floor: float, start: float,
                      diameter: float) -> tuple[int, float]:
    """Most persistent component count and a radius inside its plateau.

    Merging the MST edges in order, the count N - k holds for radii in
    [e_k, e_{k+1}); the count whose interval is longest in log scale (the
    largest ratio e_{k+1}/e_k) wins, the first one on a tie, with the
    final interval capped at the cloud diameter.  Radii below `start` (the
    sampling scale) describe gaps between individual samples rather than
    structure and are not measured; since the smallest MST edge never
    exceeds the median nearest-neighbor distance, the all-separate state
    in particular never competes.  Edge lengths below `floor` (duplicates)
    are clamped.
    """
    n = len(edges) + 1
    e = np.maximum(edges, floor)
    top = max(diameter, float(e[-1]) * 2.0, start * 2.0)
    uniq, mult = np.unique(e, return_counts=True)
    lefts = np.maximum(np.concatenate([[floor], uniq]), start)
    rights = np.concatenate([uniq, [top]])
    ratio = np.where(rights > lefts, rights / lefts, 0.0)
    k = int(ratio.argmax())
    if not ratio[k] > 1.0:
        return 1, top
    return n - int(mult[:k].sum()), math.sqrt(float(lefts[k]) * float(rights[k]))


def _cut_labels(a: np.ndarray, b: np.ndarray, length: np.ndarray,
                radius: float) -> tuple[np.ndarray, int]:
    """Components of the MST edges (a, b) once every edge longer than
    `radius` is cut.

    These are exactly the single-linkage clusters at that radius (Gower
    and Ross 1969).  `_union` leaves each point at the smallest point of
    its component, so ranking those roots numbers the components by
    first appearance in the point array.
    """
    keep = length <= radius
    root = _union(np.arange(len(length) + 1), a[keep], b[keep])
    roots, labels = np.unique(root, return_inverse=True)
    return labels, len(roots)


def _singular_count(J: np.ndarray) -> int:
    """How many (p, n) matrices of the stack J have sigma_min <= 1e-8
    sigma_max (1e-300 standing in for a zero sigma_max).

    For p <= n, G = J J^T has det G <= sigma_min^2 sigma_max^(2p - 2) and
    tr G >= sigma_max^2, so det G > 1e-12 (tr G)^p certifies sigma_min >
    1e-6 sigma_max, far from the test.  Only the other matrices take the
    SVD: uncertain, overflowed or non-finite ones (whose SVD fails as it
    would in a full one), and all of them when p > n.  Each matrix's
    verdict depends only on itself, so the count is the full SVD's.
    """
    uncertain = np.ones(len(J), dtype=bool)
    p, n = J.shape[1:]
    if p <= n:
        with np.errstate(over="ignore", invalid="ignore"):
            G = J @ J.transpose(0, 2, 1)
            uncertain = ~(np.linalg.det(G) > 1e-12 * np.trace(G, axis1=1, axis2=2) ** p)
    sv = np.linalg.svd(J[uncertain], compute_uv=False)
    return int(np.count_nonzero(sv[:, -1] <= 1e-8 * np.maximum(sv[:, 0], 1e-300)))


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
    singular = _singular_count(f.grad_many(pts))
    if len(pts) >= 2:
        a, b, length = _mst(pts)
        # a point's nearest-neighbor edge is always a tree edge
        nn = np.full(len(pts), np.inf)
        np.minimum.at(nn, a, length)
        np.minimum.at(nn, b, length)
        nn_median = float(np.median(nn))
        spread = pts.max(axis=0) - pts.min(axis=0)
        floor = 1e-9 * eps
        diameter = max(float(np.linalg.norm(spread)), floor)
        _, radius = _persistent_count(np.sort(length), floor,
                                      max(nn_median, floor), diameter)
        labels, ncomp = _cut_labels(a, b, length, radius)
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
