"""Numerical transversality testing for real polynomial maps.

For f : R^n -> R^p with n > p, a fiber of f through a point x on the
sphere S_eps meets the sphere transversally exactly when the gradient
rows of f at x together with x itself are linearly independent.  The
dependence measure below turns that into a scalar field on the sphere:
the smallest singular value of the row-normalised (p+1) x n matrix.
Multistart projected descent locates its zero set, and a continuation
along that zero set toward the zero set of f either certifies a
sequence of tangency points with |f| shrinking geometrically to zero
(transversality fails) or stops with a positive margin (it holds at
the given search budget).

Tangency points where the gradient rows alone are already dependent
sit on the critical set of f; their values are critical values, whose
fibers are not the regular fibers the transversality property speaks
about, so they are tracked separately and never used as failure
witnesses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sampling
from .mixed import DiagonalMixedPolynomial
from .realpoly import RealPolynomialMap, minors_exact
from .structure import SpecialFamilyForm, special_family_form

DEFAULT_SEEDS = 256
DEFAULT_ITERS = 500
TOL_TANGENCY = 1e-8
TOL_V = 1e-6
MARGIN_FACTOR = 1e-2
DEDUP_RADIUS = 1e-4

_CAVEATS = (
    "the acceptance margin is a fixed fraction of the median |f| on the "
    "sphere; maps that are unusually flat near their zero set can defeat it",
    "tangency candidates on the critical set of f are excluded from failure "
    "witnesses because their values are critical values",
    "HoldsAtBudget reflects the given multistart budget, not a proof",
)


class TransversalityVerdict(enum.Enum):
    FAILS = "FailsWithWitness"
    HOLDS = "HoldsAtBudget"
    INCONCLUSIVE = "Inconclusive"


def _normalized(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # rows scaled to unit length; `zero` marks matrices with a vanishing row
    norms = np.linalg.norm(M, axis=2)
    zero = np.any(norms < 1e-300, axis=1)
    safe = np.where(norms < 1e-300, 1.0, norms)
    return M / safe[:, :, None], zero


def _sigma_min(M: np.ndarray) -> np.ndarray:
    """Smallest singular value of each row-normalised matrix in a stack.

    Zero where some row vanishes and, for the whole stack, when rows
    outnumber columns.
    """
    if M.shape[1] > M.shape[2]:
        return np.zeros(len(M))
    Mh, zero = _normalized(M)
    sig = np.linalg.svd(Mh, compute_uv=False)[:, -1]
    sig[zero] = 0.0
    return sig


def tangency_minors_exact(f: RealPolynomialMap, x) -> list[Fraction]:
    """All (p+1)-minors of the tangency matrix at a rational point, exact."""
    xs = [Fraction(v) for v in x]
    rows = f.jacobian_exact(xs) + [xs]
    return minors_exact(rows, f.p + 1)


# ----------------------------------------------------------------------
# batched fields on the sphere


def _eigmin_sym3(A: np.ndarray) -> np.ndarray:
    # closed-form smallest eigenvalue of a stack of symmetric 3x3 matrices
    q = (A[:, 0, 0] + A[:, 1, 1] + A[:, 2, 2]) / 3.0
    a11 = A[:, 0, 0] - q
    a22 = A[:, 1, 1] - q
    a33 = A[:, 2, 2] - q
    a12 = A[:, 0, 1]
    a13 = A[:, 0, 2]
    a23 = A[:, 1, 2]
    p2 = a11 ** 2 + a22 ** 2 + a33 ** 2 + 2.0 * (a12 ** 2 + a13 ** 2 + a23 ** 2)
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe = p > 1e-150
    ps = np.where(safe, p, 1.0)
    b11, b22, b33 = a11 / ps, a22 / ps, a33 / ps
    b12, b13, b23 = a12 / ps, a13 / ps, a23 / ps
    detB = (b11 * (b22 * b33 - b23 * b23)
            - b12 * (b12 * b33 - b23 * b13)
            + b13 * (b12 * b23 - b22 * b13))
    r = np.clip(detB / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.where(safe, lam, q)


def _matrices(f: RealPolynomialMap, X: np.ndarray) -> np.ndarray:
    return np.concatenate([f.grad_many(X), X[:, None, :]], axis=1)


def _sigma(f: RealPolynomialMap, X: np.ndarray) -> np.ndarray:
    # full-precision dependence measure, batched
    return _sigma_min(_matrices(f, X))


def _sigma_gram(f: RealPolynomialMap, X: np.ndarray) -> np.ndarray:
    # fast Gram-based value for the descent (needs n > p); absolute
    # accuracy bottoms out near 1e-8
    Mh, zero = _normalized(_matrices(f, X))
    G = Mh @ np.transpose(Mh, (0, 2, 1))
    if f.p == 1:
        lam = 1.0 - np.abs(G[:, 0, 1])
    elif f.p == 2:
        lam = _eigmin_sym3(G)
    else:
        lam = np.linalg.eigvalsh(G)[:, 0]
    sig = np.sqrt(np.clip(lam, 0.0, None))
    sig[zero] = 0.0
    return sig


def _fnorm(f: RealPolynomialMap, X: np.ndarray) -> np.ndarray:
    return np.linalg.norm(f.eval_many(X), axis=1)


def _project(X: np.ndarray, eps: float) -> np.ndarray:
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    norms = np.where(norms < 1e-300, 1.0, norms)
    return X * (eps / norms)


def _fd_grad(value_batch, X: np.ndarray, h) -> np.ndarray:
    """Central differences of a batched scalar field, with step h per row.

    One field call on the stack of 2n displaced copies of X: valid only
    for a field that treats its rows independently."""
    N, n = X.shape
    hcol = np.broadcast_to(np.asarray(h, dtype=float), (N,))
    S = np.broadcast_to(X[:, None, :], (2, N, n, n)).copy()
    d = np.arange(n)
    S[0][:, d, d] += hcol[:, None]
    S[1][:, d, d] -= hcol[:, None]
    V = value_batch(S.reshape(-1, n)).reshape(2, N, n)
    return (V[0] - V[1]) / (2.0 * hcol[:, None])


def _tangent_part(G: np.ndarray, X: np.ndarray, eps: float) -> np.ndarray:
    return G - (np.sum(G * X, axis=1) / eps ** 2)[:, None] * X


# ----------------------------------------------------------------------
# witnesses and search


@dataclass(frozen=True, eq=False)
class TangencyWitness:
    """One point where the fiber of f is (numerically) tangent to S_eps."""

    point: np.ndarray
    eps: float
    sigma: float
    sigma_grad: float
    f_norm: float
    dist_v_estimate: float
    near_critical: bool


@dataclass(frozen=True, eq=False)
class LocusSearchResult:
    witnesses: tuple[TangencyWitness, ...]
    critical_hits: tuple[TangencyWitness, ...]
    attempted: int
    converged: int


def _make_witnesses(f: RealPolynomialMap, X: np.ndarray, eps: float,
                    tol_tangency: float) -> list[TangencyWitness]:
    """Measure each row of X (points on S_eps, n > p) as a witness."""
    J = f.grad_many(X)
    sigma = _sigma_min(np.concatenate([J, X[:, None, :]], axis=1))
    sigma_grad = _sigma_min(J)
    f_norm = _fnorm(f, X)
    smin = np.linalg.svd(J, compute_uv=False)[:, -1]
    return [TangencyWitness(point=x.copy(), eps=eps, sigma=float(s), sigma_grad=float(sg),
                            f_norm=float(fn), near_critical=bool(sg < tol_tangency),
                            dist_v_estimate=float(fn / sm) if sm > 1e-300 else math.inf)
            for x, s, sg, fn, sm in zip(X, sigma, sigma_grad, f_norm, smin)]


def _descend_sigma(field, X: np.ndarray, eps: float, iters: int,
                   freeze_below: float) -> np.ndarray:
    """Multistart projected descent of a batched scalar field on the sphere.

    A point stops once its value drops below `freeze_below`.
    """
    X = _project(np.array(X, dtype=float), eps)
    N = len(X)
    alpha = np.full(N, 0.05 * eps)
    active = np.ones(N, dtype=bool)
    h = 1e-6 * eps
    val = field(X)
    for _ in range(iters):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        Xa = X[idx]
        G = _fd_grad(field, Xa, h)
        G = _tangent_part(G, Xa, eps)
        gn2 = np.sum(G * G, axis=1)
        va = val[idx]
        al = alpha[idx].copy()
        accepted = np.zeros(idx.size, dtype=bool)
        stuck = gn2 < 1e-30
        newX = Xa.copy()
        newv = va.copy()
        first_ok = np.zeros(idx.size, dtype=bool)
        for level in range(18):
            rem = ~accepted & ~stuck
            if not rem.any():
                break
            ridx = np.where(rem)[0]
            T = _project(Xa[ridx] - al[ridx, None] * G[ridx], eps)
            vT = field(T)
            ok = vT <= va[ridx] - 1e-4 * al[ridx] * gn2[ridx]
            hit = ridx[ok]
            newX[hit] = T[ok]
            newv[hit] = vT[ok]
            accepted[hit] = True
            if level == 0:
                first_ok[hit] = True
            al[ridx[~ok]] *= 0.5
        al[first_ok] = np.minimum(al[first_ok] * 1.3, 0.3 * eps)
        X[idx] = newX
        val[idx] = newv
        alpha[idx] = al
        done = stuck | (~accepted & (al < 1e-14 * eps)) | (newv < freeze_below)
        active[idx[done]] = False
    return X


def _polish_batch(f: RealPolynomialMap, X: np.ndarray,
                  eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton-style sharpening of near-tangency points using exact SVD values.

    The dependence measure grows linearly off its zero set, so the step
    sigma * g / |g|^2 along the finite-difference gradient converges
    fast; the step length for differencing shrinks with sigma to stay
    on one side of the kink.  A row retires once a step fails to
    improve it, since repeating that step would fail the same way.
    """
    def sigma(X):
        return _sigma(f, X)

    X = _project(np.array(X, dtype=float), eps)
    s = sigma(X)
    live = s > 1e-13
    for _ in range(14):
        if not live.any():
            break
        idx = np.where(live)[0]
        Xa = X[idx]
        h = np.clip(0.05 * s[idx] * eps, 1e-9 * eps, 1e-6 * eps)
        G = _fd_grad(sigma, Xa, h)
        G = _tangent_part(G, Xa, eps)
        gn2 = np.sum(G * G, axis=1)
        ok_grad = gn2 > 1e-30
        step = np.where(ok_grad, s[idx] / np.where(ok_grad, gn2, 1.0), 0.0)
        improved = np.zeros(idx.size, dtype=bool)
        cur = s[idx].copy()
        for _ in range(8):
            rem = ~improved & ok_grad
            if not rem.any():
                break
            ridx = np.where(rem)[0]
            T = _project(Xa[ridx] - step[ridx, None] * G[ridx], eps)
            sT = sigma(T)
            good = sT < cur[ridx]
            hit = ridx[good]
            Xa[hit] = T[good]
            cur[hit] = sT[good]
            improved[hit] = True
            step[ridx[~good]] *= 0.4
        X[idx] = Xa
        s[idx] = cur
        live[idx] = improved & (cur > 1e-13)
    return X, s


def search_tangency_locus(f: RealPolynomialMap, eps: float, *,
                          seeds: int = DEFAULT_SEEDS,
                          iters: int = DEFAULT_ITERS,
                          rng_seed: int = 0,
                          tol_tangency: float = TOL_TANGENCY,
                          extra_seeds=None) -> LocusSearchResult:
    """Locate points on S_eps where fibers of f touch the sphere.

    Runs `seeds` quasi-random multistarts of projected descent on the
    dependence measure, sharpens the survivors with exact singular
    values, keeps those below `tol_tangency`, and deduplicates by
    distance.  Points whose gradient rows are themselves dependent are
    reported separately as critical hits.  `extra_seeds` adds caller
    chosen start points (projected to the sphere) to the multistart.
    """
    sampling.check_positive("eps", eps)
    if f.n <= f.p:
        raise ValueError("need more variables than components")
    X = sampling.sphere_points(f.n, seeds, eps, rng_seed)
    if extra_seeds is not None:
        P = np.asarray(extra_seeds, dtype=float).reshape(-1, f.n)
        if len(P):
            X = np.vstack([X, _project(P, eps)])
    X = _descend_sigma(lambda X: _sigma_gram(f, X), X, eps, iters, 1e-11)
    # enter the sharpening stage only from a plausible basin
    sig = _sigma(f, X)
    cand = X[sig < 1e-3]
    if len(cand) == 0:
        return LocusSearchResult((), (), attempted=len(X), converged=0)
    cand, s = _polish_batch(f, cand, eps)
    keep = s < tol_tangency
    cand = cand[keep]
    converged = int(np.count_nonzero(keep))
    made = _make_witnesses(f, cand, eps, tol_tangency)

    def dedup(ws):
        # greedy by |f|: keep a witness beyond DEDUP_RADIUS of all kept ones
        ws = sorted(ws, key=lambda w: w.f_norm)
        kept = []
        pts = np.empty((min(len(ws), 512), f.n))
        for w in ws:
            if np.all(np.linalg.norm(pts[:len(kept)] - w.point, axis=1) > DEDUP_RADIUS):
                pts[len(kept)] = w.point
                kept.append(w)
            if len(kept) >= 512:
                break
        return tuple(kept)

    return LocusSearchResult(dedup([w for w in made if not w.near_critical]),
                             dedup([w for w in made if w.near_critical]),
                             attempted=len(X), converged=converged)


# ----------------------------------------------------------------------
# falsification / support


@dataclass(frozen=True, eq=False)
class TransversalityReport:
    verdict: TransversalityVerdict
    eps: float
    witnesses: tuple[TangencyWitness, ...]
    locus_count: int
    critical_hits: int
    min_locus_f_norm: float
    scale: float
    margin: float
    v_min_estimate: float
    seeds: int
    iters: int
    rng_seed: int
    tolerances: dict
    reasons: tuple[str, ...]
    caveats: tuple[str, ...] = _CAVEATS


def _level_objective(f: RealPolynomialMap, target: float, scale: float):
    """Zero exactly at the tangency points where |f| equals `target`."""
    def value(X):
        return ((_fnorm(f, X) - target) / scale) ** 2 + _sigma(f, X) ** 2
    return value


def _certify(f: RealPolynomialMap, X: np.ndarray, eps: float, target: float,
             scale: float, tol_tangency: float, iters: int) -> list[TangencyWitness]:
    """Descend from each row of X toward a tangency point at level
    |f| = target, sharpen it with exact singular values, and measure it:
    one witness per row, each the same as from a batch of that row alone."""
    X = _descend_sigma(_level_objective(f, target, scale), X, eps, iters, -1.0)
    X, _ = _polish_batch(f, X, eps)
    return _make_witnesses(f, X, eps, tol_tangency)


def _build_sequence(f: RealPolynomialMap, eps: float, start: TangencyWitness,
                    tol_tangency: float, tol_v: float, scale: float,
                    margin: float, rng: np.random.Generator):
    """Continuation along the tangency locus with |f| targets / 10 each step."""
    seq = [start]
    # if the search already sits essentially on V, restart the chain from a
    # tangency point at a comfortable |f| level so the decrease is visible
    if start.f_norm < 200 * tol_v:
        lift = max(margin * 0.5, 400 * tol_v)
        w = _certify(f, start.point[None], eps, lift, scale, tol_tangency, 250)[0]
        if w.sigma < tol_tangency and not w.near_critical and w.f_norm > 100 * tol_v:
            seq = [w]
    # every test reads the last certified witness; after a failed step
    # only the start point of the next minimisation is kicked
    start_pt = seq[-1].point
    failures = 0
    while len(seq) < 60:
        last = seq[-1]
        if last.f_norm < tol_v and len(seq) >= 3:
            return seq
        # aim below the required 10x decrease so convergence error in the
        # target minimisation cannot land a hair above the threshold
        target = max(last.f_norm / 12.5, tol_v / 25.0)
        w = _certify(f, start_pt[None], eps, target, scale, tol_tangency, 250)[0]
        good = (w.sigma < tol_tangency and not w.near_critical
                and 0.0 < w.f_norm <= last.f_norm / 10.0)
        if good:
            seq.append(w)
            start_pt = w.point
            failures = 0
        else:
            failures += 1
            if failures > 3:
                return None
            kick = rng.normal(size=len(start_pt))
            kick = _tangent_part(kick[None], start_pt[None], eps)[0]
            start_pt = _project(start_pt + 0.02 * eps * kick, eps)
    return None


def falsify_transversality(f: RealPolynomialMap, eps: float, *,
                           seeds: int = DEFAULT_SEEDS,
                           iters: int = DEFAULT_ITERS,
                           rng_seed: int = 0,
                           tol_tangency: float = TOL_TANGENCY,
                           tol_v: float = TOL_V,
                           margin: float | None = None,
                           extra_seeds=None) -> TransversalityReport:
    """Decide FailsWithWitness / HoldsAtBudget / Inconclusive on S_eps.

    A failure is certified by a sequence of tangency points on the
    sphere whose |f| values decrease by at least 10x per element down
    to below `tol_v`, each with dependence measure below
    `tol_tangency` and none on the critical set.  Support is the
    statement that every regular-fiber tangency found keeps |f| above
    the margin (default: 1e-2 times the median of |f| on the sphere).
    eps, seeds, the tolerances and a given margin must be positive and
    finite, and iters at least zero.  Raises ValueError when |f|
    overflows at some of the sphere samples.
    """
    given = {"eps": eps, "seeds": seeds, "tol_tangency": tol_tangency,
             "tol_v": tol_v, "margin": margin}
    for name, value in given.items():
        if value is not None:
            sampling.check_positive(name, value)
    if iters < 0:
        raise ValueError(f"iters must be zero or positive and finite, got {iters!r}")
    rng = np.random.default_rng(rng_seed + 7919)
    sample = sampling.sphere_points(f.n, 2048, eps, rng_seed + 101)
    # overflow here is stated below, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        fvals = _fnorm(f, sample)
    overflow = int(np.count_nonzero(~np.isfinite(fvals)))
    if overflow:
        raise ValueError(f"evaluator overflow: |f| is not finite at {overflow} of "
                         f"{len(fvals)} sample points on the sphere of radius {eps!r}")
    scale = float(np.median(fvals))
    if margin is None:
        margin = MARGIN_FACTOR * scale

    # crude refinement of min |f| on the sphere, to notice when the zero
    # set misses the sphere entirely
    order = np.argsort(fvals)
    starts = sample[order[:16]]
    refined = _descend_sigma(lambda X: _fnorm(f, X) ** 2, starts, eps, 150, -1.0)
    v_min = float(min(fvals.min(), _fnorm(f, refined).min()))

    locus = search_tangency_locus(
        f, eps, seeds=seeds, iters=iters, rng_seed=rng_seed,
        tol_tangency=tol_tangency, extra_seeds=extra_seeds)
    tolerances = {"tol_tangency": tol_tangency, "tol_v": tol_v,
                  "margin": margin, "dedup_radius": DEDUP_RADIUS,
                  "fd_step": 1e-6 * eps}
    min_f = locus.witnesses[0].f_norm if locus.witnesses else math.inf
    # locus points are sphere samples too; folding them in keeps the
    # zero-set-misses-the-sphere shortcut from outrunning a low tangency
    for w in locus.witnesses[:1] + locus.critical_hits[:1]:
        v_min = min(v_min, w.f_norm)

    def report(verdict, witnesses, reasons):
        return TransversalityReport(
            verdict=verdict, eps=eps, witnesses=tuple(witnesses),
            locus_count=len(locus.witnesses),
            critical_hits=len(locus.critical_hits),
            min_locus_f_norm=min_f, scale=scale, margin=margin,
            v_min_estimate=v_min, seeds=seeds, iters=iters,
            rng_seed=rng_seed, tolerances=tolerances, reasons=tuple(reasons))

    if v_min > margin:
        return report(
            TransversalityVerdict.HOLDS, locus.witnesses[:16],
            [f"the zero set of f stays away from the sphere: min |f| found "
             f"on S_eps is {v_min:.6g}, above the margin {margin:.6g}; "
             "nearby fibers of small regular values cannot meet S_eps"])

    if locus.witnesses:
        best = locus.witnesses[0]
        if best.f_norm > margin:
            # the multistart minimises sigma alone, so the locus may have
            # been hit far from V; before accepting support, try to push
            # |f| under the margin along the locus from the best witnesses
            # (targeting half the margin, not zero: the |f| -> 0 end of a
            # tangency branch can sit on the critical set)
            # the three pilots run as one batch; the choice replays in order
            pilots = np.array([w.point for w in locus.witnesses[:3]])
            for cand in _certify(f, pilots, eps, 0.5 * margin, scale,
                                 tol_tangency, 300):
                if (cand.sigma < tol_tangency and not cand.near_critical
                        and cand.f_norm < best.f_norm):
                    best = cand
                if best.f_norm <= margin:
                    break
        if best.f_norm > margin:
            return report(
                TransversalityVerdict.HOLDS, locus.witnesses[:16],
                [f"every regular-fiber tangency found keeps |f| >= "
                 f"{best.f_norm:.6g}, above the margin {margin:.6g}, and "
                 "descending |f| along the tangency locus from the best "
                 "witnesses did not cross it"])
        seq = _build_sequence(f, eps, best, tol_tangency, tol_v,
                              scale, margin, rng)
        if seq is not None:
            return report(
                TransversalityVerdict.FAILS, seq,
                [f"certified {len(seq)} tangency points with |f| decreasing "
                 f"at least 10x per step from {seq[0].f_norm:.6g} down to "
                 f"{seq[-1].f_norm:.6g} < tol_v = {tol_v:.1g}"])
        return report(
            TransversalityVerdict.INCONCLUSIVE, locus.witnesses[:16],
            ["tangency points with |f| below the margin exist, but no "
             "certified decreasing sequence was completed at this budget"])

    if locus.critical_hits:
        return report(
            TransversalityVerdict.HOLDS, (),
            ["every converged tangency candidate lies on the critical set "
             "of f; no regular-fiber tangency was found at this budget"])

    return report(
        TransversalityVerdict.INCONCLUSIVE, (),
        ["no tangency candidates converged at this search budget"])


# ----------------------------------------------------------------------
# special family: closed-form minors and the sign claim


def _family_data(psi: DiagonalMixedPolynomial) -> SpecialFamilyForm:
    form = special_family_form(psi)
    if form is None:
        raise ValueError("polynomial is not in the special family")
    return form


def special_family_minor(psi: DiagonalMixedPolynomial, j: int, x,
                         component: str = "x") -> float:
    """Closed-form 3x3 tangency minor for the special family.

    The minor takes the columns (u_j, x_o, y_o) of the tangency matrix
    of (Re psi, Im psi), where o is the non-critical index, u_j is the
    x- or y-column of the critical index j, and x is the real point
    (x1, y1, ..., xn, yn).  With S = x_o^2 + y_o^2, s_j = (x_j^2 +
    y_j^2)^{a_j - 1} and signed real coefficients c (odd index) and m_j
    along the common coefficient direction, the minor equals

        sign * c * u_j * S * (3 c S - 2 m_j a_j s_j x_o)

    with sign +1 for exponents (2,1) and -1 for (1,2).  The 3x3
    determinant is invariant under the rotation that aligns the common
    coefficient direction with the real axis, so the formula applies to
    the original polynomial's tangency matrix directly.
    """
    form = _family_data(psi)
    if j not in form.critical:
        raise ValueError(f"index {j} is not a critical index of the family")
    if component not in ("x", "y"):
        raise ValueError("component must be 'x' or 'y'")
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * psi.n,):
        raise ValueError("point has wrong dimension")
    o = form.odd_index
    xo = x[2 * (o - 1)]
    yo = x[2 * (o - 1) + 1]
    xj = x[2 * (j - 1)]
    yj = x[2 * (j - 1) + 1]
    u = xj if component == "x" else yj
    aj = psi.term_for(j).a
    c = form.line.mu(o)
    mj = form.line.mu(j)
    S = xo * xo + yo * yo
    s = (xj * xj + yj * yj) ** (aj - 1)
    sign = 1.0 if form.odd_exponents == (2, 1) else -1.0
    return sign * c * u * S * (3.0 * c * S - 2.0 * mj * aj * s * xo)


@dataclass(frozen=True)
class ClaimCheckResult:
    holds: bool
    vacuous: bool
    samples: int
    min_cross_ratio: float
    note: str


def special_family_claim_check(psi: DiagonalMixedPolynomial,
                               samples: int = 200,
                               rng_seed: int = 0) -> ClaimCheckResult:
    """Numerically confirm the branch-sign incompatibility of the family.

    For a critical index j, the nontrivial branch of the minor zero set
    solves 3 c S = 2 m_j a_j s_j x_o, which forces sign(x_o) =
    sign(m_j c).  Indices with opposite coefficient signs therefore
    demand opposite signs of x_o, so no point satisfies both branch
    equations.  The check constructs points on one branch exactly and
    verifies the other branch's equation stays bounded away from zero;
    with a single sign block the claim is vacuous.
    """
    form = _family_data(psi)
    pos = form.positive_block()
    neg = form.negative_block()
    if not pos or not neg:
        return ClaimCheckResult(True, True, 0, math.inf,
                                "single sign block: nothing to separate")
    rng = np.random.default_rng(rng_seed)
    o = form.odd_index
    c = form.line.mu(o)
    min_ratio = math.inf
    count = 0
    for k in range(samples):
        j = pos[k % len(pos)]
        other = neg[k % len(neg)]
        if k % 2 == 1:
            j, other = other, j
        aj = psi.term_for(j).a
        ao = psi.term_for(other).a
        rj = rng.uniform(0.4, 1.4)
        rother = rng.uniform(0.4, 1.4)
        mj = form.line.mu(j)
        mo = form.line.mu(other)
        K = mj * aj * rj ** (2 * (aj - 1))
        yo = rng.uniform(-0.9, 0.9) * abs(K / (3.0 * c))
        disc = K * K - 9.0 * c * c * yo * yo
        root = math.sqrt(max(disc, 0.0))
        # stable root pair: K - root cancels when yo is small, so derive
        # the small root from the product x_big * x_small = yo^2
        xbig = (K + math.copysign(root, K)) / (3.0 * c)
        xsmall = yo * yo / xbig if xbig != 0.0 else 0.0
        for xo in (xbig, xsmall):
            if xo == 0.0:
                continue
            count += 1
            S = xo * xo + yo * yo
            res_j = 3.0 * c * S - 2.0 * K * xo
            scale_j = 3.0 * abs(c) * S + 2.0 * abs(K * xo)
            if abs(res_j) > 1e-9 * scale_j:
                return ClaimCheckResult(False, False, count, 0.0,
                                        "constructed point missed its own branch")
            if (xo > 0) != (mj * c > 0):
                return ClaimCheckResult(False, False, count, 0.0,
                                        "branch root has unexpected sign")
            Ko = mo * ao * rother ** (2 * (ao - 1))
            res_other = 3.0 * c * S - 2.0 * Ko * xo
            floor = 3.0 * abs(c) * S
            if abs(res_other) < floor * (1.0 - 1e-9):
                return ClaimCheckResult(False, False, count, 0.0,
                                        "opposite branch equation nearly vanished")
            ratio = abs(res_other) / max(abs(res_j), 1e-300)
            min_ratio = min(min_ratio, ratio)
    return ClaimCheckResult(True, False, count, min_ratio,
                            "branches with opposite coefficient signs force "
                            "opposite signs of x_o")
