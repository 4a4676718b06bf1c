"""Numerical transversality testing for real polynomial maps.

For f : R^n -> R^p with n > p, a fiber of f through a point x on the
sphere S_eps meets the sphere transversally exactly when the gradient
rows of f at x together with x itself are linearly independent.  The
dependence measure below turns that into a scalar field on the sphere:
the smallest singular value of the row-normalised (p+1) x n matrix.
Its zero set is located by multistart Gauss-Newton on the row-normalised
Fritz John system (`_tangency_system`).  A continuation along that zero
set toward the zero set of f solves the same system with one more row,
log(|f| / t) = 0 (its level t), for geometrically falling levels t;
it either certifies a sequence of tangency points with |f| shrinking to
zero (transversality fails) or stops with a positive margin (it holds at
the given search budget).  The minimum of |f| on the sphere comes from
Gauss-Newton on (f, |x|^2 - eps^2) from the lowest samples.  Every
numeric step runs on the one solver, `fiber.newton_batch`.

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
from .fiber import NEWTON_MAX_ITER, newton_batch
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
    # rows scaled to unit length; `zero` marks matrices with a vanishing row,
    # and a row norm that is not finite is an overflow stated here
    norms = np.linalg.norm(M, axis=2)
    bad = int(np.count_nonzero(~np.all(np.isfinite(norms), axis=1)))
    if bad:
        raise ValueError(f"evaluator overflow: a gradient row of f has no finite norm "
                         f"at {bad} of {len(M)} points on or near the sphere")
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


def _matrices(f: RealPolynomialMap, X: np.ndarray) -> np.ndarray:
    return np.concatenate([f.grad_many(X), X[:, None, :]], axis=1)


def _fnorm(f: RealPolynomialMap, X: np.ndarray) -> np.ndarray:
    return np.linalg.norm(f.eval_many(X), axis=1)


def _project(X: np.ndarray, eps: float) -> np.ndarray:
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    norms = np.where(norms < 1e-300, 1.0, norms)
    return X * (eps / norms)


def _tangent_part(G: np.ndarray, X: np.ndarray, eps: float) -> np.ndarray:
    return G - (np.sum(G * X, axis=1) / eps ** 2)[:, None] * X


def _tangency_system(f: RealPolynomialMap, eps: float, t: float | None = None):
    """Residual and Jacobian of the row-normalised Fritz John system

        R(x, w) = [ M(x)^T w ; (|x|^2 - eps^2) / (2 eps^2) ; (|w|^2 - 1) / 2 ]

    in y = (x, w), where M has rows g_i = grad f_i / |grad f_i| and x / eps.
    Its zeros are the points of S_eps where the rows of M are dependent.
    The x-block of the Jacobian is sum_i w_i (I - g_i g_i^T) H_i / |grad f_i|
    + w_{p+1} I / eps (H_i the Hessian of f_i); the w-block is M^T.  A
    gradient row whose norm overflows makes R NaN.

    A level t adds the row log(|f(x)| / t), whose zeros are the tangency
    points at the level |f| = t (square for p = 2).  The row's x-gradient
    is J^T f / |f|^2, from the Jacobian J the M block already evaluates,
    and its w entries are zero; it is not finite where |f| overflows or
    vanishes.
    """
    n, p = f.n, f.p

    def unit_gradients(J):
        norms = np.linalg.norm(J, axis=2, keepdims=True)
        norms = np.where(np.isfinite(norms), np.where(norms < 1e-300, 1.0, norms), np.nan)
        return J / norms, norms

    def residual(Y):
        X, w = Y[:, :n], Y[:, n:]
        G, _ = unit_gradients(f.grad_many(X))
        R = [np.sum(G * w[:, :p, None], axis=1) + w[:, p:] * X / eps,
             (np.sum(X * X, axis=1, keepdims=True) - eps ** 2) / (2 * eps ** 2),
             (np.sum(w * w, axis=1, keepdims=True) - 1.0) / 2.0]
        if t is not None:
            R.append(np.log(_fnorm(f, X) / t)[:, None])
        return np.concatenate(R, axis=1)

    def jacobian(Y):
        X, w = Y[:, :n], Y[:, n:]
        J = f.grad_many(X)
        G, norms = unit_gradients(J)
        H = f.derivative.grad_many(X).reshape(len(Y), p, n, n)
        dG = (H - G[:, :, :, None] * (G[:, :, None, :] @ H)) / norms[:, :, :, None]
        A = np.zeros((len(Y), n + 2 + (t is not None), n + p + 1))
        A[:, :n, :n] = np.sum(w[:, :p, None, None] * dG, axis=1) + w[:, p:, None] * np.eye(n) / eps
        A[:, :n, n:n + p] = np.transpose(G, (0, 2, 1))
        A[:, :n, n + p] = X / eps
        A[:, n, :n] = X / eps ** 2
        A[:, n + 1, n:] = w
        if t is not None:
            F = f.eval_many(X)
            A[:, n + 2, :n] = np.sum(F[:, :, None] * J, axis=1) / np.sum(F * F, axis=1)[:, None]
        return A

    return residual, jacobian


def _solve_tangency(system, f: RealPolynomialMap, X: np.ndarray, eps: float,
                    max_iter: int) -> np.ndarray:
    """Gauss-Newton on `system` from the rows of X, each with multipliers w
    from the smallest singular triple of its row-normalised tangency
    matrix; returns the points projected to S_eps."""
    with np.errstate(over="ignore", invalid="ignore"):
        Mh, _ = _normalized(_matrices(f, X))
    w = np.linalg.svd(Mh, full_matrices=False)[0][:, :, -1]
    Y, _ = newton_batch(*system, np.hstack([X, w]), max_iter)
    return _project(Y[:, :f.n], eps)


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


def _check_budget(seeds: int, iters: int, tol_tangency: float) -> None:
    # the multistart budget of the tangency search, checked before any draw
    sampling.check_positive("seeds", seeds)
    sampling.check_positive("tol_tangency", tol_tangency)
    if not (iters >= 0 and math.isfinite(iters)):
        raise ValueError(f"iters must be zero or positive and finite, got {iters!r}")
    sampling.check_whole("seeds", seeds)
    sampling.check_whole("iters", iters)


def search_tangency_locus(f: RealPolynomialMap, eps: float, *,
                          seeds: int = DEFAULT_SEEDS,
                          iters: int = DEFAULT_ITERS,
                          rng_seed: int = 0,
                          tol_tangency: float = TOL_TANGENCY,
                          extra_seeds=None) -> LocusSearchResult:
    """Locate points on S_eps where fibers of f touch the sphere.

    Runs `seeds` quasi-random multistarts of Gauss-Newton (at most `iters`
    iterations) on the row-normalised Fritz John system (`_tangency_system`),
    each with multipliers w from the smallest singular triple of its
    tangency matrix, projects the results to S_eps, keeps those whose
    dependence measure is below `tol_tangency`, and deduplicates by
    distance.  Points whose gradient rows are themselves
    dependent are reported separately as critical hits.  `extra_seeds`
    adds caller chosen start points (projected to the sphere) to the
    multistart.  Raises ValueError where a gradient row of f overflows,
    or an argument is outside the range `falsify_transversality` states.
    """
    sampling.check_positive("eps", eps)
    if f.n <= f.p:
        raise ValueError("need more variables than components")
    _check_budget(seeds, iters, tol_tangency)
    sampling.check_whole("rng_seed", rng_seed)
    X = sampling.sphere_points(f.n, seeds, eps, rng_seed)
    if extra_seeds is not None:
        P = np.asarray(extra_seeds, dtype=float).reshape(-1, f.n)
        if len(P):
            X = np.vstack([X, _project(P, eps)])
    X = _solve_tangency(_tangency_system(f, eps), f, X, eps, iters)
    # every row is measured once (nearly all pass); _normalized states an
    # overflow, so numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        made = [w for w in _make_witnesses(f, X, eps, tol_tangency)
                if w.sigma < tol_tangency]

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
                             attempted=len(X), converged=len(made))


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


def _certify(f: RealPolynomialMap, X: np.ndarray, eps: float, target: float,
             tol_tangency: float) -> list[TangencyWitness]:
    """Solve the level system (`_tangency_system` at level `target`) from
    each row of X, projected to S_eps, for a tangency point at |f| = target,
    and measure the result: one witness per row, each the same as from a
    batch of that row alone."""
    X = _project(np.array(X, dtype=float), eps)
    X = _solve_tangency(_tangency_system(f, eps, target), f, X, eps, NEWTON_MAX_ITER)
    return _make_witnesses(f, X, eps, tol_tangency)


def _build_sequence(f: RealPolynomialMap, eps: float, start: TangencyWitness,
                    tol_tangency: float, tol_v: float, margin: float,
                    rng: np.random.Generator):
    """Continuation along the tangency locus toward V: each step solves the
    level system for |f| = 1/12.5 of the last certified witness's |f|, from
    that witness (or a kicked copy after a failed step), and keeps the
    solution when it is a regular-fiber tangency point at least 10x lower."""
    seq = [start]
    # if the search already sits essentially on V, restart the chain from a
    # tangency point at a comfortable |f| level so the decrease is visible
    if start.f_norm < 200 * tol_v:
        lift = max(margin * 0.5, 400 * tol_v)
        w = _certify(f, start.point[None], eps, lift, tol_tangency)[0]
        if w.sigma < tol_tangency and not w.near_critical and w.f_norm > 100 * tol_v:
            seq = [w]
    # every test reads the last certified witness; after a failed step
    # only the start point of the next solve is kicked
    start_pt = seq[-1].point
    failures = 0
    while len(seq) < 60:
        last = seq[-1]
        if last.f_norm < tol_v and len(seq) >= 3:
            return seq
        # aim below the required 10x decrease so a solution that stops
        # short of its level cannot land a hair above the threshold
        target = max(last.f_norm / 12.5, tol_v / 25.0)
        w = _certify(f, start_pt[None], eps, target, tol_tangency)[0]
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
                           margin: float | None = None) -> TransversalityReport:
    """Decide FailsWithWitness / HoldsAtBudget / Inconclusive on S_eps.

    A failure is certified by a sequence of tangency points on the
    sphere whose |f| values decrease by at least 10x per element down
    to below `tol_v`, each with dependence measure below
    `tol_tangency` and none on the critical set.  Support is the
    statement that every regular-fiber tangency found keeps |f| above
    the margin (default: 1e-2 times the median of |f| on the sphere).
    eps, seeds, the tolerances and a given margin must be positive and
    finite, seeds and iters integers, iters at least zero and rng_seed a
    non-negative integer.  Raises ValueError when |f|^2 overflows at some
    of the sphere samples, or a gradient row of f where the search
    evaluates it.
    """
    sampling.check_positive("eps", eps)
    _check_budget(seeds, iters, tol_tangency)
    for name, value in (("tol_v", tol_v), ("margin", margin)):
        if value is not None:
            sampling.check_positive(name, value)
    sampling.check_whole("rng_seed", rng_seed)
    rng = np.random.default_rng(rng_seed + 7919)
    sample = sampling.sphere_points(f.n, 2048, eps, rng_seed + 101)
    # overflow here is stated below, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        values = f.eval_many(sample)
        fvals = np.linalg.norm(values, axis=1)
    overflow = int(np.count_nonzero(~np.isfinite(fvals)))
    if overflow:
        raw = int(np.count_nonzero(~np.all(np.isfinite(values), axis=1)))
        raise ValueError(f"evaluator overflow: |f|^2 is not finite at {overflow} of "
                         f"{len(fvals)} sample points on the sphere of radius {eps!r} "
                         f"(f itself is not finite at {raw} of them)")
    scale = float(np.median(fvals))
    if margin is None:
        margin = MARGIN_FACTOR * scale

    # min |f| on the sphere, refined by Gauss-Newton toward f = 0 on S_eps
    # from the lowest samples, to notice when the zero set misses the sphere
    def on_v(X):
        return np.hstack([f.eval_many(X),
                          (np.sum(X * X, axis=1, keepdims=True) - eps ** 2) / (2 * eps)])

    def on_v_jacobian(X):
        return np.concatenate([f.grad_many(X), X[:, None, :] / eps], axis=1)

    refined, _ = newton_batch(on_v, on_v_jacobian, sample[np.argsort(fvals)[:16]],
                              NEWTON_MAX_ITER)
    v_min = float(min(fvals.min(), _fnorm(f, _project(refined, eps)).min()))

    locus = search_tangency_locus(
        f, eps, seeds=seeds, iters=iters, rng_seed=rng_seed,
        tol_tangency=tol_tangency)
    tolerances = {"tol_tangency": tol_tangency, "tol_v": tol_v,
                  "margin": margin, "dedup_radius": DEDUP_RADIUS}
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
            # the multistart solves for tangency alone, so the locus may have
            # been hit far from V; before accepting support, try to push
            # |f| under the margin along the locus from the best witnesses
            # (targeting half the margin, not zero: the |f| -> 0 end of a
            # tangency branch can sit on the critical set)
            # the three pilots run as one batch; the choice replays in order
            pilots = np.array([w.point for w in locus.witnesses[:3]])
            for cand in _certify(f, pilots, eps, 0.5 * margin, tol_tangency):
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
                 "the Newton level solve toward margin/2 from the best "
                 "witnesses did not cross it"])
        seq = _build_sequence(f, eps, best, tol_tangency, tol_v, margin, rng)
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
