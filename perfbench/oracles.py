"""Output checks for benchmark jobs.

Each check reads the command's exit code and JSON output and compares
them with facts computed here, independently of the program: closed-form
fiber counts, the exponent relation of the radial weights, hand-written
numpy formulas for the failing map and for mixed polynomials, and the
structure goldens of the acceptance suite.  `check` returns None for a
correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

EXIT_OK, EXIT_FAILS = 0, 1
HOLDS, FAILS = "HoldsAtBudget", "FailsWithWitness"
TOL_TANGENCY = 1e-8
TOL_V = 1e-6
FIBER_TOL = 1e-10

# criterion-1 goldens: (critical indices, class indices, class directions,
# discriminant (kind, direction), critical subspaces (zero, free),
# radial weights (degree, weights), verdict)
GOLDENS = {
    "worked": ([1, 2], [[1], [2]], [("1", "1"), ("-2", "-1")],
               [("ray", "1", "1"), ("ray", "-2", "-1")],
               [([2, 3], [1]), ([1, 3], [2])], (12, [6, 3, 4]),
               "FibrationMainTheorem"),
    "g": ([1], [[1]], [("1", "0")], [("ray", "1", "0")],
          [([2], [1])], (6, [3, 2]), "FibrationMainTheorem"),
    "h": ([1, 2], [[1, 2]], [("1", "0")], [("full_line", "1", "0")],
          [([3], [1, 2])], (6, [3, 3, 2]), "FibrationSpecialCase"),
}


class CheckFailed(Exception):
    pass


def _require(cond, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def check(job, code, stdout: str) -> str | None:
    """None when the output of `job` is correct, else the reason."""
    try:
        expected_code = EXIT_FAILS if job.kind == "fails" else EXIT_OK
        _require(code == expected_code, f"exit code {code!r}, expected {expected_code}")
        doc = json.loads(stdout)
        _CHECKS[job.kind](doc, *job.expect)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


# ----------------------------------------------------------------------
# exact


def psi_eval(terms, z: np.ndarray) -> complex:
    """sum_j lambda_j z_j^a_j conj(z_j)^b_j, straight from the term list."""
    return complex(sum(complex(float(re), float(im)) * z[j - 1] ** a
                       * np.conj(z[j - 1]) ** b for j, a, b, re, im in terms))


def psi_scale(terms, z: np.ndarray) -> float:
    """sum_j |lambda_j| |z_j|^(a_j + b_j), the size a rounding error scales with."""
    return float(sum(abs(complex(float(re), float(im))) * abs(z[j - 1]) ** (a + b)
                     for j, a, b, re, im in terms))


def _weights(doc, terms) -> tuple[int, list[int]]:
    rw = doc["structure"]["radial_weights"]
    degree, weights = rw["degree"], rw["weights"]
    _require(len(weights) == len(terms), "one radial weight per variable")
    for j, a, b, _, _ in terms:
        _require(weights[j - 1] * (a + b) == degree,
                 f"radial weight p_{j}={weights[j - 1]} with a+b={a + b} "
                 f"misses degree {degree}")
    return degree, weights


def _check_analyze(doc, terms):
    poly = doc["structure"]["polynomial"]
    got = [(t["index"], t["a"], t["b"], Fraction(t["coeff"]["re"]),
            Fraction(t["coeff"]["im"])) for t in poly["terms"]]
    _require(sorted(got) == sorted(terms), "parsed terms differ from the input")
    _weights(doc, terms)
    critical = sorted(j for j, a, b, _, _ in terms if a == b)
    _require(doc["structure"]["critical_indices"] == critical,
             "critical indices are not the terms with a = b")


def _check_reference(doc, name):
    crit, classes, dirs, disc, subspaces, (degree, weights), verdict = GOLDENS[name]
    s = doc["structure"]
    _require(s["critical_indices"] == crit, f"{name}: critical indices")
    _require([c["indices"] for c in s["classes"]] == classes, f"{name}: classes")
    _require([(c["direction"]["re"], c["direction"]["im"]) for c in s["classes"]]
             == dirs, f"{name}: class directions")
    _require([(c["kind"], c["direction"]["re"], c["direction"]["im"])
              for c in s["discriminant"]["components"]] == disc,
             f"{name}: discriminant")
    _require([(c["zero_indices"], c["free_indices"])
              for c in s["critical_set"]["subspaces"]] == subspaces,
             f"{name}: critical set")
    _require(s["radial_weights"] == {"degree": degree, "weights": weights},
             f"{name}: radial weights")
    _require(s["verdict"]["kind"] == verdict, f"{name}: verdict")


def _check_flow(doc, terms, point, eps):
    params = doc["flow_params"]
    degree, weights = _weights({"structure": {"radial_weights": params}}, terms)
    z = np.asarray(point[0::2]) + 1j * np.asarray(point[1::2])
    p = np.asarray(weights, dtype=float)
    base = psi_eval(terms, z)
    _require(len(doc["samples"]) > 0, "no flow samples")
    for s in doc["samples"]:
        t = s["t"]
        zt = z * t ** p
        pt = np.asarray(s["point"])
        _require(np.allclose(pt[0::2] + 1j * pt[1::2], zt, rtol=1e-12, atol=0.0),
                 f"flowed point at t={t} is not t^p z")
        predicted = t ** degree * base
        bound = 1e-9 * (1.0 + psi_scale(terms, zt))
        value = psi_eval(terms, zt)
        _require(abs(value - predicted) <= bound,
                 f"equivariance fails at t={t}: {abs(value - predicted):.3g}")
        _require(s["equivariance_residual"] <= bound,
                 f"reported equivariance residual {s['equivariance_residual']:.3g}")
        _require(abs(complex(*s["value"]) - value) <= bound,
                 f"reported value at t={t} differs from psi(t.z)")
    for inf in doc["inflate"]:
        _require(abs(np.linalg.norm(inf["point"]) - eps) <= 1e-9 * eps,
                 "inflated point is off the sphere")


# ----------------------------------------------------------------------
# transversality


def failing_map(P: np.ndarray) -> np.ndarray:
    x, y, z = P[..., 0], P[..., 1], P[..., 2]
    return np.stack([x * y + z * z, x], axis=-1)


def failing_sigma(p: np.ndarray) -> float:
    """Smallest singular value of the row-normalised [grad f; p] at p."""
    x, y, z = p
    M = np.array([[y, x, 2.0 * z], [1.0, 0.0, 0.0], [x, y, z]])
    M /= np.linalg.norm(M, axis=1)[:, None]
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def _check_holds(doc, radii):
    _require(doc["aggregate_verdict"] == HOLDS,
             f"verdict {doc['aggregate_verdict']}, expected {HOLDS}")
    _require([(r["eps"], r["verdict"]) for r in doc["reports"]]
             == [(eps, HOLDS) for eps in radii], "per-sphere verdicts")


def _check_fails(doc, eps):
    _require(doc["aggregate_verdict"] == FAILS,
             f"verdict {doc['aggregate_verdict']} at eps={eps}, expected {FAILS}")
    (rep,) = doc["reports"]
    ws = rep["witnesses"]
    _require(len(ws) >= 3, f"witness sequence has {len(ws)} points, needs 3")
    fns = []
    for w in ws:
        p = np.asarray(w["point"])
        _require(abs(np.linalg.norm(p) - eps) <= 1e-9 * eps, "witness off the sphere")
        _require(w["sigma"] < TOL_TANGENCY and failing_sigma(p) < TOL_TANGENCY,
                 f"witness not tangent: sigma {failing_sigma(p):.3g}")
        fn = float(np.linalg.norm(failing_map(p)))
        _require(abs(fn - w["f_norm"]) <= 1e-9 * fn + 1e-15,
                 "reported |f| differs from f(x, y, z) = (x*y + z^2, x)")
        fns.append(fn)
    for a, b in zip(fns, fns[1:]):
        _require(a >= 10.0 * b, f"|f| falls less than 10x: {a:.3g} -> {b:.3g}")
    _require(fns[-1] < TOL_V, f"|f| ends at {fns[-1]:.3g}, above tol_v")


# ----------------------------------------------------------------------
# fiber


def _check_fiber(doc, c, expected, eps):
    fib = doc["fiber"]
    _require(fib["component_count"] == expected,
             f"fiber over {c}: {fib['component_count']} components, expected {expected}")
    _require(not fib["unreliable"], f"fiber over {c} flagged unreliable")
    P = np.asarray(fib["points"])
    labels = np.asarray(fib["labels"])
    _require(len(P) == fib["converged"] and len(labels) == len(P), "point count")
    _require(fib["residual_max"] <= FIBER_TOL, "residual above tolerance")
    res = np.linalg.norm(failing_map(P) - np.asarray(c), axis=1)
    _require(float(res.max()) <= 10 * FIBER_TOL, f"recomputed residual {res.max():.3g}")
    _require(float(np.linalg.norm(P, axis=1).max()) <= eps * (1 + 1e-12),
             "point outside the ball")
    # two lines z = +-sqrt(c1) are told apart by the sign of z
    groups = [labels] if expected == 1 else [labels[P[:, 2] > 0], labels[P[:, 2] < 0]]
    _require(all(len(set(g.tolist())) == 1 for g in groups)
             and len(set(labels.tolist())) == expected,
             "labels do not follow the closed-form components")


def _check_compare(doc, counts):
    cmp = doc["compare"]
    _require(tuple(cmp["component_counts"]) == tuple(counts),
             f"component counts {cmp['component_counts']}, expected {list(counts)}")
    for side in (cmp["first"], cmp["second"]):
        _require(not side["unreliable"], "fiber flagged unreliable")
        _require(side["residual_max"] <= FIBER_TOL, "residual above tolerance")


_CHECKS = {"analyze": _check_analyze, "reference": _check_reference,
           "flow": _check_flow, "holds": _check_holds, "fails": _check_fails,
           "fiber": _check_fiber, "compare": _check_compare}
