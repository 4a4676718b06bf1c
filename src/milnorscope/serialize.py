"""Stable JSON shapes for all report types.

Exact rationals are rendered as strings ("3/2"), complex rationals as
{"re": ..., "im": ...} pairs of such strings, floats as repr round-trip
values, and non-finite floats as null (RFC 8259 has no NaN or
Infinity).  Key order is fixed by construction so that a run with the same
inputs and seed produces byte-identical output.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring

import numpy as np

from .fiber import FiberComparison, FiberSample
from .mixed import ComplexRational, DiagonalMixedPolynomial
from .parsing import render_mixed, render_real_map
from .realpoly import RealPolynomialMap
from .structure import RadialWeights, StructureReport
from .transversality import TangencyWitness, TransversalityReport

SCHEMA = "milnor-scope/2"


def cplx(c: ComplexRational) -> dict:
    return {"re": str(c.re), "im": str(c.im)}


def floatlist(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def psi_json(psi: DiagonalMixedPolynomial) -> dict:
    return {
        "vars": psi.n,
        "render": render_mixed(psi),
        "terms": [{"index": t.j, "coeff": cplx(t.coeff), "a": t.a, "b": t.b}
                  for t in psi.terms],
    }


def map_json(f: RealPolynomialMap) -> dict:
    return {
        "n": f.n,
        "p": f.p,
        "var_names": list(f.var_names),
        "render": render_real_map(f),
    }


def structure_json(report: StructureReport) -> dict:
    classes = []
    for cls in report.partition.classes:
        classes.append({
            "indices": list(cls.indices),
            "direction": cplx(cls.direction),
            "theta": float(cls.theta),
            "ratios": {str(j): str(t) for j, t in sorted(cls.ratios.items())},
            "mu": {str(j): cls.mu(j) for j in cls.indices},
            "all_same_argument": cls.all_same_argument,
        })
    cs = report.critical_set
    critical_set = {
        "subspaces": [{
            "class_indices": list(s.class_indices),
            "zero_indices": list(s.zero_indices),
            "free_indices": list(s.free_indices),
            "real_dim": s.real_dim,
        } for s in cs.subspaces],
        "note": cs.note,
    }
    disc = report.discriminant
    discriminant = {
        "components": [{
            "class_indices": list(c.class_indices),
            "direction": cplx(c.direction),
            "kind": c.kind,
        } for c in disc.components],
        "has_complete_line": disc.has_complete_line,
        "note": disc.note,
    }
    if report.radial_weights is not None:
        weights = flow_params_json(report.radial_weights)
    else:
        weights = {"error": report.radial_weights_error}
    return {
        "schema": SCHEMA,
        "polynomial": psi_json(report.psi),
        "critical_indices": sorted(report.partition.critical),
        "classes": classes,
        "critical_set": critical_set,
        "discriminant": discriminant,
        "radial_weights": weights,
        "verdict": {
            "kind": report.verdict.kind.value,
            "reasons": list(report.verdict.reasons),
            "preconditions": report.verdict.preconditions,
        },
    }


def witness_json(w: TangencyWitness) -> dict:
    return {
        "point": floatlist(w.point),
        "eps": float(w.eps),
        "sigma": float(w.sigma),
        "sigma_grad": float(w.sigma_grad),
        "f_norm": float(w.f_norm),
        "dist_v_estimate": float(w.dist_v_estimate),
        "near_critical": bool(w.near_critical),
    }


def transversality_json(report: TransversalityReport) -> dict:
    return {
        "schema": SCHEMA,
        "verdict": report.verdict.value,
        "eps": float(report.eps),
        "witnesses": [witness_json(w) for w in report.witnesses],
        "locus_count": report.locus_count,
        "critical_hits": report.critical_hits,
        "min_locus_f_norm": float(report.min_locus_f_norm),
        "scale": float(report.scale),
        "margin": float(report.margin),
        "v_min_estimate": float(report.v_min_estimate),
        "seeds": report.seeds,
        "iters": report.iters,
        "rng_seed": report.rng_seed,
        "tolerances": {k: float(v) for k, v in report.tolerances.items()},
        "reasons": list(report.reasons),
        "caveats": list(report.caveats),
    }


def fiber_json(sample: FiberSample, include_points: bool = True) -> dict:
    out = {
        "schema": SCHEMA,
        "target": floatlist(sample.target),
        "eps": float(sample.eps),
        "seed_count": sample.seed_count,
        "rng_seed": sample.rng_seed,
        "tol": float(sample.tol),
        "converged": int(len(sample.points)),
        "component_count": sample.component_count,
        "linkage_radius": float(sample.linkage_radius),
        "nn_median": float(sample.nn_median),
        "singular_count": sample.singular_count,
        "unreliable": bool(sample.unreliable),
        "residual_max": float(sample.residuals.max()) if len(sample.residuals) else 0.0,
    }
    if include_points:
        # tolist gives the Python ints and floats that float() and int() would
        out["labels"] = sample.labels.tolist()
        out["points"] = sample.points.tolist()
    return out


def fiber_compare_json(cmp: FiberComparison) -> dict:
    return {
        "schema": SCHEMA,
        "component_counts": list(cmp.component_counts),
        "first": fiber_json(cmp.first, include_points=False),
        "second": fiber_json(cmp.second, include_points=False),
        "note": cmp.note,
    }


def flow_params_json(params: RadialWeights) -> dict:
    return {"degree": params.degree, "weights": list(params.weights)}


def fiber_csv(sample: FiberSample, var_names) -> str:
    """CSV table of fiber points: one coordinate column per variable,
    then the component label and the Newton residual."""
    header = ",".join(list(var_names) + ["component", "residual"])
    lines = [header]
    for p, lab, r in zip(sample.points, sample.labels, sample.residuals):
        lines.append(",".join([repr(float(v)) for v in p]
                              + [str(int(lab)), repr(float(r))]))
    return "\n".join(lines) + "\n"


def _finite_floats(obj) -> bool:
    """Whether obj is a non-empty list or tuple of finite floats only."""
    # a sum of finite floats is finite unless it overflows, which only
    # sends the list down the general path
    return (isinstance(obj, (list, tuple)) and bool(obj)
            and all([type(v) is float for v in obj]) and math.isfinite(sum(obj)))


def _text(obj, ind: str) -> str:
    """JSON text of obj, indented by two spaces per level below `ind`."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = ind + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join([encode_basestring(k) + ": " + _text(v, inner)
                         for k, v in obj.items()])
        return "{\n" + inner + body + "\n" + ind + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # the first item's type keeps other lists off the float scans
        kind = type(obj[0])
        if kind is float and _finite_floats(obj):
            body = sep.join(map(float.__repr__, obj))
        elif (kind is list or kind is tuple) and all(_finite_floats(v) for v in obj):
            # each row of a matrix of floats, written in one join
            deep = ",\n" + inner + "  "
            body = sep.join(["[\n" + inner + "  " + deep.join(map(float.__repr__, v))
                             + "\n" + inner + "]" for v in obj])
        else:
            body = sep.join([_text(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + ind + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj: dict) -> str:
    """JSON text indented by two spaces, keys in insertion order, floats by
    repr, every non-finite float as null and non-ASCII characters as they
    are: the bytes of `json.dumps(obj, indent=2, ensure_ascii=False)` with
    non-finite floats first replaced by None.  Keys must be str."""
    return _text(obj, "") + "\n"
