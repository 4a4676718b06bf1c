"""Command line interface.

Four subcommands: `analyze` runs the symbolic structure analysis of a
diagonal mixed polynomial; `transversality` runs the numerical
tangency search on one or more spheres; `fiber` samples a fiber inside
a ball; `flow` traces the radial flow through a point.  Output is JSON
(or CSV for fiber points); identical inputs with the same --rng-seed
and --no-timing produce byte-identical output.

Exit codes: 0 success (for `transversality`: the property held at
budget on every sphere), 1 transversality failed somewhere, 2 bad
input, 3 transversality inconclusive somewhere.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time

import numpy as np

from . import __version__, serialize
from .fiber import fiber_compare, inflate_to_sphere, rplus_flow, sample_fiber
from .mixed import DiagonalMixedPolynomial, complex_to_reals, reals_to_complex
from .parsing import ParseError, parse_mixed, parse_real_map
from .realpoly import RealPolynomialMap
from .structure import analyze, radial_weights
from .transversality import (DEFAULT_ITERS, DEFAULT_SEEDS, TOL_TANGENCY, TOL_V,
                             TransversalityVerdict, falsify_transversality)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _tool_header(command: str, text: str) -> dict:
    return {"schema": serialize.SCHEMA,
            "tool": {"name": "milnorscope", "version": __version__},
            "command": command, "input": text}


def _read_input(args) -> str:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    if args.expr is None:
        raise ParseError("no input: pass an expression or --file", 0)
    return args.expr


def _sniff_kind(text: str) -> str:
    # the real-map grammar declares variables by name: 'vars x,y';
    # the mixed grammar only ever uses 'vars=<int>'
    if re.search(r"vars\s*[A-Za-z_]", text):
        return "realmap"
    return "mixed"


def _parse_any(text: str, kind: str):
    kind = kind if kind != "auto" else _sniff_kind(text)
    if kind == "mixed":
        return parse_mixed(text)
    return parse_real_map(text)


def _as_real_map(obj) -> RealPolynomialMap:
    if isinstance(obj, DiagonalMixedPolynomial):
        return obj.to_real_map()
    return obj


def _floats(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"bad numeric list {text!r}", 0) from exc
    if not all(math.isfinite(v) for v in vals):
        raise ParseError(f"non-finite number in {text!r}", 0)
    return vals


def _float_list_arg(text: str) -> list[float]:
    # argparse prints only an ArgumentTypeError's own message
    try:
        vals = _floats(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not vals:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return vals


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_doc(args, doc: dict, t0: float) -> None:
    if not args.no_timing:
        doc["timing"] = {"seconds": time.perf_counter() - t0}
    _emit(args, serialize.dumps(doc))


def _falsify_each(args, obj, radii):
    # the real form is built only when there is a sphere to search
    if not radii:
        return []
    f = _as_real_map(obj)
    return [falsify_transversality(
                f, eps, seeds=args.seeds, iters=args.iters,
                rng_seed=args.rng_seed, tol_tangency=args.tol_tangency,
                tol_v=args.tol_v, margin=args.margin)
            for eps in radii]


# ----------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    text = _read_input(args)
    obj = _parse_any(text, args.kind)
    if not isinstance(obj, DiagonalMixedPolynomial):
        raise ParseError("analyze expects a diagonal mixed polynomial", 0)
    report = analyze(obj)
    trans = _falsify_each(args, obj, args.transversality_eps)
    doc = _tool_header("analyze", text)
    doc["structure"] = serialize.structure_json(report)
    if trans:
        doc["transversality"] = [serialize.transversality_json(r) for r in trans]
    _emit_doc(args, doc, t0)
    return EXIT_OK


def cmd_transversality(args) -> int:
    t0 = time.perf_counter()
    text = _read_input(args)
    f = _as_real_map(_parse_any(text, args.kind))
    reports = _falsify_each(args, f, args.eps)
    verdicts = [r.verdict for r in reports]
    doc = _tool_header("transversality", text)
    doc["map"] = serialize.map_json(f)
    doc["reports"] = [serialize.transversality_json(r) for r in reports]
    if any(v is TransversalityVerdict.FAILS for v in verdicts):
        code = EXIT_FAILS
        doc["aggregate_verdict"] = TransversalityVerdict.FAILS.value
    elif any(v is TransversalityVerdict.INCONCLUSIVE for v in verdicts):
        code = EXIT_INCONCLUSIVE
        doc["aggregate_verdict"] = TransversalityVerdict.INCONCLUSIVE.value
    else:
        code = EXIT_OK
        doc["aggregate_verdict"] = TransversalityVerdict.HOLDS.value
    doc["exit_code"] = code
    _emit_doc(args, doc, t0)
    return code


def cmd_fiber(args) -> int:
    t0 = time.perf_counter()
    text = _read_input(args)
    f = _as_real_map(_parse_any(text, args.kind))
    value = _floats(args.value)
    if len(value) != f.p:
        raise ParseError(f"--value needs {f.p} components, got {len(value)}", 0)
    if args.compare is not None:
        value2 = _floats(args.compare)
        if len(value2) != f.p:
            raise ParseError(f"--compare needs {f.p} components, got {len(value2)}", 0)
        cmp = fiber_compare(f, value, value2, args.eps, count=args.count,
                            rng_seed=args.rng_seed)
        doc = _tool_header("fiber", text)
        doc["compare"] = serialize.fiber_compare_json(cmp)
        _emit_doc(args, doc, t0)
        return EXIT_OK
    sample = sample_fiber(f, value, args.eps, count=args.count,
                          rng_seed=args.rng_seed)
    if args.format == "csv":
        _emit(args, serialize.fiber_csv(sample, f.var_names))
        return EXIT_OK
    doc = _tool_header("fiber", text)
    doc["fiber"] = serialize.fiber_json(sample)
    _emit_doc(args, doc, t0)
    return EXIT_OK


# overflow is written as null, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def cmd_flow(args) -> int:
    t0 = time.perf_counter()
    text = _read_input(args)
    obj = _parse_any(text, args.kind)
    if not isinstance(obj, DiagonalMixedPolynomial):
        raise ParseError("flow expects a diagonal mixed polynomial", 0)
    params = radial_weights(obj)
    coords = _floats(args.point)
    if len(coords) != 2 * obj.n:
        raise ParseError(
            f"--point needs {2 * obj.n} reals (x1,y1,...), got {len(coords)}", 0)
    z = reals_to_complex(coords)
    if args.t:
        ts = _floats(args.t)
    else:
        lo, hi, num = args.t_range
        ts = list(np.linspace(lo, hi, int(num)))
    if not all(t > 0 and math.isfinite(t) for t in ts):
        raise ParseError("flow times must be positive and finite", 0)
    base_val = obj.eval(z)
    samples = []
    for t in ts:
        zt = rplus_flow(params, t, z)
        val = obj.eval(zt)
        # a float64 power overflows to inf (written as null), not OverflowError
        predicted = (np.float64(t) ** params.degree) * base_val
        entry = {
            "t": float(t),
            "point": serialize.floatlist(complex_to_reals(zt)),
            "value": [val.real, val.imag],
            "equivariance_residual": abs(val - predicted),
        }
        # the same hypot as Python's complex abs, which can raise
        # OverflowError on overflowed parts
        mag = np.hypot(val.real, val.imag)
        entry["phase"] = [val.real / mag, val.imag / mag] if mag > 1e-12 else None
        samples.append(entry)
    doc = _tool_header("flow", text)
    doc["flow_params"] = serialize.flow_params_json(params)
    doc["base_point"] = coords
    doc["samples"] = samples
    inflations = []
    for eps in args.eps or []:
        t_star, z_star = inflate_to_sphere(params, z, eps)
        inflations.append({
            "eps": float(eps),
            "t_star": float(t_star),
            "point": serialize.floatlist(complex_to_reals(z_star)),
            "radius_error": abs(float(np.linalg.norm(z_star)) - eps),
        })
    if inflations:
        doc["inflate"] = inflations
    _emit_doc(args, doc, t0)
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="milnorscope",
        description="Fibration structure of diagonal mixed polynomials and "
                    "numerical transversality of real polynomial maps.",
        epilog="examples:\n"
               "  milnorscope analyze '(1+i) z1 z1~ - 2 z2^2 z2~^2'\n"
               "  milnorscope transversality '(x*y + z^2, x) vars x,y,z' --eps 1\n"
               "  milnorscope fiber '(x*y + z^2, x) vars x,y,z' --value 1,0 --eps 3\n"
               "  milnorscope flow 'z1 z1~ + z2^2 z2~^2' --point 1,0,1,0 --t 0.5,1,2\n",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("expr", nargs="?", help="polynomial or map expression")
        p.add_argument("--file", help="read the expression from a file")
        p.add_argument("--kind", choices=("auto", "mixed", "realmap"),
                       default="auto",
                       help="input grammar; auto detects 'vars <name>' maps")
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--rng-seed", type=int, default=0)
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock timing for reproducible bytes")

    def numeric(p):
        p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS)
        p.add_argument("--iters", type=int, default=DEFAULT_ITERS)
        p.add_argument("--tol-tangency", type=float, default=TOL_TANGENCY)
        p.add_argument("--tol-v", type=float, default=TOL_V)
        p.add_argument("--margin", type=float, default=None,
                       help="override the automatic |f| margin")

    pa = sub.add_parser("analyze", help="symbolic structure of a mixed polynomial")
    common(pa)
    numeric(pa)
    pa.add_argument("--transversality-eps", type=_float_list_arg, default=None,
                    metavar="LIST",
                    help="also run the tangency search on these sphere radii")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("transversality", help="tangency search on spheres")
    common(pt)
    numeric(pt)
    pt.add_argument("--eps", type=_float_list_arg, default=[1.0, 0.5, 0.25, 0.125],
                    metavar="LIST", help="comma-separated sphere radii")
    pt.set_defaults(func=cmd_transversality)

    pf = sub.add_parser("fiber", help="sample a fiber inside a ball")
    common(pf)
    pf.add_argument("--value", required=True, metavar="LIST",
                    help="comma-separated target value")
    pf.add_argument("--compare", metavar="LIST",
                    help="second target value; reports both component counts")
    pf.add_argument("--eps", type=float, default=1.0, help="ball radius")
    pf.add_argument("--count", type=int, default=2000, help="seed count")
    pf.add_argument("--format", choices=("json", "csv"), default="json")
    pf.set_defaults(func=cmd_fiber)

    pw = sub.add_parser("flow", help="trace the radial flow through a point")
    common(pw)
    pw.add_argument("--point", required=True, metavar="LIST",
                    help="real coordinates x1,y1,...,xn,yn")
    pw.add_argument("--t", metavar="LIST", help="comma-separated flow times")
    pw.add_argument("--t-range", nargs=3, type=float, default=(0.5, 2.0, 7),
                    metavar=("LO", "HI", "N"), help="evenly spaced flow times")
    pw.add_argument("--eps", type=_float_list_arg, default=None,
                    metavar="LIST", help="also inflate the point to these radii")
    pw.set_defaults(func=cmd_flow)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
