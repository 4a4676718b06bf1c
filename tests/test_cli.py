"""End-to-end command line behavior: exit codes, JSON shapes, determinism."""

import contextlib
import inspect
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milnorscope
from milnorscope import __version__, structure
from milnorscope.cli import SUBCOMMANDS, build_parser, main

FAILING_MAP = "(x*y + z^2, x) vars x,y,z"
G = "z1 z1~ + z2^2 z2~"
WORKED = "(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~"

FAST = ["--seeds", "48", "--iters", "150", "--no-timing"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        strict_json(captured.out)  # every JSON output must be RFC 8259
    return code, captured.out, captured.err


def strict_json(text):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are errors."""
    def reject(name):
        raise ValueError(f"not RFC 8259 JSON: {name}")
    return json.loads(text, parse_constant=reject)


# ----------------------------------------------------------------------
# analyze


def test_analyze_worked_example(capsys):
    code, out, err = run(capsys, ["analyze", WORKED, "--no-timing"])
    assert code == 0
    assert err == ""
    doc = strict_json(out)
    assert doc["schema"] == "milnor-scope/2"
    assert doc["command"] == "analyze"
    assert doc["input"] == WORKED
    s = doc["structure"]
    assert s["critical_indices"] == [1, 2]
    assert s["verdict"]["kind"] == "FibrationMainTheorem"
    assert s["radial_weights"] == {"degree": 12, "weights": [6, 3, 4]}
    assert [c["direction"] for c in s["classes"]] == [
        {"re": "1", "im": "1"}, {"re": "-2", "im": "-1"}]
    assert "timing" not in doc


def test_analyze_timing_present_by_default(capsys):
    code, out, _ = run(capsys, ["analyze", "z1 z1~"])
    assert code == 0
    doc = strict_json(out)
    assert doc["timing"]["seconds"] >= 0


def test_analyze_with_attached_transversality(capsys):
    code, out, _ = run(capsys, ["analyze", G, "--transversality-eps", "1"] + FAST)
    assert code == 0
    doc = strict_json(out)
    assert len(doc["transversality"]) == 1
    assert doc["transversality"][0]["verdict"] == "HoldsAtBudget"


def test_analyze_builds_the_partition_once(capsys, monkeypatch):
    calls = []
    build = structure.colinearity_classes

    def counted(psi):
        calls.append(psi)
        return build(psi)

    monkeypatch.setattr(structure, "colinearity_classes", counted)
    code, out, _ = run(capsys, ["analyze", WORKED, "--no-timing"])
    assert code == 0
    assert strict_json(out)["structure"]["verdict"]["kind"] == "FibrationMainTheorem"
    assert len(calls) == 1


def test_analyze_rejects_real_maps(capsys):
    code, out, err = run(capsys, ["analyze", FAILING_MAP])
    assert code == 2
    assert out == ""
    assert err.startswith("error: analyze expects a diagonal mixed polynomial")


# ----------------------------------------------------------------------
# transversality


def test_transversality_failure_exit_code(capsys):
    code, out, _ = run(capsys, ["transversality", FAILING_MAP, "--eps", "1"] + FAST)
    assert code == 1
    doc = strict_json(out)
    assert doc["aggregate_verdict"] == "FailsWithWitness"
    assert doc["exit_code"] == 1
    assert doc["map"]["n"] == 3 and doc["map"]["p"] == 2
    rep = doc["reports"][0]
    assert rep["verdict"] == "FailsWithWitness"
    assert len(rep["witnesses"]) >= 3
    fns = [w["f_norm"] for w in rep["witnesses"]]
    assert all(b <= a / 10 for a, b in zip(fns, fns[1:]))


def test_transversality_holds_on_mixed_input(capsys):
    code, out, _ = run(capsys, ["transversality", G, "--eps", "1,0.5"] + FAST)
    assert code == 0
    doc = strict_json(out)
    assert doc["aggregate_verdict"] == "HoldsAtBudget"
    assert [r["eps"] for r in doc["reports"]] == [1.0, 0.5]


def test_transversality_inconclusive_exit_code(capsys):
    code, out, _ = run(capsys, ["transversality", FAILING_MAP, "--eps", "1",
                                "--seeds", "1", "--iters", "1", "--no-timing"])
    assert code == 3
    doc = strict_json(out)
    assert doc["aggregate_verdict"] == "Inconclusive"


def test_empty_locus_is_strict_json(capsys):
    code, out, _ = run(capsys, ["transversality", FAILING_MAP, "--eps", "1",
                                "--seeds", "8", "--iters", "0", "--no-timing"])
    assert code == 3
    rep = strict_json(out)["reports"][0]
    assert rep["locus_count"] == 0
    assert rep["min_locus_f_norm"] is None


def test_transversality_rejects_negative_radius(capsys):
    code, _, err = run(capsys, ["transversality", FAILING_MAP, "--eps", "-1"] + FAST)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["transversality", FAILING_MAP, "--eps", "1", "--rng-seed", "-1"] + FAST,
    ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "3", "--rng-seed", "-1", "--no-timing"],
], ids=["transversality", "fiber"])
def test_negative_rng_seed_is_bad_input(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: rng_seed must be a non-negative integer, got -1\n"


# ----------------------------------------------------------------------
# fiber


def test_fiber_json(capsys):
    code, out, _ = run(capsys, ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "3",
                                "--count", "300", "--no-timing"])
    assert code == 0
    doc = strict_json(out)
    fib = doc["fiber"]
    assert fib["schema"] == "milnor-scope/2"
    assert fib["component_count"] == 2
    assert fib["converged"] > 100
    assert len(fib["points"]) == fib["converged"]
    assert len(fib["labels"]) == fib["converged"]
    assert fib["residual_max"] <= fib["tol"]


def test_fiber_csv(capsys):
    code, out, _ = run(capsys, ["fiber", FAILING_MAP, "--value", "0,1", "--eps", "3",
                                "--count", "200", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,component,residual"
    assert len(lines) > 50
    cells = lines[1].split(",")
    assert len(cells) == 5
    assert abs(float(cells[0]) - 1.0) < 1e-8  # the fiber fixes x = 1
    assert float(cells[4]) <= 1e-10


def test_fiber_compare(capsys):
    code, out, _ = run(capsys, ["fiber", FAILING_MAP, "--value", "1,0",
                                "--compare", "0,1", "--eps", "3",
                                "--count", "300", "--no-timing"])
    assert code == 0
    doc = strict_json(out)
    assert doc["compare"]["component_counts"] == [2, 1]
    assert "points" not in doc["compare"]["first"]


def test_fiber_value_dimension_error(capsys):
    code, _, err = run(capsys, ["fiber", FAILING_MAP, "--value", "1"])
    assert code == 2
    assert "--value needs 2 components" in err


def test_negative_list_needs_the_equals_form(capsys):
    # argparse takes "-0.05,0" for an option, not a value: only the
    # attached form, which README and --help name, passes it
    for argv in (["fiber", FAILING_MAP, "--value", "-0.05,0"],
                 ["flow", G, "--point", "-1,0,1,0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-timing"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "expected one argument" in captured.err
    code, out, _ = run(capsys, ["fiber", FAILING_MAP, "--value=-0.05,0", "--compare=-1,0",
                                "--eps", "3", "--count", "100", "--no-timing"])
    assert code == 0
    doc = strict_json(out)["compare"]
    assert doc["first"]["target"] == [-0.05, 0.0]
    assert doc["second"]["target"] == [-1.0, 0.0]
    code, out, _ = run(capsys, ["flow", G, "--point=-1,0,1,0", "--t", "1", "--no-timing"])
    assert code == 0
    assert strict_json(out)["samples"][0]["point"] == [-1.0, 0.0, 1.0, 0.0]


def test_fiber_bad_numeric_list(capsys):
    code, _, err = run(capsys, ["fiber", FAILING_MAP, "--value", "1,a"])
    assert code == 2
    assert "bad numeric list" in err


@pytest.mark.parametrize("argv", [
    ["fiber", FAILING_MAP, "--value", "nan,0"],
    ["fiber", FAILING_MAP, "--value", "1,0", "--compare", "0,inf"],
    ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "nan"],
    ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "inf"],
    ["transversality", FAILING_MAP, "--eps", "nan"],
    ["transversality", FAILING_MAP, "--eps", "1,inf"],
    ["analyze", G, "--transversality-eps", "nan"],
    ["flow", G, "--point", "1,0,1,0", "--eps", "nan"],
    ["flow", G, "--point", "1,nan,1,0"],
    ["flow", G, "--point", "1,0,1,0", "--t", "1,inf"],
    ["analyze", G, "--transversality-eps", "1", "--seeds", "0"],
    ["transversality", FAILING_MAP, "--eps", "1", "--margin", "nan"],
    ["transversality", FAILING_MAP, "--eps", "1", "--margin", "-1"],
    ["transversality", FAILING_MAP, "--eps", "1", "--tol-v", "nan"],
    ["transversality", FAILING_MAP, "--eps", "1", "--tol-tangency", "inf"],
    ["transversality", FAILING_MAP, "--eps", "1", "--iters", "-5"],
    ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "3", "--count", "0"],
    ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "3", "--count", "-3"],
    ["fiber", FAILING_MAP, "--value", "1,0", "--compare", "2,0", "--format", "csv"],
])
def test_non_finite_numbers_are_bad_input(capsys, argv):
    # list options parsed by argparse exit through SystemExit
    try:
        code = main(argv + ["--no-timing"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if "csv" in argv:
        assert captured.err == ("error: --compare writes a JSON comparison; it "
                                "cannot be combined with --format csv\n")
    else:
        assert "finite" in captured.err
    if "--count" in argv:
        count = argv[argv.index("--count") + 1]
        assert captured.err == f"error: count must be positive and finite, got {count}\n"


@pytest.mark.parametrize("argv", [
    ["transversality", FAILING_MAP, "--eps", ""],
    ["analyze", G, "--transversality-eps", ""],
    ["flow", G, "--point", "1,0,1,0", "--eps", ","],
    # an empty --t must not fall back to the --t-range grid
    ["flow", G, "--point", "1,0,1,0", "--t", ""],
    ["flow", G, "--point", "1,0,1,0", "--t", ","],
])
def test_empty_radius_list_is_bad_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-timing"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "empty list" in captured.err


@pytest.mark.parametrize("text", ["(x^400*y + z^2, x) vars x,y,z",
                                  "(x^2000*y + z^2, x) vars x,y,z"])
def test_evaluator_overflow_is_bad_input(capsys, text):
    code, out, err = run(capsys, ["transversality", text, "--eps", "3",
                                  "--seeds", "16", "--iters", "20", "--no-timing"])
    assert code == 2
    assert out == ""
    assert "overflow" in err


# ----------------------------------------------------------------------
# flow


def test_flow_trace(capsys):
    code, out, _ = run(capsys, ["flow", G, "--point", "1,0,1,0",
                                "--t", "0.5,1,2", "--eps", "1,2",
                                "--no-timing"])
    assert code == 0
    doc = strict_json(out)
    assert doc["flow_params"] == {"degree": 6, "weights": [3, 2]}
    assert [s["t"] for s in doc["samples"]] == [0.5, 1.0, 2.0]
    for s in doc["samples"]:
        assert s["equivariance_residual"] <= 1e-9
        assert s["phase"] is not None
    assert doc["samples"][1]["point"] == [1.0, 0.0, 1.0, 0.0]
    for inf in doc["inflate"]:
        assert inf["radius_error"] <= 1e-12
    assert doc["inflate"][0]["t_star"] < 1 < doc["inflate"][1]["t_star"]


def test_flow_inflates_onto_the_sphere_at_every_radius(capsys):
    code, out, err = run(capsys, ["flow", G, "--point", "0.3,0.1,0.2,-0.5", "--t", "1",
                                  "--eps", "1e-20,1e-8,1e200", "--no-timing"])
    assert (code, err) == (0, "")
    for inf in strict_json(out)["inflate"]:
        radius = math.hypot(*inf["point"])
        assert abs(radius - inf["eps"]) <= 1e-12 * inf["eps"]
        assert inf["radius_error"] <= 1e-12 * inf["eps"]


@pytest.mark.parametrize("x1, eps", [("1e-300", 1e300), ("1e-100", 1e250)])
def test_flow_inflation_beyond_float_range_of_t(capsys, x1, eps):
    # t = eps / x1 (1e600, 1e350) is no float: t_star is null, the point
    # still lands
    code, out, err = run(capsys, ["flow", "z1^3 z1~^3 + z2 z2~", f"--point={x1},0,0,0",
                                  "--t", "1", "--eps", repr(eps), "--no-timing"])
    assert (code, err) == (0, "")
    inf = strict_json(out)["inflate"][0]
    assert inf["t_star"] is None
    assert math.hypot(*inf["point"]) == pytest.approx(eps, rel=1e-12)


def test_flow_phase_is_relative_to_the_terms(capsys):
    # psi = 2e-18 at t = 1e-3, far from V in the scale of its terms
    code, out, _ = run(capsys, ["flow", G, "--point", "1,0,1,0", "--t", "1e-3",
                                "--no-timing"])
    assert code == 0
    assert strict_json(out)["samples"][0]["phase"] == [1.0, 0.0]


def test_flow_default_time_grid(capsys):
    code, out, _ = run(capsys, ["flow", G, "--point", "1,0,0,0", "--no-timing"])
    assert code == 0
    doc = strict_json(out)
    assert len(doc["samples"]) == 7


def test_flow_phase_survives_underflow(capsys):
    # psi and every term underflow at z1 = 1e-200; the orbit's phase is 1
    code, out, _ = run(capsys, ["flow", G, "--point", "1e-200,0,0,0", "--t", "2",
                                "--no-timing"])
    assert code == 0
    assert strict_json(out)["samples"][0]["phase"] == [1.0, 0.0]


def test_flow_multiplies_before_it_overflows(capsys):
    # t^20 = 1e400 is no float, but t^20 z1 = 1e100 is
    code, out, err = run(capsys, ["flow", "z1 z1~ + z2^20 z2~^20",
                                  "--point", "1e-300,0,1e-10,0", "--t", "1e20", "--no-timing"])
    assert (code, err) == (0, "")
    point = strict_json(out)["samples"][0]["point"]
    assert point[0] == pytest.approx(1e100, rel=1e-15)
    assert point[2] == pytest.approx(1e10, rel=1e-15)
    assert point[1] == point[3] == 0.0


def test_flow_phase_null_on_zero_set(capsys):
    code, out, _ = run(capsys, ["flow", "z1 z1~ - z2 z2~", "--point", "1,0,1,0",
                                "--t", "1,2", "--no-timing"])
    assert code == 0
    doc = strict_json(out)
    assert all(s["phase"] is None for s in doc["samples"])


@pytest.mark.parametrize("argv", [
    ["flow", "z1^20 z1~^20", "--point", "10,0", "--t", "1e9"],
    ["flow", "z1 z1~ + z2^20 z2~^20", "--point", "1,0,1,0", "--t", "1e20"],
])
def test_flow_overflow_is_null(capsys, argv):
    # t^degree (first) and t^{p_j} (second) overflow float64
    code, out, _ = run(capsys, argv + ["--no-timing"])
    assert code == 0
    sample = strict_json(out)["samples"][0]
    assert sample["equivariance_residual"] is None
    assert None in sample["value"]


@pytest.mark.parametrize("num", ["0", "2.5", "-1", "1e30", "nan", "inf"])
def test_flow_time_count_must_be_a_positive_integer(capsys, num):
    code, out, err = run(capsys, ["flow", G, "--point", "1,0,1,0",
                                  "--t-range", "1", "2", num, "--no-timing"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --t-range N must be a positive integer")


def test_flow_single_time(capsys):
    code, out, _ = run(capsys, ["flow", G, "--point", "1,0,1,0",
                                "--t-range", "1.5", "2", "1", "--no-timing"])
    assert code == 0
    assert [s["t"] for s in strict_json(out)["samples"]] == [1.5]


def test_flow_errors(capsys):
    code, _, err = run(capsys, ["flow", G, "--point", "1,0"])
    assert code == 2 and "--point needs 4 reals" in err
    code, _, err = run(capsys, ["flow", G, "--point", "1,0,1,0", "--t", "0,1"])
    assert code == 2 and "must be positive" in err
    code, _, err = run(capsys, ["flow", FAILING_MAP, "--point", "1,0,1,0"])
    assert code == 2 and "flow expects" in err
    code, _, err = run(capsys, ["flow", "z2 z2~", "--point", "1,0,1,0"])
    assert code == 2 and "no term in z1" in err


# ----------------------------------------------------------------------
# plumbing


def test_byte_determinism(capsys):
    argv = ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "3", "--count", "200",
            "--rng-seed", "2", "--no-timing"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2

    argv = ["transversality", FAILING_MAP, "--eps", "0.5", "--rng-seed", "2"] + FAST
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["analyze", WORKED, "--no-timing"]
    _, out, _ = run(capsys, argv)
    code, out2, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert out2 == ""
    assert target.read_text() == out


def test_file_input(tmp_path, capsys):
    src = tmp_path / "poly.txt"
    src.write_text(WORKED + "\n")
    code, out, _ = run(capsys, ["analyze", "--file", str(src), "--no-timing"])
    assert code == 0
    assert strict_json(out)["structure"]["verdict"]["kind"] == "FibrationMainTheorem"


def test_missing_input(capsys):
    code, _, err = run(capsys, ["analyze"])
    assert code == 2
    assert "no input" in err


def test_unreadable_file_is_bad_input(tmp_path, capsys):
    code, _, err = run(capsys, ["analyze", "--file", str(tmp_path / "absent.txt")])
    assert code == 2
    assert err.startswith("error:")


def _outcome(capsys, parse):
    try:
        code = parse()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a complete call, then calls with an option short of its value or a
# required option missing
_CALLS = {
    "analyze": [["analyze", G], ["analyze", "--seeds"],
                ["analyze", G, "--transversality-eps"]],
    "transversality": [["transversality", FAILING_MAP],
                       ["transversality", FAILING_MAP, "--eps"]],
    "fiber": [["fiber", FAILING_MAP, "--value", "1,0"], ["fiber", FAILING_MAP],
              ["fiber", FAILING_MAP, "--value"]],
    "flow": [["flow", G, "--point", "1,0,1,0"], ["flow", G],
             ["flow", G, "--point", "1,0,1,0", "--t-range", "1", "2"]],
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_subcommand_parser_answers_like_the_full_parser(capsys, command):
    # main builds only the named subcommand's parser; whatever argparse
    # prints or exits with must be what the parser of all four gives.
    # Unknown options after a complete call are reported by the top-level
    # parser, whose usage line lists every subcommand.
    complete, *incomplete = _CALLS[command]
    argvs = [complete + ["--bogus"], complete + ["--version"], [command, "--help"],
             *incomplete, ["--help"], ["--version"], ["bogus", G], [], ["--bogus"]]
    for argv in argvs:
        got = _outcome(capsys, lambda: main(list(argv)))
        want = _outcome(capsys, lambda: build_parser().parse_args(list(argv)))
        assert got == want, argv
        assert got[0] in (0, 2), argv
        assert (got[1] if got[0] == 0 else got[2]) != "", argv


def test_help_follows_the_terminal_width(capsys, monkeypatch):
    # argparse never breaks inside one bracketed usage group, so a usage
    # line may overrun the width by that group alone
    texts = []
    for columns in (40, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        texts.append(capsys.readouterr().out)
        usage, rest = texts[-1].split("\n\n", 1)
        for line in usage.splitlines():
            assert len(line) <= columns or line.lstrip().count("[") == 1, line
        for line in rest.splitlines():
            assert len(line) <= columns, line
    assert texts[0] != texts[1]


# inputs from a small token grammar: diagonal mixed polynomials in
# z1..zn, the same with one token of the grammar (or one it does not
# know) put in somewhere, and soups of all those tokens
_COEFFS = ["", "2", "3", "1/2", "0.5", "i", "(1+i)", "(2-3/4i)", "(-i)"]
_BROKEN = ["+", "-", "^", "(", ")", "~", "z", "z0", "conj(", "vars=2", "vars=", "vars x",
           ",", "@", "1/", "x", "1.5.2", "^-1", "i i", "z1", "z2~", "0", "1/0"]


@st.composite
def _polynomials(draw):
    n = draw(st.integers(1, 3))
    terms = []
    for j in draw(st.permutations(range(1, n + 1))):
        a, b = draw(st.tuples(st.integers(0, 4), st.integers(0, 4))
                    .filter(lambda ab: sum(ab) > 0))
        parts = [f"z{j}" + (f"^{a}" if a > 1 else "")] if a else []
        if b:
            parts.append(draw(st.sampled_from([f"z{j}~", f"conj(z{j})"]))
                         + (f"^{b}" if b > 1 else ""))
        sign = draw(st.sampled_from(["+", "-"]))
        terms += [sign, draw(st.sampled_from(_COEFFS)), *draw(st.permutations(parts))]
    return n, " ".join(t for t in terms[1:] if t) if terms[0] == "+" else " ".join(terms)


@st.composite
def _polynomial_texts(draw):
    n, text = draw(_polynomials())
    kind = draw(st.sampled_from(["valid", "valid", "one token", "soup"]))
    if kind == "one token":
        tokens = text.split()
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_BROKEN)))
        text = " ".join(tokens)
    elif kind == "soup":
        text = " ".join(draw(st.lists(st.sampled_from(_COEFFS + _BROKEN), min_size=1,
                                      max_size=6)))
    return n, text


@st.composite
def _number_lists(draw, size):
    items = draw(st.lists(st.sampled_from(["0", "1", "-1", "0.5", "2", "-0", "1e300", "3e-5"]),
                          min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:
        items.insert(draw(st.integers(0, size)), draw(st.sampled_from(["x", "nan", "", "1,,"])))
    return ",".join(items)


@st.composite
def _cli_calls(draw):
    n, text = draw(_polynomial_texts())
    if draw(st.booleans()):
        return ["analyze", text]
    size = draw(st.one_of(st.just(2 * n), st.just(2 * n), st.integers(1, 6)))
    argv = ["flow", text, "--point=" + draw(_number_lists(size))]
    if draw(st.booleans()):
        argv.append("--t=" + draw(_number_lists(draw(st.integers(1, 3)))))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cli_calls())
def test_cli_answers_with_a_report_or_a_stated_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # any exception but argparse's SystemExit fails the test as a traceback
        try:
            code = main(argv + ["--no-timing"])
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), argv
    if code == 0:
        strict_json(out)
        assert err == ""
    else:
        assert out == ""
        assert "error:" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# ----------------------------------------------------------------------
# the package root


def test_exports_match_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    imported = set()
    for block in re.findall(r"from milnorscope import \(([^)]*)\)", section):
        imported |= set(re.findall(r"\w+", re.sub(r"#.*", "", block)))
    exported = {name for name, value in vars(milnorscope).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported - imported) == []
    assert sorted(imported - exported) == []
