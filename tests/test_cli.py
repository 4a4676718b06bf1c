"""End-to-end command line behavior: exit codes, JSON shapes, determinism."""

import inspect
import json
import re
from pathlib import Path

import pytest

import milnorscope
from milnorscope import __version__
from milnorscope.cli import main

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
    assert doc["schema"] == "milnor-scope/1"
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


def test_transversality_kind_mismatch(capsys):
    code, _, err = run(capsys, ["transversality", G, "--kind", "realmap"] + FAST)
    assert code == 2
    assert err.startswith("error:")


# ----------------------------------------------------------------------
# fiber


def test_fiber_json(capsys):
    code, out, _ = run(capsys, ["fiber", FAILING_MAP, "--value", "1,0", "--eps", "3",
                                "--count", "300", "--no-timing"])
    assert code == 0
    doc = strict_json(out)
    fib = doc["fiber"]
    assert fib["schema"] == "milnor-scope/1"
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
    assert "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["transversality", FAILING_MAP, "--eps", ""],
    ["analyze", G, "--transversality-eps", ""],
    ["flow", G, "--point", "1,0,1,0", "--eps", ","],
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


def test_flow_default_time_grid(capsys):
    code, out, _ = run(capsys, ["flow", G, "--point", "1,0,0,0", "--no-timing"])
    assert code == 0
    doc = strict_json(out)
    assert len(doc["samples"]) == 7


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
