"""The JSON diff of tools/same_output.py, which compares two trees' outputs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", TOOL)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)
first_difference = same_output.first_difference
field = same_output.field


def test_equal_documents_have_no_difference():
    doc = {"a": [1, {"b": 2.5}], "c": None}
    assert first_difference(doc, json.loads(json.dumps(doc)), "stdout") is None


def test_nested_key_path():
    a = {"reports": [{"witnesses": [{"f_norm": 0.5}]}, {"x": 1}]}
    b = {"reports": [{"witnesses": [{"f_norm": 0.25}]}, {"x": 1}]}
    assert first_difference(a, b, "stdout") == "stdout.reports[0].witnesses[0].f_norm"
    c = {"reports": [{"witnesses": [{"f_norm": 0.5}]}, {"y": 1}]}
    assert first_difference(a, c, "stdout") == "stdout.reports[1].x"


def test_key_order():
    a = json.loads('{"x": 1, "y": 2}')
    b = json.loads('{"y": 2, "x": 1}')
    assert a == b
    assert first_difference(a, b, "stdout") == "stdout (key order)"


def test_list_length():
    assert first_difference({"p": [1, 2]}, {"p": [1, 2, 3]}, "stdout") == "stdout.p (length)"
    assert first_difference([0, 1], [0, 2, 3], "stdout") == "stdout[1]"


def test_equal_values_of_different_types():
    a, b = json.loads('{"n": 1}'), json.loads('{"n": 1.0}')
    assert a == b
    assert first_difference(a, b, "stdout") == "stdout.n"
    assert first_difference(1, 1, "stdout") is None


def test_field_order_exit_stdout_stderr():
    a = {"exit": 2, "stdout": "", "stderr": "usage: milnorscope {analyze,flow} ...\n"}
    assert field(a, dict(a)) is None
    assert field(a, dict(a, stderr="usage: milnorscope {analyze} ...\n")) == "stderr"
    assert field(a, dict(a, exit=0, stderr="")) == "exit (2 vs 0)"
    b = {"exit": 0, "stdout": '{"n": 1}', "stderr": "x"}
    assert field(b, dict(b, stdout='{"n": 2}', stderr="y")) == "stdout.n"
    assert field(b, dict(b, stdout="n 2")) == "stdout"


def test_job_runner_records_stderr():
    argvs = [["flow", "z1 z1~", "--point", "1,0", "--t-range", "1", "2", "0"],
             ["analyze", "--bogus", "z1 z1~"]]
    done = subprocess.run([sys.executable, str(TOOL), "--run-jobs", str(ROOT / "src")],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          check=True)
    flow, bogus = [json.loads(line) for line in done.stdout.splitlines()]
    assert flow["exit"] == 2 and flow["stdout"] == ""
    assert flow["stderr"].startswith("error: --t-range N must be a positive integer")
    assert bogus["exit"] == 2
    assert "unrecognized arguments: --bogus" in bogus["stderr"]


def test_decisions_ignore_floats_and_stderr():
    def doc(f_norm, witnesses, verdict="FailsWithWitness", count=2):
        return json.dumps({
            "aggregate_verdict": verdict,
            "reports": [{"verdict": verdict, "eps": 0.25, "locus_count": 3,
                         "witnesses": [{"f_norm": f_norm}] * witnesses}],
            "fiber": {"converged": 1500, "component_count": count, "singular_count": 0,
                      "nn_median": f_norm, "points": [[f_norm, 0.0]]}})

    a = {"exit": 0, "stdout": doc(0.5, 2), "stderr": ""}
    moved = dict(a, stdout=doc(0.5000000000000001, 2), stderr="warning\n")
    assert field(a, moved) == "stdout.reports[0].witnesses[0].f_norm"
    assert field(a, moved, decisions=True) is None
    assert field(a, dict(a, stdout=doc(0.5, 3)), decisions=True) == \
        "stdout.reports[0].witnesses (count)"
    assert field(a, dict(a, stdout=doc(0.5, 2, "Inconclusive")), decisions=True) == \
        "stdout.aggregate_verdict"
    assert field(a, dict(a, stdout=doc(0.5, 2, count=1)), decisions=True) == \
        "stdout.fiber.component_count"
    assert field(a, dict(a, exit=2), decisions=True) == "exit (0 vs 2)"
    csv = {"exit": 0, "stdout": "x,y\n0.5,0.0\n", "stderr": ""}
    assert field(csv, dict(csv, stdout="x,y\n0.25,0.0\n"), decisions=True) == "stdout"
    error = {"exit": 2, "stdout": "", "stderr": "error: a\n"}
    assert field(error, dict(error, stderr="error: b\n"), decisions=True) is None


def test_decision_fields_keep_only_decisions():
    doc = {"schema": "milnor-scope/2", "compare": {"component_counts": [2, 1],
           "first": {"converged": 10, "eps": 3.0}, "note": "text"},
           "reports": [{"witnesses": [], "scale": 1.0}], "points": [[0.5, 1.5]]}
    assert same_output.decision_fields(doc) == {
        "compare": {"component_counts": [2, 1], "first": {"converged": 10}},
        "reports": [{"witnesses (count)": 0}]}
    assert same_output.decision_fields({"eps": 1.0, "points": [[0.5]]}) is None


def test_decision_fields_keep_whether_each_phase_is_defined():
    doc = {"samples": [{"t": 1.0, "phase": [0.6, 0.8]}, {"t": 2.0, "phase": None}]}
    assert same_output.decision_fields(doc) == {
        "samples": [{"phase (defined)": True}, {"phase (defined)": False}]}
    moved = {"samples": [{"t": 1.0, "phase": [0.6, 0.8000000000000002]}, {"t": 2.0, "phase": None}]}
    flipped = {"samples": [{"t": 1.0, "phase": [0.6, 0.8]}, {"t": 2.0, "phase": [1.0, 0.0]}]}
    record = {"exit": 0, "stderr": ""}
    a, b, c = (dict(record, stdout=json.dumps(d)) for d in (doc, moved, flipped))
    assert field(a, b, decisions=True) is None
    assert field(a, c, decisions=True) == "stdout.samples[1].phase (defined)"


def test_differences_lists_every_leaf_path():
    a = {"samples": [{"phase": None, "t": 1.0}, {"phase": [1.0, 0.0], "t": 2.0}],
         "inflate": [{"point": [0.5, 0.25], "t_star": 2.0}]}
    b = {"samples": [{"phase": [0.6, 0.8], "t": 1.0}, {"phase": [1.0, 0.0], "t": 2.0}],
         "inflate": [{"point": [0.5, 0.2500000000000001], "t_star": 2.0000000000000004}],
         "extra": 1}
    assert list(same_output.differences(a, b, "stdout")) == [
        "stdout.samples[0].phase", "stdout.inflate[0].point[1]",
        "stdout.inflate[0].t_star", "stdout.extra"]
    assert first_difference(a, b, "stdout") == "stdout.samples[0].phase"
    assert list(same_output.differences(a, json.loads(json.dumps(a)), "stdout")) == []


def test_report_counts_each_field_over_jobs(capsys):
    def record(phase, point):
        return {"exit": 0, "stderr": "",
                "stdout": json.dumps({"samples": [{"phase": phase}] * 2,
                                      "inflate": [{"point": point}]})}

    parent = [record(None, [1.0, 0.0]), record([1.0, 0.0], [1.0, 0.0]),
              record(None, [0.5, 0.5])]
    change = [record([1.0, 0.0], [1.0, 0.0]), record([1.0, 0.0], [1.0, 0.0]),
              record(None, [0.5000000000000001, 0.4999999999999999])]
    assert same_output.report("exact seed 1", parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "exact seed 1: job 0 differs at stdout.samples[0].phase",
        "exact seed 1: 2 of 3 jobs differ",
        "  stdout.samples[].phase: 2",
        "  stdout.inflate[].point[]: 2"]
    assert same_output.report("exact seed 1", parent, parent) == 0
    assert capsys.readouterr().out == \
        "exact seed 1: 3 jobs, stdout, stderr and exit codes identical\n"
