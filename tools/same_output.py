"""Check that two source trees print the same output on a benchmark job list.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC --workload W [W ...] --seed N [N ...]
                                 [--decisions]

PARENT_SRC and CHANGE_SRC are `src/` directories of two checkouts.  Each
workload is checked at each seed, in the order given.  A job list is the
one `perfbench/run.py --workload W --seed N` runs at the run length in
BENCHMARK.json (every job carries `--no-timing`).  Each tree
runs every job through `milnorscope.cli.main` in its own subprocess, with
BLAS on one thread as in the benchmark.  The exit code, stdout and
stderr of each job are compared.  The first differing job is printed
with its index and field (`exit`, a JSON key path into stdout, `stdout`
when it is not JSON, or `stderr`); then, for each workload and seed,
the number of differing jobs and how often each field differs over all
jobs, with list indices dropped (`stdout.inflate[].point[]: 4333`).
Exits 0 when everything matches, 1 when some job differs and 2 when a
job runner fails.

`--decisions` compares only what a job decides: the exit code and, in
its JSON, every `verdict`, `aggregate_verdict`, `locus_count`,
`critical_hits`, `component_count`, `component_counts`, `converged` and
`singular_count`, the length of every `witnesses` list, and whether each
flow `phase` is null (the flow's on-V decision).  Floats
that may move in their last bits (points, radii, norms) and stderr are
not compared; a stdout that is not JSON is compared whole.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DECISION_KEYS = frozenset({"verdict", "aggregate_verdict", "locus_count", "critical_hits",
                           "component_count", "component_counts", "converged",
                           "singular_count"})


def job_argvs(workload: str, seed: int) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return [list(job.argv) for job in workloads.make_jobs(workload, seed, seconds)]


def run_jobs(src: str) -> None:
    """Run the argv lists on stdin through cli.main from `src`; print one
    JSON line {"exit", "stdout", "stderr"} per job."""
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    from milnorscope import cli
    if Path(cli.__file__).resolve().parent.parent != src_dir:
        raise SystemExit(f"imported milnorscope from {cli.__file__}, not {src_dir}")
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse rejects its arguments
                code = exc.code
        print(json.dumps({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}),
              flush=True)


def differences(a, b, path: str):
    """Key path of every place where two parsed JSON values differ, in
    document order: a differing leaf, a key only one side has, a list
    length, or the key order of a dict."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                yield f"{path}.{key}"
            else:
                yield from differences(a[key], b[key], f"{path}.{key}")
        if a.keys() == b.keys() and list(a) != list(b):
            yield f"{path} (key order)"
    elif isinstance(a, list) and isinstance(b, list):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{k}]")
        if len(a) != len(b):
            yield f"{path} (length)"
    elif not (a == b and type(a) is type(b)):
        yield path


def first_difference(a, b, path: str) -> str | None:
    """Key path of the first place where two parsed JSON values differ."""
    return next(differences(a, b, path), None)


def decision_fields(doc):
    """The parts of a parsed output named by DECISION_KEYS, at their key
    paths, with each `witnesses` list replaced by its length and each
    `phase` by whether it is defined; None when doc holds none of them."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key == "witnesses":
                out["witnesses (count)"] = len(value)
            elif key == "phase":
                out["phase (defined)"] = value is not None
            elif key in DECISION_KEYS:
                out[key] = value
            else:
                found = decision_fields(value)
                if found is not None:
                    out[key] = found
        return out or None
    if isinstance(doc, list):
        found = [decision_fields(v) for v in doc]
        return found if any(v is not None for v in found) else None
    return None


def fields(a: dict, b: dict, decisions: bool = False):
    """Every field where two job records differ, first the exit code, then
    stdout (JSON key paths, or `stdout` when it is not JSON) and stderr."""
    if a["exit"] != b["exit"]:
        yield f"exit ({a['exit']} vs {b['exit']})"
        return
    if decisions:
        try:
            da, db = (decision_fields(json.loads(r["stdout"])) for r in (a, b))
        except json.JSONDecodeError:
            if a["stdout"] != b["stdout"]:
                yield "stdout"
            return
        yield from differences(da, db, "stdout")
        return
    if a["stdout"] != b["stdout"]:
        try:
            found = list(differences(json.loads(a["stdout"]), json.loads(b["stdout"]),
                                     "stdout"))
        except json.JSONDecodeError:
            found = []
        yield from found or ["stdout"]
    if a["stderr"] != b["stderr"]:
        yield "stderr"


def field(a: dict, b: dict, decisions: bool = False) -> str | None:
    return next(fields(a, b, decisions), None)


def compare(parent_src: str, change_src: str, workload: str, seed: int,
            decisions: bool = False) -> int:
    jobs = json.dumps(job_argvs(workload, seed))
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    procs = [subprocess.Popen([sys.executable, __file__, "--run-jobs", src],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
             for src in (parent_src, change_src)]
    outs = [p.communicate(jobs)[0] for p in procs]
    if any(p.returncode for p in procs):
        print("error: a job runner failed", file=sys.stderr)
        return 2
    parent, change = ([json.loads(line) for line in out.splitlines()] for out in outs)
    count = len(json.loads(jobs))
    if len(parent) != count or len(change) != count:
        print("error: a job runner stopped early", file=sys.stderr)
        return 2
    return report(f"{workload} seed {seed}", parent, change, decisions)


def report(label: str, parent: list, change: list, decisions: bool = False) -> int:
    """Print where two runs' job records differ: the first differing job and
    field, then the number of differing jobs and a count per field with
    list indices dropped.  Returns 1 when some job differs, else 0."""
    differing = 0
    counts = collections.Counter()
    for i, (a, b) in enumerate(zip(parent, change)):
        found = list(fields(a, b, decisions))
        if found and not differing:
            print(f"{label}: job {i} differs at {found[0]}")
        differing += bool(found)
        counts.update(re.sub(r"\[\d+\]", "[]", path) for path in found)
    if differing:
        print(f"{label}: {differing} of {len(parent)} jobs differ")
        for path, k in counts.items():
            print(f"  {path}: {k}")
        return 1
    same = "exit codes and decisions" if decisions else "stdout, stderr and exit codes"
    print(f"{label}: {len(parent)} jobs, {same} identical", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    ap.add_argument("--decisions", action="store_true",
                    help="compare exit codes, verdicts and counts only")
    args = ap.parse_args(argv)
    return max(compare(args.parent_src, args.change_src, workload, seed, args.decisions)
               for workload in args.workload for seed in args.seed)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-jobs"]:
        run_jobs(sys.argv[2])
        sys.exit(0)
    sys.exit(main())
