"""Benchmark of the milnorscope command line, end to end and per layer.

One process drives `milnorscope.cli.main(argv)` in a closed loop with a
single client: the next job starts when the previous one has returned
and its output has been checked.  The job list is fixed by the workload
and seed (see workloads.py).  Set-up cost is measured separately, in
fresh interpreters, because every command-line call pays it; the probes
are spread over the run so that their median spans the machine's load
over the run, not only at its start.

With --trace 0 the run goes over the job list workloads.PASSES times and
times each job by its fastest pass: the passes lie seconds apart, and
the shared machine this was tuned on slows down by up to 60% for seconds
at a time.  With --trace 1 it goes over the list once, running every job
untraced and then with spans at every layer boundary (see spans.py), and
reports the per-layer metrics of the traced runs plus the tracing
overhead, the difference of the two job-second totals.

The last line of standard output is the result as one JSON object; the
lines before it list every metric by name and unit, the environment and
any failed checks.  A fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import oracles
import probe
import workloads
from run import BLAS_ENV
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 3          # fresh interpreters behind one setup_s median
IMPORTTIME_RUNS = 3     # fresh interpreters under -X importtime (traced run)
PROBE_TIMEOUT_S = 60
# no job starts later than DEADLINE_FACTOR * --seconds into the run, nor
# later than DEADLINE_CAP_S, which keeps a run within 180 s
DEADLINE_FACTOR = 4
DEADLINE_CAP_S = 150
P90_MIN_JOBS = 100      # p90 needs at least 10 samples beyond it

# name -> unit; the names later changes refer to
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s", "peak_rss_mb": "MB"}
# printed and recorded, not in the result line: p90 exists only on
# workloads with enough jobs, failed_frac is 0 on a correct program, and
# the trace figures describe the benchmark rather than the program
EXTRA = {"job_s.p90": "s", "failed_frac": "ratio",
         "trace.overhead_frac": "ratio", "trace.spans": "count"}
PER_LAYER = {
    "realpoly.eval_many.calls": "count", "realpoly.eval_many.points": "count",
    "realpoly.eval_many.self_s": "s",
    "realpoly.grad_many.calls": "count", "realpoly.grad_many.points": "count",
    "realpoly.grad_many.self_s": "s",
    "realpoly.points_per_call": "points/call",
    "transversality.search.calls": "count", "transversality.search.self_s": "s",
    "transversality.search.converged_frac": "ratio",
    "transversality.falsify.self_s": "s",
    "fiber.sample.calls": "count", "fiber.sample.self_s": "s",
    "fiber.points_kept": "count", "fiber.newton_yield": "ratio",
    "sampling.calls": "count", "sampling.self_s": "s",
    "parsing.self_s": "s", "mixed.self_s": "s",
    "structure.analyze.calls": "count", "structure.analyze.self_s": "s",
    "serialize.self_s": "s", "cli.self_s": "s",
    "setup.sampling_import_s": "s", "setup.fiber_import_s": "s",
    "trace.overhead_s": "s",
}
# -X importtime packages behind the setup.* metrics
IMPORTS = {"setup.sampling_import_s": "scipy.stats", "setup.fiber_import_s": "scipy.spatial"}


class BenchError(Exception):
    """A failure of the benchmark itself; no result is printed."""


@dataclass
class PassResult:
    seconds: list[float] = field(default_factory=list)
    failures: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def add(self, i: int, job, seconds: float, reason: str | None) -> None:
        self.seconds.append(seconds)
        if reason is not None:
            self.failures.append((i, job.kind, reason))


def import_program():
    """milnorscope.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "milnorscope" / "cli.py").is_file():
        raise BenchError(f"no milnorscope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from milnorscope import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"imported milnorscope from {cli.__file__}, not {SRC}")
    return cli


# ----------------------------------------------------------------------
# running jobs


def run_job(cli, job) -> tuple[float, str | None]:
    """Wall seconds of one job and the reason its output is wrong, if it is."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:           # argparse rejects its arguments
        code = exc.code
    except Exception:                   # the run goes on; the job counts as failed
        dt = time.perf_counter() - t0
        return dt, "raised: " + traceback.format_exc().strip()
    dt = time.perf_counter() - t0
    reason = oracles.check(job, code, out.getvalue())
    if reason is not None and err.getvalue().strip():
        reason += f" (stderr: {err.getvalue().strip().splitlines()[-1]})"
    return dt, reason


def run_passes(cli, jobs, passes: int, deadline: float, setup=None,
               tracer: Tracer | None = None) -> tuple[list[PassResult], bool]:
    """Run the job list `passes` times; return each pass and whether the
    deadline cut the run short.

    With a tracer, each job runs untraced and at once again traced, and
    the two passes returned are the untraced and the traced runs: adjacent
    runs of one job see the same machine load, so their difference is the
    tracing overhead rather than load drift.  `setup`, if given, takes its
    remaining probes at evenly spread points of the run.
    """
    n = len(jobs)
    total = passes * n
    probe_at = set() if setup is None else {k * total // setup.runs
                                             for k in range(1, setup.runs)}
    results = [PassResult() for _ in range(passes if tracer is None else 2)]
    for step in range(total):
        p, i = divmod(step, n)
        if step in probe_at:
            setup.measure()
        if i == 0:
            gc.collect()
        if step and time.perf_counter() > deadline:     # the first job always runs
            return results, True
        job = jobs[i]
        if tracer is None:
            results[p].add(i, job, *run_job(cli, job))
            continue
        results[0].add(i, job, *run_job(cli, job))
        tracer.job = i
        tracer.install()
        try:
            results[1].add(i, job, *run_job(cli, job))
        finally:
            tracer.uninstall()
    return results, False


# ----------------------------------------------------------------------
# set-up in fresh interpreters


def import_times(text: str) -> dict[str, float]:
    """Cumulative seconds per module from `-X importtime` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


class SetupProbe:
    """Seconds from spawning a fresh interpreter until the probe is ready,
    one sample per `measure` call, for the first job of the list."""

    def __init__(self, job, runs: int, importtime: bool):
        self.cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
                    str(HERE / "probe.py"), str(SRC), job.kind, job.argv[1]]
        self.runs = runs
        self.importtime = importtime
        self.times: list[float] = []
        self.imports: list[dict[str, float]] = []

    def measure(self) -> None:
        errpath = OUT / f"probe-{os.getpid()}.stderr"
        with open(errpath, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, stderr=err,
                                    text=True, cwd=ROOT)
            watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        stderr = errpath.read_text(encoding="utf-8")
        errpath.unlink()
        if line.strip() != probe.READY or proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {tail[0]}")
        self.times.append(t1 - t0)
        if self.importtime:
            self.imports.append(import_times(stderr))


# ----------------------------------------------------------------------
# metrics


def best_seconds(passes: list[PassResult]) -> list[float]:
    """Each job's fastest run over the passes that reached it."""
    return [min(p.seconds[i] for p in passes if i < p.attempted)
            for i in range(passes[0].attempted)]


def end_to_end(setup: list[float], passes: list[PassResult]) -> dict[str, float]:
    best = best_seconds(passes)
    wrong = {i for p in passes for i, _, _ in p.failures}
    runs = sum(p.attempted for p in passes)
    m = {"setup_s": statistics.median(setup),
         "jobs_per_s": (len(best) - len(wrong)) / sum(best),
         "job_s.p50": statistics.median(best),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "failed_frac": sum(len(p.failures) for p in passes) / runs}
    if len(best) >= P90_MIN_JOBS:
        m["job_s.p90"] = statistics.quantiles(best, n=10)[-1]
    return m


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics that come from spans and counters."""
    summary, counts = tracer.summary(), tracer.counts

    def calls(name):
        return summary.get(name, (0, 0.0))[0]

    def self_s(name):
        return summary.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("realpoly.eval_many", "realpoly.grad_many"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.points"] = counts[f"{name}.points"]
        m[f"{name}.self_s"] = self_s(name)
    m["realpoly.points_per_call"] = ratio(
        m["realpoly.eval_many.points"] + m["realpoly.grad_many.points"],
        m["realpoly.eval_many.calls"] + m["realpoly.grad_many.calls"])
    m["transversality.search.calls"] = calls("transversality.search")
    m["transversality.search.self_s"] = self_s("transversality.search")
    m["transversality.search.converged_frac"] = ratio(
        counts["transversality.search.converged"], counts["transversality.search.attempted"])
    m["transversality.falsify.self_s"] = self_s("transversality.falsify")
    m["fiber.sample.calls"] = calls("fiber.sample")
    m["fiber.sample.self_s"] = self_s("fiber.sample")
    m["fiber.points_kept"] = counts["fiber.points_kept"]
    m["fiber.newton_yield"] = ratio(counts["fiber.points_kept"], counts["fiber.seeds"])
    m["sampling.calls"] = calls("sampling")
    m["sampling.self_s"] = self_s("sampling")
    for name in ("parsing", "mixed", "serialize", "cli"):
        m[f"{name}.self_s"] = self_s(name)
    m["structure.analyze.calls"] = calls("structure.analyze")
    m["structure.analyze.self_s"] = self_s("structure.analyze")
    return m


# ----------------------------------------------------------------------
# environment


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' unless the checkout is the top
    of a git repository (not a directory inside another one)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"commit": git_commit(), "cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "seed": seed}


# ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def untraced_run(cli, workload: str, jobs, deadline: float, setup: SetupProbe):
    passes, truncated = run_passes(cli, jobs, workloads.PASSES[workload], deadline, setup)
    m = end_to_end(setup.times, passes)
    metrics = {k: m[k] for k in END_TO_END}
    extra = {k: m[k] for k in EXTRA if k in m}
    return passes, truncated, metrics, extra


def traced_run(cli, jobs, deadline: float, setup: SetupProbe, spans_path: Path):
    tracer = Tracer()
    (untraced, traced), truncated = run_passes(cli, jobs, 1, deadline, setup, tracer)
    tracer.save(spans_path)
    overhead = sum(traced.seconds) - sum(untraced.seconds)
    metrics = per_layer(tracer)
    for metric, module in IMPORTS.items():
        metrics[metric] = statistics.median(t[module] for t in setup.imports)
    metrics["trace.overhead_s"] = overhead
    extra = {"trace.overhead_frac": overhead / sum(untraced.seconds),
             "trace.spans": len(tracer)}
    return [untraced, traced], truncated, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + min(DEADLINE_CAP_S, DEADLINE_FACTOR * args.seconds)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        cli = import_program()
        OUT.mkdir(exist_ok=True)
        jobs = workloads.make_jobs(args.workload, args.seed, args.seconds)
        setup = SetupProbe(jobs[0], IMPORTTIME_RUNS if args.trace else SETUP_RUNS,
                           importtime=bool(args.trace))
        setup.measure()     # the first probe, before any job: a broken set-up stops here
        probe.lazy_setup(jobs[0].kind, jobs[0].argv[1])
        if args.trace:
            passes, truncated, metrics, extra = traced_run(
                cli, jobs, deadline, setup, OUT / f"{args.workload}-seed{args.seed}-spans.npz")
            units = PER_LAYER
        else:
            passes, truncated, metrics, extra = untraced_run(cli, args.workload, jobs,
                                                             deadline, setup)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    env = environment(args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "jobs": len(jobs),
              "attempted": attempted, "failed": len(failures), "truncated": truncated,
              "setup_s": setup.times, "metrics": metrics, "extra": extra,
              "job_seconds": [p.seconds for p in passes],
              "failures": [{"job": i, "kind": k, "reason": r} for i, k, r in failures]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    runs = "once untraced and once traced" if args.trace else f"{len(passes)} passes"
    print(f"milnorscope benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"jobs: {len(jobs)} listed, run {runs}: {attempted} runs, {len(failures)} failed "
          f"(closed loop, one client)")
    if truncated:
        print(f"WARNING: the run reached its deadline and stopped early; "
              f"the metrics cover only the runs made")
    for i, kind, reason in failures[:20]:
        print(f"  FAILED job {i} ({kind}): {reason.splitlines()[-1]}")
    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<40} {value:.6g} {units.get(name) or EXTRA[name]}")
    if not args.trace and "job_s.p90" not in extra:
        print(f"  {'job_s.p90':<40} n/a ({len(jobs)} jobs, needs {P90_MIN_JOBS})")
    print(f"record: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0
