"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import bench
import oracles
import workloads
from spans import Tracer

CLI = bench.import_program()

# the per-layer metrics that are counts or ratios of counts, not times
COUNT_METRICS = [name for name in bench.PER_LAYER
                 if name.endswith((".calls", ".points", "points_per_call",
                                   "converged_frac", "newton_yield", "points_kept"))]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    jobs = workloads.make_jobs(workload, 7, 20)
    assert jobs == workloads.make_jobs(workload, 7, 20)
    assert jobs != workloads.make_jobs(workload, 8, 20)
    assert len(jobs) % workloads.ROUND[workload] == 0


def _small_jobs():
    # a few cheap jobs of every workload, so that every layer runs
    return (workloads.make_jobs("exact", 3, 1)[:20]
            + workloads.make_jobs("holds", 3, 1)[:1]
            + workloads.make_jobs("fails", 3, 1)[:1]
            + workloads.make_jobs("fiber", 3, 1)[:3])


def _traced_counts(jobs):
    tracer = Tracer()
    (_, res), _ = bench.run_passes(CLI, jobs, 1, math.inf, tracer=tracer)
    metrics = bench.per_layer(tracer)
    return res, {name: metrics[name] for name in COUNT_METRICS}


def test_layer_counts_repeat_exactly_at_one_seed():
    jobs = _small_jobs()
    first, counts = _traced_counts(jobs)
    second, again = _traced_counts(jobs)
    assert first.attempted == second.attempted == len(jobs)
    assert counts == again
    # every layer named in the metrics did some work on this mix
    assert all(counts[name] > 0 for name in COUNT_METRICS)


def test_uninstall_restores_the_program():
    realpoly = sys.modules["milnorscope.realpoly"]
    before = (CLI.main, CLI.falsify_transversality, realpoly.RealPolynomialMap.eval_many)
    tracer = Tracer()
    tracer.install()
    assert CLI.main is not before[0]
    tracer.uninstall()
    assert (CLI.main, CLI.falsify_transversality,
            realpoly.RealPolynomialMap.eval_many) == before


def test_best_seconds_takes_each_jobs_fastest_pass():
    # the second pass stopped at the deadline before its last job
    first = bench.PassResult(seconds=[0.3, 0.2, 0.5])
    second = bench.PassResult(seconds=[0.1, 0.4])
    assert bench.best_seconds([first, second]) == [0.1, 0.2, 0.5]


def test_wrong_expected_verdict_counts_as_failure():
    fails = workloads.make_jobs("fails", 5, 1)[0]
    claims_holds = dataclasses.replace(fails, kind="holds", expect=((1.0,),))
    g_ref = workloads.make_jobs("exact", 5, 1)[10]
    assert g_ref.expect == ("g",)
    claims_h_verdict = dataclasses.replace(g_ref, expect=("h",))
    (res,), _ = bench.run_passes(CLI, [claims_holds, claims_h_verdict, g_ref], 1, math.inf)
    assert res.attempted == 3
    assert [i for i, _, _ in res.failures] == [0, 1]
    assert "expected 0" in res.failures[0][2]


# A fails job that meets a defect of the program: after a failed step the
# continuation kicks the point and compares the next witness with the
# kicked point, not with the last certified one, so |f| rises inside the
# certified sequence (2.5e-6 -> 3.5e-4 here).  The oracle rightly flags it.
KICK_JOB = workloads.make_jobs("fails", 869812704, 20)[14]


@pytest.mark.xfail(strict=True, reason="program defect: |f| rises after a continuation kick")
def test_fails_job_after_a_continuation_kick_is_correct():
    (res,), _ = bench.run_passes(CLI, [KICK_JOB], 1, math.inf)
    assert res.failures == []


def test_fiber_closed_form_counts():
    assert workloads.fiber_components(1.0, 0.0, 3.0) == 2     # two lines
    assert workloads.fiber_components(9.5, 0.0, 3.0) == 0     # lines miss the ball
    assert workloads.fiber_components(1.0, 1.0, 3.0) == 1     # parabola through the ball
    assert workloads.fiber_components(4.0, 1.0, 3.0) == 2     # vertex outside: two arcs
    assert workloads.fiber_components(40.0, 1.0, 3.0) == 0


@pytest.mark.parametrize("seed", range(5))
def test_fiber_targets_have_the_designed_counts(seed):
    for job in workloads.make_jobs("fiber", seed, 60):
        if job.kind == "compare":
            assert job.expect == ((2, 1),)
        else:
            (c1, c2), expected, _ = job.expect
            assert expected == (2 if c2 == 0.0 else 1)


def test_failing_map_oracle():
    assert np.allclose(oracles.failing_map(np.array([0.0, 0.6, 0.8])), [0.64, 0.0])
    assert oracles.failing_sigma([0.6, 0.8, 0.0]) < 1e-12   # z = 0 plane is tangent
    assert oracles.failing_sigma([0.6, 0.0, 0.8]) > 0.1


def test_manifest_matches_the_benchmark():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
