"""Seeded job lists for the four benchmark workloads.

A job is one `milnorscope` command line plus what its output must
satisfy.  Every list is a pure function of (workload, seed, seconds):
the seed draws the inputs, `seconds` only sets how many jobs there are,
so the same seed always gives the same jobs in the same order.

Every list holds whole rounds, and a round has the same job kinds in
the same slots at every seed, so runs with different seeds see the same
mix of cheap and expensive jobs.  The fiber targets, whose values set a
job's cost, are also spread over their range with seeded low-discrepancy
sequences rather than drawn independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("exact", "holds", "fails", "fiber")

# reference inputs of the acceptance suite
WORKED_TEXT = "(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~"
G_TEXT = "z1 z1~ + z2^2 z2~"
H_TEXT = "z1 z1~ - z2 z2~ + z3^2 z3~"
FAILING_TEXT = "(x*y + z^2, x) vars x,y,z"

HOLDS_EPS = (1.0, 0.5, 0.25)
FAILS_EPS = (1.0, 0.5, 0.25, 0.125)
FIBER_EPS = 3.0
FIBER_COUNT = 2000
FLOW_T_RANGE = ("0.8", "1.25", "5")
FLOW_EPS = 1.0

# Wall seconds per job on the reference machine (2-core Xeon, Python
# 3.11, numpy 2.4, scipy 1.17), averaged over a round.  They only turn
# --seconds into a job count; jobs_per_s is measured, not derived.
NOMINAL_JOB_S = {"exact": 0.003, "holds": 2.2, "fails": 0.7, "fiber": 1.0}
# jobs per round: a list always holds whole rounds, so its mix of job
# kinds is the same at every length
ROUND = {"exact": 10, "holds": 4, "fails": 4, "fiber": 4}
# times an untraced run goes over the whole list, timing each job by its
# fastest pass; the job count leaves room for all passes in --seconds.
# Repeats help jobs of a few milliseconds, which fit between the slow
# spells of a shared machine; a job of a second or more averages over
# them anyway and gains more from a longer, wider job list.
PASSES = {"exact": 3, "holds": 1, "fails": 1, "fiber": 1}

# Gaussian-rational coefficient directions and real multipliers; each
# generated polynomial draws two directions, so terms share directions
# and colinearity classes merge
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (-2, -1), (3, -2), (1, -3))
MULTIPLIERS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
               Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))

_GOLDEN = 0.6180339887498949
_SILVER = 0.4142135623730951


@dataclass(frozen=True)
class Job:
    """One command line and the facts its output is checked against."""

    kind: str                 # analyze | reference | flow | holds | fails | fiber | compare
    argv: tuple[str, ...]
    expect: tuple             # kind-specific, see oracles.check


def job_count(workload: str, seconds: float) -> int:
    """Whole rounds of jobs whose PASSES runs fill about `seconds` on the
    reference machine."""
    round_s = NOMINAL_JOB_S[workload] * ROUND[workload] * PASSES[workload]
    rounds = max(1, round(seconds / round_s))
    return rounds * ROUND[workload]


def make_jobs(workload: str, seed: int, seconds: float) -> list[Job]:
    """The fixed job list of one run."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    n = job_count(workload, seconds)
    return _GENERATORS[workload](rng, n)


def _rng_seed(rng) -> str:
    return str(int(rng.integers(0, 2 ** 31 - 1)))


def _sequence(rng, step: float):
    """Additive-recurrence points in [0, 1) from a seeded offset."""
    u = float(rng.random())
    while True:
        yield u
        u = (u + step) % 1.0


# ----------------------------------------------------------------------
# exact: analyze and flow on generated diagonal mixed polynomials


def _coeff_text(re: Fraction, im: Fraction) -> str:
    sign = "-" if im < 0 else "+"
    head = "-" if re < 0 else ""
    return f"({head}{abs(re)}{sign}{abs(im)} i)"


def _factor_text(j: int, a: int, b: int) -> str:
    parts = []
    if a:
        parts.append(f"z{j}" + (f"^{a}" if a > 1 else ""))
    if b:
        parts.append(f"z{j}~" + (f"^{b}" if b > 1 else ""))
    return " ".join(parts)


def random_terms(rng) -> tuple[tuple[int, int, int, Fraction, Fraction], ...]:
    """Terms (j, a, b, re, im) of a diagonal mixed polynomial.

    n is 2..6 and exponents 0..4; z1 gets a critical term (a = b) and z2
    a non-critical one, the rest either, so every polynomial has both.
    """
    n = int(rng.integers(2, 7))
    pool = [DIRECTIONS[i] for i in rng.choice(len(DIRECTIONS), size=2, replace=False)]
    terms = []
    for j in range(1, n + 1):
        critical = j == 1 or (j > 2 and rng.random() < 0.5)
        if critical:
            a = b = int(rng.integers(1, 5))
        else:
            a, b = (int(v) for v in rng.choice(5, size=2, replace=False))
        mu = MULTIPLIERS[int(rng.integers(0, len(MULTIPLIERS)))]
        d = pool[int(rng.integers(0, 2))]
        terms.append((j, a, b, mu * d[0], mu * d[1]))
    return tuple(terms)


def terms_text(terms) -> str:
    return " + ".join(f"{_coeff_text(re, im)} {_factor_text(j, a, b)}"
                      for j, a, b, re, im in terms)


def _exact_jobs(rng, n: int) -> list[Job]:
    refs = (("worked", WORKED_TEXT), ("g", G_TEXT), ("h", H_TEXT))
    jobs = []
    for k in range(n):
        slot = k % ROUND["exact"]
        if slot == 0:
            name, text = refs[(k // ROUND["exact"]) % len(refs)]
            jobs.append(Job("reference", ("analyze", text, "--no-timing"), (name,)))
            continue
        terms = random_terms(rng)
        text = terms_text(terms)
        if slot in (3, 6, 9):
            point = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 2 * len(terms)))
            # '--point=' form: a leading minus would read as an option
            argv = ("flow", text, "--point=" + ",".join(repr(v) for v in point),
                    "--t-range", *FLOW_T_RANGE, "--eps", repr(FLOW_EPS),
                    "--no-timing")
            jobs.append(Job("flow", argv, (terms, point, FLOW_EPS)))
        else:
            jobs.append(Job("analyze", ("analyze", text, "--no-timing"), (terms,)))
    return jobs


# ----------------------------------------------------------------------
# holds / fails: transversality on the reference maps


def _holds_jobs(rng, n: int) -> list[Job]:
    # one radius per job; a round is one G_POLY job, its radius cycling
    # over the rounds, then H_POLY on every radius (each about twice the
    # cost): the median job is then an H_POLY job, not the gap between
    # the two polynomials
    jobs = []
    for k in range(n):
        r, slot = divmod(k, ROUND["holds"])
        if slot == 0:
            text, eps = G_TEXT, HOLDS_EPS[r % len(HOLDS_EPS)]
        else:
            text, eps = H_TEXT, HOLDS_EPS[slot - 1]
        argv = ("transversality", text, "--eps", repr(eps), "--seeds", "128",
                "--iters", "300", "--rng-seed", _rng_seed(rng), "--no-timing")
        jobs.append(Job("holds", argv, ((eps,),)))
    return jobs


def _fails_jobs(rng, n: int) -> list[Job]:
    jobs = []
    for k in range(n):
        eps = FAILS_EPS[k % len(FAILS_EPS)]
        argv = ("transversality", FAILING_TEXT, "--eps", repr(eps),
                "--seeds", "256", "--rng-seed", _rng_seed(rng), "--no-timing")
        jobs.append(Job("fails", argv, (eps,)))
    return jobs


# ----------------------------------------------------------------------
# fiber: FAILING_MAP fibers, two lines or one parabola


def fiber_components(c1: float, c2: float, eps: float) -> int:
    """Closed-form component count of {(x*y + z^2, x) = (c1, c2)} in the eps-ball.

    For c2 = 0 the fiber is the lines x = 0, z = +-sqrt(c1).  For c2 != 0
    it is the parabola x = c2, y = (c1 - z^2)/c2; with s = z^2 its squared
    radius h(s) = c2^2 + (c1 - s)^2/c2^2 + s is convex, so the part in the
    ball is one z-interval when h(0) <= eps^2 and two mirrored ones when
    only some s > 0 qualifies.
    """
    r2 = eps * eps
    if c2 == 0.0:
        if c1 < 0.0 or c1 >= r2:
            return 0
        return 1 if c1 == 0.0 else 2

    def h(s):
        return c2 * c2 + (c1 - s) ** 2 / (c2 * c2) + s

    if h(0.0) <= r2:
        return 1
    s_star = c1 - c2 * c2 / 2.0
    return 2 if s_star > 0.0 and h(s_star) <= r2 else 0


def _fiber_jobs(rng, n: int) -> list[Job]:
    # a round is a line, two parabolas and a --compare of a line with a
    # parabola; lines cost least and compares most, so the median job is
    # the middle parabola rather than the gap between two job kinds.
    # lines: c1 in [0.25, 4]; parabolas: c1 in [0.25, 2] and
    # |c2| = sqrt(c1) * [0.8, 1.25], which keeps the vertex within
    # radius 2.1 of the origin, well inside the radius-3 ball
    line_c1 = _sequence(rng, _GOLDEN)
    para_c1 = _sequence(rng, _GOLDEN)
    para_k = _sequence(rng, _SILVER)
    para_sign = itertools.cycle((-1.0, 1.0))

    def line():
        return (round(0.25 + 3.75 * next(line_c1), 6), 0.0)

    def parabola():
        c1 = 0.25 + 1.75 * next(para_c1)
        c2 = next(para_sign) * math.sqrt(c1) * (0.8 + 0.45 * next(para_k))
        return (round(c1, 6), round(c2, 6))

    def value(c):
        return f"{c[0]!r},{c[1]!r}"

    jobs = []
    for k in range(n):
        common = ("--eps", repr(FIBER_EPS), "--count", str(FIBER_COUNT),
                  "--rng-seed", _rng_seed(rng), "--no-timing")
        slot = k % ROUND["fiber"]
        if slot < 3:
            c = line() if slot == 0 else parabola()
            argv = ("fiber", FAILING_TEXT, "--value", value(c)) + common
            jobs.append(Job("fiber", argv,
                            (c, fiber_components(*c, FIBER_EPS), FIBER_EPS)))
        else:
            c, d = line(), parabola()
            argv = ("fiber", FAILING_TEXT, "--value", value(c),
                    "--compare", value(d)) + common
            counts = (fiber_components(*c, FIBER_EPS), fiber_components(*d, FIBER_EPS))
            jobs.append(Job("compare", argv, (counts,)))
    return jobs


_GENERATORS = {"exact": _exact_jobs, "holds": _holds_jobs,
               "fails": _fails_jobs, "fiber": _fiber_jobs}
