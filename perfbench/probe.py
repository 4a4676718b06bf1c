"""Set-up probe: what a fresh `milnorscope` process pays before real work.

Run as `python3 probe.py SRC KIND TEXT`: imports `milnorscope.cli` from
SRC, does the lazy set-up of a job of the given kind on the input TEXT,
then prints `ready` and exits.  The benchmark times a fresh interpreter
from its start to that line.  `lazy_setup` is also imported by the
benchmark to warm its own process before timing.
"""

from __future__ import annotations

import re
import sys

READY = "ready"


def lazy_setup(kind: str, text: str) -> None:
    """Parse the input and do the first-call work its job kind needs.

    Numeric jobs compile the map's value and Jacobian evaluators and build
    a Sobol engine; exact jobs have no lazy state past parsing, so they run
    the structure analysis itself.
    """
    import numpy as np
    from milnorscope import analyze, parse_mixed, parse_real_map, sampling

    if kind in ("analyze", "reference", "flow"):
        analyze(parse_mixed(text))
        return
    # real maps name their variables ('vars x,y'), mixed polynomials do not
    real = re.search(r"vars\s*[A-Za-z_]", text) is not None
    f = parse_real_map(text) if real else parse_mixed(text).to_real_map()
    origin = np.zeros((1, f.n))
    f.eval_many(origin)
    f.grad_many(origin)
    draw = sampling.ball_points if kind in ("fiber", "compare") else sampling.sphere_points
    draw(f.n, 1, 1.0, 0)


def main(argv: list[str]) -> int:
    src, kind, text = argv
    sys.path.insert(0, src)
    import milnorscope.cli  # noqa: F401  (the import every CLI call pays)

    lazy_setup(kind, text)
    print(READY, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
