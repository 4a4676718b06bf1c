"""Run the milnorscope benchmark.

    python3 perfbench/run.py --workload {exact,holds,fails,fiber} \
        --seed N --seconds S --trace {0,1}

from the root of a checkout.  BLAS is pinned to one thread before numpy
loads: jobs are small, single-client and sequential, and one thread keeps
run-to-run timing steady.  See README.md beside this file.
"""

import os
import sys

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import bench   # imports numpy, so only after the pin
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
