"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload tradeoff --seed 0 --seconds 30 --trace 0

Prints a detail record (environment, per-repetition samples) and, as the
last line, the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys
from pathlib import Path

# BLAS runs single-threaded so that timings do not depend on how many of
# the machine's cores happen to be free; set before numpy is imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "hiersense" / "__init__.py").is_file():
        print(f"error: no hiersense sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    pin_blas()
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
