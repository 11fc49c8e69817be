"""Regenerate the checked-in reference rows; run from the repository root.

    python3 perfbench/make_reference.py [--seeds 0-9] [--workloads tradeoff ...]

Writes reference/<workload>/seed-<n>.csv, the untraced sweep output of the
current code.  Only regenerate them on purpose: a change that moves any row
by more than 1e-12 relative fails the benchmark's correctness gate.
"""

import argparse
import shutil
import sys

import run


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    run.pin_blas()
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=range(10))
    parser.add_argument("--workloads", nargs="+", choices=bench.WORKLOADS,
                        default=bench.WORKLOADS)
    args = parser.parse_args()
    bench.OUT_DIR.mkdir(exist_ok=True)
    for workload in args.workloads:
        target = bench.REFERENCE_DIR / workload
        target.mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            out = bench.OUT_DIR / f"reference-{workload}-{seed}.csv"
            rep = bench.run_sweep(workload, seed, out, traced=False)
            n_points = bench.expected_points(workload, seed)
            if bench.failed_points(rep, n_points, None, None):
                print(f"{workload} seed {seed}: failing points, not written",
                      file=sys.stderr)
                return 1
            shutil.copyfile(out, target / f"seed-{seed}.csv")
            out.unlink()
            out.with_name(out.stem + "_summary.csv").unlink()
            print(f"{workload} seed {seed}: {n_points} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
