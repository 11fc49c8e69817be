"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 0-9 --out runs.json \\
        [--seconds 40] [--workloads tradeoff fading scale] [--trace 0]

Each run is a separate ``run.py`` process, one at a time.  For every
workload and metric the summary holds the values, their median, quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench import WORKLOADS
from make_reference import seed_range

HERE = Path(__file__).resolve().parent


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=range(10))
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4)
                   for k, v in result["metrics"].items()}, flush=True)
        names = runs[0]["result"]["metrics"]
        out["workloads"][workload] = {
            "environment": runs[0]["detail"]["environment"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "seeds": list(args.seeds),
            "runs": [{"seed": r["seed"], "samples": r["detail"]["samples"],
                      "host_factor": r["detail"]["host_factor"],
                      "unscaled": r["detail"]["unscaled"],
                      "layer_share": r["detail"].get("layer_share")}
                     for r in runs],
            "metrics": {
                name: {"unit": runs[0]["result"]["metrics"][name]["unit"],
                       **summarise([r["result"]["metrics"][name]["value"]
                                    for r in runs])}
                for name in names},
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
