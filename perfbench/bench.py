"""Seeded sweep workloads for hiersense, timed end to end and layer by layer.

Each repetition runs one sweep through the same in-process entry point as
``hiersense sweep`` (``hiersense.cli.main``), with the benchmark seed passed
as ``experiment.master_seed``.  Repetitions continue until the next one
would overrun the measuring time.

End-to-end metrics come from repetitions whose only timer is on set-up
(``tracer.SETUP_TARGETS``).  With ``--trace 1``, traced repetitions
alternate with untraced ones and give the per-layer metrics; their rows
must equal the untraced rows bit for bit.  See README.md in this directory.

Other tenants of a shared host slow the core down, in bursts and in spells
of minutes.  So a fixed reference loop runs after every sweep, and every
reported time is the run's mean over its sweeps divided by the host factor:
the loop's mean time in the run over ``REFERENCE_LOOP_S``.  The first sweep
of a run warms caches and is checked but not timed.  The detail record
keeps the unscaled means and every repetition's times.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_DIR = BENCH_DIR / "workloads"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("tradeoff", "fading", "scale")
REL_TOL = 1e-12

sys.path.insert(0, str(ROOT / "src"))

import networkx  # noqa: E402  (also pre-loads the lazy import in consensus)
import numpy as np  # noqa: E402

from hiersense import cli  # noqa: E402
from hiersense.harness import CSV_COLUMNS  # noqa: E402

import tracer  # noqa: E402
from run import BLAS_VARS  # noqa: E402

# per-layer metrics that must repeat exactly between sweeps at one seed
COUNTS = tracer.COUNT_METRICS + tracer.RATIO_METRICS + ("cli.bytes_written",)

# About the reference loop's time on an idle core of the host the baseline
# was recorded on (2 cores of an Intel Xeon; see README.md).
REFERENCE_LOOP_S = 0.0043
REFERENCE_LOOPS_PER_SWEEP = 4
WARMUP_SWEEPS = 1


# ----------------------------------------------------------------------------
# One sweep


def config_path(workload: str) -> Path:
    return WORKLOAD_DIR / f"{workload}.yaml"


def expected_points(workload: str, seed: int) -> int:
    cfg = cli.load_config(str(config_path(workload)),
                          [f"experiment.master_seed={seed}"])
    per_trial = sum(len(cfg.ptx_grid if s.kind == "uncoordinated"
                        else cfg.lambda_grid) for s in cfg.schemes)
    return cfg.trials * per_trial


def run_sweep(workload: str, seed: int, out_csv: Path, traced: bool) -> dict:
    """One ``hiersense sweep`` call; returns its rows and timings."""
    argv = ["sweep", "--config", str(config_path(workload)), "-o", str(out_csv),
            "-D", f"experiment.master_seed={seed}"]
    spans = tracer.Tracer(tracer.LAYER_TARGETS if traced
                          else tracer.SETUP_TARGETS)
    error = None
    with spans, contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crashing sweep is a failed repetition
            code, error = None, f"{type(exc).__name__}: {exc}"
        sweep_s = perf_counter() - t0
    rep = {"traced": traced, "sweep_s": sweep_s, "code": code,
           "error": error, "text": None, "rows": [], "tracer": spans}
    if code == 0:
        rep["text"] = out_csv.read_text()
        rep["rows"] = list(csv.reader(io.StringIO(rep["text"])))
        summary = out_csv.with_name(out_csv.stem + "_summary.csv")
        rep["bytes_written"] = out_csv.stat().st_size + summary.stat().st_size
    return rep


# ----------------------------------------------------------------------------
# Host speed


_REFERENCE_MATRIX = np.random.default_rng(7).random((64, 64))


def reference_loop() -> float:
    """Seconds taken by one fixed run of a loop that does a sweep's kinds of work.

    Python-level loops and dicts, draws from a numpy generator and
    small-array arithmetic, on the same inputs every time.  The loop is
    benchmark code: a change to hiersense does not change its cost, but a
    slower host slows it down about as much as it slows a sweep down.
    """
    rng = np.random.default_rng(11)
    v = np.ones(64)
    acc = 0.0
    t0 = perf_counter()
    for _ in range(150):
        drawn = np.flatnonzero(rng.random(640) < 0.3)
        gains = rng.exponential(size=(drawn.size, 8))
        acc += float(gains.sum(axis=1).max())
        w = _REFERENCE_MATRIX @ v
        v = w / (w.sum() + 1.0)
        table = {j: j * 2.0 for j in range(30)}
        acc += sum(table.values()) + sum(float(x) for x in v[:16])
    return perf_counter() - t0


def host_factor(loop_times) -> float:
    """How much slower the host ran than the reference core: > 1 if slower."""
    return statistics.fmean(loop_times) / REFERENCE_LOOP_S


# ----------------------------------------------------------------------------
# Correctness


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _same_value(a: str, b: str) -> bool:
    if a == b:
        return True
    if not (_finite(a) and _finite(b)):
        return False  # equal nan/inf strings matched above
    x, y = float(a), float(b)
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def failed_points(rep: dict, n_points: int, first: list | None,
                  reference: list | None) -> int:
    """Points of one repetition that failed.

    A point fails if its sweep raised, if its throughput or INR is not
    finite, if it differs in any bit from the first repetition of the run,
    or if it is not within 1e-12 relative of the checked-in reference row.
    """
    rows = rep["rows"]
    if rep["code"] != 0 or not rows or tuple(rows[0]) != CSV_COLUMNS \
            or len(rows) - 1 != n_points:
        return n_points
    if first is not None and len(first) != len(rows):
        return n_points
    if reference is not None and len(reference) != len(rows):
        return n_points
    checked = [CSV_COLUMNS.index(c)
               for c in ("mean_su_throughput", "mean_inr_db")]
    failed = 0
    for k, row in enumerate(rows[1:], start=1):
        ok = len(row) == len(CSV_COLUMNS) and all(_finite(row[c]) for c in checked)
        ok = ok and (first is None or row == first[k])
        ok = ok and (reference is None or (
            len(reference[k]) == len(row)
            and all(_same_value(a, b) for a, b in zip(row, reference[k]))))
        failed += not ok
    return failed


def load_reference(workload: str, seed: int) -> list | None:
    path = REFERENCE_DIR / workload / f"seed-{seed}.csv"
    if not path.exists():
        return None
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------------------
# Environment


def environment() -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = None
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "processes": 1,
    }


def git_commit() -> str | None:
    """HEAD of the repository whose top level is ROOT, if there is one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ----------------------------------------------------------------------------
# Runs


def quartiles(values) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "values": values}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat the workload's sweep for ``seconds``; returns (result, detail)."""
    n_points = expected_points(workload, seed)
    reference = load_reference(workload, seed)
    reps = repeat_sweeps(workload, seed, seconds, trace, n_points, reference)
    timed = reps[WARMUP_SWEEPS:]
    plain = [r for r in timed if not r["traced"]]
    loops = [s for r in timed for s in r["loops"]]
    factor = host_factor(loops)
    failed = sum(r["failed"] for r in reps)
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "reference_checked": reference is not None,
              "environment": environment(),
              "errors": sorted({r["error"] for r in reps if r["error"]}),
              "warmup_sweeps": WARMUP_SWEEPS,
              "samples": {"wall_sweep_s": quartiles(r["sweep_s"] for r in plain),
                          "reference_loop_s": quartiles(loops)},
              "host_factor": factor}
    correct = failed == 0
    sweep_s = statistics.fmean(r["sweep_s"] for r in plain)
    if not trace:
        setup_s = statistics.fmean(r["setup_s"] for r in plain)
        detail["samples"]["setup_s"] = quartiles(r["setup_s"] for r in plain)
        detail["unscaled"] = {"sweep_s": sweep_s, "setup_s": setup_s}
        frames = n_points * frames_per_point(plain[0])
        metrics = {"sweep_s": sweep_s / factor, "setup_s": setup_s / factor,
                   "frames_per_s": frames * factor / (sweep_s - setup_s),
                   "peak_rss_mb": peak_rss_mb()}
    else:
        traced = [r for r in timed if r["traced"]]
        counts = [r["counts"] for r in traced]
        repeats = all(c == counts[0] for c in counts)
        correct = correct and repeats
        times = {k: statistics.fmean(r["self_s"][k] for r in traced)
                 for k in traced[0]["self_s"]}
        layers_s = sum(times.values())
        times["trace.sweep_s"] = statistics.fmean(r["sweep_s"] for r in traced)
        times["trace.overhead_s"] = times["trace.sweep_s"] - sweep_s
        detail["counts_repeat"] = repeats
        detail["samples"]["wall_trace.sweep_s"] = quartiles(
            r["sweep_s"] for r in traced)
        detail["layer_share"] = {k: v / layers_s for k, v in times.items()
                                 if not k.startswith("trace.")}
        detail["unscaled"] = times
        metrics = {k: v / factor for k, v in times.items()}
        metrics.update(counts[0])
        spans_csv = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
        traced[-1]["tracer"].write_spans(spans_csv)
        detail["spans_file"] = str(spans_csv.relative_to(ROOT))
    result = {"correct": correct, "attempted": n_points * len(reps),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    return result, detail


def repeat_sweeps(workload: str, seed: int, seconds: float, trace: bool,
                  n_points: int, reference: list | None) -> list[dict]:
    """Sweeps until the next one would end after ``seconds``.

    With ``trace``, untraced and traced sweeps alternate, starting with an
    untraced one.  At least one timed sweep of each kind runs after the
    ``WARMUP_SWEEPS``.  After every sweep the reference loop runs
    ``REFERENCE_LOOPS_PER_SWEEP`` times; its times are the sweep's
    ``"loops"``.  Every sweep is checked against the first one and against
    the reference rows.
    """
    OUT_DIR.mkdir(exist_ok=True)
    out_csv = OUT_DIR / f"{workload}-{os.getpid()}.csv"
    least = WARMUP_SWEEPS + (2 if trace else 1)
    reps: list[dict] = []
    start = perf_counter()
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            rep = run_sweep(workload, seed, out_csv, traced)
            first = reps[0]["rows"] if reps else None
            rep["failed"] = failed_points(rep, n_points, first, reference)
            if traced:
                rep["self_s"] = rep["tracer"].self_times()
                rep["counts"] = layer_counts(rep)
                for old in reps:
                    old["tracer"] = None  # keep the last traced spans only
            else:
                rep["setup_s"] = rep["tracer"].total(tracer.SETUP_SPAN)
                rep["tracer"] = None
            rep["loops"] = [reference_loop()
                            for _ in range(REFERENCE_LOOPS_PER_SWEEP)]
            reps.append(rep)
            if len(reps) < least:
                continue
            next_traced = trace and len(reps) % 2 == 1
            next_s = statistics.median(r["sweep_s"] + sum(r["loops"])
                                       for r in reps
                                       if r["traced"] == next_traced)
            if perf_counter() - start + next_s > seconds:
                return reps
    finally:
        for path in (out_csv, out_csv.with_name(out_csv.stem + "_summary.csv")):
            path.unlink(missing_ok=True)


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced sweep."""
    out = rep["tracer"].layer_metrics()
    out["cli.bytes_written"] = rep.get("bytes_written", 0)
    return out


def layer_counts(rep: dict) -> dict:
    """The per-layer metrics of one traced sweep that must repeat exactly."""
    metrics = layer_metrics(rep)
    return {k: metrics[k] for k in COUNTS}


def frames_per_point(rep: dict) -> int:
    rows = rep["rows"]
    if rep["code"] != 0 or len(rows) < 2:
        return 0
    return int(rows[1][CSV_COLUMNS.index("frames")])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes") or metric == "cli.bytes_written":
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0
