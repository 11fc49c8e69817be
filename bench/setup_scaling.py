"""Set-up scaling: time each trial set-up stage at N = 64, 256 and 1024.

Times the line-of-sight matrix (``NetworkTopology``), ``compute_phi``,
``build_ibt``, ``build_random_tree`` and ``compute_weights`` on square grids
with 0, 12 and 16 blockages, the Rayleigh-fading SU layout
(``fading_layout_s``: ``harness._build_fading_layout`` with ten SUs per
cell, at N = 64 and 256 only, since its SU->SU block alone would take
840 MB at N = 1024), the Rayleigh evaluation of one grid point
(``fading_eval_s``: ``harness.eval_fading_success`` on every frame of a
trial with ten SUs per cell, once at low and once at high traffic, at
N = 64 without blockages only, since ``fading_mc`` models none), a trial's
histories (``histories_s``: ``harness._simulate_occupancy`` and
``harness._simulate_sensing`` with noisy sensing, ten SUs per cell and 100
frames, at N = 64 and 256), a budget sweep of the IBT
(``ibt_budgets_s``: the unbudgeted IBT and the IBTs under budgets of a half
and a quarter of its cost, from one ``build_ibts`` call, at N = 256 and 1024
with 12 and 16 blockages), the random trees under budgets of a half and a
quarter of the unbudgeted random tree's cost (``rt_budgets_s``: two
``build_random_tree`` calls at the same points, the only timing of draws
while the budget binds), and one per-frame stage: the
``run_trial_point`` time of an IBT scheme with hierarchical SU interference
divided by its frame count (``frame_s``: deciding and scoring every frame
of a grid point, the median over ``FRAME_LAMBDAS``' grid points, on a trial
built by ``prepare_trial`` at the same N and blockage count).
Both sides run in one call: a parent revision
(extracted with ``git archive``) and the working tree's ``src/``.  The
parent must be commit b3d8e98 or later: the script calls
``hierarchy.build_ibts``, ``harness.scheme_ip_sequence`` and the block form
of ``harness.eval_fading_success`` directly, and reads
``PointMetrics.traffic``.  Each repetition runs one worker process per
side, and the side that runs first alternates between repetitions, so host
load and cache warmth hit both sides alike.  Each worker first runs every stage once at the smallest
size, with and without blockages, and the fading layout and the histories
at each of their sizes, untimed, so that lazy imports and other first-call
costs, such as the first fault-in of a size's blocks, do not show as the
time of whichever stage meets them first.  Every worker also hashes the LOS
matrix, the tree JSON (the budget sweep's too), the fading layout's
arrays, the fading evaluation's throughput and INR, the histories and the
frame stage's traffic trajectories, and the run records whether both sides
built identical outputs.

    python3 bench/setup_scaling.py --parent-rev HEAD~1 --out BENCH.json

BLAS is pinned to one thread in the workers, as in ``perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (64, 256, 1024)
BLOCKAGES = (0, 12, 16)
REPS = 5
CELL_SIDE_M = 133.3
MU = 0.9
GAMMA_DELAY = 0.005
FRAMES = 100  # measured frames of the frame and histories stages
# the frame stage's grid points: a rep reads the median of their per-frame
# times, steadier than one point's ~100 frames
FRAME_LAMBDAS = (0.005, 0.0075, 0.01, 0.015, 0.02)
SU_PER_CELL = 10  # the fading layout stage's M
FADING_SIZES = (64, 256)  # the N at which the fading layout is timed
FADING_EVAL_SIZES = (64,)  # the N at which the fading evaluation is timed
HISTORY_SIZES = (64, 256)  # the N at which the histories are timed
BUDGET_SIZES = (256, 1024)  # the (N, B) at which the budget sweeps of
BUDGET_BLOCKAGES = (12, 16)  # the IBT and the random tree are timed
BUDGET_FRACTIONS = (0.5, 0.25)  # their budgets, of the unbudgeted cost
NU1, NU0 = 0.005, 0.095  # the histories' occupancy chain: mu = MU
EPS_F, EPS_M = 0.05, 0.1  # the histories' noisy sensing
# each SU's access probability in the fading evaluation stage: a few SUs
# per frame, bound by per-call overhead, or half of them, bound by the draws
FADING_EVAL_ACCESS = {"low": 0.01, "high": 0.5}
STAGES = ("los_s", "phi_s", "build_ibt_s", "build_rt_s", "weights_s",
          "ibt_budgets_s", "rt_budgets_s", "fading_layout_s", "fading_eval_s",
          "histories_s", "frame_s")
TARGETS = {"los_s": 0.5, "build_ibt_s": 1.0, "build_rt_s": 0.3,
           "weights_s": 0.06}  # seconds at N = 1024
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


@contextlib.contextmanager
def extracted_src(rev: str):
    """The ``src/`` directory of ``rev``, extracted with ``git archive`` into
    a temporary directory that is removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="hiersense-src-"))
    try:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        yield tmp / "src"
    finally:
        shutil.rmtree(tmp)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _frame_stage(n: int, blockages: int, side: float):
    """run_trial_point seconds per frame of an IBT scheme with hierarchical
    SU interference, the median over the grid points of ``FRAME_LAMBDAS``,
    and the bytes of their traffic trajectories."""
    from hiersense import ExperimentConfig, SchemeSpec, harness

    cfg = ExperimentConfig(
        n_cells=n, area=(side, side), n_blockages=blockages,
        schemes=(SchemeSpec("ibt", "ibt", gamma_delay=GAMMA_DELAY),),
        is_mode="hierarchical", frames=FRAMES, trials=1, master_seed=0,
        lambda_grid=FRAME_LAMBDAS)
    ctx = harness.prepare_trial(cfg, 0)
    ip_seq = harness.scheme_ip_sequence(ctx, ctx.runtimes[0])
    per_frame, out = [], []
    for grid_idx, lam in enumerate(FRAME_LAMBDAS):
        t0 = time.perf_counter()
        frames, _ = harness.run_trial_point(ctx, 0, lam, grid_idx, ip_seq)
        per_frame.append((time.perf_counter() - t0) / ctx.t_total)
        out.append(frames.traffic.tobytes())
    return statistics.median(per_frame), b"".join(out)


def _ibt_budgets_stage(topo, phi, free):
    """Seconds to build the IBT with no budget and with each fraction of
    ``BUDGET_FRACTIONS`` of ``free``'s cost as its budget, and the
    bytes of their JSON."""
    import math

    from hiersense import hierarchy

    budgets = [math.inf] + [f * free.cost_per_cell
                            for f in BUDGET_FRACTIONS]
    trees, seconds = _timed(hierarchy.build_ibts, topo, phi, MU, GAMMA_DELAY,
                            budgets)
    return seconds, "".join(json.dumps(tree.to_dict(), sort_keys=True)
                            for tree in trees).encode()


def _rt_budgets_stage(topo, free):
    """Seconds to build the random tree under each fraction of
    ``BUDGET_FRACTIONS`` of ``free``'s cost as its budget, each drawn from
    seed 0 as ``free`` was, and the bytes of their JSON."""
    import numpy as np
    from hiersense import build_random_tree

    seconds, out = 0.0, []
    for f in BUDGET_FRACTIONS:
        tree, s = _timed(build_random_tree, topo, GAMMA_DELAY,
                         f * free.cost_per_cell, np.random.default_rng(0))
        seconds += s
        out.append(json.dumps(tree.to_dict(), sort_keys=True))
    return seconds, "".join(out).encode()


def _histories_stage(n: int):
    """Seconds to build a trial's occupancy and noisy sensing histories of
    ``FRAMES`` frames at N = n, and the bytes of both."""
    import numpy as np
    from hiersense import OccupancyModel, SensorModel, harness

    model, sensor = OccupancyModel(NU1, NU0), SensorModel(EPS_F, EPS_M)
    m = np.full(n, float(SU_PER_CELL))
    t0 = time.perf_counter()
    b_seq = harness._simulate_occupancy(model, n, FRAMES,
                                        np.random.default_rng(0))
    post = harness._simulate_sensing(model, sensor, m, b_seq,
                                     np.random.default_rng(1))
    seconds = time.perf_counter() - t0
    return seconds, b_seq.tobytes() + post.tobytes()


def _fading_layout_stage(topo):
    """Seconds to build the fading SU layout on ``topo``, and the bytes of
    its arrays."""
    import numpy as np
    from hiersense import ExperimentConfig, harness

    cfg = ExperimentConfig(m_per_cell=SU_PER_CELL)
    layout, seconds = _timed(harness._build_fading_layout, cfg, topo,
                             np.random.default_rng(0))
    return seconds, b"".join(a.tobytes() for a in (
        layout.su_cell, layout.pl_su_su, layout.pl_pu_su, layout.pl_su_pu))


def _fading_eval_stage(n: int, side: float):
    """Seconds of one grid point's Rayleigh evaluation at each access level
    of ``FADING_EVAL_ACCESS``, and the bytes of its throughput and INR."""
    import numpy as np
    from hiersense import ExperimentConfig, SchemeSpec, harness

    cfg = ExperimentConfig(
        n_cells=n, area=(side, side), n_blockages=0,
        schemes=(SchemeSpec("unc", "uncoordinated"),),
        population_mode="constant", m_per_cell=SU_PER_CELL,
        eval_mode="fading_mc", frames=FRAMES, trials=1, master_seed=0)
    ctx = harness.prepare_trial(cfg, 0)
    pi_b, th = float(ctx.model.pi_b), cfg.sinr_th_linear()
    seconds, out = {}, []
    for level, access in FADING_EVAL_ACCESS.items():
        traffic = np.full(ctx.b_seq.shape, access * SU_PER_CELL)
        rng = np.random.default_rng(0)
        (thr, inr), seconds[level] = _timed(
            harness.eval_fading_success, ctx.fading, traffic, ctx.m,
            ctx.b_seq, th, pi_b, rng)
        out += [thr.tobytes(), inr.tobytes()]
    return seconds, b"".join(out)


def _measure(n: int, b: int) -> dict:
    """Every stage's time at one (N, B), and the hash of what they built."""
    import numpy as np
    from hiersense import (NetworkTopology, PathlossParams, build_ibt,
                           build_random_tree, build_topology, compute_phi,
                           compute_weights)

    side = CELL_SIDE_M * n ** 0.5
    layout = build_topology("grid", n, (side, side), b, rng_seed=0)
    topo, los_s = _timed(NetworkTopology, layout.cell_centers, layout.area,
                         layout.cell_radius, layout.blockages)
    phi, phi_s = _timed(compute_phi, topo, PathlossParams())
    ibt, ibt_s = _timed(build_ibt, topo, phi, MU, GAMMA_DELAY)
    rt, rt_s = _timed(build_random_tree, topo, GAMMA_DELAY,
                      rng=np.random.default_rng(0))
    _, weights_s = _timed(compute_weights, ibt, phi, MU)
    budgeted = n in BUDGET_SIZES and b in BUDGET_BLOCKAGES
    budgets_s, budget_trees = _ibt_budgets_stage(topo, phi, ibt) \
        if budgeted else (None, b"")
    rt_budgets_s, rt_budget_trees = _rt_budgets_stage(topo, rt) \
        if budgeted else (None, b"")
    fading_s, fading = _fading_layout_stage(topo) \
        if n in FADING_SIZES else (None, b"")
    fading_eval_s, scores = _fading_eval_stage(n, side) \
        if n in FADING_EVAL_SIZES and b == 0 else (None, b"")
    histories_s, histories = _histories_stage(n) \
        if n in HISTORY_SIZES else (None, b"")
    frame_s, traffic = _frame_stage(n, b, side)
    digest = hashlib.sha256(np.packbits(topo.los_matrix).tobytes())
    for tree in (ibt, rt):
        digest.update(json.dumps(tree.to_dict(), sort_keys=True).encode())
    digest.update(budget_trees)
    digest.update(rt_budget_trees)
    digest.update(fading)
    digest.update(scores)
    digest.update(histories)
    digest.update(traffic)
    return {"n": n, "blockages": b, "los_s": los_s, "phi_s": phi_s,
            "build_ibt_s": ibt_s, "build_rt_s": rt_s, "weights_s": weights_s,
            "ibt_budgets_s": budgets_s, "rt_budgets_s": rt_budgets_s,
            "fading_layout_s": fading_s, "fading_eval_s": fading_eval_s,
            "histories_s": histories_s, "frame_s": frame_s,
            "output_sha256": digest.hexdigest()}


def worker() -> list[dict]:
    """Time every stage once per (N, B); runs inside one side's process."""
    from hiersense import build_topology

    for b in (0, max(BLOCKAGES)):  # warm-up of every stage, not recorded
        _measure(min(SIZES), b)
    for n in FADING_SIZES:  # and of each size of the per-size stages
        side = CELL_SIDE_M * n ** 0.5
        _fading_layout_stage(build_topology("grid", n, (side, side), 0,
                                            rng_seed=0))
    for n in HISTORY_SIZES:
        _histories_stage(n)
    return [_measure(n, b) for n in SIZES for b in BLOCKAGES]


def _run_side(src: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED_ENV)
    cmd = [sys.executable, __file__, "--worker"]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"platform": platform.platform(), "cpu": cpu,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def _median(times):
    """Median over reps; per level for a stage timed at several levels,
    and null for a stage not run at this size."""
    if None in times:
        return None
    if isinstance(times[0], dict):
        return {k: statistics.median(t[k] for t in times) for k in times[0]}
    return statistics.median(times)


def _summary(runs) -> dict:
    out = {}
    for n in SIZES:
        for b in BLOCKAGES:
            key = f"N={n},B={b}"
            out[key] = {}
            for stage in STAGES:
                out[key][stage] = {}
                for side in ("parent", "change"):
                    times = [r[stage] for run in runs if run["side"] == side
                             for r in run["rows"]
                             if r["n"] == n and r["blockages"] == b]
                    out[key][stage][side] = _median(times)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-rev", default="HEAD",
                    help="git revision timed as the parent side")
    ap.add_argument("--out", help="JSON record to write (required)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if args.out is None:  # no default: it would overwrite a committed record
        ap.error("--out is required")

    rev = subprocess.run(["git", "rev-parse", "--short", args.parent_rev],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    with extracted_src(rev) as parent_src:
        sides = {"parent": parent_src, "change": ROOT / "src"}
        load_before = os.getloadavg()
        runs = []
        for rep in range(REPS):
            order = list(sides.items())[::1 if rep % 2 == 0 else -1]
            for side, src in order:
                rows = _run_side(src)
                runs.append({"side": side, "rep": rep, "rows": rows,
                             "loadavg_1m": os.getloadavg()[0]})
                print(f"rep {rep} {side}: done", file=sys.stderr)
        load_after = os.getloadavg()

    digests = {side: {(r["n"], r["blockages"]): r["output_sha256"]
                      for run in runs if run["side"] == side
                      for r in run["rows"]} for side in sides}
    summary = _summary(runs)
    largest = max(SIZES)
    targets = {}
    for stage, limit in TARGETS.items():
        worst = max(summary[f"N={largest},B={b}"][stage]["change"]
                    for b in BLOCKAGES)
        targets[f"{stage} < {limit} s at N={largest}"] = {
            "median_worst_over_blockages_s": worst, "met": worst < limit}
    record = {
        "what": "trial set-up stage times, the IBT budget sweep time, the "
                "budgeted random trees' time, the "
                "fading SU layout time, the "
                "fading evaluation time of one grid point at low and high "
                "access, the occupancy and noisy sensing history time, and "
                "the hierarchical-IS frame time (run_trial_point per frame: "
                "decide and score, median over grid points), parent vs "
                "change, grid layouts",
        "parent_rev": rev,
        "params": {"sizes": SIZES, "blockages": BLOCKAGES, "reps": REPS,
                   "cell_side_m": CELL_SIDE_M, "mu": MU,
                   "gamma_delay": GAMMA_DELAY, "topology_seed": 0,
                   "rt_seed": 0, "ibt_budgets": {
                       "sizes": BUDGET_SIZES, "blockages": BUDGET_BLOCKAGES,
                       "budgets": ["inf"] + [f"{f} x unbudgeted cost"
                                             for f in BUDGET_FRACTIONS]},
                   "rt_budgets": {
                       "sizes": BUDGET_SIZES, "blockages": BUDGET_BLOCKAGES,
                       "budgets": [f"{f} x unbudgeted cost"
                                   for f in BUDGET_FRACTIONS]},
                   "fading_layout": {
                       "sizes": FADING_SIZES, "m_per_cell": SU_PER_CELL,
                       "rng_seed": 0}, "fading_eval": {
                       "sizes": FADING_EVAL_SIZES, "m_per_cell": SU_PER_CELL,
                       "frames": FRAMES, "access": FADING_EVAL_ACCESS,
                       "master_seed": 0, "rng_seed": 0}, "histories": {
                       "sizes": HISTORY_SIZES, "frames": FRAMES,
                       "nu1": NU1, "nu0": NU0, "eps_f": EPS_F,
                       "eps_m": EPS_M, "m_per_cell": SU_PER_CELL,
                       "rng_seeds": {"occupancy": 0, "sensing": 1}},
                   "frame_stage": {
                       "frames": FRAMES, "lambdas": FRAME_LAMBDAS,
                       "master_seed": 0, "is_mode": "hierarchical"}},
        "machine": _machine(),
        "host_load": {"loadavg_before": load_before,
                      "loadavg_after": load_after},
        "identical_outputs": digests["parent"] == digests["change"],
        "targets": targets,
        "median_s": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"identical_outputs": record["identical_outputs"],
                      "targets": targets}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
