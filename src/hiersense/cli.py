"""Command-line front end: tree building, single runs, sweeps, self-checks.

Configuration is a YAML file (see README for the schema); any value can be
overridden on the command line with dotted ``key=value`` pairs, e.g.
``experiment.frames=100`` or ``occupancy.nu1=0.01``.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from . import control, inference
from .aggregation import RunningRingSums, identity_residual
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import OccupancyModel
from .harness import (_simulate_occupancy, prepare_trial, run_experiment,
                      run_trial_point, scheme_ip_sequence, trial_topology,
                      trial_trees, write_table)
from .hierarchy import AggregationTree, build_ibt
from .sensing import SensorModel
from .topology import PathlossParams, build_topology, compute_phi


def cmd_build_tree(args) -> int:
    config = load_config(args.config, args.override)
    config.validate()
    pick = next(((i, s) for i, s in enumerate(config.schemes)
                 if s.kind in ("ibt", "rt")), None)
    if pick is None:
        print("error: no tree scheme (ibt/rt) in the config", file=sys.stderr)
        return 2
    topology, phi = trial_topology(config, args.trial)
    tree = trial_trees(config, topology, phi, args.trial)[pick[0]]
    tree.save(args.output)
    print(f"tree written to {args.output}")
    print(f"scheme: {pick[1].name}")
    print(f"depth: {tree.depth}")
    print(f"cost per cell: {tree.cost_per_cell:.6g} m "
          f"({tree.cost_per_cell / config.resolved_hop_distance():.6g} hops)")
    for lvl, nodes in enumerate(tree.levels):
        sizes = sorted(len(c.members) for c in nodes)
        print(f"level {lvl}: {len(nodes)} clusters, sizes {sizes}")
    return 0


def _write_trace(path: str, ctx, tree) -> None:
    """Every frame's per-level aggregates of the sensed occupancy."""
    rows = []
    if tree is not None:
        occupancy = RunningRingSums(tree, ctx.t_total, float(ctx.model.pi_b))
        occupancy.commit(ctx.bhat_seq)
        heads = [(lvl, k) for lvl, level in enumerate(tree.levels)
                 for k in range(len(level))]
        rows = ((t, lvl, head, value) for t in range(ctx.t_total)
                for (lvl, head), value in zip(heads, occupancy.aggregates(t)))
    write_table(path, ["frame", "level", "head", "aggregate"], rows)


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.override)
    config.validate()
    names = [s.name for s in config.schemes]
    name = args.scheme or names[0]
    if name not in names:
        print(f"error: scheme {name!r} not in config (have {names})",
              file=sys.stderr)
        return 2
    scheme_idx = names.index(name)
    grid = config.grid(config.schemes[scheme_idx])
    gval = args.grid_value if args.grid_value is not None else grid[0]
    unc = config.schemes[scheme_idx].kind == "uncoordinated"
    if not (0 <= gval <= 1 if unc else 0 < gval < np.inf):
        raise ConfigError("--grid-value: must " + ("lie in [0, 1]" if unc else
                          "be positive and finite") + f", got {gval}")
    # a grid point draws from its own evaluation stream; off-grid values
    # share the first point's
    grid_idx = grid.index(gval) if gval in grid else 0
    ctx = prepare_trial(config, args.trial)
    runtime = ctx.runtimes[scheme_idx]
    frames, row = run_trial_point(ctx, scheme_idx, gval, grid_idx,
                                  scheme_ip_sequence(ctx, runtime))
    if args.trace:
        _write_trace(args.trace, ctx, runtime.tree)

    write_table(args.output, ["frame", "su_throughput", "inr_db", "utility",
                              "mean_traffic"],
                zip(frames.t, frames.su_throughput, frames.inr_db,
                    frames.utility, map(np.mean, frames.traffic)))
    print(f"per-frame metrics written to {args.output}")
    if args.trace:
        print(f"aggregate trace written to {args.trace}")
    print(f"scheme={name} grid={gval} "
          f"mean throughput={row.mean_su_throughput:.6g}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.override)
    result = run_experiment(config)
    result.write_csv(args.output)
    result.write_summary_csv(args.summary)
    print(f"{len(result.rows)} rows written to {args.output}")
    print(f"summary written to {args.summary}")
    return 0


def _check(name: str, ok: bool, detail: str, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if not ok:
        failures.append(name)


def _check_aggregate_identity(model, rng) -> tuple[bool, str]:
    """Aggregates of a small built tree vs direct sums of delayed locals."""
    topology = build_topology("grid", 16, (400.0, 400.0), 2, rng_seed=3)
    phi = compute_phi(topology, PathlossParams())
    tree = build_ibt(topology, phi, float(model.mu), gamma_delay=0.02)
    pi_b = float(model.pi_b)
    # the chain steps once past the last row; the later checks draw after it
    history = _simulate_occupancy(model, 16, 61, rng)[:-1]
    running = RunningRingSums(tree, 60, pi_b)
    running.commit(history)
    worst = max(identity_residual(tree, running.aggregates(t), history, t, pi_b)
                for t in range(60))
    return worst <= 1e-9, f"max residual {worst:.2e} (<= 1e-9)"


def _check_belief_oracle(model, rng) -> tuple[bool, str]:
    """Exact enumeration vs closed-form marginals on a 4-cell instance."""
    worst = 0.0
    for k in range(10):
        tree4 = AggregationTree.from_nested(
            4, [[([(0, int(rng.integers(3))), (1, int(rng.integers(3)))], 1),
                 ([(2, int(rng.integers(3))), (3, int(rng.integers(3)))], 2)]])
        running = RunningRingSums(tree4, 12, float(model.pi_b))
        running.commit(_simulate_occupancy(model, 4, 13, rng)[:-1])
        hist = running.ring_sums(np.arange(12))[:, 0]
        belief = inference.exact_belief(hist, tree4, model, 0,
                                        SensorModel(0.0, 0.0))
        sigma = hist[-1]
        for lvl, ring in enumerate(tree4.ring_sets(0)):
            for j in ring:
                lem = inference.marginal_occupancy(sigma[lvl], len(ring),
                                                   int(tree4.delta[lvl][j]), model)
                worst = max(worst, abs(belief.marginal(int(j)) - float(lem)))
    return worst <= 1e-12, \
        f"max |enumeration - closed form| = {worst:.2e} (<= 1e-12)"


def _check_traffic_optimum(model, rng) -> tuple[bool, str]:
    """Closed-form traffic optimum vs fine grid search, and the sweeps'
    decision kernel vs the closed form, bit for bit."""
    params_pool = []
    for _ in range(50):
        m = float(rng.integers(1, 12))
        # this lambda range puts about half the optima off the zero clip
        params_pool.append((float(rng.uniform(0.01, 2.0)),  # ip
                            float(rng.uniform(0.0, 2.0)),   # is
                            m,
                            float(rng.uniform(3.0, 300.0)),  # phi_ii
                            float(10 ** rng.uniform(-6, -1))))  # lambda
    worst, same = 0.0, 0
    for ip, is_, m, phi_ii, lam in params_pool:
        params = control.ControlParams(lam=lam, sinr_th=10 ** 0.5)
        a_star = control.optimal_traffic(ip, is_, m, phi_ii, model, params)
        grid = np.linspace(0.0, m, 20001)
        util = control.utility(grid, ip, is_, m, phi_ii, model, params)
        a_grid = grid[int(np.argmax(util))]
        worst = max(worst, abs(a_star - a_grid))
        # the kernel run as Simulation runs it
        kernel = control.TrafficKernel(m, phi_ii, model, params.sinr_th)
        kernel.check_ip(ip)
        a_kernel = np.empty(())
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel.step(ip, is_, kernel.gain(ip, lam * kernel.phi_ii), a_kernel)
        same += np.float64(a_kernel).tobytes() == np.float64(a_star).tobytes()
    return worst <= 1e-3 and same == len(params_pool), \
        (f"max |closed form - grid argmax| = {worst:.2e}; kernel equals the "
         f"closed form bit for bit on {same}/{len(params_pool)} draws")


def _check_jensen_bound(model, rng) -> tuple[bool, str]:
    """The throughput bound never exceeds the exact enumeration."""
    ok = True
    params = control.ControlParams(lam=1.0, sinr_th=10 ** 0.5)
    for _ in range(20):
        phi2 = np.array([[30.0, rng.uniform(0.1, 5.0)],
                         [0.0, 25.0]])
        phi2[1, 0] = phi2[0, 1]
        m2 = rng.integers(1, 4, size=2).astype(float)
        a2 = rng.uniform(0, m2)
        b2 = rng.integers(0, 2, size=2)
        exact = control.exact_throughput(a2, b2, m2, phi2, params, 0)
        w = phi2[:, 0] / phi2[0, 0]
        lb = control.throughput_lb(a2[0], m2[0], float(w @ b2),
                                   float(w[1] * a2[1]), phi2[0, 0], params)
        ok &= lb <= exact + 1e-12
    return ok, "throughput bound never exceeds the exact value"


# run in this order: they draw from one stream
_ORACLE_CHECKS = (("aggregate-identity", _check_aggregate_identity),
                  ("belief-oracle", _check_belief_oracle),
                  ("traffic-optimum", _check_traffic_optimum),
                  ("jensen-bound", _check_jensen_bound))


def run_validation(config: ExperimentConfig | None = None) -> int:
    """Fast oracle suite; returns the number of failed checks.

    A check that raises fails with the exception as its detail (traceback
    on stderr), and the remaining checks still run.
    """
    failures: list[str] = []
    rng = np.random.default_rng(7)

    if config is not None:
        try:
            config.validate()
            _check("config", True, "configuration is consistent", failures)
        except (ConfigError, ValueError) as exc:
            _check("config", False, str(exc), failures)
            return len(failures)
        model = config.occupancy_model()
    else:
        model = OccupancyModel(0.005, 0.095)

    for name, check in _ORACLE_CHECKS:
        try:
            ok, detail = check(model, rng)
        except Exception as exc:  # a crashing oracle is a failed check
            traceback.print_exc()
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        _check(name, ok, detail, failures)
    return len(failures)


def cmd_validate(args) -> int:
    config = load_config(args.config, args.override) if args.config else None
    failed = run_validation(config)
    if failed:
        print(f"FAILED: {failed} check(s) failed")
        return 1
    print("OK: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiersense",
        description="Multi-cell cognitive-radio simulator with hierarchical "
                    "multi-scale spectrum sensing")
    sub = parser.add_subparsers(dest="command", required=True)

    what = "write the first tree scheme's tree, as the sweep builds it"
    p = sub.add_parser("build-tree", help=what, description=what)
    p.add_argument("--config", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--override", "-D", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("simulate", help="run one scheme/grid point and dump "
                                        "per-frame metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--scheme", default=None)
    p.add_argument("--grid-value", type=float, default=None)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--trace", default=None,
                   help="also dump per-frame (level, head, aggregate) rows")
    p.add_argument("--override", "-D", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the full experiment sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--summary", default=None)
    p.add_argument("--override", "-D", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run the fast oracle self-checks")
    p.add_argument("--config", default=None)
    p.add_argument("--override", "-D", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_validate)

    return parser


def _check_output(flag: str, path) -> None:
    """Fail before any work on an output path that cannot be written: its
    directory must exist, and it must not be a directory itself."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ConfigError(f"--{flag}: {path.parent} is not an existing "
                          "directory")
    if path.is_dir():
        raise ConfigError(f"--{flag}: {path} is a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "trial", 0) < 0:
            raise ConfigError(f"--trial: must be >= 0, got {args.trial}")
        if args.command == "sweep" and args.summary is None:
            output = Path(args.output)  # the summary goes beside the rows
            args.summary = str(output.with_name(output.stem + "_summary.csv"))
        for flag in ("output", "summary", "trace"):
            if getattr(args, flag, None) is not None:
                _check_output(flag, getattr(args, flag))
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a program fault, not bad input: keep its traceback
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
