import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from hiersense import (ControlParams, HierarchicalExchange, RunningRingSums,
                       cli, control, harness, optimal_traffic)
from hiersense.cli import load_config, main
from hiersense.config import _load_yaml
from hiersense.harness import prepare_trial, scheme_ip_sequence
from hiersense.inference import estimate_is_hierarchical

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(str(p.relative_to(ROOT)) for pattern in
                         ("configs/*.yaml", "perfbench/workloads/*.yaml")
                         for p in ROOT.glob(pattern))

CONFIG = """
topology: {kind: grid, n_cells: 16, area: [400, 400], n_blockages: 1}
occupancy: {nu1: 0.005, nu0: 0.095}
population: {mode: dense}
schemes:
  - {name: ibt, kind: ibt}
  - {name: unc, kind: uncoordinated}
experiment:
  frames: 15
  trials: 1
  master_seed: 3
  lambda_grid: [0.01, 0.1]
  ptx_grid: [0.02]
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG)
    return str(path)


class TestBuildTree:
    def test_writes_tree_and_stats(self, tmp_path, config_path, capsys):
        out = tmp_path / "tree.json"
        assert main(["build-tree", "--config", config_path, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n_cells"] == 16
        assert data["depth"] == 4
        stdout = capsys.readouterr().out
        assert "depth: 4" in stdout
        assert "cost per cell" in stdout

    def test_identical_bytes_across_runs(self, tmp_path, config_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["build-tree", "--config", config_path,
                         "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rt_tree_matches_the_sweep(self, tmp_path, config_path):
        # the tree slot (index 1) and the trial both enter the RT seed stream
        override = ["-D", "schemes=[{name: unc, kind: uncoordinated}, "
                          "{name: rt, kind: rt, gamma_delay: 0.02}]"]
        out = tmp_path / "tree.json"
        assert main(["build-tree", "--config", config_path, "-o", str(out),
                     "--trial", "1"] + override) == 0
        ctx = prepare_trial(load_config(config_path, override[1:]), 1)
        assert json.loads(out.read_text()) == ctx.runtimes[1].tree.to_dict()

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75, "mixed"])
    def test_budgeted_ibt_matches_the_sweep(self, tmp_path, capsys, fraction):
        # the sweep builds the budgets of one gamma_delay in one pass, and
        # build-tree writes the first tree scheme's tree of that pass
        config = str(ROOT / "configs" / "sweep_small.yaml")
        full = "{name: full, kind: ibt, gamma_delay: 0.02}"
        if fraction == "mixed":
            override = ["-D", "schemes=[{name: unc, kind: uncoordinated}, "
                              "{name: h, kind: ibt, gamma_delay: 0.02, "
                              "c_max: 86.0}, {name: r, kind: rt, "
                              "gamma_delay: 0.02}, {name: f, kind: ibt, "
                              "gamma_delay: 0.02}]"]
            first, name = 1, "h"
        else:
            free = prepare_trial(load_config(config, [f"schemes=[{full}]"]), 1)
            c_max = fraction * free.runtimes[0].tree.cost_per_cell
            override = ["-D", f"schemes=[{{name: half, kind: ibt, gamma_delay: "
                              f"0.02, c_max: {c_max!r}}}, {full}, {{name: q, "
                              f"kind: ibt, gamma_delay: 0.02, c_max: "
                              f"{c_max / 2!r}}}]"]
            first, name = 0, "half"
        out = tmp_path / "tree.json"
        assert main(["build-tree", "--config", config, "-o", str(out),
                     "--trial", "1"] + override) == 0
        assert f"scheme: {name}\n" in capsys.readouterr().out
        ctx = prepare_trial(load_config(config, override[1:]), 1)
        tree = ctx.runtimes[first].tree
        assert json.loads(out.read_text()) == tree.to_dict()
        if fraction == "mixed":
            assert tree.depth == 2

    MIXED = ["-D", "schemes=[{name: ibt, kind: ibt}, {name: rt, kind: rt}, "
                   "{name: half, kind: ibt, c_max: 150.0}, {name: d, kind: "
                   "ibt, gamma_delay: 0.02}, {name: unc, kind: uncoordinated}]",
             "-D", "experiment.trials=2"]

    def test_no_path_calls_the_single_budget_builder(self, tmp_path,
                                                     config_path, monkeypatch):
        # a trial's trees come only from trial_trees, which builds IBTs with
        # build_ibts; build_ibt is left for the tracer alone
        def unreachable(*args, **kwargs):
            raise AssertionError("harness.build_ibt was called")
        monkeypatch.setattr(harness, "build_ibt", unreachable)
        assert main(["build-tree", "--config", config_path,
                     "-o", str(tmp_path / "tree.json")] + self.MIXED) == 0
        harness.run_experiment(load_config(config_path, self.MIXED[1::2]))

    def test_one_ibt_pass_per_trial_and_delay(self, tmp_path, config_path,
                                              monkeypatch):
        delays = []

        def counted(topology, phi, mu, gamma_delay, budgets):
            delays.append(gamma_delay)
            return build_ibts(topology, phi, mu, gamma_delay, budgets)
        build_ibts = harness.build_ibts
        monkeypatch.setattr(harness, "build_ibts", counted)
        harness.run_experiment(load_config(config_path, self.MIXED[1::2]))
        assert delays == [0.0, 0.02, 0.0, 0.02]
        delays.clear()
        assert main(["build-tree", "--config", config_path, "--trial", "1",
                     "-o", str(tmp_path / "tree.json")] + self.MIXED) == 0
        assert delays == [0.0, 0.02]

    def test_budget_override_gives_flat_forest(self, tmp_path, config_path,
                                               capsys):
        out = tmp_path / "tree.json"
        code = main(["build-tree", "--config", config_path, "-o", str(out),
                     "-D", "schemes=[{name: ibt, kind: ibt, c_max: 1.0e-9}]"])
        assert code == 0
        assert json.loads(out.read_text())["depth"] == 0
        assert "depth: 0" in capsys.readouterr().out


class TestSimulate:
    def test_per_frame_csv(self, tmp_path, config_path):
        out = tmp_path / "frames.csv"
        assert main(["simulate", "--config", config_path, "-o", str(out),
                     "--scheme", "ibt", "--grid-value", "0.05"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frame,su_throughput,inr_db,utility,mean_traffic"
        assert len(lines) == 16

    def test_unknown_scheme_fails(self, tmp_path, config_path):
        out = tmp_path / "frames.csv"
        assert main(["simulate", "--config", config_path, "-o", str(out),
                     "--scheme", "nope"]) == 2

    @pytest.mark.parametrize("command, args, message", [
        ("simulate", ["--trial", "-1"], "--trial: must be >= 0, got -1"),
        ("build-tree", ["--trial", "-2"], "--trial: must be >= 0, got -2"),
        ("simulate", ["--grid-value", "0"],
         "--grid-value: must be positive and finite, got 0.0"),
        ("simulate", ["--grid-value", "nan"],
         "--grid-value: must be positive and finite, got nan"),
        ("simulate", ["--scheme", "unc", "--grid-value", "1.5"],
         "--grid-value: must lie in [0, 1], got 1.5"),
    ])
    def test_bad_argument_exits_2(self, tmp_path, config_path, capsys,
                                  command, args, message):
        out = tmp_path / "out"
        code = main([command, "--config", config_path, "-o", str(out)] + args)
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_trace_dump(self, tmp_path, config_path):
        out = tmp_path / "frames.csv"
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config_path, "-o", str(out),
                     "--scheme", "ibt", "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "frame,level,head,aggregate"
        # 16 cells + 8 + 4 + 2 + 1 nodes per frame, 15 frames
        assert len(lines) == 1 + 15 * 31


    @pytest.mark.parametrize("scheme, grid_value", [("ibt", "0.003"),
                                                    ("unc", "0.04")])
    def test_fading_grid_point_uses_its_own_stream(self, tmp_path, config_path,
                                                   scheme, grid_value):
        # the second grid value: its evaluation draws are its own, so the
        # measured frames average to the sweep's row exactly
        fading = ["-D", "topology.kind=random", "-D", "topology.n_blockages=0",
                  "-D", "population={mode: constant, m: 3}",
                  "-D", "experiment.eval_mode=fading_mc",
                  "-D", "experiment.lambda_grid=[0.001, 0.003]",
                  "-D", "experiment.ptx_grid=[0.02, 0.04]"]
        rows = tmp_path / "rows.csv"
        assert main(["sweep", "--config", config_path, "-o", str(rows)]
                    + fading) == 0
        frames = tmp_path / "frames.csv"
        assert main(["simulate", "--config", config_path, "-o", str(frames),
                     "--scheme", scheme, "--grid-value", grid_value]
                    + fading) == 0
        warmup = prepare_trial(load_config(config_path, fading[1::2]),
                               0).warmup
        measured = [float(r["su_throughput"])
                    for r in read_rows(frames)][warmup:]
        row = next(r for r in read_rows(rows) if r["scheme"] == scheme
                   and float(r["lambda_or_ptx"]) == float(grid_value))
        assert float(np.mean(measured)) == float(row["mean_su_throughput"])

    def test_hierarchical_is_follows_the_closed_form(self, tmp_path,
                                                     config_path):
        override = ["-D", "experiment.is_mode=hierarchical",
                    "-D", "schemes=[{name: ibt, kind: ibt, gamma_delay: 0.02}]"]
        out = tmp_path / "frames.csv"
        assert main(["simulate", "--config", config_path, "-o", str(out),
                     "--scheme", "ibt", "--grid-value", "0.05"] + override) == 0
        # reference decisions: SU interference from the ring sums of an
        # exchange fed, at frame t, the traffic committed at frame t - 1
        ctx = prepare_trial(load_config(config_path, override[1::2]), 0)
        rt = ctx.runtimes[0]
        assert ctx.warmup > 0
        ip_seq = scheme_ip_sequence(ctx, rt)
        params = ControlParams(lam=0.05, sinr_th=ctx.config.sinr_th_linear())
        traffic = np.zeros((ctx.t_total, ctx.config.n_cells))
        exchange = HierarchicalExchange(rt.tree, 0.0)
        estimated = False
        for t in range(ctx.t_total):
            prev = traffic[t - 1] if t else np.zeros(ctx.config.n_cells)
            exchange.advance_frame(prev, t)
            is_ = estimate_is_hierarchical(exchange.sigma_all(t),
                                           rt.weights_uncomp)
            estimated |= bool(is_.any())
            traffic[t] = optimal_traffic(ip_seq[t], is_, ctx.m, ctx.phi_diag,
                                         ctx.model, params,
                                         ctx.config.resolved_a_max())
        assert estimated
        assert [r["mean_traffic"] for r in read_rows(out)] == \
            [repr(float(a.mean())) for a in traffic]


class TestSweep:
    def test_sweep_outputs(self, tmp_path, config_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", config_path, "-o", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 + 1  # header + 2 ibt points + 1 unc point
        summary = tmp_path / "rows_summary.csv"
        assert summary.exists()

    def test_summary_next_to_an_output_without_extension(self, tmp_path,
                                                         config_path,
                                                         monkeypatch):
        # the stem is the file name's, never a dotted directory's
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.v2").mkdir()
        assert main(["sweep", "--config", config_path,
                     "-o", "run.v2/results"]) == 0
        assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == \
            ["results", "results_summary.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["config.yaml", "run.v2"]

    def test_byte_identical_reruns(self, tmp_path, config_path):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(["sweep", "--config", config_path, "-o", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_invalid_config_exit_code(self, tmp_path, config_path):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", config_path, "-o", str(out),
                     "-D", "experiment.frames=0"])
        assert code == 2

    @pytest.mark.parametrize("override, path", [
        ("schemes=[{name: ibt, kind: ibt, c_mx: 5}]", "schemes[0].c_mx"),
        ("pathloss={alpah: 3}", "pathloss.alpah"),
        ("experiment.lamda_grid=[0.01]", "experiment.lamda_grid"),
        ("occupancy.mu=0.9", "occupancy.mu"),
        ("occupancy={nu1: 0.005, nu0: 0.095, pi_b: 0.05}", "occupancy.pi_b"),
        ("schemes=[{name: c, kind: consensus, c_max: 3}]", "schemes[0].c_max"),
    ])
    def test_unknown_key_named_with_exit_code_2(self, tmp_path, config_path,
                                                capsys, override, path):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", config_path, "-o", str(out),
                     "-D", override])
        assert code == 2
        assert f"{path}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, path", [
        ("experiment.lambda_grid=0.01", "experiment.lambda_grid"),
        ("experiment.ptx_grid=0.01", "experiment.ptx_grid"),
        ("topology.area=800", "topology.area"),
        ("schemes=[{name: a, kind: ibt, c_max: abc}]", "schemes[0].c_max"),
        ("topology.n_blockages=-1", "topology.n_blockages"),
        ("experiment.frames=2.5", "experiment.frames"),
        ("experiment.frames=null", "experiment.frames"),
        ("topology.n_cells=null", "topology.n_cells"),
        ("experiment.lambda_grid=[.nan]", "experiment.lambda_grid[0]"),
        ("control.sinr_th_db=.nan", "control.sinr_th_db"),
        ("population.a_max=.nan", "population.a_max"),
        ("schemes=[{name: a, kind: ibt, gamma_delay: .nan}]",
         "schemes[0].gamma_delay"),
        ("experiment.trials=true", "experiment.trials"),
        ("experiment.master_seed=-1", "experiment.master_seed"),
        ("experiment.frames=0", "experiment.frames"),
        ("topology.kind=hex", "topology.kind"),
        ("schemes=[{name: a, kind: nope}]", "schemes[0].kind"),
        ("schemes=[{name: a, kind: ibt}, {name: b, kind: ibt, gamma_delay: -1}]",
         "schemes[1].gamma_delay"),
        ("schemes=[{name: ibt, kind: ibt, c_max: -1.0}]", "schemes[0].c_max"),
        ("experiment.lambda_grid=[0.01,0.01]", "experiment.lambda_grid"),
        ("experiment.ptx_grid=[0.02,0.01,0.02]", "experiment.ptx_grid"),
        ("experiment.hop_distance_m=0", "experiment.hop_distance_m"),
        ("experiment.hop_distance_m=-3", "experiment.hop_distance_m"),
        ("population.a_max=-1", "population.a_max"),
        ("population.a_max=0", "population.a_max"),
        ("topology.cell_radius=-5", "topology.cell_radius"),
        ("topology.n_cells=15", "topology.n_cells"),
        ("topology.area=[-400,400]", "topology.area"),
        ("topology.n_blockages=25", "topology.n_blockages"),
        ("schemes=[{name: r, kind: radius_nsi, radius: -1}]",
         "schemes[0].radius"),
        pytest.param(("topology={kind: random, n_cells: 15, area: [400, 400]}",
                      "schemes=[{name: c, kind: consensus, degree: 3}]"),
                     "schemes[0].degree", id="odd-degree-on-odd-cells"),
        ("schemes=[{name: c, kind: consensus, degree: 16}]",
         "schemes[0].degree"),
        ("schemes=[{name: c, kind: consensus, degree: 1}]",
         "schemes[0].degree"),
        ("schemes=[{name: c, kind: consensus, rounds: -1}]",
         "schemes[0].rounds"),
        ("sensing={eps_f: 0.05, eps_m: 0.05}", "sensing"),
        ("pathloss.ref_distance_m=.inf", "pathloss.ref_distance_m"),
        ("pathloss.tx_power_dbm=.inf", "pathloss.tx_power_dbm"),
        ("pathloss.alpha_nlos=.inf", "pathloss.alpha_nlos"),
        ("control.sinr_th_db=-.inf", "control.sinr_th_db"),
        ("control.sinr_th_db=.inf", "control.sinr_th_db"),
        ("experiment.lambda_grid=[.inf]", "experiment.lambda_grid"),
        ("schemes=[{name: f, kind: full_nsi, gamma_delay: .inf}]",
         "schemes[0].gamma_delay"),
        ("schemes=[{name: f, kind: full_nsi, gamma_delay: 1.0e+30}]",
         "schemes[0].gamma_delay"),
        ("schemes=[{name: i, kind: ibt, gamma_delay: .inf}]",
         "schemes[0].gamma_delay"),
        ("topology.area=[1.0e+300, 1.0e+300]", "topology.area"),
        # histories numpy cannot index: a warm-up over 1e18 frames, tree
        # delays that would wrap int64, or too many frames
        pytest.param(("experiment.frames=5",
                      "schemes=[{name: f, kind: rt, gamma_delay: 1.0e+16}]"),
                     "schemes[0].gamma_delay", id="rt-warm-up"),
        pytest.param(("experiment.frames=5",
                      "schemes=[{name: f, kind: full_nsi, "
                      "gamma_delay: 1.0e+16}]"),
                     "schemes[0].gamma_delay", id="full-nsi-warm-up"),
        pytest.param(("experiment.frames=5",
                      "schemes=[{name: f, kind: ibt, gamma_delay: 1.6e+16}]"),
                     "schemes[0].gamma_delay", id="ibt-delays-wrap"),
        ("experiment.frames=1000000000000000000", "experiment.frames"),
        ("experiment.extra_warmup=1000000000000000000",
         "experiment.extra_warmup"),
    ])
    def test_bad_value_named_with_exit_code_2(self, tmp_path, capsys,
                                              override, path):
        out = tmp_path / "rows.csv"
        overrides = (override,) if isinstance(override, str) else override
        code = main(["sweep", "--config", "configs/sweep_small.yaml",
                     "-o", str(out)]
                    + [arg for o in overrides for arg in ("-D", o)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("pathloss.bandwidth_hz=-1", "pathloss: bandwidth_hz must be positive"),
        ("pathloss={alpha_los: 4, alpha_nlos: 3}",
         "pathloss: need alpha_nlos >= alpha_los > 0"),
        ("occupancy={nu1: 0, nu0: 0.1}", "occupancy: nu1 must be positive"),
    ])
    def test_model_parameter_error_exits_2(self, tmp_path, config_path, capsys,
                                           override, message):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", config_path, "-o", str(out),
                     "-D", override])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_program_fault_exits_1_with_traceback(self, tmp_path, config_path,
                                                  capsys, monkeypatch):
        def faulty(config, trial):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(harness, "prepare_trial", faulty)
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", config_path, "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" in err and "operands could not be broadcast" in err
        assert "error:" not in err
        assert not out.exists()

    def test_no_connected_graph_named_with_exit_code_2(self, tmp_path, capsys,
                                                       monkeypatch):
        def never_connected(n, degree, seed):
            raise RuntimeError(f"no connected degree-{degree} graph found")

        monkeypatch.setattr("hiersense.control.random_regular_connected",
                            never_connected)
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", "configs/sweep_small.yaml",
                     "-o", str(out), "-D",
                     "schemes=[{name: u, kind: uncoordinated}, "
                     "{name: c, kind: consensus, degree: 2}]"])
        err = capsys.readouterr().err
        assert code == 2
        assert "schemes[1]: no connected degree-2 graph" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, what", [
        ("topology: {kind: grid\nschemes: [\n", "while parsing"),
        ("- {name: ibt, kind: ibt}\n", "must be a mapping"),
    ])
    def test_unusable_yaml_exits_2(self, tmp_path, capsys, text, what):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(path), "-o", str(out),
                     "-D", "experiment.frames=5"])
        err = capsys.readouterr().err
        assert code == 2
        assert what in err and str(path) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_override_that_is_not_yaml_exits_2(self, tmp_path, config_path,
                                               capsys):
        code = main(["sweep", "--config", config_path,
                     "-o", str(tmp_path / "rows.csv"),
                     "-D", "experiment.lambda_grid=[0.01"])
        err = capsys.readouterr().err
        assert code == 2
        assert "while parsing" in err and "Traceback" not in err

    def test_seed_beyond_float_precision_accepted(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", "configs/sweep_small.yaml",
                     "-o", str(out),
                     "-D", f"experiment.master_seed={2 ** 53 + 1}",
                     "-D", "experiment.trials=1",
                     "-D", "experiment.frames=5",
                     "-D", "experiment.lambda_grid=[0.05]",
                     "-D", "experiment.ptx_grid=[0.01]"])
        assert code == 0

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_shipped_example_config_loads(self, tmp_path, config):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(ROOT / config), "-o", str(out),
                     "-D", "experiment.trials=1",
                     "-D", "experiment.frames=5",
                     "-D", "experiment.lambda_grid=[0.05]",
                     "-D", "experiment.ptx_grid=[0.01]"])
        assert code == 0

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_shipped_config_parses_as_safe_load(self, config):
        with open(ROOT / config) as fh:
            parsed = _load_yaml(fh)
        with open(ROOT / config) as fh:
            assert parsed == yaml.safe_load(fh)


class TestUnwritableOutput:
    """An output path that cannot be written exits 2, naming its flag,
    before any trial is set up."""

    @pytest.fixture(autouse=True)
    def no_trial(self, monkeypatch):
        def trial(*args, **kwargs):
            raise AssertionError("a trial was set up")
        for module, name in ((harness, "prepare_trial"), (cli, "prepare_trial"),
                             (cli, "trial_topology")):
            monkeypatch.setattr(module, name, trial)

    @pytest.mark.parametrize("argv, flag, fault", [
        (["sweep", "-o", "{missing}/x.csv"], "output", "{missing} is not"),
        (["sweep", "-o", "{file}/x.csv"], "output", "{file} is not"),
        (["sweep", "-o", "{dir}"], "output", "{dir} is a directory"),
        (["sweep", "-o", "{dir}/x.csv", "--summary", "{missing}/s.csv"],
         "summary", "{missing} is not"),
        (["sweep", "-o", "{dir}/x.csv", "--summary", "{dir}"], "summary",
         "{dir} is a directory"),
        (["sweep", "-o", "{dir}/sub/x"], "summary",
         "{dir}/sub/x_summary.csv is a directory"),
        (["simulate", "-o", "{missing}/s.csv"], "output", "{missing} is not"),
        (["simulate", "-o", "{dir}/s.csv", "--trace", "{missing}/t.csv"],
         "trace", "{missing} is not"),
        (["simulate", "-o", "{dir}/s.csv", "--trace", "{dir}"], "trace",
         "{dir} is a directory"),
        (["build-tree", "-o", "{missing}/t.json"], "output",
         "{missing} is not"),
        (["build-tree", "-o", "{dir}"], "output", "{dir} is a directory"),
    ], ids=["sweep-missing-dir", "sweep-dir-is-file", "sweep-dir",
            "summary-missing-dir", "summary-dir", "derived-summary-dir",
            "simulate-missing-dir", "trace-missing-dir", "trace-dir",
            "build-tree-missing-dir", "build-tree-dir"])
    def test_exits_2_before_any_trial(self, tmp_path, config_path, capsys,
                                      argv, flag, fault):
        (tmp_path / "sub" / "x_summary.csv").mkdir(parents=True)
        (tmp_path / "file").write_text("")
        names = {"missing": tmp_path / "missing", "file": tmp_path / "file",
                 "dir": tmp_path}
        argv = [a.format(**names) for a in argv]
        before = sorted(tmp_path.rglob("*"))
        code = main([argv[0], "--config", config_path, *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: --{flag}: {fault.format(**names)}")
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before


class TestValidate:
    def test_default_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "belief-oracle" in out and "FAIL" not in out

    def test_corrupted_memory_reported(self, config_path, capsys):
        code = main(["validate", "--config", config_path,
                     "-D", "occupancy.nu0=0.999"])  # memory 1 - nu1 - nu0 < 0
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "config" in out

    def test_faulty_ring_sum_engine_fails(self, monkeypatch, capsys):
        # the engine behind every tree scheme's sweep rows is the one checked
        commit = RunningRingSums.commit

        def faulty(self, values):
            commit(self, values)
            # one more occupied cell under the last frame's top-level head
            self._agg[self.t - self._origin, -1] += 1.0

        monkeypatch.setattr(RunningRingSums, "commit", faulty)
        assert main(["validate"]) == 1
        assert "FAIL  aggregate-identity" in capsys.readouterr().out

    def test_faulty_traffic_kernel_fails(self, monkeypatch, capsys):
        # the decision kernel of every sweep is checked against its oracle,
        # off the clips too
        step = control.TrafficKernel.step

        def faulty(self, ip, is_, gain, out):
            a = step(self, ip, is_, gain, out)
            a[...] = np.where((a > 0) & (a < self.upper),
                              np.nextafter(a, np.inf), a)
            return a

        monkeypatch.setattr(control.TrafficKernel, "step", faulty)
        assert main(["validate"]) == 1
        assert "FAIL  traffic-optimum" in capsys.readouterr().out

    def test_raising_check_fails_and_the_rest_run(self, config_path,
                                                  monkeypatch, capsys):
        commit = RunningRingSums.commit

        def faulty(self, values):
            commit(self, values)
            # half an occupied cell under the last frame's top-level head
            self._agg[self.t - self._origin, -1] += 0.5

        monkeypatch.setattr(RunningRingSums, "commit", faulty)
        assert main(["validate", "--config", config_path]) == 1
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
        assert [line.split(":")[0] for line in checks] == [
            "PASS  config", "FAIL  aggregate-identity", "FAIL  belief-oracle",
            "PASS  traffic-optimum", "PASS  jensen-bound"]
        assert checks[2].endswith("raised ValueError: noiseless aggregates "
                                  "must be integral")
        assert lines[-1] == "FAILED: 2 check(s) failed"

    def test_with_valid_config(self, config_path):
        assert main(["validate", "--config", config_path]) == 0
