import copy
import csv
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersense import (ConfigError, ExperimentConfig, HierarchicalExchange,
                       RunningRingSums, SchemeSpec, Simulation, control,
                       estimate_ip, eval_fading_success, harness,
                       run_experiment, throughput_lb)
from hiersense.config import _SECTION_KEYS, SCHEME_KINDS
from hiersense.dynamics import (OccupancyModel, sample_steady_state,
                                step_occupancy)
from hiersense.harness import (FadingLayout, _fill_cells_uniform,
                               prepare_trial, run_trial_point,
                               scheme_ip_sequence, write_table)
from hiersense.inference import estimate_is_hierarchical, estimate_is_oracle
from hiersense.sensing import (SensorModel, filter_posteriors,
                               posterior_update, prior_propagate,
                               sample_detection_count)
from hiersense.topology import frame_delays, lin_to_db
from hiersense import ControlParams, PathlossParams
from tests.oracles import (block, db_to_lin_fresh, eval_fading_frame,
                           pathloss_db_fresh, square_block)


def small_config(**kw):
    base = dict(
        n_cells=16, area=(400.0, 400.0), n_blockages=1,
        schemes=(SchemeSpec("ibt", "ibt"), SchemeSpec("full", "full_nsi")),
        lambda_grid=(0.01, 0.1), ptx_grid=(0.01,), frames=40, trials=2,
        master_seed=9,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def simulation(ctx, rt, grid_value):
    """A Simulation handed its scheme's licensed-user estimate."""
    return Simulation(ctx, rt, grid_value, scheme_ip_sequence(ctx, rt))


def run_point(ctx, scheme_idx, grid_value):
    """Every frame's record of one grid point of the trial."""
    ip_seq = scheme_ip_sequence(ctx, ctx.runtimes[scheme_idx])
    frames, _ = run_trial_point(ctx, scheme_idx, grid_value, 0, ip_seq)
    return frames


def with_occupancy(ctx, b_seq):
    """The trial with its occupancy replaced and sensed without noise."""
    assert ctx.config.sensor_model().noiseless
    return replace(ctx, b_seq=b_seq, bhat_seq=b_seq.astype(float))


class TestConfig:
    def test_validation_reports_field_names(self):
        cfg = small_config(frames=0, trials=0, schemes=())
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        assert "frames" in msg and "trials" in msg and "schemes" in msg

    def test_corrupted_memory_override_rejected(self):
        cfg = small_config(nu1=0.6, nu0=0.6)  # memory 1 - nu1 - nu0 < 0
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert "occupancy" in str(err.value)

    def test_from_dict_roundtrip_essentials(self):
        raw = {
            "topology": {"kind": "grid", "n_cells": 16, "area": [400, 400],
                         "n_blockages": 2},
            "occupancy": {"nu1": 0.005, "nu0": 0.095},
            "population": {"mode": "dense"},
            "schemes": [{"name": "ibt", "kind": "ibt", "c_max": "inf"},
                        {"name": "rad", "kind": "radius_nsi",
                         "radius": ".inf"},
                        {"name": "unc", "kind": "uncoordinated"}],
            "experiment": {"frames": 10, "trials": 1, "lambda_grid": [0.1],
                           "ptx_grid": [0.0, 0.5]},
        }
        cfg = ExperimentConfig.from_dict(raw)
        cfg.validate()
        assert cfg.n_cells == 16
        assert cfg.schemes[0].c_max == cfg.schemes[1].radius == math.inf
        assert cfg.resolved_a_max() == pytest.approx(0.5)

    def test_missing_keys_take_the_field_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()

    @pytest.mark.parametrize("seed", [2 ** 53 + 1, 2 ** 127 + 3])
    def test_seed_beyond_float_precision_kept_exactly(self, seed):
        cfg = ExperimentConfig.from_dict({"experiment": {"master_seed": seed}})
        assert cfg.master_seed == seed

    def test_nan_rejected_in_python_built_configs(self):
        cfg = ExperimentConfig(schemes=(SchemeSpec("a", "ibt"),),
                               lambda_grid=(math.nan,), sinr_th_db=math.nan,
                               n_cells=16, frames=2, trials=1)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert "experiment.lambda_grid: " in str(err.value)
        assert "control.sinr_th_db: must not be NaN" in str(err.value)
        with pytest.raises(ConfigError, match=r"schemes\[\]\.gamma_delay"):
            SchemeSpec("a", "ibt", gamma_delay=math.nan)

    def test_unknown_is_mode_rejected(self):
        with pytest.raises(ConfigError, match="is_mode"):
            small_config(is_mode="psychic").validate()

    def test_fading_requires_constant_population(self):
        cfg = small_config(eval_mode="fading_mc", population_mode="dense")
        with pytest.raises(ConfigError):
            cfg.validate()


class TestDeterminism:
    def test_identical_runs(self):
        cfg = small_config()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.rows == r2.rows

    def test_master_seed_changes_results(self):
        r1 = run_experiment(small_config())
        r2 = run_experiment(small_config(master_seed=10))
        assert r1.rows != r2.rows

    def test_row_inventory(self):
        cfg = small_config(schemes=(SchemeSpec("ibt", "ibt"),
                                    SchemeSpec("unc", "uncoordinated")),
                           ptx_grid=(0.005, 0.02))
        res = run_experiment(cfg)
        # ibt: 2 lambda x 2 trials; unc: 2 ptx x 2 trials
        assert len(res.rows) == 8
        assert list(res.groups("ibt")) == [0.01, 0.1]
        assert list(res.groups("unc")) == [0.005, 0.02]
        assert {r.seed for r in res.rows} == {0, 1}


class TestIbtSchemesBuiltTogether:
    def test_each_scheme_gets_the_tree_it_gets_alone(self, monkeypatch):
        # the first two IBT schemes share a gamma_delay, so one greedy pass
        # builds both; the last has its own
        alone = lambda spec: prepare_trial(small_config(schemes=(spec,)),
                                           0).runtimes[0]
        free = alone(SchemeSpec("free", "ibt", gamma_delay=0.02)).tree
        passes, build_ibts = [], harness.build_ibts

        def one_pass(*args):
            passes.append((args[3:], build_ibts(*args)))
            return passes[-1][1]

        monkeypatch.setattr(harness, "build_ibts", one_pass)
        schemes = (SchemeSpec("free", "ibt", gamma_delay=0.02),
                   SchemeSpec("rt", "rt", gamma_delay=0.02),
                   SchemeSpec("half", "ibt", gamma_delay=0.02,
                              c_max=free.cost_per_cell / 2),
                   SchemeSpec("far", "ibt", gamma_delay=0.05,
                              c_max=free.cost_per_cell / 4))
        ctx = prepare_trial(small_config(schemes=schemes), 0)
        assert [args for args, _ in passes] == [
            (0.02, [math.inf, schemes[2].c_max]), (0.05, [schemes[3].c_max])]
        built = [tree for _, trees in passes for tree in trees]
        assert all(ctx.runtimes[k].tree is tree
                   for k, tree in zip((0, 2, 3), built))
        trees = [ctx.runtimes[k].tree.to_dict() for k in (0, 2, 3)]
        assert trees[0] != trees[1] and trees[1] != trees[2]
        for k in (0, 2, 3):
            got, want = ctx.runtimes[k], alone(schemes[k])
            assert got.tree.to_dict() == want.tree.to_dict()
            assert got.warmup == want.warmup
            assert got.agg_cost_per_cell == want.agg_cost_per_cell
            assert np.array_equal(got.weights.phi_del, want.weights.phi_del)


class TestFrameLoop:
    @pytest.mark.parametrize("scheme_idx", [0, 1])  # ibt, full_nsi
    def test_causality_traffic_ignores_future(self, scheme_idx):
        cfg = small_config(trials=1, frames=20)
        ctx = prepare_trial(cfg, 0)
        base = ctx.b_seq.copy()
        fork = base.copy()
        fork[10:] = 1 - fork[10:]  # flip every occupancy bit from frame 10 on
        runs = [run_point(with_occupancy(ctx, seq), scheme_idx, 0.002).traffic
                for seq in (base, fork)]
        for t in range(10):
            assert np.array_equal(runs[0][t], runs[1][t])
        assert not np.array_equal(runs[0][12], runs[1][12])

    def test_empty_spectrum_saturates_traffic(self):
        # silent PUs + exact NSI: zero estimated interference, so every cell
        # rides the upper clip (the dense-mode rail here)
        cfg = small_config(trials=1, frames=5)
        ctx = prepare_trial(cfg, 0)
        silent = np.zeros_like(ctx.b_seq)
        frames = run_point(with_occupancy(ctx, silent), 1, 1.0)
        assert frames.traffic.shape == (5, 16)
        assert (frames.traffic == cfg.resolved_a_max()).all()
        assert (frames.inr_linear == 0.0).all()

    def test_uncoordinated_skips_estimation(self, monkeypatch):
        cfg = small_config(schemes=(SchemeSpec("unc", "uncoordinated"),),
                           trials=1)
        ctx = prepare_trial(cfg, 0)
        assert scheme_ip_sequence(ctx, ctx.runtimes[0]) is None

        def no_loop(self):
            raise AssertionError("uncoordinated access ran the frame loop")

        monkeypatch.setattr(Simulation, "run_frame", no_loop)
        frames = run_point(ctx, 0, 0.25)
        assert (frames.traffic == 0.25 * cfg.resolved_a_max()).all()
        assert np.isnan(frames.utility).all()

    def test_analytic_metric_is_bound_at_committed_values(self):
        cfg = small_config(trials=1, frames=8)
        ctx = prepare_trial(cfg, 0)
        frames = run_point(ctx, 0, 0.05)
        for t in range(8):
            a = frames.traffic[t]
            b = ctx.b_seq[t].astype(float)
            ip = b @ ctx.coupling
            is_ = a @ ctx.coupling - a
            expect = float(np.mean(throughput_lb(
                a, ctx.m, ip, is_, ctx.phi_diag,
                ControlParams(lam=0.05, sinr_th=cfg.sinr_th_linear()))))
            assert frames.su_throughput[t] == expect

    def test_hierarchical_is_mode_runs(self):
        cfg = small_config(is_mode="hierarchical", trials=1, frames=10,
                           schemes=(SchemeSpec("ibt", "ibt"),))
        ctx = prepare_trial(cfg, 0)
        _, row = run_trial_point(ctx, 0, 0.05, 0,
                                 scheme_ip_sequence(ctx, ctx.runtimes[0]))
        assert row.mean_su_throughput > 0

    def test_warmup_invariance(self):
        # discarding extra frames beyond the tree delay only moves the mean
        # within Monte Carlo noise
        cfg = small_config(trials=4, frames=150, lambda_grid=(0.05,),
                           schemes=(SchemeSpec("ibt", "ibt", gamma_delay=0.01),))
        vals = {}
        for extra in (0, 25):
            res = run_experiment(replace(cfg, extra_warmup=extra))
            vals[extra] = np.array([r.mean_su_throughput for r in res.rows])
        diff = vals[0] - vals[25]
        spread = np.abs(vals[0]).mean()
        assert np.abs(diff).mean() < 0.15 * spread

    def test_consensus_and_radius_and_rt_schemes_run(self):
        cfg = small_config(schemes=(
            SchemeSpec("rt", "rt"),
            SchemeSpec("radius", "radius_nsi", radius=120.0),
            SchemeSpec("cons", "consensus", degree=5, rounds=10),
        ), trials=1, frames=15, lambda_grid=(0.05,))
        res = run_experiment(cfg)
        assert len(res.rows) == 3
        [[radius_row]] = res.groups("radius").values()
        assert radius_row.agg_cost_per_cell > 0

    def test_nsi_warmup_and_cost_come_from_the_delays(self):
        cfg = small_config(schemes=(
            SchemeSpec("full", "full_nsi", gamma_delay=0.02),
            SchemeSpec("radius", "radius_nsi", radius=120.0)), trials=1)
        ctx = prepare_trial(cfg, 0)
        dist = ctx.topology.distance_matrix
        full, radius = ctx.runtimes
        # the bit from the farthest cell arrives last
        assert full.warmup == math.ceil(0.02 * dist.max()) > 0
        assert full.agg_cost_per_cell == cfg.n_cells - 1
        assert radius.warmup == 0
        within = (dist <= 120.0) & ~np.eye(cfg.n_cells, dtype=bool)
        assert radius.agg_cost_per_cell == within.sum(axis=1).mean()
        assert ctx.warmup == full.warmup


@dataclass
class FrameMetrics:
    """One frame's metrics, as the frame-by-frame oracle scores them."""

    t: int
    su_throughput: float
    inr_linear: float
    inr_db: float
    utility: float
    traffic: np.ndarray


class FrameByFrame:
    """Oracle of the decision loop and the block scorer: each frame is
    decided by ``control.optimal_traffic`` and then scored on its own,
    uncoordinated access included, and the oracle SU-interference estimate
    is recomputed from the last frame's committed traffic.  It keeps its own
    state and shares no decision code with :class:`Simulation`."""

    def __init__(self, ctx, rt, grid_value, ip_seq, eval_rng):
        cfg = ctx.config
        self.ctx, self.rt = ctx, rt
        self.ip_seq = ip_seq
        self.grid_value = grid_value
        self.uncoordinated = rt.spec.kind == "uncoordinated"
        self.params = ControlParams(lam=float(grid_value),
                                    sinr_th=cfg.sinr_th_linear())
        self.a_max = cfg.resolved_a_max()
        self.eval_rng = eval_rng
        self.a_hist = np.zeros((ctx.t_total, cfg.n_cells))
        self._traffic = None if rt.weights_uncomp is None else \
            RunningRingSums(rt.tree, ctx.t_total)
        self.t = -1

    def _estimate_is(self, t):
        if self._traffic is not None:
            return estimate_is_hierarchical(self._traffic.ring_sums(t - 1),
                                            self.rt.weights_uncomp)
        prev = self.a_hist[t - 1] if t > 0 else np.zeros(self.a_hist.shape[1])
        return estimate_is_oracle(self.ctx.coupling, prev)

    def run_frame(self) -> FrameMetrics:
        self.t += 1
        t = self.t
        ctx, cfg = self.ctx, self.ctx.config
        b = ctx.b_seq[t]

        if self.uncoordinated:
            a = control.uncoordinated_traffic(self.grid_value, ctx.m, self.a_max)
        else:
            a = control.optimal_traffic(self.ip_seq[t], self._estimate_is(t),
                                        ctx.m, ctx.phi_diag, ctx.model,
                                        self.params, self.a_max)
        a = np.asarray(a, dtype=float)

        ip_true = b.astype(float) @ ctx.coupling
        is_true = a @ ctx.coupling - a
        if self.uncoordinated:
            util = math.nan
        else:
            util = float(np.mean(control.utility(
                a, ip_true, is_true, ctx.m, ctx.phi_diag, ctx.model, self.params)))

        if cfg.eval_mode == "fading_mc":
            counts, inr_lin = eval_fading_frame(
                ctx.fading, a, ctx.m, b, self.params.sinr_th,
                float(ctx.model.pi_b), self.eval_rng)
            throughput = float(counts.mean())
        else:
            inr_lin, _ = control.network_inr(a, b, ctx.phi, ctx.model)
            thr = control.throughput_lb(a, ctx.m, ip_true, is_true,
                                        ctx.phi_diag, self.params)
            throughput = float(np.mean(thr))

        self.a_hist[t] = a
        if self._traffic is not None:
            self._traffic.commit(a)
        return FrameMetrics(t=t, su_throughput=throughput, inr_linear=inr_lin,
                            inr_db=float(lin_to_db(inr_lin)), utility=util,
                            traffic=a.copy())


class TestBlockScoringMatchesFrameOracle:
    SCHEMES = (SchemeSpec("ibt", "ibt", gamma_delay=0.02),
               SchemeSpec("rt", "rt", gamma_delay=0.02),
               SchemeSpec("full", "full_nsi", gamma_delay=0.02),
               SchemeSpec("radius", "radius_nsi", radius=120.0),
               SchemeSpec("cons", "consensus", degree=3, rounds=4),
               SchemeSpec("unc", "uncoordinated"))

    @staticmethod
    def same(x, y):
        return np.array_equal(x, y, equal_nan=True)

    @pytest.mark.parametrize("is_mode", ["oracle", "hierarchical"])
    @pytest.mark.parametrize("eval_mode", ["analytic_lb", "fading_mc"])
    def test_every_frame_equal_bit_for_bit(self, eval_mode, is_mode,
                                           monkeypatch):
        population = dict(population_mode="constant", m_per_cell=3) \
            if eval_mode == "fading_mc" else {}
        self.check_every_frame(eval_mode, is_mode, population, monkeypatch)

    @pytest.mark.parametrize("is_mode", ["oracle", "hierarchical"])
    @pytest.mark.parametrize("eval_mode", ["analytic_lb", "fading_mc"])
    def test_single_su_cells_equal_bit_for_bit(self, eval_mode, is_mode,
                                               monkeypatch):
        # one SU per cell: c = 0, so the rule is linear in the traffic and
        # decides at a rail, idle or the cell's one SU
        decided = self.check_every_frame(
            eval_mode, is_mode, dict(population_mode="constant", m_per_cell=1),
            monkeypatch)
        assert np.unique(decided).tolist() == [0.0, 1.0]

    def check_every_frame(self, eval_mode, is_mode, population, monkeypatch):
        """Every point of a trial against FrameByFrame; returns the
        coordinated schemes' traffic."""
        fading = dict(topology_kind="random", n_blockages=0) \
            if eval_mode == "fading_mc" else {}
        # a busy spectrum (pi_b = 0.2) puts many active PUs in every frame
        cfg = small_config(schemes=self.SCHEMES, eval_mode=eval_mode,
                           is_mode=is_mode, trials=1, frames=25, nu1=0.02,
                           nu0=0.08, extra_warmup=2, ptx_grid=(0.1, 0.6),
                           **fading, **population)
        ctx = prepare_trial(cfg, 0)
        assert ctx.warmup > 2  # the delayed schemes add warm-up frames
        streams = []  # the evaluation stream of each scored point
        score = harness.score_frames

        def recorded(ctx, traffic, is_true, params, eval_rng):
            streams.append(eval_rng)
            return score(ctx, traffic, is_true, params, eval_rng)

        monkeypatch.setattr(harness, "score_frames", recorded)
        decided = []  # the coordinated schemes' traffic
        for k, spec in enumerate(cfg.schemes):
            rt = ctx.runtimes[k]
            ip_seq = scheme_ip_sequence(ctx, rt)
            for g, gval in enumerate(cfg.grid(spec)):
                got, row = run_trial_point(ctx, k, gval, g, ip_seq)
                if spec.kind != "uncoordinated":
                    decided.append(got.traffic)
                oracle = FrameByFrame(ctx, rt, gval, ip_seq, harness._seed_rng(
                    cfg.master_seed, ctx.trial, 7, k, g))
                frames = [oracle.run_frame() for _ in range(ctx.t_total)]
                assert np.array_equal(got.t, np.arange(ctx.t_total))
                for t, f in enumerate(frames):
                    assert np.array_equal(got.traffic[t], f.traffic)
                    assert got.su_throughput[t] == f.su_throughput
                    assert got.inr_linear[t] == f.inr_linear
                    assert got.inr_db[t] == f.inr_db
                    assert self.same(got.utility[t], f.utility)
                # the scorer left the point's stream where the oracle did
                assert streams[-1].bit_generator.state \
                    == oracle.eval_rng.bit_generator.state
                measured = frames[ctx.warmup:]
                assert row.mean_su_throughput == float(np.mean(
                    [f.su_throughput for f in measured]))
                assert row.mean_inr_linear == float(np.mean(
                    [f.inr_linear for f in measured]))
                assert self.same(row.mean_utility, float(np.mean(
                    [f.utility for f in measured])))
        return decided


class TestOccupancyProducts:
    def test_rows_equal_the_per_frame_products(self):
        # a busy spectrum (pi_b = 0.2): a whole-block product of this
        # history differs from the per-frame ones in the last bits
        ctx = prepare_trial(small_config(trials=1, nu1=0.02, nu0=0.08), 0)
        ip_true, phi_b = ctx.occupancy_products
        assert ip_true.shape == phi_b.shape == ctx.b_seq.shape
        for t, b in enumerate(ctx.b_seq):
            assert np.array_equal(ip_true[t], b.astype(float) @ ctx.coupling)
            assert np.array_equal(phi_b[t], ctx.phi.phi @ b.astype(float))

    def test_computed_once_per_trial(self, monkeypatch):
        calls = []
        products = harness.occupancy_products

        def counted(*args):
            calls.append(args)
            return products(*args)

        monkeypatch.setattr(harness, "occupancy_products", counted)
        cfg = small_config(schemes=(SchemeSpec("ibt", "ibt"),
                                    SchemeSpec("unc", "uncoordinated")),
                           lambda_grid=(0.01, 0.03, 0.1),
                           ptx_grid=(0.01, 0.02, 0.04), trials=2, frames=10)
        res = run_experiment(cfg)
        assert len(res.rows) == 2 * 2 * 3
        assert len(calls) == cfg.trials


class TestTrafficDecision:
    def test_kernel_built_once_per_trial(self, monkeypatch):
        built = []
        kernel = control.TrafficKernel

        def counted(*args):
            built.append(args)
            return kernel(*args)

        monkeypatch.setattr(control, "TrafficKernel", counted)
        cfg = small_config(schemes=(SchemeSpec("ibt", "ibt"),
                                    SchemeSpec("full", "full_nsi"),
                                    SchemeSpec("unc", "uncoordinated")),
                           lambda_grid=(0.01, 0.03, 0.1), trials=2, frames=10)
        res = run_experiment(cfg)
        assert len(res.rows) == 2 * (2 * 3 + 1)
        assert len(built) == cfg.trials

    def test_negative_licensed_estimate_rejected(self):
        ctx = prepare_trial(small_config(trials=1, frames=8), 0)
        ip_seq = scheme_ip_sequence(ctx, ctx.runtimes[0]).copy()
        ip_seq[-1, 3] = -1e-3  # the last frame's: checked before the loop
        with pytest.raises(ValueError, match="interference estimates must "
                                             "be nonnegative"):
            run_trial_point(ctx, 0, 0.1, 0, ip_seq)

    def test_negative_su_interference_estimate_rejected(self):
        ctx = prepare_trial(small_config(trials=1, frames=8), 0)
        assert ctx.config.is_mode == "oracle"
        ip_seq = scheme_ip_sequence(ctx, ctx.runtimes[0])
        frames, _ = run_trial_point(ctx, 0, 0.1, 0, ip_seq)
        assert frames.traffic[:-1, 0].any()
        # cell 0's traffic now lowers cell 3's SU-interference estimate
        ctx.coupling = ctx.coupling.copy()
        ctx.coupling[0, 3] = -1e3
        with pytest.raises(ValueError, match="interference estimates must "
                                             "be nonnegative"):
            run_trial_point(ctx, 0, 0.1, 0, ip_seq)

    def test_zero_estimate_without_rail_rejected(self, monkeypatch):
        cfg = small_config(trials=1, frames=8)
        ctx = prepare_trial(cfg, 0)
        assert cfg.population_mode == "dense" and np.isinf(ctx.m).all()
        # a dense population with no a_max rail; configs always resolve one
        monkeypatch.setattr(ExperimentConfig, "resolved_a_max",
                            lambda self: None)
        ip_seq = scheme_ip_sequence(ctx, ctx.runtimes[0]).copy()
        ip_seq[-1, 3] = 0.0
        with pytest.raises(ValueError, match="needs a_max"):
            run_trial_point(ctx, 0, 0.1, 0, ip_seq)


class TestFadingEvaluation:
    def test_single_link_matches_exponential_tail(self, rng):
        phi_own = 20.0
        layout = FadingLayout(su_cell=np.array([0]),
                              pl_su_su=np.array([[phi_own]]),
                              pl_pu_su=np.zeros((1, 1)),
                              pl_su_pu=np.zeros((1, 1)))
        th = 10 ** 0.5
        n = 40_000
        # one cell, one SU: a frame's throughput is its success count
        thr, _ = eval_fading_success(layout, np.ones((n, 1)), np.array([1.0]),
                                     np.zeros((n, 1), dtype=int), th, 0.05,
                                     rng)
        wins = int(thr.sum())
        p = math.exp(-th / phi_own)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(wins / n - p) < 3 * sigma

    def test_two_user_closed_form(self, rng):
        # success probability with one Rayleigh interferer:
        #   exp(-th/p_own) / (1 + th * p_int / p_own)
        p_own, p_int = 25.0, 4.0
        # SU 1's own link is cut, so it only interferes and every success
        # is SU 0's; its draws and SU 0's SINR are unchanged
        layout = FadingLayout(
            su_cell=np.array([0, 1]),
            pl_su_su=np.array([[p_own, p_int], [p_int, 0.0]]),
            pl_pu_su=np.zeros((2, 2)),
            pl_su_pu=np.zeros((2, 2)))
        th = 10 ** 0.5
        n = 40_000
        # both SUs always transmit; a frame's throughput is its successes
        # over the two cells
        thr, _ = eval_fading_success(layout, np.ones((n, 2)), np.ones(2),
                                     np.zeros((n, 2), dtype=int), th, 0.05,
                                     rng)
        wins = int(2 * thr.sum())
        p = math.exp(-th / p_own) / (1 + th * p_int / p_own)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(wins / n - p) < 3 * sigma

    def test_mismatched_shapes_rejected(self, rng):
        layout = FadingLayout(su_cell=np.array([0, 1]),
                              pl_su_su=np.ones((2, 2)),
                              pl_pu_su=np.ones((2, 2)),
                              pl_su_pu=np.ones((2, 2)))
        traffic, m = np.ones((3, 2)), np.ones(2)
        for busy in (np.ones((3, 3), dtype=int), np.ones((2, 2), dtype=int),
                     np.ones(2, dtype=int)):
            with pytest.raises(ValueError, match="shapes disagree"):
                eval_fading_success(layout, traffic, m, busy, 3.16, 0.1, rng)
        # the layout is frozen: scoring keeps no state on it
        with pytest.raises(FrozenInstanceError):
            layout.pl_su_pu = np.ones((2, 3))
        with pytest.raises(ValueError, match="shapes disagree"):
            eval_fading_success(replace(layout, pl_su_pu=np.ones((2, 3))),
                                traffic, m, np.ones((3, 2), dtype=int), 3.16,
                                0.1, rng)

    def test_layout_respects_cell_quota(self):
        cfg = small_config(topology_kind="random", n_blockages=0,
                           population_mode="constant", m_per_cell=4,
                           eval_mode="fading_mc")
        ctx = prepare_trial(cfg, 0)
        counts = np.bincount(ctx.fading.su_cell, minlength=16)
        assert (counts == 4).all()
        assert ctx.fading.pl_su_su.shape == (64, 64)

    def test_fading_experiment_runs(self):
        cfg = small_config(topology_kind="random", n_blockages=0,
                           population_mode="constant", m_per_cell=3,
                           eval_mode="fading_mc", trials=1, frames=10,
                           lambda_grid=(0.05,),
                           schemes=(SchemeSpec("ibt", "ibt"),
                                    SchemeSpec("unc", "uncoordinated")))
        res = run_experiment(cfg)
        assert len(res.rows) == 2


def _eval_fading_by_blocks(layout, traffic, m, b, sinr_th, pi_b, rng):
    """Oracle of eval_fading_frame: one draw and one np.ix_ gather per link
    block."""
    n_cells = layout.pl_pu_su.shape[0]
    p = np.clip(np.asarray(traffic) / np.asarray(m), 0.0, 1.0)
    act = np.flatnonzero(rng.random(len(layout.su_cell)) < p[layout.su_cell])
    apu = np.flatnonzero(np.asarray(b) == 1)
    su_counts = np.zeros(n_cells)
    n_act, n_apu = len(act), len(apu)

    if n_act:
        g_ss = rng.exponential(size=(n_act, n_act))
        sub = layout.pl_su_su[np.ix_(act, act)] * g_ss
        own = np.diag(sub)
        i_su = sub.sum(axis=0) - own
        i_pu = (layout.pl_pu_su[np.ix_(apu, act)]
                * rng.exponential(size=(n_apu, n_act))).sum(axis=0)
        sinr = own / (1.0 + i_su + i_pu)
        ok = act[sinr > sinr_th]
        su_counts = np.bincount(layout.su_cell[ok], minlength=n_cells).astype(float)

    inr = 0.0
    if n_apu:
        i_sp = (layout.pl_su_pu[np.ix_(act, apu)]
                * rng.exponential(size=(n_act, n_apu))).sum(axis=0)
        rng.exponential(size=(n_apu, n_apu))  # PU->PU gains, read by no output
        inr = float(i_sp.sum() / (n_cells * pi_b))
    return su_counts, inr


class TestFadingMatchesBlockOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_results_and_draws(self, seed):
        cfg = small_config(topology_kind="random", n_blockages=0,
                           population_mode="constant", m_per_cell=4,
                           eval_mode="fading_mc", trials=1,
                           master_seed=seed)
        ctx = prepare_trial(cfg, 0)
        n = cfg.n_cells
        pick = np.random.default_rng(seed)
        traffic = [ctx.m, np.zeros(n), pick.uniform(0, 4, n)]  # all, no SU
        occupancy = [pick.integers(0, 2, n), np.zeros(n, dtype=int),
                     np.ones(n, dtype=int)]  # no PU, every PU
        rng, ref_rng = (np.random.default_rng(seed + 10) for _ in range(2))
        for _ in range(4):
            traffic.append(pick.uniform(0, 1, n) * (pick.random(n) < 0.5))
            occupancy.append((pick.random(n) < 0.2).astype(int))
        for a in traffic:
            for b in occupancy:
                got = eval_fading_frame(ctx.fading, a, ctx.m, b, 3.16, 0.05,
                                        rng)
                expect = _eval_fading_by_blocks(ctx.fading, a, ctx.m, b, 3.16,
                                                0.05, ref_rng)
                assert np.array_equal(got[0], expect[0])
                assert got[1] == expect[1]
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("every_su, any_pu", [
        (True, True), (True, False), (False, False)])
    def test_shortcut_frames(self, every_su, any_pu):
        # all SUs active: no gather on the SU axis; no active PU: no PU block
        cfg = small_config(topology_kind="random", n_blockages=0,
                           population_mode="constant", m_per_cell=4,
                           eval_mode="fading_mc", trials=1, master_seed=5)
        ctx = prepare_trial(cfg, 0)
        traffic = ctx.m if every_su else 0.5 * ctx.m
        b = np.zeros(cfg.n_cells, dtype=int)
        b[::3] = any_pu
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(3):
            got = eval_fading_frame(ctx.fading, traffic, ctx.m, b, 3.16,
                                    0.05, rng)
            expect = _eval_fading_by_blocks(ctx.fading, traffic, ctx.m, b,
                                            3.16, 0.05, ref_rng)
            assert got[0].tobytes() == expect[0].tobytes()
            assert got[1] == expect[1]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestFadingBlockMatchesFrameOracle:
    """eval_fading_success scores a block of frames as eval_fading_frame
    scores them one by one, bit for bit, and leaves the stream where the
    frames do."""

    # SUs per cell: cell 0 holds one SU and cell 1 nine
    PER_CELL = (1, 9, 2, 3, 4, 1, 5, 2, 3, 6, 2, 2)

    @classmethod
    def layout(cls):
        n_cells = len(cls.PER_CELL)
        n_su = sum(cls.PER_CELL)
        pick = np.random.default_rng(4)
        # gains over five decades, and own links three decades stronger,
        # put SINRs on both sides of the threshold
        pl = lambda *shape: 10.0 ** pick.uniform(-3.0, 2.0, shape)
        su_su = pl(n_su, n_su)
        su_su[np.diag_indices(n_su)] *= 1e3
        return FadingLayout(su_cell=np.repeat(np.arange(n_cells), cls.PER_CELL),
                            pl_su_su=su_su, pl_pu_su=pl(n_cells, n_su),
                            pl_su_pu=pl(n_su, n_cells))

    @staticmethod
    def check(layout, access, busy, seed):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        m = np.ones(access.shape[1])
        thr, inr = eval_fading_success(layout, access, m, busy, 3.16, 0.1, rng)
        frames = [eval_fading_frame(layout, a, m, b, 3.16, 0.1, ref_rng)
                  for a, b in zip(access, busy)]
        assert thr.tobytes() == np.array([c.mean() for c, _ in frames]).tobytes()
        assert inr.tobytes() == np.array([i for _, i in frames]).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return thr, inr

    def test_every_trap_then_smaller_frames(self):
        layout = self.layout()
        n = len(self.PER_CELL)
        pick = np.random.default_rng(11)
        only = lambda cell: np.eye(n)[cell]  # every SU of one cell transmits
        pus = lambda k: np.isin(np.arange(n), pick.choice(n, k, replace=False))
        frames = [
            (np.ones(n), pus(9)),     # every SU, 9 PUs: the largest frame
            (np.zeros(n), pus(6)),    # no SU
            (np.ones(n), pus(0)),     # every SU, no PU
            (np.zeros(n), pus(0)),    # nothing active
        ]
        # (k, 1) blocks, whose axis-0 sums are pairwise: one SU under 10
        # PUs (PU->SU), and nine SUs over one PU (SU->PU); then every PU,
        # with the INR summed over 12.  Partial access with 8 or more PUs:
        # sums run over 3 or more terms
        for _ in range(4):
            frames += [(only(0), pus(10)), (only(1), pus(1)),
                       (only(1) + only(3), pus(12))]
            frames += [(pick.uniform(0.2, 0.9, n), pus(k)) for k in (8, 3, 0)]
        access, busy = (np.array(x) for x in zip(*frames))
        thr, inr = self.check(layout, access, busy.astype(int), 0)
        # SINRs fall on both sides of the threshold
        assert 0 < thr[0] * n < sum(self.PER_CELL) and inr[0] > 0
        assert thr[1] == thr[3] == inr[1] == inr[2] == inr[3] == 0.0
        assert thr[4] == 1 / n and inr[4] > 0
        # smaller frames score the same after larger ones as on a fresh
        # layout
        access = pick.uniform(0.0, 0.3, (20, n))
        busy = (pick.random((20, n)) < 0.5).astype(int)
        after = self.check(layout, access, busy, 1)
        fresh = self.check(self.layout(), access, busy, 1)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, fresh))

    @pytest.mark.parametrize("rows", [3, 7])
    def test_row_blocks(self, monkeypatch, rows):
        # the 40 SUs span several row blocks of the SU->SU gather, the last
        # one partial, in every frame whose SUs do not all transmit
        monkeypatch.setattr(harness, "_GATHER_ROWS", rows)
        self.test_every_trap_then_smaller_frames()

    def test_trial_layout(self):
        cfg = small_config(topology_kind="random", n_blockages=0,
                           population_mode="constant", m_per_cell=4,
                           eval_mode="fading_mc", trials=1, master_seed=3)
        layout = prepare_trial(cfg, 0).fading
        pick = np.random.default_rng(3)
        access = pick.uniform(0.0, 1.0, (30, cfg.n_cells)) \
            * (pick.random((30, cfg.n_cells)) < 0.5)
        busy = (pick.random((30, cfg.n_cells)) < 0.3).astype(int)
        self.check(layout, access, busy, 2)


def _fill_cells_per_point(centers, area, quota, rng, max_batches=20000):
    """Oracle of the batched SU placement: accepts point by point."""
    n = len(centers)
    placed = [[] for _ in range(n)]
    need = n * quota
    for _ in range(max_batches):
        pts = np.column_stack([rng.uniform(0, area[0], 512),
                               rng.uniform(0, area[1], 512)])
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        owner = d2.argmin(axis=1)
        for p, cell in zip(pts, owner):
            if len(placed[cell]) < quota:
                placed[cell].append(p)
                need -= 1
        if need == 0:
            return np.array([p for cell in placed for p in cell]), \
                np.repeat(np.arange(n), quota)
    raise RuntimeError("failed to place SUs uniformly per cell; degenerate cells?")


class TestFillCellsMatchesPointLoop:
    @pytest.mark.parametrize("n_cells, quota, seed", [
        (16, 4, 0), (16, 40, 1), (30, 10, 2), (64, 25, 3)])
    def test_same_points_order_and_draws(self, n_cells, quota, seed):
        area = (500.0, 500.0)
        centers = np.random.default_rng(seed).uniform(0, 500.0, (n_cells, 2))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pts, cells = _fill_cells_uniform(centers, area, quota, rng)
        ref_pts, ref_cells = _fill_cells_per_point(centers, area, quota, ref_rng)
        assert np.array_equal(pts, ref_pts)
        assert np.array_equal(cells, ref_cells)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_same_error_and_draws_when_a_cell_stays_short(self):
        # two batches of 512 cannot give three uneven cells 300 points each
        centers = np.array([[100.0, 100.0], [400.0, 400.0], [400.0, 401.0]])
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for fill, gen in ((_fill_cells_uniform, rng),
                          (_fill_cells_per_point, ref_rng)):
            with pytest.raises(RuntimeError, match="failed to place SUs"):
                fill(centers, (500.0, 500.0), 300, gen, max_batches=2)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _pl_linear_broadcast(params, tx_pos, rx_pos):
    """Oracle of the user-link pathloss: 3-D broadcast distances, an
    all-LOS mask and a fresh array per operation."""
    d = np.sqrt(((tx_pos[:, None, :] - rx_pos[None, :, :]) ** 2).sum(-1))
    d = np.maximum(d, 1.0)
    return db_to_lin_fresh(pathloss_db_fresh(params, d,
                                             np.ones_like(d, dtype=bool)))


def _fading_layout_by_broadcast(config, topology, rng):
    """Oracle of _build_fading_layout: point-loop placement and broadcast
    pathloss, with the same draws in the same order."""
    su_tx, su_cell = _fill_cells_per_point(topology.cell_centers, topology.area,
                                           config.m_per_cell, rng)
    r, hi = topology.cell_radius, np.asarray(topology.area)
    su_rx = np.clip(su_tx + harness._disc_offsets(len(su_tx), r, rng), 0, hi)
    pu_tx = topology.cell_centers
    pu_rx = np.clip(pu_tx + harness._disc_offsets(len(pu_tx), r, rng), 0, hi)
    pl = config.pathloss
    return FadingLayout(su_cell=su_cell,
                        pl_su_su=_pl_linear_broadcast(pl, su_tx, su_rx),
                        pl_pu_su=_pl_linear_broadcast(pl, pu_tx, su_rx),
                        pl_su_pu=_pl_linear_broadcast(pl, su_tx, pu_rx))


class TestFadingLayoutMatchesBroadcast:
    @pytest.mark.parametrize("kind, seed, cell_radius", [
        ("random", 0, None), ("random", 4, None), ("grid", 1, None),
        ("grid", 2, 1.5), ("random", 3, 1.5)])
    def test_same_arrays_and_draws(self, kind, seed, cell_radius):
        cfg = small_config(topology_kind=kind, n_blockages=0,
                           population_mode="constant", m_per_cell=6,
                           eval_mode="fading_mc", master_seed=seed,
                           cell_radius=cell_radius)
        topology, _ = harness.trial_topology(cfg, 0)
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = harness._build_fading_layout(cfg, topology, rng)
        expect = _fading_layout_by_broadcast(cfg, topology, ref_rng)
        for name in ("su_cell", "pl_su_su", "pl_pu_su", "pl_su_pu"):
            assert getattr(got, name).tobytes() == \
                getattr(expect, name).tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if cell_radius is not None:
            # receivers within 1.5 m: links under 1 m share the clamped gain
            top = got.pl_su_su.max()
            assert (got.pl_su_su == top).sum() > 1

    def test_clamped_and_coincident_links(self, rng):
        tx = np.array([[10.0, 10.0], [10.0, 10.0], [50.0, 20.0]])
        rx = np.array([[10.0, 10.0], [10.3, 9.8], [400.0, 1.0], [50.0, 20.5]])
        params = ExperimentConfig().pathloss
        assert harness._pl_linear(params, tx, rx).tobytes() == \
            _pl_linear_broadcast(params, tx, rx).tobytes()
        tx, rx = rng.uniform(0, 800, (30, 2)), rng.uniform(0, 800, (7, 2))
        assert harness._pl_linear(params, tx, rx).tobytes() == \
            _pl_linear_broadcast(params, tx, rx).tobytes()

    @pytest.mark.parametrize("rows", [64, 16])
    @pytest.mark.parametrize("n_tx", [37, 1])
    def test_row_blocks(self, rng, monkeypatch, n_tx, rows):
        # with 16 rows a block, 37 transmitters end in a partial block
        monkeypatch.setattr(harness, "_GATHER_ROWS", rows)
        tx, rx = rng.uniform(0, 800, (n_tx, 2)), rng.uniform(0, 800, (50, 2))
        tx[0] = rx[3]  # a coincident pair, clamped to 1 m
        expect = ((tx[:, None, :] - rx[None, :, :]) ** 2).sum(-1)
        assert harness._sq_distance(tx, rx).tobytes() == expect.tobytes()
        params = ExperimentConfig().pathloss
        assert harness._pl_linear(params, tx, rx).tobytes() == \
            _pl_linear_broadcast(params, tx, rx).tobytes()


class TestFadingLayoutMemory:
    def test_peak_is_its_own_arrays(self):
        # each path-loss block is built in place on one array: the traced
        # peak stays near the bytes the layout keeps
        cfg = small_config(topology_kind="random", n_cells=64,
                           area=(800.0, 800.0), n_blockages=0,
                           population_mode="constant", m_per_cell=10,
                           eval_mode="fading_mc")
        topology, _ = harness.trial_topology(cfg, 0)
        rng = np.random.default_rng(0)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            layout = harness._build_fading_layout(cfg, topology, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        kept = sum(getattr(layout, f.name).nbytes for f in fields(layout))
        assert layout.pl_su_su.shape == (640, 640)
        assert peak < 1.25 * kept + 2 ** 20, (peak, kept)


def _simulate_sensing_per_frame(model, sensor, m, b_seq, rng):
    """Oracle of _simulate_sensing: one detection-count draw per frame."""
    t_total, n = b_seq.shape
    m_int = m.astype(int)
    out = np.empty((t_total, n))
    prior = np.full(n, float(model.pi_b))
    for t in range(t_total):
        xi = sample_detection_count(sensor, b_seq[t], m_int, rng)
        out[t] = post = posterior_update(sensor, prior, xi, m_int)
        prior = np.asarray(prior_propagate(model, post), dtype=float)
    return out


class TestSensingMatchesPerFrameDraws:
    @staticmethod
    def check(seed, eps_f=0.05, eps_m=0.1):
        cfg = small_config(population_mode="constant", eps_f=eps_f,
                           eps_m=eps_m)
        model, sensor = cfg.occupancy_model(), cfg.sensor_model()
        pick = np.random.default_rng(seed)
        m = pick.integers(1, 30, cfg.n_cells).astype(float)  # uneven heads
        b_seq = harness._simulate_occupancy(model, cfg.n_cells, 60, pick)
        rng, ref_rng = (np.random.default_rng(seed + 10) for _ in range(2))
        got = harness._simulate_sensing(model, sensor, m, b_seq, rng)
        expect = _simulate_sensing_per_frame(model, sensor, m, b_seq, ref_rng)
        assert got.tobytes() == expect.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_posteriors_and_draws(self, seed):
        self.check(seed)

    @pytest.mark.parametrize("eps_f, eps_m", [
        (0.0, 0.1),  # no false alarm: any detection proves occupancy
        (0.05, 0.0)])  # no miss: a silent cell is proven empty
    def test_one_sided_sensors(self, eps_f, eps_m):
        self.check(3, eps_f, eps_m)

    def test_same_errors_as_posterior_update(self, paper_model):
        sensor, m = SensorModel(0.0, 0.0), np.array([4, 4])
        # two of four noiseless detections, then a count above m
        for xi in (np.array([[4, 0], [2, 4]]), np.array([[4, 5], [4, 4]])):
            with pytest.raises(ValueError) as expect:
                prior = np.full(2, float(paper_model.pi_b))
                for row in xi:
                    post = posterior_update(sensor, prior, row, m)
                    prior = prior_propagate(paper_model, post)
            with pytest.raises(ValueError, match=re.escape(str(expect.value))):
                filter_posteriors(paper_model, sensor, xi, m)


def _simulate_occupancy_per_step(model, n_cells, t_total, rng):
    """Oracle of _simulate_occupancy: one step_occupancy call per frame."""
    state = sample_steady_state(model, n_cells, rng)
    rows = [state.b]
    for _ in range(t_total - 1):
        state = step_occupancy(model, state, rng)
        rows.append(state.b)
    return np.stack(rows)


class TestOccupancyMatchesPerStep:
    @pytest.mark.parametrize("nu1, nu0, t_total", [
        (0.01, 0.09, 60),
        (0.3, 0.7, 40),  # mu = 0: no memory
        (0.05, 0.0, 40),  # nu0 = 0: an occupied cell stays occupied
        (Fraction(1, 50), Fraction(9, 50), 40),
        (0.01, 0.09, 1)])  # frame 0 alone takes no step draws
    def test_same_rows_and_draws(self, nu1, nu0, t_total):
        model = OccupancyModel(nu1, nu0)
        rng, ref_rng = (np.random.default_rng(t_total) for _ in range(2))
        got = harness._simulate_occupancy(model, 33, t_total, rng)
        expect = _simulate_occupancy_per_step(model, 33, t_total, ref_rng)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSquareGatherMatchesBlock:
    def test_flat_take_equals_row_then_column_take(self, rng):
        matrix = rng.random((40, 40))
        for n_act in (1, 2, 17, 39, 40):
            for _ in range(3):
                act = np.sort(rng.choice(40, n_act, replace=False))
                assert square_block(matrix, act).tobytes() == \
                    block(matrix, act, act).tobytes()
        assert square_block(matrix, None) is matrix


class TestSweepOutput:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        res = run_experiment(small_config(trials=1, frames=10))
        path = tmp_path / "rows.csv"
        res.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("scheme,lambda_or_ptx,seed,mean_su_throughput,"
                            "mean_inr_db,mean_utility,agg_cost_per_cell,"
                            "frames,n_cells")
        assert len(lines) == 1 + len(res.rows)
        summary = tmp_path / "summary.csv"
        res.write_summary_csv(summary)
        assert "sem_su_throughput" in summary.read_text().splitlines()[0]

    def test_write_table_number_rule(self, tmp_path):
        # text and integers as they are, other numbers as the repr of a float
        row = ["ibt", 0, np.int64(3), 0.1, np.float64(1 / 3), -0.0, 5e-324,
               1e300, math.inf, -math.inf, math.nan]
        path = tmp_path / "table.csv"
        write_table(path, [f"c{k}" for k in range(len(row))], [row])
        with open(path, newline="") as fh:
            header, back = list(csv.reader(fh))
        assert header == [f"c{k}" for k in range(len(row))]
        assert back[:3] == ["ibt", "0", "3"]
        for text, value in zip(back[3:], row[3:]):
            assert np.float64(float(text)).tobytes() == \
                np.float64(value).tobytes()

    def test_summary_aggregates_over_trials(self):
        res = run_experiment(small_config(trials=3, frames=10,
                                          lambda_grid=(0.05,)))
        summary = res.summary()
        for row in summary:
            assert row["n_trials"] == 3


class TestAllFramesEstimate:
    """The all-frames estimators against the per-frame exchange protocol."""

    SCHEMES = (SchemeSpec("ibt", "ibt", gamma_delay=0.02),
               SchemeSpec("rt", "rt", gamma_delay=0.02),
               # depth-2 forest of 7 roots: 12 (cell, level) rings are empty
               SchemeSpec("forest", "ibt", gamma_delay=0.02, c_max=60.0),
               SchemeSpec("full", "full_nsi", gamma_delay=0.02))

    @staticmethod
    def assert_rel(got, expect, tol=1e-12):
        got, expect = np.asarray(got), np.asarray(expect)
        assert np.all(np.abs(got - expect)
                      <= tol * np.maximum(np.abs(got), np.abs(expect)))

    @pytest.fixture(params=["noiseless", "noisy"])
    def ctx(self, request):
        noise = dict(eps_f=0.05, eps_m=0.1, population_mode="constant",
                     m_per_cell=5) if request.param == "noisy" else {}
        cfg = small_config(schemes=self.SCHEMES, is_mode="hierarchical",
                           trials=1, frames=30, master_seed=4, **noise)
        ctx = prepare_trial(cfg, 0)
        assert request.param == "noiseless" \
            or (ctx.bhat_seq != np.rint(ctx.bhat_seq)).any()
        return ctx

    def test_trees_match_the_exchange_every_frame(self, ctx):
        pi_b = float(ctx.model.pi_b)
        assert (ctx.runtimes[2].weights.ring_size == 0).any()
        for rt in ctx.runtimes[:3]:
            assert rt.warmup > 0  # delays reach past frame 0
            running = RunningRingSums(rt.tree, ctx.t_total, pi_b)
            running.commit(ctx.bhat_seq)
            sigma_all = running.ring_sums(np.arange(ctx.t_total))
            ip_all = estimate_ip(sigma_all, rt.weights, ctx.model)
            sim = simulation(ctx, rt, 0.01)
            assert ctx.t_total > 2 * harness._IP_FRAMES
            # estimated a few frames per pass, equal to all frames at once
            assert np.array_equal(sim.ip_seq, ip_all)
            sim.run()
            occupancy = HierarchicalExchange(rt.tree, pi_b)
            traffic = HierarchicalExchange(rt.tree, 0.0)
            for t in range(ctx.t_total):
                occupancy.advance_frame(ctx.bhat_seq[t], t)
                # fused in the exchange's order: equal bit for bit
                assert np.array_equal(sigma_all[t], occupancy.sigma_all(t))
                expect = estimate_ip(occupancy.sigma_all(t), rt.weights,
                                     ctx.model)
                self.assert_rel(ip_all[t], expect)
                self.assert_rel(sim.ip_seq[t], expect)
                # hierarchical IS reads the last commitment, from frame 0 on:
                # the traffic exchange is fed the previous commitment
                prev = sim.a_hist[t - 1] if t else np.zeros(ctx.config.n_cells)
                traffic.advance_frame(prev, t)
                assert np.array_equal(sim.is_est[t],
                                      estimate_is_hierarchical(
                                          traffic.sigma_all(t),
                                          rt.weights_uncomp))
            assert sim.is_est[ctx.t_total - 1].any()

    def test_full_nsi_matches_per_frame_definition(self, ctx):
        spec = ctx.runtimes[3].spec
        delays = frame_delays(ctx.topology.distance_matrix, spec.gamma_delay,
                              spec.radius)
        assert delays.max() > 0
        assert np.array_equal(scheme_ip_sequence(ctx, ctx.runtimes[3]),
                              control.full_nsi_ip(ctx.phi, delays, ctx.b_seq,
                                                  ctx.model))
        w = ctx.phi.coupling()
        pi_b, mu = float(ctx.model.pi_b), float(ctx.model.mu)
        got = control.full_nsi_ip(ctx.phi, delays, ctx.b_seq, ctx.model)
        n = ctx.config.n_cells
        for t in range(ctx.t_total):
            expect = np.zeros(n)
            for i in range(n):
                for j in range(n):
                    d = delays[j, i]
                    p = pi_b if t < d else \
                        pi_b + mu ** d * (ctx.b_seq[t - d, j] - pi_b)
                    expect[i] += w[j, i] * p
            self.assert_rel(got[t], expect)


@st.composite
def fuzzed_configs(draw):
    """Python-built configs over every scheme kind and mode, many of which
    validate() rejects."""
    pick = lambda *options: draw(st.sampled_from(options))
    schemes = tuple(
        SchemeSpec(f"s{k}", pick(*SCHEME_KINDS),
                   gamma_delay=pick(0.0, 0.01, 0.5), c_max=pick(math.inf, 0.0, 20.0),
                   radius=pick(math.inf, 0.0, 150.0),
                   degree=draw(st.integers(1, 6)), rounds=draw(st.integers(0, 12)))
        for k in range(draw(st.integers(1, 3))))
    side, grid = pick(100.0, 700.0, 3000.0), draw(st.booleans())
    return ExperimentConfig(
        topology_kind="grid" if grid else "random",
        n_cells=pick(1, 4, 9, 16, 25) if grid else pick(1, 2, 7, 12, 25),
        area=(side, side), n_blockages=pick(0, 0, 1, 2) if grid else 0,
        nu1=pick(0.0, 1e-6, 0.005, 0.3, 1.0), nu0=pick(0.0, 0.095, 0.7, 1.0),
        eps_f=pick(0.0, 0.0, 0.0, 0.1, 0.45), eps_m=pick(0.0, 0.0, 0.2),
        population_mode=pick("dense", "constant"), m_per_cell=pick(1, 3),
        a_max=pick(None, 0.5, 50.0), sinr_th_db=pick(-20.0, 5.0, 40.0),
        schemes=schemes, lambda_grid=pick((1e-9,), (0.01, 10.0), (1e6,)),
        ptx_grid=pick((0.0,), (0.3, 1.0)), frames=draw(st.integers(1, 3)),
        trials=1, master_seed=draw(st.integers(0, 50)),
        eval_mode=pick("analytic_lb", "fading_mc"),
        is_mode=pick("oracle", "hierarchical"),
        extra_warmup=draw(st.integers(0, 1)))


class TestValidatedConfigsRun:
    @given(fuzzed_configs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_validated_config_runs_to_finite_rows(self, config):
        try:
            config.validate()
        except ConfigError:
            return
        kind = {s.name: s.kind for s in config.schemes}
        for row in run_experiment(config).rows:
            assert row.frames == config.frames
            values = [row.mean_su_throughput, row.mean_inr_linear,
                      row.agg_cost_per_cell]
            if kind[row.scheme] != "uncoordinated":  # no utility: NaN
                values.append(row.mean_utility)
            assert np.isfinite(values).all(), (config, row)


# scalars and nested containers a YAML file can hold; no text holds the
# "; " that separates the errors of one message
_YAML_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
              st.floats(), st.text("ab1e.- ", max_size=4),
              st.sampled_from(["inf", ".inf", "-.inf", "nan", "2.5", "7",
                               "1e400", "grid", "ibt", "dense"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from("ab"), inner,
                                            max_size=2)),
    max_leaves=5)
_UNKNOWN_KEYS = ("frame", "Frames", "seed", 3)
# a value of the right type for each field annotation
_GOOD_VALUES = {
    "int": st.integers(0, 30), "float": st.floats(0.0, 50.0),
    "float | None": st.one_of(st.none(), st.floats(0.0, 900.0)),
    "str": st.sampled_from(["grid", "random", "dense", "constant",
                            "analytic_lb", "fading_mc", "oracle",
                            "hierarchical", *SCHEME_KINDS]),
    "tuple[float, ...]": st.lists(st.floats(0.0, 1.0), max_size=3),
    "tuple[float, float]": st.lists(st.floats(1.0, 900.0), min_size=2,
                                    max_size=2),
}


# a valid mapping that the fuzz perturbs
_YAML_BASE = {
    "topology": {"kind": "grid", "n_cells": 16, "area": [400.0, 400.0],
                 "n_blockages": 1},
    "occupancy": {"nu1": 0.005, "nu0": 0.095},
    "population": {"mode": "constant", "m": 3},
    "experiment": {"frames": 10, "trials": 1, "lambda_grid": [0.1],
                   "ptx_grid": [0.5]},
    "schemes": [{"name": "ibt", "kind": "ibt", "gamma_delay": 0.01},
                {"name": "unc", "kind": "uncoordinated"}],
}


@st.composite
def yaml_mappings(draw):
    """A config mapping as YAML loads it: a valid one with a few keys set to
    values of the right or the wrong type (NaN, bools, strings, lists,
    mappings), unknown keys added, or sections dropped or replaced."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    keys = {section: {key: types[name] for key, name in names.items()}
            for section, names in _SECTION_KEYS.items()}
    keys["pathloss"] = {f.name: f.type for f in fields(PathlossParams)}
    scheme_keys = {f.name: f.type for f in fields(SchemeSpec)}
    raw = copy.deepcopy(_YAML_BASE)
    for _ in range(draw(st.integers(0, 4))):
        where = draw(st.sampled_from([*keys, "schemes", "config"]))
        action = draw(st.sampled_from(["set", "set", "set", "unknown",
                                       "drop", "junk"]))
        if where == "config":
            if action == "junk":
                return draw(_YAML_JUNK)
            raw[draw(st.sampled_from(_UNKNOWN_KEYS))] = draw(_YAML_JUNK)
            continue
        if action == "drop":
            raw.pop(where, None)
            continue
        if action == "junk":
            raw[where] = draw(_YAML_JUNK)
            continue
        if where == "schemes":
            if not isinstance(raw.get(where), list):
                raw[where] = []
            k = draw(st.integers(0, len(raw[where])))
            if k == len(raw[where]):
                raw[where].append({})
            node, annotations = raw[where][k], scheme_keys
        else:
            node, annotations = raw.setdefault(where, {}), keys[where]
        if not isinstance(node, dict):
            continue
        if action == "unknown":
            node[draw(st.sampled_from(_UNKNOWN_KEYS))] = draw(_YAML_JUNK)
        else:
            key = draw(st.sampled_from(sorted(annotations)))
            node[key] = draw(st.one_of(_GOOD_VALUES[annotations[key]],
                                       _YAML_JUNK))
    return raw


class TestYamlConfigFuzz:
    # the roots of every path a config error may name
    ROOTS = {"config", "pathloss", "schemes", *_SECTION_KEYS}

    @given(yaml_mappings())
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    def test_builds_or_names_the_field(self, raw):
        try:
            ExperimentConfig.from_dict(raw).validate()
        except ConfigError as exc:
            for part in str(exc).split("; "):
                path, sep, msg = part.partition(": ")
                root = path.split(".")[0].split("[")[0]
                assert sep and msg, part
                assert root in self.ROOTS or (
                    msg == "unknown key" and path in map(str, raw)), part
