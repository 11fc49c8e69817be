"""Experiment orchestration: trial worlds, the frame loop, fading evaluation.

A trial owns one topology realization and one exogenous occupancy/sensing
history; every scheme and every grid point replays that same history, so
scheme comparisons are paired.  RNG streams are derived from
(master seed, trial index, grid index, ...) seed sequences, which makes runs
reproducible regardless of execution order.

The frame loop only decides: each frame's traffic depends on the previous
frame's.  A frame does only the work that reads the previous frame's
traffic: the half of the traffic rule that reads no SU interference is built
for all of a grid point's frames at once, and a frame writes its traffic and
the true SU interference it causes in place.  Scoring reads the decisions
and never feeds them, so it runs once the loop is done, over whole (frames,
cells) blocks.  Two evaluation modes:
``analytic_lb`` scores each frame's committed traffic with the closed-form
throughput bound evaluated at the true network state, while ``fading_mc``
draws per-user Rayleigh channels and counts SINR threshold successes at the
actual user positions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import control
from .aggregation import RunningRingSums
from .config import ConfigError, ExperimentConfig, SchemeSpec
from .dynamics import OccupancyModel, occupancy_chain, sample_steady_state
from .hierarchy import AggregationTree, build_ibts, build_random_tree
from .inference import (DelayCompensatedWeights, compute_weights, estimate_ip,
                        estimate_is_oracle)
from .sensing import SensorModel, filter_posteriors, sample_detection_count
# set-up and the frame loop run block (or multi-budget) forms of these;
# perfbench/tracer.py wraps them under these names
from .dynamics import step_occupancy  # noqa: F401
from .hierarchy import build_ibt  # noqa: F401
from .inference import estimate_is_hierarchical  # noqa: F401
from .sensing import posterior_update, prior_propagate  # noqa: F401
from .topology import (InterferenceMatrix, NetworkTopology, PathlossParams,
                       build_topology, compute_phi, db_to_lin, frame_delays,
                       lin_to_db, pathloss_db)


def _seed_rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _seed_int(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


# ----------------------------------------------------------------------------
# Per-trial world and per-scheme runtime state


@dataclass(frozen=True)
class FadingLayout:
    """Per-user geometry and linear pathloss blocks for the realistic mode."""

    su_cell: np.ndarray       # (n_su,) owning cell of each SU
    pl_su_su: np.ndarray      # (n_su, n_su) SU tx -> SU rx
    pl_pu_su: np.ndarray      # (n_pu, n_su) PU tx -> SU rx
    pl_su_pu: np.ndarray      # (n_su, n_pu) SU tx -> PU rx


@dataclass
class SchemeRuntime:
    spec: SchemeSpec
    tree: AggregationTree | None = None
    weights: DelayCompensatedWeights | None = None
    weights_uncomp: DelayCompensatedWeights | None = None
    mixer: np.ndarray | None = None
    warmup: int = 0
    agg_cost_per_cell: float = 0.0


@dataclass
class TrialContext:
    config: ExperimentConfig
    trial: int
    topology: NetworkTopology
    phi: InterferenceMatrix
    coupling: np.ndarray
    phi_diag: np.ndarray
    model: OccupancyModel
    m: np.ndarray
    runtimes: list[SchemeRuntime]
    warmup: int
    t_total: int
    b_seq: np.ndarray
    bhat_seq: np.ndarray
    fading: FadingLayout | None

    @cached_property
    def occupancy_products(self) -> tuple[np.ndarray, np.ndarray]:
        """Every frame's ``b @ coupling`` and ``phi @ b``; see
        :func:`occupancy_products`.  Built on first use, after set-up, and
        shared by every scheme and grid point of the trial."""
        return occupancy_products(self.b_seq, self.coupling, self.phi.phi)

    @cached_property
    def traffic_kernel(self) -> control.TrafficKernel:
        """The cells' traffic rule with its trial constants built; shared by
        every coordinated scheme and grid point of the trial."""
        cfg = self.config
        return control.TrafficKernel(self.m, self.phi_diag, self.model,
                                     cfg.sinr_th_linear(),
                                     cfg.resolved_a_max())


def occupancy_products(b_seq, coupling, phi) -> tuple[np.ndarray, np.ndarray]:
    """(frames, n_cells) rows of ``b @ coupling``, the true licensed-user
    interference at each cell, and of ``phi @ b``, each cell's coupling to
    the active licensed users.

    One vector product per frame: a whole-block matrix product can differ
    from them in the last bits.
    """
    rows = np.asarray(b_seq, dtype=float)
    return (np.stack([b @ coupling for b in rows]),
            np.stack([phi @ b for b in rows]))


def _simulate_occupancy(model, n_cells, t_total, rng) -> np.ndarray:
    b0 = sample_steady_state(model, n_cells, rng).b
    # one block in C order holds the draws of t_total - 1 step_occupancy calls
    return occupancy_chain(model, b0, rng.random((t_total - 1, n_cells)))


def _simulate_sensing(model: OccupancyModel, sensor: SensorModel, m,
                      b_seq, rng) -> np.ndarray:
    """Posterior occupancy estimates per cell and frame."""
    if sensor.noiseless:
        return b_seq.astype(float)
    m_int = m.astype(int)
    # one binomial draw fills the whole block in C order, frame by frame, so
    # it takes the draws that one call per frame would
    xi_seq = sample_detection_count(sensor, b_seq, m_int, rng)
    return filter_posteriors(model, sensor, xi_seq, m_int)


def _fill_cells_uniform(centers, area, quota, rng, max_batches=20000):
    """quota uniform points per Voronoi cell via batched rejection sampling.

    A drawn point is kept while its cell is short: its rank among the
    batch's points in that cell, plus the points already placed there, is
    below the quota.  Points come out grouped by cell, in the order kept.
    """
    n = len(centers)
    placed = np.zeros(n, dtype=int)
    kept_pts, kept_cell = [], []
    for _ in range(max_batches):
        pts = np.column_stack([rng.uniform(0, area[0], 512),
                               rng.uniform(0, area[1], 512)])
        owner = _sq_distance(pts, centers).argmin(axis=1)
        by_cell = np.argsort(owner, kind="stable")
        grouped = owner[by_cell]
        rank = np.empty_like(owner)
        rank[by_cell] = np.arange(len(owner)) - np.searchsorted(grouped, grouped)
        keep = placed[owner] + rank < quota
        kept_pts.append(pts[keep])
        kept_cell.append(owner[keep])
        placed += np.bincount(owner[keep], minlength=n)
        if (placed == quota).all():
            order = np.argsort(np.concatenate(kept_cell), kind="stable")
            return np.concatenate(kept_pts)[order], np.repeat(np.arange(n), quota)
    raise RuntimeError("failed to place SUs uniformly per cell; degenerate cells?")


def _disc_offsets(n, radius, rng):
    r = radius * np.sqrt(rng.random(n))
    ang = rng.uniform(0, 2 * math.pi, n)
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _sq_distance(a, b) -> np.ndarray:
    """(len(a), len(b)) squared distances between two point sets.

    ``dx * dx + dy * dy``, from one coordinate at a time: the sum over a
    length-2 axis is ``x0 + x1``, so this equals
    ``((a[:, None] - b[None]) ** 2).sum(-1)`` bit for bit without its 3-D
    temporaries.
    """
    d2 = a[:, 0, None] - b[:, 0]
    dy = a[:, 1, None] - b[:, 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def _pl_linear(params: PathlossParams, tx_pos, rx_pos) -> np.ndarray:
    d = _sq_distance(tx_pos, rx_pos)
    np.sqrt(d, out=d)
    np.maximum(d, 1.0, out=d)  # pathloss law degenerates at zero range
    return db_to_lin(pathloss_db(params, d, True))  # every user link is LOS


def _build_fading_layout(config, topology, rng) -> FadingLayout:
    m = config.m_per_cell
    su_tx, su_cell = _fill_cells_uniform(topology.cell_centers, topology.area,
                                         m, rng)
    r = topology.cell_radius
    clip = lambda p: np.column_stack([np.clip(p[:, 0], 0, topology.area[0]),
                                      np.clip(p[:, 1], 0, topology.area[1])])
    su_rx = clip(su_tx + _disc_offsets(len(su_tx), r, rng))
    pu_tx = topology.cell_centers
    pu_rx = clip(pu_tx + _disc_offsets(len(pu_tx), r, rng))
    pl = config.pathloss
    return FadingLayout(
        su_cell=su_cell,
        pl_su_su=_pl_linear(pl, su_tx, su_rx),
        pl_pu_su=_pl_linear(pl, pu_tx, su_rx),
        pl_su_pu=_pl_linear(pl, su_tx, pu_rx),
    )


def trial_trees(config: ExperimentConfig, topology, phi, trial: int
                ) -> dict[int, AggregationTree]:
    """Every tree scheme's tree of the trial, by scheme index: the IBT
    schemes that share a gamma_delay are built in one greedy pass, and each
    random tree draws from its own stream."""
    schemes, mu = config.schemes, float(config.occupancy_model().mu)
    trees = {k: build_random_tree(topology, spec.gamma_delay, spec.c_max,
                                  _seed_rng(config.master_seed, trial, 5, k))
             for k, spec in enumerate(schemes) if spec.kind == "rt"}
    ibt = [k for k, spec in enumerate(schemes) if spec.kind == "ibt"]
    for delay in dict.fromkeys(schemes[k].gamma_delay for k in ibt):
        same = [k for k in ibt if schemes[k].gamma_delay == delay]
        trees.update(zip(same, build_ibts(topology, phi, mu, delay,
                                          [schemes[k].c_max for k in same])))
    return trees


def prepare_scheme(config: ExperimentConfig, topology, phi, model,
                   trial: int, scheme_idx: int, tree) -> SchemeRuntime:
    """A scheme's per-trial state around its tree (None if it has none)."""
    spec = config.schemes[scheme_idx]
    rt = SchemeRuntime(spec=spec, tree=tree)
    mu = float(model.mu)
    if tree is not None:
        if config.is_mode == "hierarchical":
            # traffic has no known memory: its weights take mu = 1
            rt.weights, rt.weights_uncomp = compute_weights(rt.tree, phi,
                                                            (mu, 1.0))
        else:
            rt.weights = compute_weights(rt.tree, phi, mu)
        rt.warmup = int(rt.tree.delta[-1].max())
        rt.agg_cost_per_cell = rt.tree.cost_per_cell / config.resolved_hop_distance()
    elif spec.kind in ("full_nsi", "radius_nsi"):
        # full NSI has no radius and radius NSI no delay (the spec defaults)
        delays = frame_delays(topology.distance_matrix, spec.gamma_delay,
                              spec.radius)
        rt.warmup = int(delays.max())
        rt.agg_cost_per_cell = control.nsi_cost(delays)
    elif spec.kind == "consensus":
        seed = _seed_int(config.master_seed, trial, 6, scheme_idx)
        try:
            adj = control.random_regular_connected(config.n_cells, spec.degree,
                                                   seed)
        except RuntimeError as exc:
            raise ConfigError(f"schemes[{scheme_idx}]: {exc}") from None
        rt.mixer = control.consensus_mixer(adj, spec.rounds)
    return rt


def trial_topology(config: ExperimentConfig, trial: int
                   ) -> tuple[NetworkTopology, InterferenceMatrix]:
    """The trial's cell layout and INR matrix."""
    topo_seed = _seed_int(config.master_seed, trial, 1)
    topology = build_topology(config.topology_kind, config.n_cells, config.area,
                              config.n_blockages, topo_seed, config.cell_radius)
    return topology, compute_phi(topology, config.pathloss)


def prepare_trial(config: ExperimentConfig, trial: int) -> TrialContext:
    config.validate()
    topology, phi = trial_topology(config, trial)
    model = config.occupancy_model()
    sensor = config.sensor_model()
    # SU head count per cell; inf marks the dense (M >> 1) regime
    m = np.full(config.n_cells, float(config.m_per_cell)
                if config.population_mode == "constant" else np.inf)

    trees = trial_trees(config, topology, phi, trial)
    runtimes = [prepare_scheme(config, topology, phi, model, trial, k,
                               trees.get(k))
                for k in range(len(config.schemes))]
    warmup = max((rt.warmup for rt in runtimes), default=0) + config.extra_warmup
    t_total = config.frames + warmup

    b_seq = _simulate_occupancy(model, config.n_cells, t_total,
                                _seed_rng(config.master_seed, trial, 2))
    bhat_seq = _simulate_sensing(model, sensor, m, b_seq,
                                 _seed_rng(config.master_seed, trial, 3))
    fading = None
    if config.eval_mode == "fading_mc":
        fading = _build_fading_layout(config, topology,
                                      _seed_rng(config.master_seed, trial, 4))
    return TrialContext(config=config, trial=trial, topology=topology, phi=phi,
                        coupling=phi.coupling(), phi_diag=np.diag(phi.phi),
                        model=model, m=m, runtimes=runtimes,
                        warmup=warmup, t_total=t_total, b_seq=b_seq,
                        bhat_seq=bhat_seq, fading=fading)


# ----------------------------------------------------------------------------
# Frame loop


@dataclass
class PointMetrics:
    """Every frame's metrics of one (trial, scheme, grid point), frame axis
    first; the per-cell values are averaged over the cells."""

    t: np.ndarray                # (frames,) frame index
    su_throughput: np.ndarray    # (frames,)
    inr_linear: np.ndarray       # (frames,)
    inr_db: np.ndarray           # (frames,)
    utility: np.ndarray          # (frames,) NaN for uncoordinated access
    traffic: np.ndarray          # (frames, n_cells) committed traffic


def eval_fading_success(layout: FadingLayout, traffic, m, b_seq,
                        sinr_th: float, pi_b: float, rng
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-user Rayleigh evaluation of (frames, cells) traffic and occupancy
    blocks, frame by frame on one stream.

    A frame draws Bernoulli access per SU from its cell's traffic, then the
    unit-mean exponential power gains of every link among its active SUs
    and PUs in one draw, in the block order SU->SU, PU->SU, SU->PU, PU->PU
    (no output reads the last).  Returns (frames,) arrays: the throughput,
    SINR-threshold successes at the receivers of transmitting SUs per cell,
    and the realized SU-caused INR averaged over the expected number of
    active PUs.
    """
    n_su, n_cells = len(layout.su_cell), layout.pl_pu_su.shape[0]
    access = np.clip(np.asarray(traffic) / np.asarray(m),
                     0.0, 1.0)[:, layout.su_cell]
    busy = np.asarray(b_seq) == 1
    # a flat index into a block of the wrong shape reads the wrong links
    if (layout.pl_su_su.shape, layout.pl_pu_su.shape, layout.pl_su_pu.shape,
            busy.shape) != ((n_su, n_su), (n_cells, n_su),
                            (n_su, n_cells), (len(access), n_cells)):
        raise ValueError("fading layout and occupancy shapes disagree")
    apu = busy.nonzero()[1]  # every frame's active PUs, in frame order
    pu_rows = apu * n_su  # their row offsets in the PU->SU block
    bounds = [0, *np.cumsum(busy.sum(axis=1)).tolist()]
    successes, inr = np.zeros((2, len(access)))
    scale = n_cells * pi_b
    for t, row in enumerate(access):
        act = (rng.random(n_su) < row).nonzero()[0]
        lo, hi = bounds[t], bounds[t + 1]
        n_act, n_apu = len(act), hi - lo
        g = rng.standard_exponential((n_act + n_apu) ** 2)
        if not n_act:
            continue  # no success, and an INR of 0
        ss, sp = n_act * n_act, n_act * n_apu
        sub = g[:ss].reshape(n_act, n_act)
        sub *= layout.pl_su_su if n_act == n_su else \
            layout.pl_su_su.take(act[:, None] * n_su + act)
        own = sub.diagonal()
        noise = _sum(sub, 0)  # then 1 + (that - own) + the PU block's sum
        noise -= own
        noise += 1.0
        if n_apu:
            i_ps = g[ss:ss + sp].reshape(n_apu, n_act)
            i_ps *= layout.pl_pu_su.take(pu_rows[lo:hi, None] + act)
            noise += _sum(i_ps, 0)
            i_sp = g[ss + sp:ss + 2 * sp].reshape(n_act, n_apu)
            i_sp *= layout.pl_su_pu.take(act[:, None] * n_cells + apu[lo:hi])
            inr[t] = _sum(_sum(i_sp, 0)) / scale
        np.divide(own, noise, out=noise)
        successes[t] = np.count_nonzero(noise > sinr_th)
    # the mean of small integer counts per cell: their sum is exact
    return successes / n_cells, inr


_sum = np.add.reduce  # ndarray.sum without its Python wrapper


# frames per pass of a tree scheme's licensed-user estimate: the rings of
# every frame at once would be a sweep's largest temporary
_IP_FRAMES = 16


def scheme_ip_sequence(ctx: TrialContext, rt: SchemeRuntime
                       ) -> np.ndarray | None:
    """(frames, n_cells) licensed-user interference estimate of every frame.

    It depends on the exogenous occupancy history alone, not on the grid
    value, so one array serves every grid point of a (trial, scheme).  Tree
    schemes read their sensed occupancy through the delayed rings; the NSI
    baselines read true bits and consensus averages the sensed values.
    Uncoordinated access estimates nothing (None).
    """
    model, spec = ctx.model, rt.spec
    if rt.tree is not None:
        occupancy = RunningRingSums(rt.tree, ctx.t_total, float(model.pi_b))
        occupancy.commit(ctx.bhat_seq)
        # a frame's estimate reads only its own rings
        ip = np.empty(ctx.bhat_seq.shape)
        for lo in range(0, ctx.t_total, _IP_FRAMES):
            hi = min(lo + _IP_FRAMES, ctx.t_total)
            ip[lo:hi] = estimate_ip(occupancy.ring_sums(np.arange(lo, hi)),
                                    rt.weights, model)
        return ip
    if spec.kind in ("full_nsi", "radius_nsi"):
        delays = frame_delays(ctx.topology.distance_matrix, spec.gamma_delay,
                              spec.radius)
        return control.full_nsi_ip(ctx.phi, delays, ctx.b_seq, model)
    if rt.mixer is not None:
        return control.consensus_ip(rt.mixer, ctx.bhat_seq,
                                    ctx.coupling.sum(axis=0))
    return None


class Simulation:
    """The decision loop of one (trial, coordinated scheme, grid point) cell.

    ``ip_seq`` is the scheme's licensed-user interference estimate of every
    frame (:func:`scheme_ip_sequence`); only the SU-interference estimate
    waits for the committed traffic.  So the half of the rule that reads no
    SU interference is built for every frame at once, and a frame computes
    only the rest, writing its traffic and the true SU interference it
    causes in place.  Under hierarchical IS the per-level aggregates of that
    traffic are kept across frames, so each frame fuses just its own row.
    :meth:`run` drives the frames; :func:`score_frames` scores the decisions
    afterwards.
    """

    def __init__(self, ctx: TrialContext, runtime: SchemeRuntime,
                 grid_value: float, ip_seq):
        self.ctx = ctx
        cfg = ctx.config
        self.ip_seq = ip_seq
        self.params = control.ControlParams(lam=float(grid_value),
                                            sinr_th=cfg.sinr_th_linear())
        self._kernel = ctx.traffic_kernel
        self._kernel.check_ip(ip_seq)
        # lam * phi_ii * ip evaluates left to right: its first product is
        # the grid point's
        self._gain = self._kernel.gain(ip_seq,
                                       self.params.lam * self._kernel.phi_ii)
        # per frame: the committed traffic, the true SU interference it
        # causes and the SU-interference estimate it was decided on; frames
        # not yet run read 0
        shape = (ctx.t_total, cfg.n_cells)
        self.a_hist = np.zeros(shape)
        is_rows = np.zeros((ctx.t_total + 1, cfg.n_cells))
        self.is_true = is_rows[1:]
        w = runtime.weights_uncomp
        if w is None:
            # the oracle estimate is the last frame's true SU interference
            self._traffic = None
            self.is_est = is_rows[:-1]
        else:
            self._traffic = RunningRingSums(runtime.tree, ctx.t_total)
            self.is_est = np.zeros(shape)
            # estimate_is_hierarchical's terms of rings 1 to depth: an empty
            # ring's sum and phi_del are both exactly zero
            # in float and contiguous, so that a frame's divide casts
            # nothing and its multiply reads no strided view
            self._ring_size = np.maximum(w.ring_size[:, 1:], 1).astype(float)
            self._phi_del = w.phi_del[:, 1:].copy()
        self.t = -1

    def run_frame(self) -> None:
        """Advance one frame: decide its traffic from the estimates and
        commit it.  :meth:`run` holds the floating-point error state."""
        self.t += 1
        t = self.t
        if self._traffic is not None:
            # traffic decided this frame is unknown; read the last commitment
            rings = self._traffic.outer_ring_sums(t - 1)
            rings /= self._ring_size
            rings *= self._phi_del
            rings.sum(axis=1, out=self.is_est[t])
        a = self._kernel.step(self.ip_seq[t], self.is_est[t], self._gain[t],
                              self.a_hist[t])
        # estimate_is_oracle's vector product, without the own-cell term
        is_true = np.matmul(a, self.ctx.coupling, out=self.is_true[t])
        is_true -= a
        if self._traffic is not None:
            self._traffic.commit(a)

    def run(self) -> None:
        """Run every frame in order, then check the SU-interference
        estimates the decisions read."""
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(self.ctx.t_total):
                self.run_frame()
        if (self.is_est < 0).any():
            raise ValueError("interference estimates must be nonnegative")


def score_frames(ctx: TrialContext, traffic, is_true,
                 params: control.ControlParams, eval_rng) -> PointMetrics:
    """Score every frame's committed traffic at the true network state.

    ``traffic`` and ``is_true`` are (frames, n_cells) blocks: the decisions
    never read the scores, so they are scored at once.  ``params.lam`` is
    None for uncoordinated access, whose utility is NaN.  Under
    ``fading_mc`` one :func:`eval_fading_success` call draws every frame's
    per-user channels, in frame order, on the grid point's own stream
    ``eval_rng``.
    """
    ip_true, phi_b = ctx.occupancy_products
    if params.lam is None:
        util = np.full(ctx.t_total, math.nan)
    else:
        util = control.utility(traffic, ip_true, is_true, ctx.m, ctx.phi_diag,
                               ctx.model, params).mean(axis=1)
    if ctx.config.eval_mode == "fading_mc":
        # the measured INR stands in for the analytic one
        throughput, inr_lin = eval_fading_success(
            ctx.fading, traffic, ctx.m, ctx.b_seq, params.sinr_th,
            float(ctx.model.pi_b), eval_rng)
    else:
        inr_lin, _ = control.inr_contributions(traffic, phi_b, ctx.model)
        throughput = control.throughput_lb(traffic, ctx.m, ip_true, is_true,
                                           ctx.phi_diag, params).mean(axis=1)
    return PointMetrics(t=np.arange(ctx.t_total), su_throughput=throughput,
                        inr_linear=inr_lin, inr_db=lin_to_db(inr_lin),
                        utility=util, traffic=traffic)


# ----------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    lambda_or_ptx: float
    seed: int
    mean_su_throughput: float
    mean_inr_db: float
    mean_utility: float
    agg_cost_per_cell: float
    frames: int
    n_cells: int

    # linear-scale mean kept for aggregation; not part of the CSV schema
    mean_inr_linear: float = 0.0


CSV_COLUMNS = ("scheme", "lambda_or_ptx", "seed", "mean_su_throughput",
               "mean_inr_db", "mean_utility", "agg_cost_per_cell", "frames",
               "n_cells")


def write_table(path, header, rows) -> None:
    """One CSV file: text and integers as they are, every other number as
    the ``repr`` of its float, which reads back to the same float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, (str, int, np.integer))
                          else repr(float(v)) for v in row] for row in rows)


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def groups(self, scheme: str) -> dict[float, list[SweepRow]]:
        """The scheme's rows by grid value, in order of first appearance."""
        out: dict[float, list[SweepRow]] = {}
        for r in self.rows:
            if r.scheme == scheme:
                out.setdefault(r.lambda_or_ptx, []).append(r)
        return out

    def summary(self) -> list[dict]:
        out = []
        for scheme in dict.fromkeys(r.scheme for r in self.rows):
            for gval, rows in self.groups(scheme).items():
                thr = np.array([r.mean_su_throughput for r in rows])
                lin = np.array([r.mean_inr_linear for r in rows])
                util = np.array([r.mean_utility for r in rows])
                out.append({
                    "scheme": scheme,
                    "lambda_or_ptx": gval,
                    "n_trials": len(rows),
                    "mean_su_throughput": float(thr.mean()),
                    "sem_su_throughput": float(thr.std(ddof=1) / math.sqrt(len(thr)))
                    if len(thr) > 1 else 0.0,
                    "mean_inr_db": float(lin_to_db(lin.mean())),
                    "mean_utility": float(util.mean()),
                    "agg_cost_per_cell": float(np.mean(
                        [r.agg_cost_per_cell for r in rows])),
                })
        return out

    def write_csv(self, path) -> None:
        write_table(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS]
                                        for r in self.rows))

    def write_summary_csv(self, path) -> None:
        rows = self.summary()
        write_table(path, list(rows[0]) if rows else [],
                    (r.values() for r in rows))


def run_trial_point(ctx: TrialContext, scheme_idx: int, grid_value: float,
                    grid_idx: int, ip_seq) -> tuple[PointMetrics, SweepRow]:
    """Every frame of one (trial, scheme, grid) cell, decided in frame order
    and then scored, plus its summary row."""
    cfg = ctx.config
    rt = ctx.runtimes[scheme_idx]
    if rt.spec.kind == "uncoordinated":
        # fixed-probability access: the same traffic every frame, and no
        # cost weight
        a = control.uncoordinated_traffic(grid_value, ctx.m,
                                          cfg.resolved_a_max())
        traffic = np.tile(a, (ctx.t_total, 1))
        is_true = np.tile(estimate_is_oracle(ctx.coupling, a), (ctx.t_total, 1))
        params = control.ControlParams(lam=None, sinr_th=cfg.sinr_th_linear())
    else:
        sim = Simulation(ctx, rt, grid_value, ip_seq)
        sim.run()
        traffic, is_true, params = sim.a_hist, sim.is_true, sim.params
    frames = score_frames(ctx, traffic, is_true, params,
                          _seed_rng(cfg.master_seed, ctx.trial, 7, scheme_idx,
                                    grid_idx))
    measured = slice(ctx.warmup, None)
    thr = float(np.mean(frames.su_throughput[measured]))
    lin = float(np.mean(frames.inr_linear[measured]))
    util = float(np.mean(frames.utility[measured]))
    row = SweepRow(scheme=rt.spec.name, lambda_or_ptx=grid_value, seed=ctx.trial,
                   mean_su_throughput=thr, mean_inr_db=float(lin_to_db(lin)),
                   mean_utility=util, agg_cost_per_cell=rt.agg_cost_per_cell,
                   frames=cfg.frames, n_cells=cfg.n_cells,
                   mean_inr_linear=lin)
    return frames, row


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Sweep every scheme over its grid, averaging over topology realizations."""
    config.validate()
    rows = []
    for trial in range(config.trials):
        ctx = prepare_trial(config, trial)
        for scheme_idx, spec in enumerate(config.schemes):
            ip_seq = scheme_ip_sequence(ctx, ctx.runtimes[scheme_idx])
            for grid_idx, gval in enumerate(config.grid(spec)):
                _, row = run_trial_point(ctx, scheme_idx, gval, grid_idx,
                                         ip_seq)
                rows.append(row)
            del ip_seq  # one scheme's estimate alive at a time
    order = {s.name: k for k, s in enumerate(config.schemes)}
    rows.sort(key=lambda r: (order[r.scheme], r.lambda_or_ptx, r.seed))
    return SweepResult(rows=rows)
