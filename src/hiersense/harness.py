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
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import control
from .aggregation import RunningRingSums
from .dynamics import OccupancyModel, sample_steady_state, step_occupancy
from .hierarchy import AggregationTree, build_ibt, build_random_tree
from .inference import (DelayCompensatedWeights, compute_weights, estimate_ip,
                        estimate_is_oracle)
# the frame loop inlines it; perfbench/tracer.py wraps it under this name
from .inference import estimate_is_hierarchical  # noqa: F401
from .sensing import SensorModel, posterior_update, prior_propagate, \
    sample_detection_count
from .topology import (InterferenceMatrix, NetworkTopology, PathlossParams,
                       build_topology, compute_phi, db_to_lin, frame_delays,
                       layout_errors, lin_to_db, pathloss_db)

# the keys each scheme kind reads besides its name and kind
SCHEME_KEYS = {"ibt": ("gamma_delay", "c_max"), "rt": ("gamma_delay", "c_max"),
               "full_nsi": ("gamma_delay",), "radius_nsi": ("radius",),
               "consensus": ("degree", "rounds"), "uncoordinated": ()}
SCHEME_KINDS = tuple(SCHEME_KEYS)

# each flat config section: its YAML keys and the ExperimentConfig fields
# they set
_SECTION_KEYS = {
    "topology": dict(kind="topology_kind", n_cells="n_cells", area="area",
                     n_blockages="n_blockages", cell_radius="cell_radius"),
    "occupancy": dict(nu1="nu1", nu0="nu0"),
    "sensing": dict(eps_f="eps_f", eps_m="eps_m"),
    "population": dict(mode="population_mode", m="m_per_cell", a_max="a_max"),
    "control": dict(sinr_th_db="sinr_th_db"),
    "experiment": dict(lambda_grid="lambda_grid", ptx_grid="ptx_grid",
                       frames="frames", trials="trials",
                       master_seed="master_seed", eval_mode="eval_mode",
                       is_mode="is_mode", extra_warmup="extra_warmup",
                       hop_distance_m="hop_distance_m"),
}
_YAML_PATH = {name: f"{section}.{key}" for section, keys in _SECTION_KEYS.items()
              for key, name in keys.items()}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SchemeSpec:
    """One control scheme in a sweep; a config entry may set only the knobs
    its kind reads (``SCHEME_KEYS``)."""

    name: str
    kind: str
    gamma_delay: float = 0.0
    c_max: float = math.inf
    radius: float = math.inf
    degree: int = 5
    rounds: int = 10

    def __post_init__(self):
        errors = _nan_errors(self)
        if self.kind not in SCHEME_KINDS:
            errors.append(("kind", f"must be one of {', '.join(SCHEME_KINDS)}"
                           f", got {self.kind!r}"))
        for name in ("gamma_delay", "radius", "rounds"):
            if getattr(self, name) < 0:
                errors.append((name, "must be >= 0"))
        if errors:
            raise ConfigError("; ".join(f"schemes[].{name}: {msg}"
                                        for name, msg in errors))


@dataclass(frozen=True)
class ExperimentConfig:
    topology_kind: str = "grid"
    n_cells: int = 64
    area: tuple[float, float] = (800.0, 800.0)
    n_blockages: int = 0
    cell_radius: float | None = None
    pathloss: PathlossParams = field(default_factory=PathlossParams)
    nu1: float = 0.005
    nu0: float = 0.095
    eps_f: float = 0.0
    eps_m: float = 0.0
    population_mode: str = "dense"
    m_per_cell: int = 10
    a_max: float | None = None
    sinr_th_db: float = 5.0
    schemes: tuple[SchemeSpec, ...] = ()
    lambda_grid: tuple[float, ...] = (1.0,)
    ptx_grid: tuple[float, ...] = (0.01,)
    frames: int = 300
    trials: int = 20
    master_seed: int = 1
    eval_mode: str = "analytic_lb"
    is_mode: str = "oracle"
    extra_warmup: int = 0
    hop_distance_m: float | None = None

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        # (field name or section, message)
        errors = _nan_errors(self) + _nan_errors(self.pathloss, "pathloss.")
        errors += [(f"topology.{name}", msg) for name, msg in layout_errors(
            self.topology_kind, self.n_cells, self.area, self.n_blockages)]
        if self.frames < 1:
            errors.append(("frames", "must be >= 1"))
        if self.trials < 1:
            errors.append(("trials", "must be >= 1"))
        if self.master_seed < 0:
            errors.append(("master_seed", "must be >= 0"))
        if self.extra_warmup < 0:
            errors.append(("extra_warmup", "must be >= 0"))
        for name in ("cell_radius", "a_max", "hop_distance_m"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                errors.append((name, "must be positive and finite"))
        if (self.eps_f or self.eps_m) and self.population_mode == "dense":
            errors.append(("sensing", "must be noiseless for a dense "
                           "population (noisy sensing counts SUs)"))
        if not self.schemes:
            errors.append(("schemes", "at least one scheme is required"))
        names = [s.name for s in self.schemes]
        if len(set(names)) != len(names):
            errors.append(("schemes", "names must be unique"))
        n, lowest = self.n_cells, min(2, self.n_cells - 1)
        for k, spec in enumerate(self.schemes):
            # exactly these degrees have a connected regular graph on n cells
            if spec.kind == "consensus" and n >= 1 and not (
                    lowest <= spec.degree < n and spec.degree * n % 2 == 0):
                errors.append((f"schemes[{k}].degree", f"must be in "
                               f"[{lowest}, {n - 1}], and even if "
                               f"topology.n_cells ({n}) is odd"))
        needs_lambda = any(s.kind != "uncoordinated" for s in self.schemes)
        needs_ptx = any(s.kind == "uncoordinated" for s in self.schemes)
        if needs_lambda and not self.lambda_grid:
            errors.append(("lambda_grid", "must be non-empty"))
        if needs_ptx and not self.ptx_grid:
            errors.append(("ptx_grid", "must be non-empty"))
        if any(l <= 0 for l in self.lambda_grid):
            errors.append(("lambda_grid", "entries must be positive"))
        if any(not 0 <= p <= 1 for p in self.ptx_grid):
            errors.append(("ptx_grid", "entries must lie in [0, 1]"))
        for name in ("lambda_grid", "ptx_grid"):
            grid = getattr(self, name)
            repeated = list(dict.fromkeys(v for v in grid if grid.count(v) > 1))
            if repeated:
                # the summary would merge repeated points into one row
                errors.append((name, f"must be distinct values, got "
                               f"{', '.join(map(repr, repeated))} more than once"))
        if self.nu1 <= 0:  # INR is per expected active licensed user
            errors.append(("occupancy", "nu1 must be positive"))
        try:
            self.occupancy_model()
        except ValueError as exc:
            errors.append(("occupancy", str(exc)))
        try:
            self.sensor_model()
        except ValueError as exc:
            errors.append(("sensing", str(exc)))
        if self.eval_mode not in ("analytic_lb", "fading_mc"):
            errors.append(("eval_mode", "must be 'analytic_lb' or 'fading_mc'"))
        if self.is_mode not in ("oracle", "hierarchical"):
            errors.append(("is_mode", "must be 'oracle' or 'hierarchical'"))
        if self.eval_mode == "fading_mc":
            if self.population_mode != "constant":
                errors.append(("eval_mode", "fading_mc needs a constant "
                               "population (per-user access draws)"))
            if self.topology_kind == "grid" and self.n_blockages > 0:
                errors.append(("eval_mode",
                               "fading_mc with blockages is not modeled"))
        if self.population_mode not in ("constant", "dense"):
            errors.append(("population_mode", f"unknown mode "
                           f"{self.population_mode!r} (constant or dense)"))
        elif self.population_mode == "constant" and self.m_per_cell < 1:
            errors.append(("m_per_cell", "a constant population needs >= 1 "
                           "SU per cell"))
        if errors:
            raise ConfigError("; ".join(f"{_YAML_PATH.get(name, name)}: {msg}"
                                        for name, msg in errors))

    # ---------------------------------------------------------------- derived

    def occupancy_model(self) -> OccupancyModel:
        return OccupancyModel(self.nu1, self.nu0)

    def sensor_model(self) -> SensorModel:
        return SensorModel(self.eps_f, self.eps_m)

    def sinr_th_linear(self) -> float:
        return float(db_to_lin(self.sinr_th_db))

    def resolved_a_max(self) -> float:
        if self.a_max is not None:
            return float(self.a_max)
        # rail for the dense regime: ten times the expected active-PU load
        return 10.0 * float(self.occupancy_model().pi_b)

    def resolved_hop_distance(self) -> float:
        if self.hop_distance_m is not None:
            return float(self.hop_distance_m)
        return float(self.area[0]) / math.sqrt(self.n_cells)

    def grid(self, spec: SchemeSpec) -> tuple[float, ...]:
        """A scheme's sweep values: access probabilities or cost weights."""
        return self.ptx_grid if spec.kind == "uncoordinated" else self.lambda_grid

    # ------------------------------------------------------------------- I/O

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from its YAML mapping; unknown keys are errors, and
        a missing key keeps its field's default."""
        raw = _section(raw, "config")
        kwargs = {}
        for name, keys in _SECTION_KEYS.items():
            kwargs.update(_pop_fields(raw.pop(name, {}), cls, name, keys))
        pathloss = _pop_fields(raw.pop("pathloss", {}), PathlossParams, "pathloss")
        try:
            kwargs["pathloss"] = PathlossParams(**pathloss)
        except ValueError as exc:
            raise ConfigError(f"pathloss: {exc}") from None
        if "schemes" in raw:
            schemes = raw.pop("schemes")
            if not isinstance(schemes, (list, tuple)):
                raise ConfigError("schemes: must be a list of mappings")
            kwargs["schemes"] = tuple(_scheme_from_dict(s, f"schemes[{k}]")
                                      for k, s in enumerate(schemes))
        _reject_unknown(raw, "")
        return cls(**kwargs)


def _section(node, path: str) -> dict:
    """A mutable copy of one config mapping."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: must be a mapping")
    return dict(node)


def _pop_fields(node, spec_cls, path: str, keys=None) -> dict:
    """The fields of ``spec_cls`` that the mapping ``node`` sets, each parsed
    by its annotation; ``keys`` maps YAML keys to field names (default: the
    field names themselves).  A key left over is an error."""
    node = _section(node, path)
    types = {f.name: f.type for f in fields(spec_cls)}
    keys = keys or {name: name for name in types}
    out = {name: _parse(node.pop(key), types[name], f"{path}.{key}")
           for key, name in keys.items() if key in node}
    _reject_unknown(node, path + ".")
    return out


_SCALARS = {"int": (int, "an integer"), "float": (float, "a number"),
            "str": (str, "a string")}


def _parse(value, annotation: str, path: str):
    """``value`` read as a field annotated ``int``, ``float``, ``str``,
    ``tuple[float, ...]``, ``tuple[float, float]`` or ``X | None``; a
    ConfigError naming ``path`` otherwise."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple["):
        items = annotation[len("tuple["):-1].split(", ")
        size = None if items[-1] == "..." else len(items)
        if not isinstance(value, (list, tuple)) \
                or size not in (None, len(value)):
            what = "a list of" if size is None else f"a list of {size}"
            raise ConfigError(f"{path}: must be {what} numbers, got {value!r}")
        return tuple(_parse(v, items[0], f"{path}[{k}]")
                     for k, v in enumerate(value))
    kind, what = _SCALARS[annotation]
    if kind is float and isinstance(value, str) and value.lower() == ".inf":
        value = math.inf
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    # a bool, NaN or a value the conversion changes (2.5 to an int, 5 to a
    # string) is rejected rather than run; numeric strings convert
    changed = out != value and kind is not float and not isinstance(value, str)
    if out is None or out != out or isinstance(value, bool) or changed:
        raise ConfigError(f"{path}: must be {what}, got {value!r}")
    return out


def _nan_errors(spec, prefix: str = "") -> list[tuple[str, str]]:
    """(name, message) for each field of ``spec`` holding NaN, alone or in
    a tuple, which the YAML reader rejects too."""
    return [(prefix + name, "must not be NaN") for name, v in vars(spec).items()
            if any(isinstance(x, float) and math.isnan(x)
                   for x in (v if isinstance(v, tuple) else (v,)))]


def _reject_unknown(left: dict, prefix: str) -> None:
    if left:
        raise ConfigError("; ".join(f"{prefix}{key}: unknown key"
                                    for key in left))


def _scheme_from_dict(entry, path: str) -> SchemeSpec:
    known = _pop_fields(entry, SchemeSpec, path)
    for key in ("name", "kind"):
        if key not in known:
            raise ConfigError(f"{path}.{key}: required")
    try:
        spec = SchemeSpec(**known)
    except ConfigError as exc:
        raise ConfigError(str(exc).replace("schemes[].", f"{path}.")) from None
    unread = [key for key in known if key not in
              ("name", "kind", *SCHEME_KEYS[spec.kind])]
    if unread:
        raise ConfigError("; ".join(f"{path}.{key}: unknown key for kind "
                                    f"{spec.kind!r}" for key in unread))
    return spec


def _seed_rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _seed_int(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


# ----------------------------------------------------------------------------
# Per-trial world and per-scheme runtime state


@dataclass
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
    sensor: SensorModel
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
    state = sample_steady_state(model, n_cells, rng)
    rows = [state.b]
    for _ in range(t_total - 1):
        state = step_occupancy(model, state, rng)
        rows.append(state.b)
    return np.stack(rows)


def _simulate_sensing(model: OccupancyModel, sensor: SensorModel, m,
                      b_seq, rng) -> np.ndarray:
    """Posterior occupancy estimates per cell and frame."""
    if sensor.noiseless:
        return b_seq.astype(float)
    t_total, n = b_seq.shape
    m_int = m.astype(int)
    out = np.empty((t_total, n))
    prior = np.full(n, float(model.pi_b))
    # one binomial draw fills the whole block in C order, frame by frame, so
    # it takes the draws that one call per frame would
    xi_seq = sample_detection_count(sensor, b_seq, m_int, rng)
    for t in range(t_total):
        post = posterior_update(sensor, prior, xi_seq[t], m_int)
        out[t] = post
        prior = np.asarray(prior_propagate(model, post), dtype=float)
    return out


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


def prepare_scheme(config: ExperimentConfig, topology, phi, model,
                   trial: int, scheme_idx: int) -> SchemeRuntime:
    spec = config.schemes[scheme_idx]
    rt = SchemeRuntime(spec=spec)
    mu = float(model.mu)
    if spec.kind in ("ibt", "rt"):
        if spec.kind == "ibt":
            rt.tree = build_ibt(topology, phi, mu, spec.gamma_delay, spec.c_max)
        else:
            rng = _seed_rng(config.master_seed, trial, 5, scheme_idx)
            rt.tree = build_random_tree(topology, spec.gamma_delay, spec.c_max,
                                        rng)
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

    runtimes = [prepare_scheme(config, topology, phi, model, trial, k)
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
                        model=model, sensor=sensor, m=m, runtimes=runtimes,
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


def eval_fading_success(layout: FadingLayout, traffic, m, b, sinr_th: float,
                        pi_b: float, rng):
    """One frame of per-user Rayleigh evaluation.

    Draws Bernoulli access per SU from its cell traffic and unit-mean
    exponential power gains per active link, and counts SINR-threshold
    successes at the receivers of transmitting SUs, per cell.  Also returns
    the realized SU-caused INR averaged over the expected number of active
    PUs.
    """
    n_cells = layout.pl_pu_su.shape[0]
    p = np.clip(np.asarray(traffic) / np.asarray(m), 0.0, 1.0)
    act = np.flatnonzero(rng.random(len(layout.su_cell)) < p[layout.su_cell])
    apu = np.flatnonzero(np.asarray(b) == 1)
    su_counts = np.zeros(n_cells)
    n_act, n_apu = len(act), len(apu)
    # every link gain of the frame in one draw, in the block order
    # SU->SU, PU->SU, SU->PU, PU->PU; no output reads the PU->PU block
    gains = rng.exponential(size=(n_act + n_apu) ** 2)
    ss, sp = n_act * n_act, n_act * n_apu
    g_ss, g_ps = gains[:ss], gains[ss:ss + sp]
    g_sp = gains[ss + sp:ss + 2 * sp]
    su = None if n_act == len(layout.su_cell) else act  # None: every SU

    if n_act:
        sub = _square_block(layout.pl_su_su, su) * g_ss.reshape(n_act, n_act)
        own = sub.diagonal()
        noise = 1.0 + (sub.sum(axis=0) - own)
        if n_apu:  # adding the empty PU block's zeros changes nothing
            noise = noise + (_block(layout.pl_pu_su, apu, su)
                             * g_ps.reshape(n_apu, n_act)).sum(axis=0)
        ok = act[own / noise > sinr_th]
        su_counts = np.bincount(layout.su_cell[ok], minlength=n_cells).astype(float)

    inr = 0.0
    if n_apu:
        i_sp = (_block(layout.pl_su_pu, su, apu)
                * g_sp.reshape(n_act, n_apu)).sum(axis=0)
        inr = float(i_sp.sum() / (n_cells * pi_b))
    return su_counts, inr


def _block(matrix, rows, cols) -> np.ndarray:
    """matrix[np.ix_(rows, cols)], gathered with take; None keeps an axis."""
    matrix = matrix if rows is None else matrix.take(rows, axis=0)
    return matrix if cols is None else matrix.take(cols, axis=1)


def _square_block(matrix, idx) -> np.ndarray:
    """matrix[np.ix_(idx, idx)] of a C-ordered matrix in one flat take,
    without the row block that two takes copy first; None keeps both axes."""
    if idx is None:
        return matrix
    return matrix.ravel().take(idx[:, None] * matrix.shape[1] + idx)


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
            self._ring_size = np.maximum(w.ring_size[:, 1:], 1)
            self._phi_del = w.phi_del[:, 1:]
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
    ``fading_mc`` the per-user draws still run frame by frame, in frame
    order, on the grid point's own stream ``eval_rng``.
    """
    ip_true, phi_b = ctx.occupancy_products
    if params.lam is None:
        util = np.full(ctx.t_total, math.nan)
    else:
        util = control.utility(traffic, ip_true, is_true, ctx.m, ctx.phi_diag,
                               ctx.model, params).mean(axis=1)
    if ctx.config.eval_mode == "fading_mc":
        # the measured INR stands in for the analytic one
        counts, inr_lin = zip(*(
            eval_fading_success(ctx.fading, traffic[t], ctx.m, ctx.b_seq[t],
                                params.sinr_th, float(ctx.model.pi_b),
                                eval_rng) for t in range(ctx.t_total)))
        throughput = np.array([c.mean() for c in counts])
        inr_lin = np.array(inr_lin)
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


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def rows_for(self, scheme: str, grid_value: float | None = None
                 ) -> list[SweepRow]:
        out = [r for r in self.rows if r.scheme == scheme]
        if grid_value is not None:
            out = [r for r in out if r.lambda_or_ptx == grid_value]
        return out

    def grid_values(self, scheme: str) -> list[float]:
        seen = []
        for r in self.rows:
            if r.scheme == scheme and r.lambda_or_ptx not in seen:
                seen.append(r.lambda_or_ptx)
        return seen

    def summary(self) -> list[dict]:
        out = []
        for scheme in dict.fromkeys(r.scheme for r in self.rows):
            for gval in self.grid_values(scheme):
                rows = self.rows_for(scheme, gval)
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([r.scheme, repr(r.lambda_or_ptx), r.seed,
                                 repr(r.mean_su_throughput), repr(r.mean_inr_db),
                                 repr(r.mean_utility), repr(r.agg_cost_per_cell),
                                 r.frames, r.n_cells])

    def write_summary_csv(self, path) -> None:
        rows = self.summary()
        cols = list(rows[0].keys()) if rows else []
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for r in rows:
                writer.writerow([r[c] if isinstance(r[c], (str, int))
                                 else repr(float(r[c])) for c in cols])


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
