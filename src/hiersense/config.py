"""The experiment configuration and its YAML format.

A config file maps sections (``topology``, ``occupancy``, ``sensing``,
``population``, ``control``, ``experiment``, ``pathloss``, ``schemes``) to
the fields of :class:`ExperimentConfig`; dotted ``key=value`` overrides
replace single entries first.  Text that is not YAML, and every bad key
or value, raises :class:`ConfigError`; a bad key or value names its path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import yaml

from .dynamics import OccupancyModel
from .sensing import SensorModel
from .topology import PathlossParams, db_to_lin, layout_errors

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
        # inf means no budget (c_max) and no horizon (radius)
        errors = _finite_errors(self, infinite_ok=("c_max", "radius"))
        if self.kind not in SCHEME_KINDS:
            errors.append(("kind", f"must be one of {', '.join(SCHEME_KINDS)}"
                           f", got {self.kind!r}"))
        for name in ("gamma_delay", "c_max", "radius", "rounds"):
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
        # (field name or section, message); layout_errors checks the area's
        # infinities, and the range check below those of the nullable fields
        errors = _finite_errors(self, infinite_ok=(
            "area", "cell_radius", "a_max", "hop_distance_m"))
        errors += _finite_errors(self.pathloss, "pathloss.")
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
        # numpy indexes a (frames + extra_warmup + warm-up, n_cells) float64
        # history only below 2**63 bytes; a warm-up is at most ceil(gamma_delay
        # * diagonal) per level, over 1 level for full NSI and at most
        # n_cells - 1 for a tree, which merges at least one pair per level
        rows = (2 ** 63 - 1) // (8 * max(n, 1))
        room = rows - self.frames - max(self.extra_warmup, 0)
        limit = f"for a float64 history of {n} cells below 2**63 bytes"
        for name, most in (("frames", rows),
                           ("extra_warmup", rows - self.frames)):
            if 0 <= most < getattr(self, name):
                errors.append((name, f"must be at most {most} {limit}"))
        diagonal = math.hypot(*self.area)
        for k, spec in enumerate(self.schemes):
            depth = {"ibt": n - 1, "rt": n - 1, "full_nsi": 1}.get(spec.kind, 0)
            # ceil(x) <= room // depth exactly when x <= room // depth
            if room >= 0 and depth > 0 and math.isfinite(spec.gamma_delay) \
                    and spec.gamma_delay * diagonal > room // depth:
                errors.append((f"schemes[{k}].gamma_delay", "must be at most "
                               f"{room // depth / diagonal:.6g} on this "
                               f"layout, {limit} after the warm-up"))
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


def _finite_errors(spec, prefix: str = "", infinite_ok=()
                   ) -> list[tuple[str, str]]:
    """(name, message) for each field of ``spec`` holding NaN, which the
    YAML reader rejects too, or an infinity, alone or in a tuple; the
    fields named in ``infinite_ok`` may hold an infinity."""
    errors = []
    for name, v in vars(spec).items():
        floats = [x for x in (v if isinstance(v, tuple) else (v,))
                  if isinstance(x, float)]
        if any(math.isnan(x) for x in floats):
            errors.append((prefix + name, "must not be NaN"))
        elif name not in infinite_ok and any(map(math.isinf, floats)):
            errors.append((prefix + name, "must be finite"))
    return errors


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


def _apply_override(raw: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    path, value = assignment.split("=", 1)
    keys = path.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {path!r} crosses a non-mapping entry")
    node[keys[-1]] = _load_yaml(value)


def _load_yaml(stream):
    """``yaml.safe_load``, through libyaml where PyYAML has it, whose parse
    errors are config errors."""
    try:
        return yaml.load(stream, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str, overrides=()) -> ExperimentConfig:
    with open(path) as fh:
        raw = _load_yaml(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: must be a mapping of config sections")
    for assignment in overrides:
        _apply_override(raw, assignment)
    return ExperimentConfig.from_dict(raw)
