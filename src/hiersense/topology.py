"""Cell layouts, blockages, line-of-sight tests, and the linear-scale INR matrix.

Geometry is 2-D and static. Cells are either a regular square grid (with
rectangular blockages sitting on the boundaries between adjacent cells) or an
irregular layout where transmitters are dropped uniformly at random and cell
regions are implied by nearest-transmitter assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def db_to_lin(x, out=None):
    """Convert dB (power ratio) to linear scale, into ``out`` if given (it
    may be ``x`` itself)."""
    if out is not None:
        return np.power(10.0, np.divide(x, 10.0, out=out), out=out)
    lin = np.asarray(x, dtype=float) / 10.0
    if not isinstance(lin, np.ndarray):
        # numpy's scalar power, which can differ from its array loop's in
        # the last bit
        return 10.0 ** lin
    return np.power(10.0, lin, out=lin)


def lin_to_db(x):
    """Convert linear power ratio to dB.  Zero maps to -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(x, dtype=float))


NO_LINK = -1  # frame delay of a pair beyond the radius: nothing arrives


def frame_delays(distance, gamma_delay: float, radius: float = math.inf
                 ) -> np.ndarray:
    """Whole frames a message takes to travel ``distance`` metres, the delay
    of a tree edge and of a network-state bit alike; ``NO_LINK`` beyond
    ``radius``."""
    d = np.asarray(distance)
    return np.where(d <= radius, np.ceil(gamma_delay * d).astype(int), NO_LINK)


@dataclass(frozen=True)
class Blockage:
    """Axis-aligned rectangular blockage straddling a cell boundary.

    ``width`` is the extent across the boundary and ``height`` the extent
    along it, both in metres.  ``vertical`` is True when the blockage sits on
    a vertical boundary (i.e. between two horizontally adjacent cells).
    """

    center: tuple[float, float]
    width: float
    height: float
    vertical: bool = True

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("blockage width and height must be positive")

    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the rectangle."""
        cx, cy = self.center
        if self.vertical:
            hx, hy = self.width / 2.0, self.height / 2.0
        else:
            hx, hy = self.height / 2.0, self.width / 2.0
        return (cx - hx, cy - hy, cx + hx, cy + hy)


def _los_matrix(centers, rects) -> np.ndarray:
    """(N, N) flags: True where the segment between two centers is clear.

    A segment is blocked when it passes through a rectangle's open interior,
    found by Liang-Barsky clipping of every pair (i < j, segment from i to j)
    against one rectangle at a time.  Grazing a face or corner does not
    count, so a blockage lying exactly along a line of cell centers does not
    obstruct links running along that line.
    """
    n = len(centers)
    los = np.ones((n, n), dtype=bool)
    if not rects or n < 2:
        return los
    iu, ju = np.triu_indices(n, 1)
    x, y = centers[:, 0], centers[:, 1]
    # the clipped midpoint lies within a few ulps of the segment's bounding
    # box, so a pair whose ends share a side outside the padded rectangle
    # (Cohen-Sutherland outcodes) cannot be blocked by it
    pad = 1e-9 * (1.0 + float(np.abs(centers).max()))
    for rect in rects:
        xmin, ymin, xmax, ymax = rect
        code = ((x < xmin - pad) | (x > xmax + pad) << 1
                | (y < ymin - pad) << 2 | (y > ymax + pad) << 3).astype(np.uint8)
        near = np.flatnonzero((code[iu] & code[ju]) == 0)
        i, j = iu[near], ju[near]
        hit = _clip_hits(x[i], y[i], x[j], y[j], rect)
        los[i[hit], j[hit]] = los[j[hit], i[hit]] = False
    return los


def _clip_hits(px, py, qx, qy, rect) -> np.ndarray:
    """Per segment (px, py) -> (qx, qy): True if it passes through the open
    interior of ``rect`` = (xmin, ymin, xmax, ymax)."""
    dx, dy = qx - px, qy - py
    t0, t1 = np.zeros(len(px)), np.ones(len(px))
    for start, delta, lo, hi in ((px, dx, rect[0], rect[2]),
                                 (py, dy, rect[1], rect[3])):
        # a segment parallel to this axis is not clipped by it; its midpoint
        # keeps the start coordinate, which the interior test below rejects
        # when it lies outside (lo, hi)
        flat = delta == 0.0
        step = np.where(flat, 1.0, delta)
        ta, tb = (lo - start) / step, (hi - start) / step
        enter, leave = np.minimum(ta, tb), np.maximum(ta, tb)
        enter[flat], leave[flat] = -np.inf, np.inf
        t0, t1 = np.maximum(t0, enter), np.minimum(t1, leave)
    tm = (t0 + t1) / 2.0
    x, y = px + tm * dx, py + tm * dy
    # t0 only grows and t1 only shrinks, so one t0 <= t1 test covers both axes
    return (t0 <= t1) & (rect[0] < x) & (x < rect[2]) & (rect[1] < y) & (y < rect[3])


@dataclass(frozen=True)
class PathlossParams:
    """Large-scale pathloss model parameters (defaults: dense sub-6GHz setup)."""

    tx_power_dbm: float = -11.0
    noise_psd_dbm_per_hz: float = -173.0
    bandwidth_hz: float = 20e6
    ref_loss_db: float = 74.0
    ref_distance_m: float = 50.0
    alpha_los: float = 2.1
    alpha_nlos: float = 3.3

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.ref_distance_m <= 0:
            raise ValueError("ref_distance_m must be positive")
        if not (self.alpha_nlos >= self.alpha_los > 0):
            raise ValueError("need alpha_nlos >= alpha_los > 0")

    @property
    def noise_power_dbm(self) -> float:
        return self.noise_psd_dbm_per_hz + 10.0 * math.log10(self.bandwidth_hz)


class NetworkTopology:
    """Immutable cell geometry: centers, blockages, distances and LOS flags."""

    def __init__(self, cell_centers, area, cell_radius, blockages=()):
        centers = np.asarray(cell_centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != 2 or len(centers) == 0:
            raise ValueError("cell_centers must be a non-empty (N, 2) array")
        w, h = float(area[0]), float(area[1])
        if w <= 0 or h <= 0:
            raise ValueError("area dimensions must be positive")
        if (centers[:, 0] < 0).any() or (centers[:, 0] > w).any() \
                or (centers[:, 1] < 0).any() or (centers[:, 1] > h).any():
            raise ValueError("all cell centers must lie inside the area")

        self.cell_centers = centers
        self.cell_count = len(centers)
        self.area = (w, h)
        self.cell_radius = float(cell_radius)
        self.blockages = list(blockages)

        diff = centers[:, None, :] - centers[None, :, :]
        self.distance_matrix = np.sqrt((diff ** 2).sum(axis=-1))

        self.los_matrix = _los_matrix(centers, [b.bounds() for b in self.blockages])

        # guard against accidental mutation: trials share one topology
        self.cell_centers.setflags(write=False)
        self.distance_matrix.setflags(write=False)
        self.los_matrix.setflags(write=False)


def _grid_boundary_segments(k: int, sx: float, sy: float):
    """All interior boundary segments of a k x k grid.

    Returns (center, vertical) tuples; vertical boundaries separate
    horizontally adjacent cells.
    """
    segments = []
    for row in range(k):
        for col in range(k - 1):
            segments.append((((col + 1) * sx, (row + 0.5) * sy), True))
    for row in range(k - 1):
        for col in range(k):
            segments.append((((col + 0.5) * sx, (row + 1) * sy), False))
    return segments


def layout_errors(kind: str, n_cells: int, area, n_blockages: int
                  ) -> list[tuple[str, str]]:
    """(parameter, message) for each reason :func:`build_topology` rejects a
    layout; empty if it accepts it."""
    k = math.isqrt(max(n_cells, 0))
    # blockages sit on the inner cell boundaries of a k x k grid
    segments = 2 * k * (k - 1) if kind == "grid" else 0
    checks = (
        ("kind", kind in ("grid", "random"), "must be 'grid' or 'random'"),
        ("area", all(0 < v < math.inf for v in area)
         and math.isfinite(area[0] * area[0] + area[1] * area[1]),
         "must be positive and finite, with a finite squared diagonal"),
        ("n_cells", n_cells >= 1, "must be >= 1"),
        ("n_cells", kind != "grid" or k * k == max(n_cells, 0),
         f"must be a square number for a grid topology, got {n_cells}"),
        ("n_blockages", 0 <= n_blockages <= segments,
         f"must be in [0, {segments}], the inner grid cell boundaries of "
         "this layout" if kind == "grid" else
         "must be 0: only grid layouts take blockages"))
    return [(name, msg) for name, ok, msg in checks if not ok]


def build_topology(kind: str, n_cells: int, area, n_blockages: int = 0,
                   rng_seed: int = 0, cell_radius: float | None = None
                   ) -> NetworkTopology:
    """Generate a cell layout.

    ``grid``: n_cells must be a perfect square; centers on a regular lattice,
    blockages (width 1 x height 5 in cell-side units) dropped uniformly on
    distinct interior cell boundaries.

    ``random``: transmitters placed uniformly in the area; the cell of any
    location is the nearest transmitter, so centers double as Voronoi seeds.
    Blockages are tied to grid boundaries and are not supported here.
    """
    errors = layout_errors(kind, n_cells, area, n_blockages)
    if errors:
        raise ValueError("; ".join(f"{name}: {msg}" for name, msg in errors))
    w, h = float(area[0]), float(area[1])
    rng = np.random.default_rng(rng_seed)

    if kind == "grid":
        k = math.isqrt(n_cells)
        sx, sy = w / k, h / k
        cols, rows = np.meshgrid(np.arange(k), np.arange(k))
        centers = np.column_stack([(cols.ravel() + 0.5) * sx,
                                   (rows.ravel() + 0.5) * sy])
        blockages = []
        if n_blockages > 0:
            segments = _grid_boundary_segments(k, sx, sy)
            picks = rng.choice(len(segments), size=n_blockages, replace=False)
            for idx in sorted(picks):
                center, vertical = segments[idx]
                across = sx if vertical else sy
                along = sy if vertical else sx
                blockages.append(Blockage(center=center, width=1.0 * across,
                                          height=5.0 * along, vertical=vertical))
        radius = cell_radius if cell_radius is not None else min(sx, sy) / 2.0
        return NetworkTopology(centers, (w, h), radius, blockages)

    centers = np.column_stack([rng.uniform(0, w, n_cells),
                               rng.uniform(0, h, n_cells)])
    radius = cell_radius if cell_radius is not None else \
        0.5 * math.sqrt(w * h / n_cells)
    return NetworkTopology(centers, (w, h), radius, ())


@dataclass(frozen=True)
class InterferenceMatrix:
    """Symmetric linear-scale INR matrix phi[i, j] (transmitter i, receiver j)."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValueError("phi must be square")
        if not (phi == phi.T).all():
            raise ValueError("phi must be symmetric (channel reciprocity)")
        if (phi < 0).any():
            raise ValueError("phi entries must be nonnegative")
        if (np.diag(phi) <= 0).any():
            raise ValueError("diagonal SNR entries must be positive")
        phi.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.phi.shape[0]

    def coupling(self) -> np.ndarray:
        return coupling_matrix(self.phi)


def _phi_array(phi) -> np.ndarray:
    return phi.phi if isinstance(phi, InterferenceMatrix) else np.asarray(phi, dtype=float)


def coupling_matrix(phi) -> np.ndarray:
    """W[j, i] = phi[j, i] / phi[i, i]: interference weight of cell j at cell i."""
    phi_arr = _phi_array(phi)
    return phi_arr / np.diag(phi_arr)[None, :]


_FACTOR_ROWS = 64  # rows of pathloss_db's exponent factors per pass


def pathloss_db(params: PathlossParams, distance_m, los, out=None
                ) -> np.ndarray:
    """INR in dB for given distances and LOS flags, into ``out`` if given
    (it may be the distance array itself).

    Distance-dependent term uses the LOS/NLOS exponent relative to the
    reference distance; distances are taken as-is (callers clamp if needed).
    """
    d = np.asarray(distance_m, dtype=float)
    los = np.asarray(los, dtype=bool)
    if out is None:
        out = np.empty(np.broadcast_shapes(d.shape, los.shape))
    np.divide(d, params.ref_distance_m, out=out)
    np.log10(out, out=out)
    a_los, a_nlos = params.alpha_los * 10.0, params.alpha_nlos * 10.0
    if not los.ndim:
        out *= a_los if los else a_nlos
    else:
        # each flag's factor alpha * 10, one row block at a time: a masked
        # multiply per exponent would take about 3x as long
        los = np.broadcast_to(los, out.shape)
        for lo in range(0, len(out), _FACTOR_ROWS):
            out[lo:lo + _FACTOR_ROWS] *= np.where(los[lo:lo + _FACTOR_ROWS],
                                                  a_los, a_nlos)
    np.subtract(params.tx_power_dbm - params.noise_power_dbm
                - params.ref_loss_db, out, out=out)
    return out if out.ndim else out[()]


def compute_phi(topology: NetworkTopology, params: PathlossParams) -> InterferenceMatrix:
    """Build the INR matrix from the pathloss model, in place on one copy of
    the distance matrix.

    The diagonal (own-cell SNR) is evaluated at the reference distance, since
    the pathloss law is undefined at zero distance.
    """
    d = topology.distance_matrix.copy()
    np.fill_diagonal(d, params.ref_distance_m)
    pathloss_db(params, d, topology.los_matrix, out=d)
    return InterferenceMatrix(db_to_lin(d, out=d))
