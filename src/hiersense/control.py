"""Decentralized SU traffic control and the baseline network-state policies.

Each cell picks its expected SU traffic to maximize a payoff-minus-cost
utility: a Jensen lower bound on the cell throughput, minus lambda times the
cell's expected contribution to the interference experienced by licensed
users.  The bound is concave in the traffic, so the maximizer has a closed
form with projection onto [0, M].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OccupancyModel
from .topology import NO_LINK, _phi_array, coupling_matrix, frame_delays


@dataclass(frozen=True)
class ControlParams:
    """lam: interference cost weight, None where none is defined
    (uncoordinated access); sinr_th: decoding threshold (linear)."""

    lam: float | None
    sinr_th: float

    def __post_init__(self):
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.sinr_th <= 0:
            raise ValueError("sinr_th must be positive")


def throughput_lb(a, m, ip, is_, phi_ii, params: ControlParams):
    """Jensen lower bound on the expected SU cell throughput.

    Dense populations enter as m = inf, which drops the 1/M self-exclusion
    term.
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    inv_m = np.where(np.isinf(m), 0.0, 1.0 / m)
    th = params.sinr_th
    num = a * np.exp(-th / np.asarray(phi_ii, dtype=float))
    den = 1.0 + th * (a * (1.0 - inv_m) + np.asarray(ip) + np.asarray(is_))
    out = num / den
    return float(out) if out.ndim == 0 else out


def _binom_pmf(n: int, k: int, p: float) -> float:
    return math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)


def exact_throughput(a, b, m, phi, params: ControlParams, i: int) -> float:
    """Exact expected throughput of cell i by enumerating access outcomes.

    Enumerates the binomial access counts of every cell (the reference cell
    with one slot excluded), so only tiny populations are tractable.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.isinf(m).any() or m.sum() > 25:
        raise ValueError("instance too large for exact enumeration")
    if ((a < 0) | (a > m)).any():
        raise ValueError("traffic must lie in [0, m]")
    n = len(a)
    m_int = m.astype(int)
    phi_arr = _phi_array(phi)
    w = phi_arr[:, i] / phi_arr[i, i]
    th = params.sinr_th
    base = 1.0 + th * float(w @ b)

    ranges, pmfs, weights = [], [], []
    for j in range(n):
        if j == i:
            trials = m_int[i] - 1
            weights.append(1.0)  # own extra accessor enters with weight one
        else:
            trials = m_int[j]
            weights.append(w[j])
        p = float(a[j] / m[j])
        ranges.append(range(trials + 1))
        pmfs.append([_binom_pmf(trials, k, p) for k in range(trials + 1)])

    total = 0.0
    for counts in itertools.product(*ranges):
        prob = 1.0
        load = 0.0
        for j, k in enumerate(counts):
            prob *= pmfs[j][k]
            load += weights[j] * k
        if prob:
            total += prob / (base + th * load)
    return float(a[i] * math.exp(-th / phi_arr[i, i]) * total)


def optimal_traffic(ip, is_, m, phi_ii, model: OccupancyModel,
                    params: ControlParams, a_max: float | None = None):
    """Closed-form maximizer of the local utility, projected onto [0, M].

    Vanishing licensed-user interference makes the utility strictly
    increasing, so the upper clip is returned; dense populations then need a
    finite a_max rail.
    """
    ip = np.asarray(ip, dtype=float)
    is_ = np.asarray(is_, dtype=float)
    m = np.asarray(m, dtype=float)
    phi_ii = np.asarray(phi_ii, dtype=float)
    if (ip < 0).any() or (is_ < 0).any():
        raise ValueError("interference estimates must be nonnegative")
    upper = np.where(np.isinf(m), math.inf if a_max is None else float(a_max), m)
    if np.any((ip <= 0) & np.isinf(upper)):
        raise ValueError("ip = 0 with an unbounded population needs a_max")

    th = params.sinr_th
    pi_b = float(model.pi_b)
    c = np.where(np.isinf(m), 1.0, 1.0 - 1.0 / m)
    root = np.sqrt(1.0 + th * (ip + is_))
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (math.sqrt(pi_b) * np.exp(-th / (2.0 * phi_ii))
                / np.sqrt(params.lam * phi_ii * ip))
        val = root / (th * c) * (gain - root)
    # c = 0 (single SU) makes the utility linear: +-inf here encodes the slope
    # sign and the clip below lands on the right endpoint; 0 * inf means a
    # zero slope, for which idling is as good as anything.
    val = np.where(np.isnan(val), 0.0, val)
    out = np.clip(val, 0.0, upper)
    return float(out) if out.ndim == 0 else out


class TrafficKernel:
    """:func:`optimal_traffic` of a trial's cells, with every value that is
    fixed within the trial built once.

    The rule splits in two.  :meth:`gain` reads no SU-interference estimate,
    so a loop builds it once for all of a grid point's frames; :meth:`step`
    is the rest of one frame.  The arithmetic is the oracle's, operation for
    operation, so a decision equals ``optimal_traffic(ip, is_, m, phi_ii,
    model, params, a_max)`` bit for bit.  The checks on ``ip`` run over a
    whole block of frames (:meth:`check_ip`); the caller checks ``is_``.
    """

    def __init__(self, m, phi_ii, model: OccupancyModel, sinr_th: float,
                 a_max: float | None = None):
        m = np.asarray(m, dtype=float)
        self.phi_ii = np.asarray(phi_ii, dtype=float)
        self.sinr_th = th = float(sinr_th)
        self.upper = np.where(np.isinf(m),
                              math.inf if a_max is None else float(a_max), m)
        self.th_c = th * np.where(np.isinf(m), 1.0, 1.0 - 1.0 / m)
        self.gain_num = (math.sqrt(float(model.pi_b))
                         * np.exp(-th / (2.0 * self.phi_ii)))

    def check_ip(self, ip) -> None:
        """Reject licensed-user estimates the rule cannot take: negative
        entries, and 0 where the population has no upper rail.  ``ip`` is
        one frame or a (frames, n_cells) block."""
        ip = np.asarray(ip, dtype=float)
        if (ip < 0).any():
            raise ValueError("interference estimates must be nonnegative")
        if np.any((ip <= 0) & np.isinf(self.upper)):
            raise ValueError("ip = 0 with an unbounded population needs a_max")

    def gain(self, ip, lam_phi) -> np.ndarray:
        """``gain_num / sqrt(lam_phi * ip)`` of one frame or of a (frames,
        n_cells) block; ``lam_phi`` is ``lam * phi_ii``.  Elementwise, so a
        block's rows equal the frames' own."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.gain_num / np.sqrt(lam_phi * ip)

    def step(self, ip, is_, gain, out) -> np.ndarray:
        """One frame's traffic from its :meth:`gain`, written to ``out``, an
        array of the frame's shape.

        ``out`` holds ``root = sqrt(1 + th * (ip + is_))`` on the way.  Run
        it under ``np.errstate(divide="ignore", invalid="ignore")``: a
        single SU (c = 0) divides by zero.
        """
        root = np.add(ip, is_, out=out)
        root *= self.sinr_th
        root += 1.0
        np.sqrt(root, out=root)
        val = gain - root
        root /= self.th_c
        val *= root  # root / th_c * (gain - root)
        # see optimal_traffic: NaN is a zero slope of the linear c = 0 case,
        # which fmax maps to 0 as np.where did.  fmax and np.clip differ
        # only at val = -0.0, which this product with root >= 1 does not
        # make short of an underflow at th near the float maximum
        np.fmax(val, 0.0, out=out)
        return np.minimum(out, self.upper, out=out)


def utility(a, ip, is_, m, phi_ii, model: OccupancyModel, params: ControlParams):
    """Throughput lower bound minus the weighted interference charge."""
    a = np.asarray(a, dtype=float)
    r_hat = throughput_lb(a, m, ip, is_, phi_ii, params)
    iota = a * np.asarray(phi_ii, dtype=float) * np.asarray(ip) / float(model.pi_b)
    out = r_hat - params.lam * iota
    return float(out) if np.ndim(out) == 0 else out


def inr_contributions(a, phi_b, model: OccupancyModel):
    """Per-cell INR contributions ``iota = a * phi_b / pi_b`` and their mean.

    ``phi_b`` is ``phi @ b``: the coupling of each cell to the active
    licensed users.  ``a`` and ``phi_b`` are one frame's vectors or
    (frames, n_cells) blocks; the mean is taken per frame.
    """
    iota = np.asarray(a, dtype=float) * phi_b / float(model.pi_b)
    return iota.sum(axis=-1) / iota.shape[-1], iota


def network_inr(a, b, phi, model: OccupancyModel):
    """Average INR caused to active licensed users, plus per-cell contributions.

    Returns (inr_linear, iota) with inr defined as the mean of the per-cell
    contributions, making the decomposition identity exact by construction.
    """
    phi_b = _phi_array(phi) @ np.asarray(b, dtype=float)
    inr, iota = inr_contributions(a, phi_b, model)
    return float(inr), iota


# --------------------------------------------------------------------------
# Baseline network-state policies


def nsi_cost(delay_matrix) -> float:
    """Per-cell NSI cost: the mean number of other cells whose bit arrives."""
    arrives = np.asarray(delay_matrix) != NO_LINK
    np.fill_diagonal(arrives, False)
    return float(arrives.sum(axis=0).mean())


def full_nsi_ip(phi, delay_matrix, b_history, model: OccupancyModel
                ) -> np.ndarray:
    """Delay-compensated estimate of every frame from (delayed) true bits.

    Row t reads each contributor's bit from frame t - delay; bits older than
    the simulated history, and bits that never arrive (``NO_LINK``), enter at
    the steady-state prior.
    """
    w = coupling_matrix(phi)
    pi_b = float(model.pi_b)
    mu = float(model.mu)
    b = np.asarray(b_history, dtype=float)
    t_total = len(b)
    ip = np.tile(pi_b * w.sum(axis=0), (t_total, 1))
    # each delay that occurs, in increasing order: NO_LINK (-1) is bin 0, and
    # a delay past the history leaves only the prior
    seen = np.bincount(np.minimum(delay_matrix.ravel(), t_total) + 1)
    for d in np.flatnonzero(seen[1:t_total + 1]):
        mask = delay_matrix == d
        ip[d:] += (mu ** int(d)) * ((b[:t_total - d] - pi_b) @ (w * mask))
    return np.maximum(ip, 0.0)


def radius_nsi_ip(phi, distance_matrix, radius: float, b_history,
                  model: OccupancyModel) -> np.ndarray:
    """Exact bits inside the radius, steady-state prior beyond it: full NSI
    without delay, cut off at ``radius``.

    ``b_history`` is one frame's bits or a (frames, n_cells) history.
    """
    b = np.asarray(b_history, dtype=float)
    ip = full_nsi_ip(phi, frame_delays(distance_matrix, 0.0, radius),
                     np.atleast_2d(b), model)
    return ip if b.ndim > 1 else ip[0]


def uncoordinated_traffic(p_tx: float, m, a_max: float | None = None
                          ) -> np.ndarray:
    """Constant access probability, bypassing interference estimation."""
    if not 0 <= p_tx <= 1:
        raise ValueError("p_tx must lie in [0, 1]")
    m = np.asarray(m, dtype=float)
    if np.isinf(m).any():
        if a_max is None:
            raise ValueError("dense population needs a_max for uncoordinated access")
        return np.full(m.shape, p_tx * a_max)
    return p_tx * m


def random_regular_connected(n: int, degree: int, seed: int,
                             max_tries: int = 50) -> np.ndarray:
    """Adjacency matrix of a connected random regular graph (bounded retries)."""
    import networkx as nx

    for attempt in range(max_tries):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return nx.to_numpy_array(g, nodelist=range(n)).astype(bool)
    raise RuntimeError(f"no connected degree-{degree} graph found in "
                       f"{max_tries} tries")


def metropolis_weights(adjacency) -> np.ndarray:
    """Doubly stochastic averaging weights; converge on any connected graph."""
    adj = np.asarray(adjacency, dtype=bool)
    deg = adj.sum(axis=1)
    pair_deg = 1.0 + np.maximum(deg[:, None], deg[None, :])
    w = np.where(adj, 1.0 / pair_deg, 0.0)
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def consensus_mixer(adjacency, rounds: int) -> np.ndarray:
    return np.linalg.matrix_power(metropolis_weights(adjacency), rounds)


def consensus_ip(mixer, b_hat, phi_tot) -> np.ndarray:
    """Averaged occupancy estimate scaled by each cell's total coupling.

    ``b_hat`` is one frame's estimates or a (frames, n_cells) history.
    """
    x = np.asarray(b_hat, dtype=float) @ np.asarray(mixer).T
    return np.maximum(x * np.asarray(phi_tot), 0.0)

