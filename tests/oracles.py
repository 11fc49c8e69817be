"""Scalar oracles of the simulator's array paths, used only by the tests.

Each computes one value the plain way: the aggregation benefit and cost of
one candidate merge (``hierarchy._agglomerate`` scores every pair at once),
the h-distance of one pair of cells (``compute_weights`` bins every pair in
one pass), and one frame of the traffic rule with its two halves composed
(``Simulation`` builds ``TrafficKernel.gain`` once per grid point and runs
``TrafficKernel.step`` per frame), and one frame of Rayleigh evaluation with
a fresh array per operation (``harness.eval_fading_success`` scores a grid
point's frames in one call and multiplies each link block into its gains
in place), and the pathloss law and the dB
conversion with a fresh array per operation (``topology.pathloss_db`` and
``db_to_lin`` work in place on one output).
"""

import math

import numpy as np

from hiersense.topology import NetworkTopology, coupling_matrix


def gamma_metric(phi, cluster_n, cluster_m, delays, edge_delay: int, mu: float
                 ) -> float:
    """Aggregation benefit of merging two disjoint clusters.

    Sums the delay-discounted mutual interference weights between the two
    member sets, then discounts the whole by mu**edge_delay for the extra
    hop the merge introduces.
    """
    w = coupling_matrix(phi)
    n_idx = np.asarray(sorted(cluster_n), dtype=int)
    m_idx = np.asarray(sorted(cluster_m), dtype=int)
    if np.intersect1d(n_idx, m_idx).size:
        raise ValueError("clusters must be disjoint")
    dl = np.asarray(delays, dtype=float)
    mu = float(mu)
    term_nm = ((mu ** dl[m_idx])[:, None] * w[np.ix_(m_idx, n_idx)]).sum()
    term_mn = ((mu ** dl[n_idx])[:, None] * w[np.ix_(n_idx, m_idx)]).sum()
    return float(mu ** edge_delay * (term_nm + term_mn))


def pair_cost(topology: NetworkTopology, cluster_n, cluster_m) -> float:
    """Worst-case aggregation cost per cell of joining two disjoint clusters."""
    n_idx = np.asarray(sorted(cluster_n), dtype=int)
    m_idx = np.asarray(sorted(cluster_m), dtype=int)
    if np.intersect1d(n_idx, m_idx).size:
        raise ValueError("clusters must be disjoint")
    dmax = topology.distance_matrix[np.ix_(n_idx, m_idx)].max()
    return float(dmax / topology.cell_count)


def h_distance(tree, i: int, j: int):
    """Smallest level of ``tree`` whose cluster holds both cells; inf if
    none does."""
    n = tree.n_cells
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"cell id out of range: ({i}, {j})")
    for lvl in range(tree.depth + 1):
        if tree.cluster_of[lvl, i] == tree.cluster_of[lvl, j]:
            return lvl
    return math.inf


def decide(kernel, ip, is_, lam_phi) -> np.ndarray:
    """One frame's traffic from a ``TrafficKernel``: its gain and step
    composed.  ``ip`` passed ``kernel.check_ip`` and ``lam_phi`` is
    ``lam * kernel.phi_ii``."""
    ip = np.asarray(ip, dtype=float)
    is_ = np.asarray(is_, dtype=float)
    out = np.empty(np.broadcast(ip, is_, kernel.upper).shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernel.step(ip, is_, kernel.gain(ip, lam_phi), out)


def eval_fading_frame(layout, traffic, m, b, sinr_th: float, pi_b: float,
                      rng):
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
        sub = square_block(layout.pl_su_su, su) * g_ss.reshape(n_act, n_act)
        own = sub.diagonal()
        noise = 1.0 + (sub.sum(axis=0) - own)
        if n_apu:  # adding the empty PU block's zeros changes nothing
            noise = noise + (block(layout.pl_pu_su, apu, su)
                             * g_ps.reshape(n_apu, n_act)).sum(axis=0)
        ok = act[own / noise > sinr_th]
        su_counts = np.bincount(layout.su_cell[ok],
                                minlength=n_cells).astype(float)

    inr = 0.0
    if n_apu:
        i_sp = (block(layout.pl_su_pu, su, apu)
                * g_sp.reshape(n_act, n_apu)).sum(axis=0)
        inr = float(i_sp.sum() / (n_cells * pi_b))
    return su_counts, inr


def block(matrix, rows, cols) -> np.ndarray:
    """matrix[np.ix_(rows, cols)], gathered with take; None keeps an axis."""
    matrix = matrix if rows is None else matrix.take(rows, axis=0)
    return matrix if cols is None else matrix.take(cols, axis=1)


def square_block(matrix, idx) -> np.ndarray:
    """matrix[np.ix_(idx, idx)] of a C-ordered matrix in one flat take,
    without the row block that two takes copy first; None keeps both axes."""
    if idx is None:
        return matrix
    return matrix.ravel().take(idx[:, None] * matrix.shape[1] + idx)


def pathloss_db_fresh(params, distance_m, los):
    """INR in dB of ``topology.pathloss_db``, one fresh array per operation."""
    d = np.asarray(distance_m, dtype=float)
    alpha = np.where(np.asarray(los, dtype=bool), params.alpha_los,
                     params.alpha_nlos)
    return (params.tx_power_dbm - params.noise_power_dbm - params.ref_loss_db
            - alpha * 10.0 * np.log10(d / params.ref_distance_m))


def db_to_lin_fresh(x):
    """``topology.db_to_lin`` with a fresh array per operation."""
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0)
