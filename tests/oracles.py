"""Scalar oracles of the simulator's array paths, used only by the tests.

Each computes one value the plain way: the aggregation benefit and cost of
one candidate merge (``hierarchy._agglomerate`` scores every pair at once),
the h-distance of one pair of cells (``compute_weights`` bins every pair in
one pass), and one frame of the traffic rule with its two halves composed
(``Simulation`` builds ``TrafficKernel.gain`` once per grid point and runs
``TrafficKernel.step`` per frame).
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
