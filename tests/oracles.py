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

Aggregation trees also have a node form here: ``ClusterNode`` levels, read
from a tree by ``node_levels`` and turned back into one by
``tree_from_nodes``, the plain per-node oracle of the builders' and
``AggregationTree.from_dict``'s array rows; ``from_nested`` writes small
hand-made trees.
"""

import math
from dataclasses import dataclass

import numpy as np

from hiersense.hierarchy import AggregationTree
from hiersense.topology import NetworkTopology, coupling_matrix


@dataclass(frozen=True)
class ClusterNode:
    level: int
    index: int
    members: tuple[int, ...]
    children: tuple[int, ...]
    child_delays: tuple[int, ...]
    head_site: int


def node_levels(tree) -> list[list[ClusterNode]]:
    """Every level's clusters of ``tree`` as nodes, read from its JSON."""
    return [[ClusterNode(lvl, k, tuple(c["members"]), tuple(c["children"]),
                         tuple(c["child_delays"]), c["head_site"])
             for k, c in enumerate(level)]
            for lvl, level in enumerate(tree.to_dict()["levels"])]


def tree_from_nodes(levels, n_cells: int, cost_per_cell: float = 0.0,
                    merge_log=()) -> AggregationTree:
    """The tree of well-formed ``ClusterNode`` levels, converted node by node
    into the rows ``AggregationTree`` takes; it checks nothing."""
    cluster, delta = np.arange(n_cells), np.zeros(n_cells, dtype=int)
    rows = [(cluster, delta,
             np.array([c.head_site for c in levels[0]], dtype=int), None, ())]
    for nodes in levels[1:]:
        edge = np.zeros(len(rows[-1][2]), dtype=int)
        new = np.empty(n_cells, dtype=int)
        children, delays, start = [], [], []
        for node in nodes:
            new[list(node.members)] = node.index
            edge[list(node.children)] = node.child_delays
            start.append(len(children))
            children += node.children
            delays += node.child_delays
        delta = delta + edge[cluster]
        cluster = new
        rows.append((cluster, delta,
                     np.array([c.head_site for c in nodes], dtype=int),
                     tuple(np.array(a, dtype=int)
                           for a in (children, delays, start)), ()))
    tree = AggregationTree(n_cells, cost_per_cell, rows)
    tree.merge_log = list(merge_log)
    return tree


def from_nested(n_cells: int, roots) -> AggregationTree:
    """A tree from a nested spec, through ``AggregationTree.from_dict``.

    Each node is either a cell id (leaf) or a list of ``(child, delay)``
    pairs.  All leaves must sit at the same depth and every cell must
    appear exactly once; forests pass several roots of equal height.  A
    cluster's head site is its lowest member.
    """

    def height(node):
        if isinstance(node, int):
            return 0
        hs = {height(child) for child, _ in node}
        if len(hs) != 1:
            raise ValueError("all leaves must sit at the same depth")
        return hs.pop() + 1

    heights = {height(r) for r in roots}
    if len(heights) != 1:
        raise ValueError("all roots must have the same height")
    levels = [[{"members": [i], "children": [], "child_delays": [],
                "head_site": i} for i in range(n_cells)]]
    levels += [[] for _ in range(heights.pop())]

    def build(node, lvl):
        """The node's index at level ``lvl`` and its members."""
        if isinstance(node, int):
            return node, [node]
        indices, delays, members = [], [], []
        for child, delay in node:
            idx, mem = build(child, lvl - 1)
            indices.append(idx)
            delays.append(int(delay))
            members += mem
        members.sort()
        levels[lvl].append({"members": members, "children": indices,
                            "child_delays": delays, "head_site": members[0]})
        return len(levels[lvl]) - 1, members

    for root in roots:
        build(root, len(levels) - 1)
    return AggregationTree.from_dict({"n_cells": n_cells,
                                      "cost_per_cell": 0.0, "levels": levels})


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
