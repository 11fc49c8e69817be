"""Multi-scale aggregation trees: construction, h-distance and ring queries.

A tree is a sequence of levels; level 0 holds one singleton cluster per cell
and each higher level partitions the clusters below it.  Estimates travel
from cells up through cluster heads, picking up an integer per-edge delay, so
every cell i carries a per-level delay delta_i^(L) accumulated along its path.

Trees are built bottom-up by greedy pairwise agglomeration: at each level the
feasible pair (under a running aggregation-cost budget) with the largest
aggregation benefit is merged, where the benefit weighs the mutual
interference between the two clusters and discounts it by the memory of the
occupancy chain raised to the delays incurred.  A random-choice variant keeps
the identical control flow but picks feasible pairs uniformly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .topology import (NetworkTopology, _phi_array, coupling_matrix,
                       frame_delays)

UNREACHABLE = math.inf
_SCAN_CHUNK = 4096  # greedy pairs screened per vector step


@dataclass(frozen=True)
class ClusterNode:
    level: int
    index: int
    members: tuple[int, ...]
    children: tuple[int, ...]
    child_delays: tuple[int, ...]
    head_site: int


@dataclass(frozen=True)
class MergeRecord:
    """One greedy merge: two level-`level` clusters formed cluster `new_index`."""

    level: int
    new_index: int
    gamma: float | None
    cost: float


class AggregationTree:
    """Immutable level hierarchy with per-cell per-level delays."""

    def __init__(self, levels, n_cells: int, cost_per_cell: float = 0.0,
                 merge_log=()):
        if not levels or len(levels[0]) != n_cells:
            raise ValueError("level 0 must hold one singleton per cell")
        for i, node in enumerate(levels[0]):
            if node.members != (i,):
                raise ValueError("level-0 clusters must be singletons in cell order")
        self.levels = [list(lv) for lv in levels]
        self.n_cells = n_cells
        self.cost_per_cell = float(cost_per_cell)
        self.merge_log = list(merge_log)

        depth = len(self.levels) - 1
        self.delta = np.zeros((depth + 1, n_cells), dtype=int)
        self.cluster_of = np.zeros((depth + 1, n_cells), dtype=int)
        self.cluster_of[0] = np.arange(n_cells)
        for lvl in range(1, depth + 1):
            seen = np.zeros(n_cells, dtype=bool)
            for pos, node in enumerate(self.levels[lvl]):
                if node.index != pos:
                    raise ValueError("cluster indices must match list positions")
                got = []
                for child_idx, edge_delay in zip(node.children, node.child_delays):
                    child = self.levels[lvl - 1][child_idx]
                    if edge_delay < 0:
                        raise ValueError("edge delays must be nonnegative")
                    for i in child.members:
                        self.cluster_of[lvl, i] = node.index
                        self.delta[lvl, i] = self.delta[lvl - 1, i] + edge_delay
                    got.extend(child.members)
                if tuple(sorted(got)) != node.members:
                    raise ValueError("cluster members must equal the union of its "
                                     "children's members")
                if seen[list(node.members)].any():
                    raise ValueError("clusters within a level must be disjoint")
                seen[list(node.members)] = True
            if not seen.all():
                raise ValueError("every cell must belong to a cluster at each level")
        self.delta.setflags(write=False)
        self.cluster_of.setflags(write=False)
        self._ring_cache: dict[int, list[np.ndarray]] = {}
        self._fusion_plan: list[tuple[np.ndarray, ...]] | None = None

    # ------------------------------------------------------------------ queries

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def total_edge_delay_sum(self) -> int:
        """Sum over levels of the largest single-edge delay (buffer sizing)."""
        if self.depth == 0:
            return 0
        per_level = (self.delta[1:] - self.delta[:-1]).max(axis=1)
        return int(per_level.sum())

    def h_distance(self, i: int, j: int):
        """Smallest level whose cluster contains both cells; inf if none does."""
        n = self.n_cells
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"cell id out of range: ({i}, {j})")
        for lvl in range(self.depth + 1):
            if self.cluster_of[lvl, i] == self.cluster_of[lvl, j]:
                return lvl
        return UNREACHABLE

    def ring_sets(self, i: int) -> list[np.ndarray]:
        """Cells at exactly h-distance L from cell i, for L = 0..depth."""
        if not (0 <= i < self.n_cells):
            raise IndexError(f"cell id out of range: {i}")
        if i not in self._ring_cache:
            rings = [np.array([i], dtype=int)]
            for lvl in range(1, self.depth + 1):
                outer = self.levels[lvl][self.cluster_of[lvl, i]].members
                inner = self.levels[lvl - 1][self.cluster_of[lvl - 1, i]].members
                rings.append(np.setdiff1d(np.array(outer, dtype=int),
                                          np.array(inner, dtype=int),
                                          assume_unique=True))
            self._ring_cache[i] = rings
        return self._ring_cache[i]

    def ring_size_matrix(self) -> np.ndarray:
        """(n_cells, depth+1) ring cardinalities |D_i^(L)|."""
        # |D_i^(L)| = |cluster_L(i)| - |cluster_{L-1}(i)|
        within = np.stack([np.bincount(ids)[ids] for ids in self.cluster_of], axis=1)
        return np.diff(within, axis=1, prepend=0)

    def fusion_plan(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per level >= 1: flattened child ids, their edge delays, and where
        each cluster's children start; the order in which aggregates fuse."""
        if self._fusion_plan is None:
            self._fusion_plan = []
            for lvl in range(1, self.depth + 1):
                idx, lag, seg = [], [], []
                for node in self.levels[lvl]:
                    seg.append(len(idx))
                    idx.extend(node.children)
                    lag.extend(node.child_delays)
                self._fusion_plan.append(tuple(np.asarray(v, dtype=int)
                                               for v in (idx, lag, seg)))
        return self._fusion_plan

    def ring_masks(self) -> list[np.ndarray]:
        """Boolean (N, N) masks R_L[i, j] = (j is at h-distance L from i)."""
        masks = []
        same_prev = np.eye(self.n_cells, dtype=bool)
        masks.append(same_prev.copy())
        for lvl in range(1, self.depth + 1):
            ids = self.cluster_of[lvl]
            same = ids[:, None] == ids[None, :]
            masks.append(same & ~same_prev)
            same_prev = same
        return masks

    # -------------------------------------------------------------- construction

    @classmethod
    def from_nested(cls, n_cells: int, roots) -> "AggregationTree":
        """Build a tree from a nested spec, mainly for tests and small oracles.

        Each node is either a cell id (leaf) or a list of ``(child, delay)``
        pairs.  All leaves must sit at the same depth and every cell must
        appear exactly once; forests pass several roots of equal height.
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
        depth = heights.pop()

        levels: list[list[ClusterNode]] = [[
            ClusterNode(0, i, (i,), (), (), i) for i in range(n_cells)
        ]]
        for lvl in range(1, depth + 1):
            levels.append([])

        def build(node, lvl):
            """Returns (index at level lvl, members)."""
            if isinstance(node, int):
                if not (0 <= node < n_cells):
                    raise ValueError(f"cell id out of range: {node}")
                return node, (node,)
            child_indices, delays, members = [], [], []
            for child, delay in node:
                idx, mem = build(child, lvl - 1)
                child_indices.append(idx)
                delays.append(int(delay))
                members.extend(mem)
            members = tuple(sorted(members))
            new = ClusterNode(lvl, len(levels[lvl]), members,
                              tuple(child_indices), tuple(delays), min(members))
            levels[lvl].append(new)
            return new.index, members

        for root in roots:
            build(root, depth)
        return cls(levels, n_cells)

    # ------------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "n_cells": self.n_cells,
            "depth": self.depth,
            "cost_per_cell": self.cost_per_cell,
            "levels": [
                [{"members": list(c.members), "children": list(c.children),
                  "child_delays": list(c.child_delays), "head_site": c.head_site}
                 for c in lv]
                for lv in self.levels
            ],
            "merges": [{"level": m.level, "new_index": m.new_index,
                        "gamma": m.gamma, "cost": m.cost}
                       for m in self.merge_log],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AggregationTree":
        levels = [
            [ClusterNode(lvl, idx, tuple(c["members"]), tuple(c["children"]),
                         tuple(c["child_delays"]), c["head_site"])
             for idx, c in enumerate(lv)]
            for lvl, lv in enumerate(d["levels"])
        ]
        merges = [MergeRecord(m["level"], m["new_index"], m["gamma"], m["cost"])
                  for m in d.get("merges", ())]
        return cls(levels, d["n_cells"], d["cost_per_cell"], merges)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path) -> "AggregationTree":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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


def _head_site(members, centers) -> int:
    """Member cell nearest to the cluster centroid; lowest id wins ties."""
    pts = centers[list(members)]
    centroid = pts.mean(axis=0)
    return members[int(np.argmin(((pts - centroid) ** 2).sum(axis=1)))]


def _agglomerate(topology: NetworkTopology, phi, mu: float, gamma_delay: float,
                 c_max: float, rng=None) -> AggregationTree:
    """Shared engine for the greedy and random tree builders.

    ``rng is None`` selects the max-benefit pair (ties broken towards the
    lexicographically smallest index pair); otherwise a uniform choice among
    feasible pairs.
    """
    n_cells = topology.cell_count
    centers = topology.cell_centers
    dist = topology.distance_matrix
    use_gamma = rng is None
    if use_gamma:
        w = coupling_matrix(phi)
    mu = float(mu)

    levels = [[ClusterNode(0, i, (i,), (), (), i) for i in range(n_cells)]]
    delta = np.zeros(n_cells)
    c_cell = 0.0
    merge_log: list[MergeRecord] = []

    while True:
        cur = levels[-1]
        n = len(cur)
        if n <= 1:
            break
        members = [np.asarray(c.members, dtype=int) for c in cur]
        heads = np.array([c.head_site for c in cur], dtype=int)
        delay_mat = frame_delays(dist[np.ix_(heads, heads)], gamma_delay)

        # worst-case pair distance, two row-wise max reductions
        to_cell = np.stack([dist[m].max(axis=0) for m in members])
        cost_mat = np.stack([to_cell[:, m].max(axis=1) for m in members]).T
        cost_mat /= n_cells

        triu = np.triu(np.ones((n, n), dtype=bool), 1)
        if not (triu & (c_cell + cost_mat <= c_max)).any():
            break  # no feasible pair at this level: budget exhausted or done

        if use_gamma:
            pair_sum = (mu ** delta)[:, None] * w
            if n < n_cells:  # level 0 is all singletons: the sums are the cells
                ind = np.zeros((n, n_cells))
                for k, m in enumerate(members):
                    ind[k, m] = 1.0
                pair_sum = ind @ pair_sum @ ind.T
            gamma_mat = (mu ** delay_mat) * (pair_sum + pair_sum.T)

        rows, cols = np.triu_indices(n, 1)
        if use_gamma:
            # descending benefit, row-major among ties: the first argmax
            order = np.argsort(-gamma_mat[rows, cols], kind="stable")
            rows, cols = rows[order], cols[order]
        cost = cost_mat[rows, cols]
        alive = np.ones(n, dtype=bool)
        merges = []
        if use_gamma:
            # one scan: a pair skipped for a merged cluster or the budget
            # stays infeasible, since clusters stay merged and c_cell only
            # grows; so each chunk drops those pairs before the exact loop
            for lo in range(0, len(rows), _SCAN_CHUNK):
                part = slice(lo, lo + _SCAN_CHUNK)
                r, c, k = rows[part], cols[part], cost[part]
                ok = alive[r] & alive[c] & (c_cell + k <= c_max)
                for a, b, ab_cost in zip(r[ok].tolist(), c[ok].tolist(),
                                         k[ok].tolist()):
                    if alive[a] and alive[b] and c_cell + ab_cost <= c_max:
                        merges.append((a, b, float(gamma_mat[a, b]), ab_cost,
                                       int(delay_mat[a, b])))
                        c_cell += ab_cost
                        alive[a] = alive[b] = False
        else:
            # feasible pairs in row-major order, filtered after each merge
            keep = c_cell + cost <= c_max
            rows, cols, cost = rows[keep], cols[keep], cost[keep]
            while len(rows):
                k = int(rng.integers(len(rows)))
                a, b = int(rows[k]), int(cols[k])
                merges.append((a, b, None, float(cost[k]), int(delay_mat[a, b])))
                c_cell += cost[k]
                alive[a] = alive[b] = False
                keep = (rows != a) & (rows != b) & (cols != a) & (cols != b) \
                    & (c_cell + cost <= c_max)
                rows, cols, cost = rows[keep], cols[keep], cost[keep]

        nxt: list[ClusterNode] = []
        lvl = len(levels)
        for a, b, g, cost, edge in merges:
            mem = tuple(sorted(cur[a].members + cur[b].members))
            node = ClusterNode(lvl, len(nxt), mem, (a, b), (edge, edge),
                               _head_site(mem, centers))
            merge_log.append(MergeRecord(lvl - 1, node.index, g, cost))
            nxt.append(node)
            delta[list(mem)] += edge
        for k in np.flatnonzero(alive):
            node = ClusterNode(lvl, len(nxt), cur[k].members, (int(k),), (0,),
                               cur[k].head_site)
            nxt.append(node)
        levels.append(nxt)

    return AggregationTree(levels, n_cells, c_cell, merge_log)


def build_ibt(topology: NetworkTopology, phi, mu: float,
              gamma_delay: float = 0.0, c_max: float = math.inf
              ) -> AggregationTree:
    """Interference-matched tree: greedy max-benefit agglomeration."""
    if _phi_array(phi).shape[0] != topology.cell_count:
        raise ValueError("phi and topology disagree on the cell count")
    return _agglomerate(topology, phi, mu, gamma_delay, c_max, rng=None)


def build_random_tree(topology: NetworkTopology, gamma_delay: float = 0.0,
                      c_max: float = math.inf, rng=None) -> AggregationTree:
    """Random-association baseline: same control flow, uniform pair choice."""
    if rng is None:
        rng = np.random.default_rng(0)
    return _agglomerate(topology, phi=None, mu=0.0, gamma_delay=gamma_delay,
                        c_max=c_max, rng=rng)
