"""Multi-scale aggregation trees: construction and ring queries.

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

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .topology import (NetworkTopology, _phi_array, coupling_matrix,
                       frame_delays)

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


class RingSumPlan(NamedTuple):
    """Flat gather indices of :class:`~hiersense.aggregation.RunningRingSums`,
    offsets from ``total_edge_delay_sum`` rows before the row they serve.

    ``levels`` and ``runs`` hold (index, segment starts, first and past-last
    output column) per level >= 1 and per run of levels: a level and the
    levels after it whose edge delays are all >= 1.  ``rings`` stacks rings
    1 to depth of ``own`` (each cell's level-L head now) over ``sub`` (its
    level-(L-1) head one edge delay earlier).
    """

    size: np.ndarray  # cluster sizes, level by level
    levels: list
    runs: list
    own: np.ndarray
    sub: np.ndarray
    rings: np.ndarray


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
        self._fusion_plan: list[tuple[np.ndarray, ...]] = []
        # the level below as cells grouped by cluster: flat, start, size
        flat, start, size = (np.arange(n_cells),) * 2 + (np.ones(n_cells, int),)
        for lvl in range(1, depth + 1):
            nodes = self.levels[lvl]
            if any(node.index != pos for pos, node in enumerate(nodes)):
                raise ValueError("cluster indices must match list positions")
            children = np.array([c for node in nodes for c in node.children], dtype=int)
            delays = np.array([d for node in nodes for d in node.child_delays], dtype=int)
            if (delays < 0).any():
                raise ValueError("edge delays must be nonnegative")
            # every child's members, node by node, sorted within each node
            got_size = size[children]
            got = flat[np.repeat(start[children] - np.cumsum(got_size)
                                 + got_size, got_size) + np.arange(got_size.sum())]
            n_child = [len(node.children) for node in nodes]
            got_node = np.arange(len(nodes)).repeat(n_child).repeat(got_size)
            by_node = np.lexsort((got, got_node))
            members = np.array([i for node in nodes for i in node.members], dtype=int)
            size = np.array([len(node.members) for node in nodes], dtype=int)
            member_node = np.arange(len(nodes)).repeat(size)
            if not (np.array_equal(got_node[by_node], member_node)
                    and np.array_equal(got[by_node], members)):
                raise ValueError("cluster members must equal the union of its "
                                 "children's members")
            count = np.bincount(members, minlength=n_cells)
            if (count > 1).any():
                raise ValueError("clusters within a level must be disjoint")
            if (count == 0).any():
                raise ValueError("every cell must belong to a cluster at each level")
            self.cluster_of[lvl, members] = member_node
            self.delta[lvl, got] = self.delta[lvl - 1, got] + delays.repeat(got_size)
            flat, start = members, np.cumsum(size) - size
            self._fusion_plan.append((children, delays,
                                      np.cumsum(n_child, dtype=int) - n_child))
        self.delta.setflags(write=False)
        self.cluster_of.setflags(write=False)
        self._ring_cache: dict[int, list[np.ndarray]] = {}

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
        return self._fusion_plan

    @cached_property
    def ring_sum_plan(self) -> RingSumPlan:
        """The :class:`RingSumPlan` of this tree, built once; read-only."""
        size = np.array([len(c.members) for lv in self.levels for c in lv])
        width, reach = len(size), self.total_edge_delay_sum
        off = np.cumsum([0] + [len(level) for level in self.levels])
        levels = [((reach - lag) * width + off[lvl - 1] + idx, seg, off[lvl],
                   off[lvl + 1])
                  for lvl, (idx, lag, seg) in enumerate(self._fusion_plan, 1)]
        # a level with a zero delay reads the level below in its own row, so
        # it starts a run; the others read only rows already fused
        runs = []
        for (_, lag, _), (idx, seg, start, stop) in zip(self._fusion_plan,
                                                        levels):
            if runs and (lag > 0).all():
                last, last_seg, start, _ = runs.pop()
                idx, seg = (np.concatenate([last, idx]),
                            np.concatenate([last_seg, seg + len(last)]))
            runs.append((idx, seg, start, stop))
        edge = self.delta[1:] - self.delta[:-1]
        own = (reach * width + off[:-1, None] + self.cluster_of).T.copy()
        sub = ((reach - edge) * width + off[:-2, None]
               + self.cluster_of[:-1]).T.copy()
        plan = RingSumPlan(size, levels, runs, own, sub,
                           np.stack([own[:, 1:], sub]))
        for arr in (size, own, sub, plan.rings,
                    *(a for part in levels + runs for a in part[:2])):
            arr.setflags(write=False)
        return plan

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


def _random_merges(cost_mat, rows, cols, delay_mat, c_cell: float, c_max: float,
                   rng):
    """Uniform draws among the feasible pairs of ``rows, cols`` (row-major),
    as a candidate list filtered after each merge gives them.  ``cnt[r]``
    counts row r's feasible pairs.  Once the budget can bind, the feasible
    pairs are those below ``top`` in the pairs sorted by cost."""
    n = len(cost_mat)
    cost, by_col = cost_mat[rows, cols], cost_mat.T.copy()
    alive = np.ones(n, dtype=bool)
    worst, cnt, by_cost = cost.max(), n - 1 - np.arange(n), None
    merges = []
    fits = lambda c: True if by_cost is None else c_cell + c <= c_max
    while True:
        if by_cost is None and not c_cell + worst <= c_max:
            ok = alive[rows] & alive[cols] & (c_cell + cost <= c_max)
            by_cost = np.flatnonzero(ok)[np.argsort(cost[ok])]
            cnt, top = np.bincount(rows[ok], minlength=n), len(by_cost)
        elif by_cost is not None:  # drop the pairs the budget now excludes
            low = bisect.bisect_left(range(top), True,
                                     key=lambda s: not fits(cost[by_cost[s]]))
            out = by_cost[low:top]
            cnt -= np.bincount(rows[out][alive[rows[out]] & alive[cols[out]]], minlength=n)
            top = low
        cum = np.cumsum(cnt)
        if not cum[-1]:
            return merges, alive, c_cell
        k = int(rng.integers(int(cum[-1])))
        a = int(np.searchsorted(cum, k, side="right"))
        ok = alive[a + 1:] & fits(cost_mat[a, a + 1:])
        b = a + 1 + int(np.flatnonzero(ok)[k - (cum[a] - cnt[a])])
        for x in (a, b):  # the counted pairs (r, x), r < x, leave with x
            cnt[:x] -= alive[:x] & fits(by_col[x, :x])
        cnt[a] = cnt[b] = 0
        alive[a] = alive[b] = False
        merges.append((a, b, None, float(cost_mat[a, b]), int(delay_mat[a, b])))
        c_cell += cost_mat[a, b]


def _agglomerate(topology: NetworkTopology, phi, mu: float, gamma_delay: float,
                 c_max: float, rng=None) -> AggregationTree:
    """Shared engine for the greedy and random tree builders.

    ``rng is None`` selects the max-benefit pair (ties broken towards the
    lexicographically smallest index pair); otherwise a uniform choice among
    feasible pairs.  Each level is a few array passes over ``cluster``, the
    cluster of every cell, and ``far``, the largest distance between the
    cells of two clusters.
    """
    n_cells = topology.cell_count
    centers = topology.cell_centers
    dist = topology.distance_matrix
    use_gamma = rng is None
    if use_gamma:
        w = coupling_matrix(phi)
    mu = float(mu)

    levels = [[ClusterNode(0, i, (i,), (), (), i) for i in range(n_cells)]]
    cluster, heads, far = np.arange(n_cells), np.arange(n_cells), dist
    delta = np.zeros(n_cells)
    c_cell = 0.0
    merge_log: list[MergeRecord] = []

    while True:
        n = len(heads)
        if n <= 1:
            break
        delay_mat = frame_delays(dist[np.ix_(heads, heads)], gamma_delay)
        cost_mat = far / n_cells  # worst-case pair distance per cell

        rows, cols = np.triu_indices(n, 1)
        if not (c_cell + cost_mat[rows, cols] <= c_max).any():
            break  # no feasible pair at this level: budget exhausted or done

        if not use_gamma:
            merges, alive, c_cell = _random_merges(cost_mat, rows, cols, delay_mat,
                                                   c_cell, c_max, rng)
        else:
            pair_sum = (mu ** delta)[:, None] * w
            if n < n_cells:  # level 0 is all singletons: the sums are the cells
                ind = np.zeros((n, n_cells))
                ind[cluster, np.arange(n_cells)] = 1.0
                pair_sum = ind @ pair_sum @ ind.T
            gamma_mat = (mu ** delay_mat) * (pair_sum + pair_sum.T)
            # descending benefit, row-major among ties: the first argmax
            by_gamma = np.argsort(-gamma_mat[rows, cols], kind="stable")
            rows, cols = rows[by_gamma], cols[by_gamma]
            cost = cost_mat[rows, cols]
            alive = np.ones(n, dtype=bool)
            merges = []
            # one scan: a pair skipped for a merged cluster or the budget stays
            # infeasible, so each chunk drops those pairs before the exact loop
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

        # the next level: merged clusters in merge order, then carried ones
        carried = np.flatnonzero(alive).tolist()
        first, second = (np.array([m[k] for m in merges] + carried) for k in (0, 1))
        new_of = np.empty(n, dtype=int)
        new_of[first] = new_of[second] = np.arange(len(first))
        cluster = new_of[cluster]
        edge = [m[4] for m in merges]
        delta += np.array(edge + [0] * len(carried))[cluster]
        far = np.maximum(far[first], far[second])  # the children's rows,
        far = np.maximum(far[:, first], far[:, second])  # then their columns
        order = np.argsort(cluster, kind="stable")
        size = np.bincount(cluster)
        start = np.cumsum(size) - size
        # head sites: the member nearest the centroid, lowest id on ties;
        # clusters of equal size stack to (C, k, 2), whose sum over k adds
        # in the order pts.mean(axis=0) does
        heads = np.concatenate([np.zeros(len(merges), int), heads[carried]])
        for k in np.flatnonzero(np.bincount(size[:len(merges)])):
            sel = np.flatnonzero(size[:len(merges)] == k)
            mem = order[start[sel][:, None] + np.arange(k)]
            pts = centers[mem]
            d2 = ((pts - pts.sum(axis=1, keepdims=True) / k) ** 2).sum(axis=2)
            heads[sel] = mem[np.arange(len(sel)), d2.argmin(axis=1)]

        lvl, flat, ends = len(levels), order.tolist(), np.cumsum(size).tolist()
        children = [m[:2] for m in merges] + [(k,) for k in carried]
        delays = [(e, e) for e in edge] + [(0,)] * len(carried)
        levels.append([ClusterNode(lvl, k, tuple(flat[s:e]), ch, dl, hd)
                       for k, (s, e, ch, dl, hd) in enumerate(zip(
                           start.tolist(), ends, children, delays,
                           heads.tolist()))])
        merge_log += [MergeRecord(lvl - 1, k, m[2], m[3]) for k, m in enumerate(merges)]

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
