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

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .topology import (NetworkTopology, _phi_array, coupling_matrix,
                       frame_delays)

_FIRST_BLOCK = 4  # greedy pairs sorted first per level, per cluster
_UNION = "cluster members must equal the union of its children's members"


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
    """Immutable level hierarchy with per-cell per-level delays, as arrays."""

    def __init__(self, levels, n_cells: int, cost_per_cell: float = 0.0,
                 merge_log=()):
        if not levels or len(levels[0]) != n_cells:
            raise ValueError("level 0 must hold one singleton per cell")
        for i, node in enumerate(levels[0]):
            if node.members != (i,):
                raise ValueError("level-0 clusters must be singletons in cell order")
        rows = [(np.arange(n_cells), np.zeros(n_cells, dtype=int), np.array(
            [c.head_site for c in levels[0]], dtype=int), None, ())]
        for lvl in range(1, len(levels)):
            nodes = levels[lvl]
            if any(node.index != pos for pos, node in enumerate(nodes)):
                raise ValueError("cluster indices must match list positions")
            children = np.array([c for node in nodes for c in node.children], dtype=int)
            delays = np.array([d for node in nodes for d in node.child_delays], dtype=int)
            if (delays < 0).any():
                raise ValueError("edge delays must be nonnegative")
            if any(len(node.child_delays) != len(node.children)
                   for node in nodes):
                raise ValueError("each child must have one edge delay")
            n_below = len(levels[lvl - 1])
            if ((children < 0) | (children >= n_below)).any():
                raise ValueError("child indices must lie in the level below")
            members = np.array([i for node in nodes for i in node.members], dtype=int)
            size = np.array([len(node.members) for node in nodes], dtype=int)
            member_node = np.arange(len(nodes)).repeat(size)
            n_child = [len(node.children) for node in nodes]
            # cells in range, listed in order within each node
            if ((members < 0) | (members >= n_cells)).any() \
                    or (np.diff(member_node * n_cells + members) <= 0).any():
                raise ValueError(_UNION)
            count = np.bincount(members, minlength=n_cells)
            if (count > 1).any():
                raise ValueError("clusters within a level must be disjoint")
            if (count == 0).any():
                raise ValueError("every cell must belong to a cluster at each level")
            cluster = member_node[np.argsort(members)]  # a permutation
            # each cluster below is one node's child, held whole by that node
            parent = np.empty(n_below, dtype=int)
            parent[children] = np.arange(len(nodes)).repeat(n_child)
            below, delta = rows[-1][:2]
            if (np.bincount(children, minlength=n_below) != 1).any() \
                    or (parent[below] != cluster).any():
                raise ValueError(_UNION)
            edge = np.empty(n_below, dtype=int)
            edge[children] = delays
            rows.append((cluster, delta + edge[below],
                         np.array([c.head_site for c in nodes], dtype=int),
                         (children, delays,
                          np.cumsum(n_child, dtype=int) - n_child), ()))
        self._store(n_cells, cost_per_cell, rows)
        self.merge_log = list(merge_log)

    def _store(self, n_cells: int, cost_per_cell: float, rows) -> None:
        """Keep the tree as arrays: per level, every cell's cluster and delay,
        every cluster's head site, the :meth:`fusion_plan` entry and merges."""
        cluster, delta, self._heads, (_, *self._fusion_plan), self._merges \
            = zip(*rows)
        self.n_cells, self.cost_per_cell = n_cells, float(cost_per_cell)
        self.cluster_of, self.delta = np.stack(cluster), np.stack(delta)
        if (self.delta[1:] < self.delta[:-1]).any():  # int64 wrapped
            raise ValueError("accumulated delays must fit a 64-bit integer")
        self.delta.setflags(write=False)
        self.cluster_of.setflags(write=False)

    @cached_property
    def levels(self) -> list[list[ClusterNode]]:
        """Every level's clusters as nodes, built on first read."""
        out = [[ClusterNode(0, i, (i,), (), (), head)
                for i, head in enumerate(self._heads[0].tolist())]]
        for ids, heads, (children, delays, start) in zip(
                self.cluster_of[1:], self._heads[1:], self._fusion_plan):
            cut = np.cumsum(np.bincount(ids, minlength=len(heads)))[:-1]
            parts = [[tuple(p.tolist()) for p in np.split(a, at)] for a, at in
                     ((np.argsort(ids, kind="stable"), cut),
                      (children, start[1:]), (delays, start[1:]))]
            out.append([ClusterNode(len(out), k, *node) for k, node in
                        enumerate(zip(*parts, heads.tolist()))])
        return out

    @cached_property
    def merge_log(self) -> list[MergeRecord]:
        """Every merge of a built tree in order, built on first read."""
        return [MergeRecord(lvl, k, m[2], m[3]) for lvl, merges in
                enumerate(self._merges[1:]) for k, m in enumerate(merges)]

    # ------------------------------------------------------------------ queries

    @property
    def depth(self) -> int:
        return len(self.cluster_of) - 1

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
        same = self.cluster_of == self.cluster_of[:, i, None]
        return [np.array([i]), *map(np.flatnonzero, same[1:] & ~same[:-1])]

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
        size = np.concatenate([np.bincount(ids, minlength=len(heads)) for
                               ids, heads in zip(self.cluster_of, self._heads)])
        width, reach = len(size), self.total_edge_delay_sum
        off = np.cumsum([0] + [len(heads) for heads in self._heads])
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
    def from_dict(cls, d) -> "AggregationTree":
        """The tree of :meth:`to_dict`'s form; a malformed field raises a
        ValueError that names it."""
        top = "tree JSON"
        n_cells = _field(d, "n_cells", top, lambda v: type(v) is int and v >= 1,
                         "an integer >= 1")
        cost = _field(d, "cost_per_cell", top, _finite, "a finite number")
        _field(d, "cost_per_cell", top, lambda v: v >= 0, ">= 0")
        raw = _field(d, "levels", top, lambda v: type(v) is list and all(
            type(lv) is list for lv in v), "a list of lists")
        if "depth" in d:
            _field(d, "depth", top, lambda v: type(v) is int
                   and v == len(raw) - 1, f"{len(raw) - 1}, the level count "
                   "less one")
        levels = [[_json_node(lvl, idx, c) for idx, c in enumerate(lv)]
                  for lvl, lv in enumerate(raw)]
        merges = _field(d, "merges", top, lambda v: type(v) is list, "a list") \
            if "merges" in d else []
        log = [_json_merge(k, m, [len(lv) for lv in levels])
               for k, m in enumerate(merges)]
        return cls(levels, n_cells, cost, log)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path) -> "AggregationTree":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _field(obj, key: str, where: str, ok, want: str):
    """``obj[key]`` of tree JSON, once ``obj`` is a mapping that holds it and
    ``ok`` accepts it; otherwise a ValueError naming the field."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{where}: must be a mapping, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{where}: {key} is missing")
    if not ok(obj[key]):
        raise ValueError(f"{where}: {key} must be {want}, got {obj[key]!r}")
    return obj[key]


def _finite(v) -> bool:
    """A JSON number: an int or a finite float, never a bool."""
    return type(v) is int or type(v) is float and math.isfinite(v)


_MERGE_FIELDS = (("level", lambda v: type(v) is int, "an integer"),
                 ("new_index", lambda v: type(v) is int, "an integer"),
                 ("gamma", lambda v: v is None or _finite(v),
                  "a finite number or null"),
                 ("cost", _finite, "a finite number"))


def _json_merge(k: int, m, clusters: list[int]) -> MergeRecord:
    """Merge ``k`` of tree JSON, its fields checked against the tree's
    per-level cluster counts: it forms a cluster of the level above its own."""
    where = f"merges[{k}]"
    rec = MergeRecord(*(_field(m, key, where, ok, want)
                        for key, ok, want in _MERGE_FIELDS))
    depth = len(clusters) - 1
    _field(m, "level", where, lambda v: 0 <= v < depth, f"in [0, {depth})")
    count = clusters[rec.level + 1]
    _field(m, "new_index", where, lambda v: 0 <= v < count,
           f"in [0, {count}), the cluster count of level {rec.level + 1}")
    _field(m, "cost", where, lambda v: v >= 0, ">= 0")
    return rec


def _json_node(lvl: int, idx: int, c) -> ClusterNode:
    """Cluster ``idx`` of level ``lvl`` of tree JSON, its fields checked."""
    where, fields = f"level {lvl} cluster {idx}", []
    for key in ("members", "children", "child_delays", "head_site"):
        value = _field(c, key, where, lambda v: key == "head_site"
                       or type(v) is list, "a list")
        bad = [v for v in (value if key != "head_site" else (value,))
               if type(v) is not int or not -2**63 <= v < 2**63]
        if bad:
            raise ValueError(f"{where}: {key} must be 64-bit integers, "
                             f"got {bad[0]!r}")
        fields.append(value if key == "head_site" else tuple(value))
    if fields[3] not in fields[0]:
        raise ValueError(f"{where}: head_site {fields[3]} is not a member")
    return ClusterNode(lvl, idx, *fields)


def _random_merges(cost_mat, cost, rows, cols, delay_mat, c_cell: float,
                   c_max: float, rng):
    """Uniform draws among the feasible pairs of ``rows, cols`` (row-major,
    costing ``cost``): each merge takes the k-th feasible pair in row-major
    order for a uniform k.  While the budget cannot bind, every pair of the
    m ``live`` clusters is feasible and the last t rows hold t(t+1)/2 pairs,
    so the k-th is found by counting.  Once it can, for good since ``c_cell``
    only grows, ``pairs`` is filtered to the feasible ones after each merge."""
    alive, worst = np.ones(len(cost_mat), dtype=bool), cost.max()
    live, pairs, merges = list(range(len(alive))), np.arange(len(cost)), []
    while True:
        if c_cell + worst <= c_max:
            m = len(live)
            if m < 2:
                return merges, alive, c_cell
            # counted from the last pair, the draw is in the row of t pairs
            back = m * (m - 1) // 2 - 1 - int(rng.integers(m * (m - 1) // 2))
            t = (1 + math.isqrt(8 * back + 1)) // 2
            b = live.pop(m - 1 - (back - t * (t - 1) // 2))
            a = live.pop(m - 1 - t)
        else:
            pairs = pairs[alive[rows[pairs]] & alive[cols[pairs]]
                          & (c_cell + cost[pairs] <= c_max)]
            if not len(pairs):
                return merges, alive, c_cell
            p = pairs[rng.integers(len(pairs))]
            a, b = int(rows[p]), int(cols[p])
        alive[a] = alive[b] = False
        merges.append((a, b, None, float(cost_mat[a, b]), int(delay_mat[a, b])))
        c_cell += cost_mat[a, b]


def _greedy_scan(order, rows, cols, cost, gamma, delay_mat, alive, c_cell,
                 c_max, merges) -> float:
    """Merge, in ``order``, every pair whose clusters are both alive and
    that the budget still affords; returns the closing cost."""
    pairs = zip(*(x[order].tolist() for x in (rows, cols, cost, gamma)))
    for a, b, ab_cost, ab_gamma in pairs:
        if alive[a] and alive[b] and c_cell + ab_cost <= c_max:
            merges.append((a, b, ab_gamma, ab_cost, int(delay_mat[a, b])))
            c_cell += ab_cost
            alive[a] = alive[b] = False
    return c_cell


def _next_level(built, far, centers, merges, alive, c_cell):
    """The next level: merged clusters in merge order, then carried ones."""
    cluster, delta, heads = built[-1][:3]
    carried = np.flatnonzero(alive).tolist()
    first, second = (np.array([m[k] for m in merges] + carried) for k in (0, 1))
    new_of = np.empty(len(heads), dtype=int)
    new_of[first] = new_of[second] = np.arange(len(first))
    cluster = new_of[cluster]
    edge = np.array([m[4] for m in merges] + [0] * len(carried), dtype=int)
    delta = delta + edge[cluster]
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
    n_child = 1 + (first != second)  # a merge's two clusters or a carried one
    children = np.stack([first, second], axis=1)[n_child[:, None] > [0, 1]]
    plan = (children, edge.repeat(n_child), np.cumsum(n_child) - n_child)
    return built + ((cluster, delta, heads, plan, merges),), c_cell, far


def _agglomerate(topology: NetworkTopology, phi, mu: float, gamma_delay: float,
                 budgets, rng=None) -> list[AggregationTree]:
    """Shared engine for the greedy and random tree builders: the tree of
    each budget of ``budgets``, in their order.

    ``rng is None`` selects the max-benefit pair (ties broken towards the
    lexicographically smallest index pair); otherwise :func:`_random_merges`
    draws uniformly among the feasible pairs, under one budget.  Each level
    is a few array passes over ``cluster``, the cluster of every cell, and
    ``far``, the largest distance between two clusters' cells.  Budgets
    share a level's work while their trees agree: the greedy scan under a
    branch's largest budget takes exactly the merges that every budget at
    or above its closing cost would, since none of its merges exceeds that
    cost and each pair it skips is skipped under a smaller budget too; the
    budgets below split off and scan the same sorted pairs from there.
    """
    n_cells = topology.cell_count
    centers = topology.cell_centers
    dist = topology.distance_matrix
    if rng is None:
        w = coupling_matrix(phi)
    mu = float(mu)

    trees = [None] * len(budgets)
    # (a level's start: the levels so far as AggregationTree._store takes
    # them, their cost and the largest distance between two clusters'
    # cells; the budgets that reach it)
    cells = np.arange(n_cells)
    level0 = (cells, np.zeros(n_cells, dtype=int), cells, None, ())
    branches = [(((level0,), 0.0, dist), range(len(budgets)))]
    while branches:
        (built, c_cell, far), group = branches.pop()
        cluster, delta, heads = built[-1][:3]
        n = len(heads)
        delay_mat = frame_delays(dist[np.ix_(heads, heads)], gamma_delay)
        cost_mat = far / n_cells  # worst-case pair distance per cell
        rows, cols = np.triu_indices(n, 1)
        cost = cost_mat[rows, cols]
        # a budget that affords no pair at this level is exhausted or done
        least = c_cell + cost.min() if n > 1 else None
        done = [k for k in group if least is None or not least <= budgets[k]]
        if done:
            tree = AggregationTree.__new__(AggregationTree)
            tree._store(n_cells, c_cell, built)
            for k in done:
                trees[k] = tree
        group = sorted(set(group) - set(done), key=lambda k: -budgets[k])
        if not group:
            continue

        if rng is not None:
            merges, alive, c_next = _random_merges(
                cost_mat, cost, rows, cols, delay_mat, c_cell,
                budgets[group[0]], rng)
            branches.append((_next_level(built, far, centers, merges,
                                         alive, c_next), group))
            continue
        pair_sum = (mu ** delta)[:, None] * w
        if n < n_cells:  # level 0 is all singletons: the sums are the cells
            ind = np.zeros((n, n_cells))
            ind[cluster, np.arange(n_cells)] = 1.0
            pair_sum = ind @ pair_sum @ ind.T
        gamma = ((mu ** delay_mat) * (pair_sum + pair_sum.T))[rows, cols]
        # pairs in descending benefit, row-major among ties (the first
        # argmax): the best _FIRST_BLOCK * n, with every pair tied at the
        # last, are a prefix of that order and are sorted first
        top = len(gamma) - _FIRST_BLOCK * n
        head = gamma >= np.partition(gamma, top)[top] if top > 0 else None
        first = np.arange(len(gamma)) if head is None else np.flatnonzero(head)
        first = first[np.argsort(-gamma[first], kind="stable")]
        while group:
            c_max, alive, merges = budgets[group[0]], np.ones(n, bool), []
            c_next = _greedy_scan(first, rows, cols, cost, gamma, delay_mat,
                                  alive, c_cell, c_max, merges)
            if head is not None and alive.sum() > 1:
                # a pair skipped for a merged cluster or the budget stays
                # skipped, so only the rest's feasible pairs are sorted
                rest = np.flatnonzero(~head & alive[rows] & alive[cols]
                                      & (c_next + cost <= c_max))
                c_next = _greedy_scan(rest[np.argsort(-gamma[rest],
                                                      kind="stable")],
                                      rows, cols, cost, gamma, delay_mat,
                                      alive, c_next, c_max, merges)
            keep = [k for k in group if budgets[k] >= c_next]
            group = group[len(keep):]
            branches.append((_next_level(built, far, centers, merges,
                                         alive, c_next), keep))
    return trees


def build_ibts(topology: NetworkTopology, phi, mu: float, gamma_delay: float,
               budgets) -> list[AggregationTree]:
    """The interference-matched tree of every aggregation-cost budget of
    ``budgets``, in their order, each equal to :func:`build_ibt`'s under
    that budget, from one greedy pass; budgets that end on the same tree
    share it."""
    if _phi_array(phi).shape[0] != topology.cell_count:
        raise ValueError("phi and topology disagree on the cell count")
    return _agglomerate(topology, phi, mu, gamma_delay, list(budgets))


def build_ibt(topology: NetworkTopology, phi, mu: float,
              gamma_delay: float = 0.0, c_max: float = math.inf
              ) -> AggregationTree:
    """Interference-matched tree: greedy max-benefit agglomeration."""
    return build_ibts(topology, phi, mu, gamma_delay, [c_max])[0]


def build_random_tree(topology: NetworkTopology, gamma_delay: float = 0.0,
                      c_max: float = math.inf, rng=None) -> AggregationTree:
    """Random-association baseline: same control flow, uniform pair choice."""
    if rng is None:
        rng = np.random.default_rng(0)
    return _agglomerate(topology, None, 0.0, gamma_delay, [c_max], rng)[0]
