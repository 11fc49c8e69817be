import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hiersense import hierarchy
from hiersense import (AggregationTree, InterferenceMatrix, PathlossParams,
                       build_ibt, build_random_tree, build_topology,
                       compute_phi, compute_weights)
from hiersense.config import load_config
from hiersense.harness import prepare_trial, run_experiment, trial_topology
from hiersense.hierarchy import ClusterNode, MergeRecord
from hiersense.topology import coupling_matrix
from tests.conftest import random_phi
from tests.oracles import gamma_metric, h_distance, pair_cost

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fig_tree():
    """Two 4-cell level-1 clusters under a common root (cells 0..7).

    Mirrors the running example: from cell 0's perspective, cells 1, 4, 5
    share its level-1 cluster and cells 2, 3, 6, 7 only meet it at the root.
    """
    left = [(0, 1), (1, 1), (4, 2), (5, 1)]
    right = [(2, 0), (3, 1), (6, 1), (7, 2)]
    return AggregationTree.from_nested(8, [[(left, 2), (right, 1)]])


class TestManualTree:
    def test_depth_and_partitions(self, fig_tree):
        assert fig_tree.depth == 2
        assert sorted(fig_tree.levels[1][0].members) == [0, 1, 4, 5]
        assert sorted(fig_tree.levels[1][1].members) == [2, 3, 6, 7]
        assert fig_tree.levels[2][0].members == tuple(range(8))

    def test_delay_recursion(self, fig_tree):
        # cell 0: 1 frame to its level-1 head, +2 to the root
        assert fig_tree.delta[1, 0] == 1
        assert fig_tree.delta[2, 0] == 3
        # cell 7: 2 then +1
        assert fig_tree.delta[1, 7] == 2
        assert fig_tree.delta[2, 7] == 3
        assert (np.diff(fig_tree.delta, axis=0) >= 0).all()

    def test_h_distance_examples(self, fig_tree):
        assert h_distance(fig_tree, 0, 0) == 0
        assert h_distance(fig_tree, 0, 1) == 1
        assert h_distance(fig_tree, 0, 4) == 1
        assert h_distance(fig_tree, 0, 2) == 2
        assert h_distance(fig_tree, 0, 7) == 2
        for i in range(8):
            for j in range(8):
                assert h_distance(fig_tree, i, j) == h_distance(fig_tree, j, i)

    def test_ring_sets_examples(self, fig_tree):
        rings = fig_tree.ring_sets(0)
        assert rings[0].tolist() == [0]
        assert rings[1].tolist() == [1, 4, 5]
        assert rings[2].tolist() == [2, 3, 6, 7]

    def test_rings_partition_reachable_cells(self, fig_tree):
        for i in range(8):
            rings = fig_tree.ring_sets(i)
            combined = np.concatenate(rings)
            assert sorted(combined.tolist()) == list(range(8))
            assert len(set(combined.tolist())) == 8

    def test_single_cell_tree(self):
        tree = AggregationTree.from_nested(1, [0])
        assert tree.depth == 0
        assert tree.ring_sets(0)[0].tolist() == [0]

    def test_out_of_range_ids(self, fig_tree):
        with pytest.raises(IndexError):
            h_distance(fig_tree, 0, 8)
        with pytest.raises(IndexError):
            fig_tree.ring_sets(8)

    def test_mixed_leaf_depths_rejected(self):
        with pytest.raises(ValueError):
            AggregationTree.from_nested(3, [[(0, 1), ([(1, 0), (2, 0)], 1)]])


def _leaves(n):
    return [ClusterNode(0, i, (i,), (), (), i) for i in range(n)]


class TestTreeConstructorErrors:
    """Each check of AggregationTree.__init__ on a 4-cell tree with one
    fault in level 1."""

    @pytest.mark.parametrize("level1, message", [
        ([ClusterNode(1, 1, (0, 1), (0, 1), (1, 1), 0),
          ClusterNode(1, 0, (2, 3), (2, 3), (0, 0), 2)],
         "cluster indices must match list positions"),
        ([ClusterNode(1, 0, (0, 1), (0, 1), (1, -1), 0),
          ClusterNode(1, 1, (2, 3), (2, 3), (0, 0), 2)],
         "edge delays must be nonnegative"),
        ([ClusterNode(1, 0, (0, 1), (0, 1), (0, 0), 0),
          ClusterNode(1, 1, (1, 2), (1, 2), (0, 0), 1),
          ClusterNode(1, 2, (3,), (3,), (0,), 3)],
         "clusters within a level must be disjoint"),
        ([ClusterNode(1, 0, (0, 1), (0, 1), (0, 0), 0),
          ClusterNode(1, 1, (2,), (2,), (0,), 2)],
         "every cell must belong to a cluster at each level"),
        ([ClusterNode(1, 0, (0, 1, 2), (0, 1), (0, 0), 0),
          ClusterNode(1, 1, (3,), (3,), (0,), 3)],
         "cluster members must equal the union of its children's members"),
        ([ClusterNode(1, 0, (1, 0), (0, 1), (0, 0), 0),
          ClusterNode(1, 1, (2, 3), (2, 3), (0, 0), 2)],
         "cluster members must equal the union of its children's members"),
        # numpy would wrap -1 to the last cluster below
        ([ClusterNode(1, 0, (0, 3), (0, -1), (1, 1), 0),
          ClusterNode(1, 1, (1, 2), (1, 2), (0, 0), 1)],
         "child indices must lie in the level below"),
        ([ClusterNode(1, 0, (0, 3), (0, 7), (1, 1), 0),
          ClusterNode(1, 1, (1, 2), (1, 2), (0, 0), 1)],
         "child indices must lie in the level below"),
        ([ClusterNode(1, 0, (0, 1), (0, 1), (1,), 0),
          ClusterNode(1, 1, (2, 3), (2, 3), (0, 0, 0), 2)],
         "each child must have one edge delay"),
        ([ClusterNode(1, 0, (0, 1), (0, 1, 1), (0, 0, 0), 0),
          ClusterNode(1, 1, (2, 3), (3,), (0,), 3)],
         "cluster members must equal the union of its children's members"),
    ], ids=["index-order", "negative-delay", "overlap", "missing-cell",
            "extra-member", "unsorted-members", "child-minus-one", "child-7",
            "delay-count", "repeated-child"])
    def test_level_fault(self, level1, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AggregationTree([_leaves(4), level1], 4)

    def test_accumulated_delay_overflow(self):
        # 2**62 + 2**62 wraps int64 to -2**63
        with pytest.raises(ValueError, match="must fit a 64-bit integer"):
            AggregationTree.from_nested(4, [[([(0, 2**62), (1, 0)], 2**62),
                                             ([(2, 0), (3, 0)], 0)]])

    def test_level_zero_faults(self):
        with pytest.raises(ValueError, match="one singleton per cell"):
            AggregationTree([_leaves(3)], 4)
        with pytest.raises(ValueError, match="singletons in cell order"):
            AggregationTree([_leaves(4)[::-1]], 4)

    def test_valid_levels_give_clusters_and_delays(self):
        tree = AggregationTree([_leaves(4), [
            ClusterNode(1, 0, (1, 3), (3, 1), (2, 1), 1),
            ClusterNode(1, 1, (0, 2), (0, 2), (0, 4), 0)]], 4)
        assert tree.cluster_of[1].tolist() == [1, 0, 1, 0]
        assert tree.delta[1].tolist() == [0, 1, 4, 2]


class TestGammaMetric:
    def test_singletons_zero_delay(self, rng):
        phi = random_phi(rng, 4)
        w = phi.coupling()
        delays = np.zeros(4)
        got = gamma_metric(phi, [0], [2], delays, 0, mu=0.37)
        assert abs(got - (w[2, 0] + w[0, 2])) < 1e-14

    def test_hand_value(self):
        phi = InterferenceMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        got = gamma_metric(phi, [0], [1], np.zeros(2), 0, mu=0.9)
        assert abs(got - 1.0) < 1e-15

    def test_zero_memory_with_delay_kills_value(self, rng):
        phi = random_phi(rng, 4)
        got = gamma_metric(phi, [0, 1], [2, 3], np.zeros(4), 1, mu=0.0)
        assert got == 0.0

    def test_rejects_overlapping_clusters(self, rng):
        phi = random_phi(rng, 4)
        with pytest.raises(ValueError):
            gamma_metric(phi, [0, 1], [1, 2], np.zeros(4), 0, 0.9)

    def test_brute_force_double_sum(self, rng):
        phi = random_phi(rng, 6)
        w = phi.coupling()
        delays = rng.integers(0, 4, 6)
        mu = 0.8
        cn, cm = [0, 3, 5], [1, 4]
        expected = 0.0
        for i in cn:
            for j in cm:
                expected += mu ** delays[j] * w[j, i]
        for i in cm:
            for j in cn:
                expected += mu ** delays[j] * w[j, i]
        expected *= mu ** 2
        assert abs(gamma_metric(phi, cn, cm, delays, 2, mu) - expected) < 1e-12


class TestPairCost:
    def test_singletons(self, grid16):
        topo, _ = grid16
        d = topo.distance_matrix[2, 9]
        assert pair_cost(topo, [2], [9]) == d / 16

    def test_line_clusters(self):
        from hiersense.topology import NetworkTopology
        topo = NetworkTopology([[0, 5], [100, 5], [200, 5], [300, 5]],
                               (300.0, 10.0), 50.0, [])
        assert pair_cost(topo, [0, 1], [2, 3]) == 75.0

    def test_identical_positions(self):
        from hiersense.topology import NetworkTopology
        topo = NetworkTopology([[10, 10], [10, 10]], (20.0, 20.0), 5.0, [])
        assert pair_cost(topo, [0], [1]) == 0.0


def _replay_greedy(tree, topology, phi, mu, gamma_delay, c_max):
    """Step-replay oracle for the greedy construction.

    Recomputes every merge from the public pair metrics and asserts the
    builder always picked a feasible pair attaining the maximum benefit
    (merge order among exactly tied pairs is left to the builder).
    """

    def edge_of(na, nb):
        hd = np.linalg.norm(topology.cell_centers[na.head_site]
                            - topology.cell_centers[nb.head_site])
        return math.ceil(gamma_delay * hd)

    c_cell = 0.0
    for lvl in range(tree.depth):
        cur = tree.levels[lvl]
        unpaired = set(range(len(cur)))
        for rec in [r for r in tree.merge_log if r.level == lvl]:
            node = tree.levels[lvl + 1][rec.new_index]
            k1, k2 = node.children
            assert k1 in unpaired and k2 in unpaired
            best = -math.inf
            for a in sorted(unpaired):
                for b in sorted(unpaired):
                    if a >= b:
                        continue
                    if c_cell + pair_cost(topology, cur[a].members,
                                          cur[b].members) > c_max:
                        continue
                    g = gamma_metric(phi, cur[a].members, cur[b].members,
                                     tree.delta[lvl], edge_of(cur[a], cur[b]),
                                     mu)
                    best = max(best, g)
            cost = pair_cost(topology, cur[k1].members, cur[k2].members)
            assert c_cell + cost <= c_max
            chosen = gamma_metric(phi, cur[k1].members, cur[k2].members,
                                  tree.delta[lvl], edge_of(cur[k1], cur[k2]),
                                  mu)
            assert chosen >= best - 1e-9
            assert abs(chosen - rec.gamma) < 1e-9
            assert abs(cost - rec.cost) < 1e-12
            assert node.child_delays == (edge_of(cur[k1], cur[k2]),) * 2
            c_cell += cost
            unpaired -= {k1, k2}
        # whatever could not be paired must carry over unchanged, delay-free
        carried = [n for n in tree.levels[lvl + 1] if len(n.children) == 1]
        assert sorted(n.children[0] for n in carried) == sorted(unpaired)
        assert all(n.child_delays == (0,) for n in carried)
    assert abs(c_cell - tree.cost_per_cell) < 1e-9


class TestBuildIbt:
    def test_single_cell(self, grid16):
        topo = build_topology("grid", 1, (100.0, 100.0))
        phi = compute_phi(topo, __import__("hiersense").PathlossParams())
        tree = build_ibt(topo, phi, 0.9)
        assert tree.depth == 0 and tree.cost_per_cell == 0.0

    def test_tiny_budget_gives_singleton_forest(self, grid16):
        topo, phi = grid16
        tree = build_ibt(topo, phi, 0.9, c_max=1e-9)
        assert tree.depth == 0
        assert tree.cost_per_cell == 0.0
        assert h_distance(tree, 0, 1) == math.inf

    def test_four_cell_line_pairs_neighbors(self):
        from hiersense.topology import NetworkTopology, PathlossParams
        topo = NetworkTopology([[0, 5], [100, 5], [200, 5], [300, 5]],
                               (300.0, 10.0), 50.0, [])
        phi = compute_phi(topo, PathlossParams())
        tree = build_ibt(topo, phi, 0.9)
        assert tree.depth == 2
        level1 = sorted(tuple(c.members) for c in tree.levels[1])
        assert level1 == [(0, 1), (2, 3)]
        assert tree.levels[2][0].members == (0, 1, 2, 3)

    @pytest.mark.parametrize("seed,gamma_delay,c_max", [
        (0, 0.0, math.inf),
        (1, 0.02, math.inf),
        (2, 0.0, 40.0),
        (3, 0.05, 60.0),
    ])
    def test_matches_reference_greedy(self, seed, gamma_delay, c_max):
        topo = build_topology("grid", 9, (300.0, 300.0), 2, rng_seed=seed)
        phi = compute_phi(topo, __import__("hiersense").PathlossParams())
        tree = build_ibt(topo, phi, 0.9, gamma_delay, c_max)
        _replay_greedy(tree, topo, phi, 0.9, gamma_delay, c_max)

    def test_cost_budget_respected(self, grid16):
        topo, phi = grid16
        for c_max in (10.0, 30.0, 80.0):
            tree = build_ibt(topo, phi, 0.9, c_max=c_max)
            assert tree.cost_per_cell <= c_max

    def test_depth_logarithmic_with_unbounded_budget(self):
        for n in (4, 16, 64):
            topo = build_topology("grid", n, (100.0 * math.isqrt(n),) * 2)
            phi = compute_phi(topo, __import__("hiersense").PathlossParams())
            tree = build_ibt(topo, phi, 0.9)
            assert tree.depth == math.ceil(math.log2(n))

    def test_gamma_consistency_with_final_weights(self, grid16):
        # the benefit recorded at merge time equals the summed ring weights
        # the merged cluster's members end up with one level higher
        topo, phi = grid16
        mu = 0.9
        tree = build_ibt(topo, phi, mu, gamma_delay=0.03)
        weights = compute_weights(tree, phi, mu)
        for rec in tree.merge_log:
            node = tree.levels[rec.level + 1][rec.new_index]
            total = weights.phi_del[list(node.members), rec.level + 1].sum()
            assert abs(total - rec.gamma) < 1e-12

    def test_merge_log_gammas_match_public_metric(self, grid16):
        topo, phi = grid16
        mu = 0.9
        tree = build_ibt(topo, phi, mu, gamma_delay=0.03)
        for rec in tree.merge_log:
            node = tree.levels[rec.level + 1][rec.new_index]
            if len(node.children) != 2:
                continue
            k1, k2 = node.children
            c1 = tree.levels[rec.level][k1]
            c2 = tree.levels[rec.level][k2]
            edge = node.child_delays[0]
            got = gamma_metric(phi, c1.members, c2.members,
                               tree.delta[rec.level], edge, mu)
            assert abs(got - rec.gamma) < 1e-12
            # the recorded edge delay reproduces from the head sites
            hd = np.linalg.norm(topo.cell_centers[c1.head_site]
                                - topo.cell_centers[c2.head_site])
            assert edge == math.ceil(0.03 * hd)


class TestBuildRandomTree:
    def test_power_of_two_full_binary(self, rng):
        topo = build_topology("grid", 16, (400.0, 400.0))
        tree = build_random_tree(topo, rng=rng)
        assert tree.depth == 4
        assert [len(lv) for lv in tree.levels] == [16, 8, 4, 2, 1]

    def test_reproducible_under_seed(self):
        topo = build_topology("grid", 16, (400.0, 400.0))
        t1 = build_random_tree(topo, rng=np.random.default_rng(5))
        t2 = build_random_tree(topo, rng=np.random.default_rng(5))
        assert t1.to_dict() == t2.to_dict()

    def test_single_cell(self):
        topo = build_topology("grid", 1, (100.0, 100.0))
        tree = build_random_tree(topo, rng=np.random.default_rng(0))
        assert tree.depth == 0

    def test_same_cost_accounting_as_ibt_flow(self, rng):
        topo = build_topology("grid", 9, (300.0, 300.0))
        tree = build_random_tree(topo, c_max=50.0, rng=rng)
        assert tree.cost_per_cell <= 50.0
        # recompute the cost from the merge structure
        total = 0.0
        for rec in tree.merge_log:
            node = tree.levels[rec.level + 1][rec.new_index]
            k1, k2 = node.children
            total += pair_cost(topo, tree.levels[rec.level][k1].members,
                               tree.levels[rec.level][k2].members)
        assert abs(total - tree.cost_per_cell) < 1e-9


def _head_site(members, centers) -> int:
    """Oracle of the builders' head sites: the member cell nearest to the
    cluster centroid; lowest id wins ties."""
    pts = centers[list(members)]
    centroid = pts.mean(axis=0)
    return members[int(np.argmin(((pts - centroid) ** 2).sum(axis=1)))]


def _agglomerate_by_argmax(topology, phi, mu, gamma_delay, c_max, rng=None):
    """Oracle of the tree builders: rebuilds the feasibility mask for every
    merge, then takes the first argmax (IBT) or a uniform draw among the
    feasible pairs in row-major order (RT)."""
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
    merge_log = []
    while True:
        cur = levels[-1]
        n = len(cur)
        if n <= 1:
            break
        members = [np.asarray(c.members, dtype=int) for c in cur]
        heads = np.array([c.head_site for c in cur], dtype=int)
        head_d = np.sqrt(((centers[heads][:, None, :]
                           - centers[heads][None, :, :]) ** 2).sum(-1))
        delay_mat = np.ceil(gamma_delay * head_d).astype(int)
        to_cell = np.stack([dist[m].max(axis=0) for m in members])
        cost_mat = np.stack([to_cell[:, m].max(axis=1) for m in members]).T
        cost_mat /= n_cells
        triu = np.triu(np.ones((n, n), dtype=bool), 1)
        if not (triu & (c_cell + cost_mat <= c_max)).any():
            break
        if use_gamma:
            ind = np.zeros((n, n_cells))
            for k, m in enumerate(members):
                ind[k, m] = 1.0
            pair_sum = ind @ ((mu ** delta)[:, None] * w) @ ind.T
            gamma_mat = (mu ** delay_mat) * (pair_sum + pair_sum.T)
        alive = np.ones(n, dtype=bool)
        merges = []
        while True:
            valid = triu & (c_cell + cost_mat <= c_max) \
                & alive[:, None] & alive[None, :]
            if not valid.any():
                break
            if use_gamma:
                pick = int(np.argmax(np.where(valid, gamma_mat, -np.inf)))
            else:
                options = np.flatnonzero(valid.ravel())
                pick = int(options[rng.integers(len(options))])
            a, b = divmod(pick, n)
            merges.append((a, b, float(gamma_mat[a, b]) if use_gamma else None,
                           float(cost_mat[a, b]), int(delay_mat[a, b])))
            c_cell += cost_mat[a, b]
            alive[a] = alive[b] = False
        nxt = []
        lvl = len(levels)
        for a, b, g, cost, edge in merges:
            mem = tuple(sorted(cur[a].members + cur[b].members))
            node = ClusterNode(lvl, len(nxt), mem, (a, b), (edge, edge),
                               _head_site(mem, centers))
            merge_log.append(MergeRecord(lvl - 1, node.index, g, cost))
            nxt.append(node)
            delta[list(mem)] += edge
        for k in np.flatnonzero(alive):
            nxt.append(ClusterNode(lvl, len(nxt), cur[k].members, (int(k),),
                                   (0,), cur[k].head_site))
        levels.append(nxt)
    return AggregationTree(levels, n_cells, c_cell, merge_log)


def _tree_json(tree) -> str:
    return json.dumps(tree.to_dict(), sort_keys=True, indent=1)


def _mid_level_budget(tree, level):
    """A budget that runs out halfway through the merges of ``level``."""
    costs = [r.cost for r in tree.merge_log]
    before = sum(1 for r in tree.merge_log if r.level < level)
    at = sum(1 for r in tree.merge_log if r.level == level)
    return float(sum(costs[:before + at // 2]))


LAYOUTS = {
    "grid-ties": lambda: build_topology("grid", 64, (800.0, 800.0), 0, 4),
    "grid-blocked": lambda: build_topology("grid", 64, (800.0, 800.0), 12, 1),
    "grid-odd": lambda: build_topology("grid", 49, (700.0, 700.0), 6, 2),
    "random": lambda: build_topology("random", 50, (700.0, 700.0), 0, 3),
    # 4950 level-0 pairs: more than one greedy scan chunk
    "grid-100": lambda: build_topology("grid", 100, (1000.0, 1000.0), 8, 5),
    # the shape of perfbench's scale workload
    "scale": lambda: build_topology("grid", 256, (2133.0, 2133.0), 12, 0),
}


class _EndDraws:
    """A generator stub whose ``integers(n)`` always draws the first (0) or
    the last (n - 1) value of its range; ``calls`` lists every n."""

    def __init__(self, last: bool):
        self.last, self.calls = last, []

    def integers(self, n):
        self.calls.append(n)
        return n - 1 if self.last else 0


class TestOneScanMatchesArgmaxLoop:
    """The one-scan builders give byte-identical trees to the mask loop."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("gamma_delay", [0.0, 0.02])
    def test_ibt(self, layout, gamma_delay):
        topo = LAYOUTS[layout]()
        phi = compute_phi(topo, PathlossParams())
        free = build_ibt(topo, phi, 0.9, gamma_delay)
        assert _tree_json(free) == _tree_json(
            _agglomerate_by_argmax(topo, phi, 0.9, gamma_delay, math.inf))
        for level in (0, 1):
            c_max = _mid_level_budget(free, level)
            tree = build_ibt(topo, phi, 0.9, gamma_delay, c_max)
            assert len(tree.merge_log) < len(free.merge_log)
            assert _tree_json(tree) == _tree_json(
                _agglomerate_by_argmax(topo, phi, 0.9, gamma_delay, c_max))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_ibt_small_scan_chunks(self, layout, monkeypatch):
        # a first block of n pairs per level: most merges come from the
        # second round, filtered with the alive/budget state the first left
        monkeypatch.setattr(hierarchy, "_FIRST_BLOCK", 1)
        topo = LAYOUTS[layout]()
        phi = compute_phi(topo, PathlossParams())
        free = build_ibt(topo, phi, 0.9, 0.02)
        for c_max in (math.inf, _mid_level_budget(free, 0),
                      _mid_level_budget(free, 1)):
            assert _tree_json(build_ibt(topo, phi, 0.9, 0.02, c_max)) == \
                _tree_json(_agglomerate_by_argmax(topo, phi, 0.9, 0.02, c_max))

    def test_ibt_zero_memory_ties(self):
        # mu = 0 with delays zeroes most benefits: long runs of exact ties
        topo = LAYOUTS["grid-ties"]()
        phi = compute_phi(topo, PathlossParams())
        assert _tree_json(build_ibt(topo, phi, 0.0, 0.02)) == _tree_json(
            _agglomerate_by_argmax(topo, phi, 0.0, 0.02, math.inf))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("gamma_delay, c_max", [
        (0.0, math.inf), (0.02, math.inf), (0.0, 150.0), (0.02, 60.0)])
    def test_rt_same_tree_and_draws(self, layout, gamma_delay, c_max):
        topo = LAYOUTS[layout]()
        for seed in (0, 7):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            tree = build_random_tree(topo, gamma_delay, c_max, rng)
            ref = _agglomerate_by_argmax(topo, None, 0.0, gamma_delay, c_max,
                                         ref_rng)
            assert _tree_json(tree) == _tree_json(ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_rt_budget_binding_mid_level(self, layout):
        # the budget runs out with many pairs still feasible, so the draws
        # walk the cost-sorted pairs down as each merge spends it
        topo = LAYOUTS[layout]()
        free = build_random_tree(topo, 0.02, math.inf, np.random.default_rng(3))
        for level in (0, 1):
            c_max = _mid_level_budget(free, level)
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            tree = build_random_tree(topo, 0.02, c_max, rng)
            assert len(tree.merge_log) < len(free.merge_log)
            assert _tree_json(tree) == _tree_json(_agglomerate_by_argmax(
                topo, None, 0.0, 0.02, c_max, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
    def test_rt_draws_at_the_range_ends(self, layout, last):
        # always the first or the last feasible pair: the ends of every row
        # count and of the filtered list, which random seeds rarely draw
        topo = LAYOUTS[layout]()
        free = build_random_tree(topo, 0.02, math.inf, _EndDraws(last))
        for c_max in (math.inf, _mid_level_budget(free, 0),
                      _mid_level_budget(free, 1)):
            rng, ref_rng = _EndDraws(last), _EndDraws(last)
            tree = build_random_tree(topo, 0.02, c_max, rng)
            assert _tree_json(tree) == _tree_json(_agglomerate_by_argmax(
                topo, None, 0.0, 0.02, c_max, ref_rng))
            assert rng.calls == ref_rng.calls
            assert c_max == math.inf \
                or len(tree.merge_log) < len(free.merge_log)


class TestBuildIbtsMatchesOneBuildPerBudget:
    """One greedy pass over a list of budgets gives every budget the tree
    that its own build, the argmax loop and a scan of all pairs give it."""

    @staticmethod
    def budgets(free):
        cost = free.cost_per_cell
        return [math.inf, 0.0, 1e-9, _mid_level_budget(free, 0),
                _mid_level_budget(free, 1), cost / 2, cost / 4]

    @pytest.mark.parametrize("layout", ["grid-ties", "random"])
    @pytest.mark.parametrize("gamma_delay", [0.0, 0.02])
    def test_each_budget_gets_its_own_tree(self, layout, gamma_delay,
                                           monkeypatch):
        topo = LAYOUTS[layout]()
        phi = compute_phi(topo, PathlossParams())
        budgets = self.budgets(build_ibt(topo, phi, 0.9, gamma_delay))
        alone = {c_max: build_ibt(topo, phi, 0.9, gamma_delay, c_max)
                 for c_max in budgets}
        assert len({_tree_json(t) for t in alone.values()}) == len(budgets) - 1
        for c_max, tree in alone.items():
            assert _tree_json(tree) == _tree_json(_agglomerate_by_argmax(
                topo, phi, 0.9, gamma_delay, c_max))
        # unsorted, and with duplicates
        for order in (budgets, budgets[::-1] + budgets[2:5],
                      [budgets[3]] * 2 + budgets[::2]):
            trees = hierarchy.build_ibts(topo, phi, 0.9, gamma_delay, order)
            assert len(trees) == len(order)
            for c_max, tree in zip(order, trees):
                assert _tree_json(tree) == _tree_json(alone[c_max])
                assert tree.merge_log == alone[c_max].merge_log
        # every pair sorted at every level: the full-sort scan
        monkeypatch.setattr(hierarchy, "_FIRST_BLOCK", len(topo.cell_centers))
        for c_max, tree in zip(budgets, hierarchy.build_ibts(
                topo, phi, 0.9, gamma_delay, budgets)):
            assert _tree_json(tree) == _tree_json(alone[c_max])

    def test_second_round_runs(self, monkeypatch):
        # each (level, budget) scan appends to its own merge list: a list
        # scanned twice had clusters left after its first block; the pairs
        # its second round is given are all feasible, so it takes the first
        scans = []
        scan = hierarchy._greedy_scan

        def spy(order, *args):
            merges = args[-1]
            scans.append((merges, len(merges) if len(order) else None))
            return scan(order, *args)

        monkeypatch.setattr(hierarchy, "_greedy_scan", spy)
        topo = LAYOUTS["random"]()
        phi = compute_phi(topo, PathlossParams())
        free = build_ibt(topo, phi, 0.9, 0.0)
        budgets = self.budgets(free)
        scans.clear()
        trees = hierarchy.build_ibts(topo, phi, 0.9, 0.0, budgets)
        second = [(merges, before) for k, (merges, before) in enumerate(scans)
                  if before is not None
                  and any(m is merges for m, _ in scans[:k])]
        assert second and all(len(m) > before for m, before in second)
        for c_max, tree in zip(budgets, trees):
            assert _tree_json(tree) == _tree_json(_agglomerate_by_argmax(
                topo, phi, 0.9, 0.0, c_max))

    def test_budgets_that_agree_share_a_tree(self, grid16):
        topo, phi = grid16
        trees = hierarchy.build_ibts(topo, phi, 0.9, 0.02,
                                     [math.inf, 1e9, 1e-9, 0.0])
        assert trees[0] is trees[1] and trees[2] is trees[3]
        assert trees[0].depth == 4 and trees[2].depth == 0

    def test_phi_of_another_size_rejected(self, grid16):
        topo, _ = grid16
        with pytest.raises(ValueError, match="cell count"):
            hierarchy.build_ibts(topo, random_phi(np.random.default_rng(0), 9),
                                 0.9, 0.0, [math.inf])


def _ring_masks(tree):
    """Boolean (N, N) masks R_L[i, j] = (j is at h-distance L from i)."""
    masks = []
    same_prev = np.eye(tree.n_cells, dtype=bool)
    masks.append(same_prev.copy())
    for lvl in range(1, tree.depth + 1):
        ids = tree.cluster_of[lvl]
        same = ids[:, None] == ids[None, :]
        masks.append(same & ~same_prev)
        same_prev = same
    return masks


def _ring_weights_by_masks(tree, phi, mu):
    """Oracle of compute_weights' ring weights: one N x N mask per level."""
    w = coupling_matrix(phi)
    phi_del = np.zeros((tree.n_cells, tree.depth + 1))
    for lvl, mask in enumerate(_ring_masks(tree)):
        g = (float(mu) ** tree.delta[lvl].astype(float))[:, None] * w
        phi_del[:, lvl] = np.einsum("ij,ji->i", mask, g)
    return phi_del


class TestWeightsMatchMaskOracle:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_bit_for_bit(self, layout):
        topo = LAYOUTS[layout]()
        phi = compute_phi(topo, PathlossParams())
        free = build_ibt(topo, phi, 0.9, 0.02)
        forests = [build_ibt(topo, phi, 0.9, 0.02, _mid_level_budget(free, 1)),
                   build_random_tree(topo, 0.02, _mid_level_budget(free, 0),
                                     np.random.default_rng(1))]
        assert all(len(t.levels[-1]) > 1 for t in forests)  # unreachable pairs
        for tree in [free, build_ibt(topo, phi, 0.0, 0.0)] + forests:
            # a tuple of memories shares one h-distance pass
            shared = compute_weights(tree, phi, (0.9, 1.0))
            for mu, one in zip((0.9, 1.0), shared):
                expect = _ring_weights_by_masks(tree, phi, mu).tobytes()
                assert compute_weights(tree, phi, mu).phi_del.tobytes() == expect
                assert one.phi_del.tobytes() == expect

    def test_hand_built_tree(self, fig_tree, rng):
        phi = random_phi(rng, 8)
        for mu in (0.37, 0.9, 1.0):
            assert compute_weights(fig_tree, phi, mu).phi_del.tobytes() == \
                _ring_weights_by_masks(fig_tree, phi, mu).tobytes()


class TestRingSizes:
    def test_closed_form_matches_ring_sets(self, fig_tree):
        topo = LAYOUTS["grid-blocked"]()
        phi = compute_phi(topo, PathlossParams())
        trees = [fig_tree, build_ibt(topo, phi, 0.9, 0.02),
                 build_ibt(topo, phi, 0.9, 0.0, 200.0),
                 build_random_tree(topo, 0.02, math.inf,
                                   np.random.default_rng(3))]
        for tree in trees:
            expect = np.array([[len(r) for r in tree.ring_sets(i)]
                               for i in range(tree.n_cells)])
            assert np.array_equal(tree.ring_size_matrix(), expect)


class TestSerialization:
    def test_roundtrip(self, grid16):
        topo, phi = grid16
        tree = build_ibt(topo, phi, 0.9, gamma_delay=0.02)
        back = AggregationTree.from_dict(tree.to_dict())
        assert back.to_dict() == tree.to_dict()
        assert np.array_equal(back.delta, tree.delta)

    def test_identical_bytes_under_fixed_seed(self, tmp_path, grid16):
        topo, phi = grid16
        paths = []
        for k in (1, 2):
            tree = build_ibt(topo, phi, 0.9)
            p = tmp_path / f"tree{k}.json"
            tree.save(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    @staticmethod
    def two_cell_dict(level0_head=1, **root):
        """Both cells under one root; ``root`` replaces fields of the root."""
        leaves = [{"members": [i], "children": [], "child_delays": [],
                   "head_site": i} for i in range(2)]
        leaves[1]["head_site"] = level0_head
        top = {"members": [0, 1], "children": [0, 1], "child_delays": [0, 0],
               "head_site": 0, **root}
        return {"n_cells": 2, "cost_per_cell": 0.0, "levels": [leaves, [top]]}

    def test_well_formed_json_loads(self):
        d = self.two_cell_dict(child_delays=[2, 0], head_site=1)
        tree = AggregationTree.from_dict(d)
        assert tree.delta.tolist() == [[0, 0], [2, 0]]
        assert tree.to_dict()["levels"] == d["levels"]

    @pytest.mark.parametrize("fault, message", [
        ({"child_delays": [1.5, 0]}, "child_delays must be 64-bit integers, "
                                     "got 1.5"),
        ({"child_delays": ["1", 0]}, "child_delays must be 64-bit integers, "
                                     "got '1'"),
        ({"child_delays": [True, 0]}, "child_delays must be 64-bit integers, "
                                      "got True"),
        ({"child_delays": [2**63, 0]}, "child_delays must be 64-bit integers, "
                                       "got 9223372036854775808"),
        ({"members": ["0", 1]}, "members must be 64-bit integers, got '0'"),
        ({"children": ["0", 1]}, "children must be 64-bit integers, got '0'"),
        ({"children": [0.0, 1]}, "children must be 64-bit integers, got 0.0"),
        ({"head_site": 99}, "head_site 99 is not a member"),
        ({"head_site": 1.0}, "head_site must be 64-bit integers, got 1.0"),
    ], ids=["fractional-delay", "text-delay", "bool-delay", "delay-2**63",
            "text-member", "text-child", "float-child", "head-99",
            "float-head"])
    def test_malformed_root_rejected(self, fault, message):
        with pytest.raises(ValueError,
                           match=f"^level 1 cluster 0: {re.escape(message)}$"):
            AggregationTree.from_dict(self.two_cell_dict(**fault))

    def test_level_zero_head_outside_its_cell_rejected(self):
        with pytest.raises(ValueError,
                           match="^level 0 cluster 1: head_site 0 is not a "
                                 "member$"):
            AggregationTree.from_dict(self.two_cell_dict(level0_head=0))

    @staticmethod
    def with_merge(edit):
        """A 2-cell tree's JSON with one merge record, after ``edit``."""
        d = AggregationTree.from_nested(2, [[(0, 1), (1, 0)]]).to_dict()
        d["merges"] = [{"level": 0, "new_index": 0, "gamma": None,
                        "cost": 0.5}]
        edit(d)
        return d

    def test_json_with_merges_loads(self):
        tree = AggregationTree.from_dict(self.with_merge(lambda d: None))
        assert tree.merge_log == [MergeRecord(0, 0, None, 0.5)]
        assert tree.depth == 1 and tree.delta.tolist() == [[0, 0], [1, 0]]

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("cost_per_cell"),
         "tree JSON: cost_per_cell is missing"),
        (lambda d: d.pop("levels"), "tree JSON: levels is missing"),
        (lambda d: d.pop("n_cells"), "tree JSON: n_cells is missing"),
        (lambda d: d["levels"][1][0].pop("head_site"),
         "level 1 cluster 0: head_site is missing"),
        (lambda d: d["merges"][0].pop("new_index"),
         "merges[0]: new_index is missing"),
        (lambda d: d.update(n_cells=2.0),
         "tree JSON: n_cells must be an integer >= 1, got 2.0"),
        (lambda d: d.update(n_cells=0),
         "tree JSON: n_cells must be an integer >= 1, got 0"),
        (lambda d: d.update(levels=5),
         "tree JSON: levels must be a list of lists, got 5"),
        (lambda d: d["levels"][1].__setitem__(0, 7),
         "level 1 cluster 0: must be a mapping, got 7"),
        (lambda d: d["levels"][1][0].update(members=5),
         "level 1 cluster 0: members must be a list, got 5"),
        (lambda d: d.update(cost_per_cell="x"),
         "tree JSON: cost_per_cell must be a finite number, got 'x'"),
        (lambda d: d.update(cost_per_cell=math.nan),
         "tree JSON: cost_per_cell must be a finite number, got nan"),
        (lambda d: d.update(depth=5),
         "tree JSON: depth must be 1, the level count less one, got 5"),
        (lambda d: d.update(merges={}),
         "tree JSON: merges must be a list, got {}"),
        (lambda d: d["merges"][0].update(level="0"),
         "merges[0]: level must be an integer, got '0'"),
        (lambda d: d["merges"][0].update(gamma="0.1"),
         "merges[0]: gamma must be a finite number or null, got '0.1'"),
        (lambda d: d["merges"][0].update(cost=math.inf),
         "merges[0]: cost must be a finite number, got inf"),
        (lambda d: d["merges"].__setitem__(0, [0, 0]),
         "merges[0]: must be a mapping, got [0, 0]"),
        (lambda d: d["merges"][0].update(level=7),
         "merges[0]: level must be in [0, 1), got 7"),
        (lambda d: d["merges"][0].update(level=-1),
         "merges[0]: level must be in [0, 1), got -1"),
        (lambda d: d["merges"][0].update(new_index=-3),
         "merges[0]: new_index must be in [0, 1), the cluster count of "
         "level 1, got -3"),
        (lambda d: d["merges"][0].update(new_index=1),
         "merges[0]: new_index must be in [0, 1), the cluster count of "
         "level 1, got 1"),
        (lambda d: d["merges"][0].update(cost=-1.0),
         "merges[0]: cost must be >= 0, got -1.0"),
        (lambda d: d.update(cost_per_cell=-5.0),
         "tree JSON: cost_per_cell must be >= 0, got -5.0"),
    ], ids=["no-cost", "no-levels", "no-n-cells", "no-head", "no-new-index",
            "float-n-cells", "zero-n-cells", "int-levels", "int-node",
            "int-members", "text-cost", "nan-cost", "depth-5", "dict-merges",
            "text-merge-level", "text-gamma", "inf-merge-cost",
            "list-merge", "merge-level-7", "negative-merge-level",
            "negative-new-index", "new-index-past-level", "negative-merge-cost",
            "negative-cost-per-cell"])
    def test_malformed_tree_json_rejected(self, edit, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AggregationTree.from_dict(self.with_merge(edit))


def _plan_arrays(tree):
    plan = tree.ring_sum_plan
    return [*(a for level in tree.fusion_plan() for a in level), plan.size,
            plan.own, plan.sub, plan.rings,
            *(a for part in plan.levels + plan.runs for a in part)]


class TestBuiltTreeEqualsItsJsonRoundTrip:
    """The node constructor is the oracle of the builders' array path: a
    built tree and the tree read back from its JSON hold equal arrays and
    equal node lists."""

    @pytest.mark.parametrize("workload", ["tradeoff", "scale", "fading"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_ibt_and_rt(self, workload, seed):
        config = load_config(str(ROOT / "perfbench" / "workloads"
                                 / f"{workload}.yaml"),
                             [f"experiment.master_seed={seed}"])
        topo, phi = trial_topology(config, 0)
        trees = []
        for gamma_delay in (0.0, 0.005):
            trees += hierarchy.build_ibts(topo, phi, 0.9, gamma_delay,
                                          [math.inf, 150.0])
            trees += [build_random_tree(topo, gamma_delay, c_max,
                                        np.random.default_rng(seed))
                      for c_max in (math.inf, 5.0)]
        # the budgets bind somewhere: not every tree is a single root
        assert any(len(t.levels[-1]) > 1 for t in trees)
        for tree in trees:
            back = AggregationTree.from_dict(tree.to_dict())
            assert np.array_equal(back.cluster_of, tree.cluster_of)
            assert np.array_equal(back.delta, tree.delta)
            ours, theirs = _plan_arrays(tree), _plan_arrays(back)
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert [p[2:] for p in tree.ring_sum_plan.levels
                    + tree.ring_sum_plan.runs] == \
                [p[2:] for p in back.ring_sum_plan.levels
                 + back.ring_sum_plan.runs]
            assert back.levels == tree.levels
            assert back.merge_log == tree.merge_log
            assert len(tree.merge_log) == tree.n_cells - len(tree.levels[-1])


class TestSweepBuildsNoNodes:
    """Trees reach a sweep as arrays; node lists are built only when read."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {ClusterNode: 0, MergeRecord: 0}
        for kind in counts:
            def counting(self, *args, _init=kind.__init__, _kind=kind):
                counts[_kind] += 1
                _init(self, *args)
            monkeypatch.setattr(kind, "__init__", counting)
        return counts

    @pytest.mark.parametrize("override", [[], ["experiment.is_mode="
                                               "hierarchical"]])
    def test_sweep_small(self, counts, override):
        config = load_config(str(ROOT / "configs" / "sweep_small.yaml"),
                             override)
        result = run_experiment(config)
        assert {row.scheme for row in result.rows} >= {"ibt", "rt"}
        assert counts == {ClusterNode: 0, MergeRecord: 0}
        # the counter sees the nodes a read of the node view builds
        tree = prepare_trial(config, 0).runtimes[0].tree
        assert counts == {ClusterNode: 0, MergeRecord: 0}
        nodes, merges = sum(map(len, tree.levels)), len(tree.merge_log)
        assert counts == {ClusterNode: nodes, MergeRecord: merges}
        assert nodes > 16 and merges > 0
