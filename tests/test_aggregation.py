import math

import numpy as np
import pytest

from hiersense import (AggregationTree, BufferUnderrunError,
                       HierarchicalExchange, OccupancyModel, RunningRingSums,
                       build_ibt, build_topology, compute_phi,
                       sample_steady_state, step_occupancy)
from hiersense.aggregation import identity_residual
from hiersense.topology import PathlossParams
from tests.oracles import from_nested, node_levels


def delayed_tree():
    """Depth-2 tree over 4 cells with heterogeneous edge delays."""
    return from_nested(
        4, [[([(0, 1), (1, 2)], 1), ([(2, 0), (3, 1)], 3)]])


def run_chain(model, n, frames, rng):
    state = sample_steady_state(model, n, rng)
    rows = []
    for _ in range(frames):
        rows.append(state.b.astype(float))
        state = step_occupancy(model, state, rng)
    return np.array(rows)


def sigma_oracle(tree, locals_seq, steady, i, t):
    """Direct bookkeeping of the delayed locals per ring (the protocol's
    target quantity), with the pre-start convention locals[t<0] = steady."""
    out = np.zeros(tree.depth + 1)
    for lvl, ring in enumerate(tree.ring_sets(i)):
        total = 0.0
        for j in ring:
            tau = t - tree.delta[lvl, j]
            total += steady if tau < 0 else locals_seq[tau][j]
        out[lvl] = total
    return out


class TestAdvanceAndSigma:
    def test_zero_delay_pair_sums_current_frame(self):
        tree = from_nested(2, [[(0, 0), (1, 0)]])
        ex = HierarchicalExchange(tree, steady_value=0.05)
        ex.advance_frame([0.3, 0.9], 0)
        assert ex.read(1, 0, 0) == pytest.approx(1.2)
        sigma = ex.sigma_all(0)
        assert sigma[:, 0].tolist() == [0.3, 0.9]  # ring 0 is the own estimate
        assert sigma[0] == pytest.approx([0.3, 0.9])
        assert sigma[1] == pytest.approx([0.9, 0.3])

    def test_single_cell_tree(self):
        tree = from_nested(1, [0])
        ex = HierarchicalExchange(tree, steady_value=0.05)
        ex.advance_frame([0.4], 0)
        assert ex.sigma_all(0).tolist() == [[0.4]]

    def test_frames_must_advance_sequentially(self):
        tree = delayed_tree()
        ex = HierarchicalExchange(tree, 0.05)
        ex.advance_frame(np.zeros(4), 0)
        with pytest.raises(ValueError):
            ex.advance_frame(np.zeros(4), 2)

    def test_underrun_raises_when_history_too_short(self):
        tree = delayed_tree()  # needs lookbacks up to 3 frames
        ex = HierarchicalExchange(tree, 0.05, history_len=2)
        ex.advance_frame(np.zeros(4), 0)  # pre-start reads hit the placeholder
        ex.advance_frame(np.zeros(4), 1)
        with pytest.raises(BufferUnderrunError):
            ex.advance_frame(np.zeros(4), 2)

    def test_sigma_matches_delayed_local_bookkeeping(self, paper_model, rng):
        tree = delayed_tree()
        ex = HierarchicalExchange(tree, float(paper_model.pi_b))
        locals_seq = rng.random((30, 4))
        for t in range(30):
            ex.advance_frame(locals_seq[t], t)
            for i in range(4):
                expect = sigma_oracle(tree, locals_seq, 0.05, i, t)
                assert np.allclose(ex.sigma_all(t)[i], expect, atol=1e-12)

    def test_static_occupancy_gives_static_aggregates(self, rng):
        # frozen chain: delays become irrelevant once buffers fill
        model = OccupancyModel(0.0, 0.0)
        tree = delayed_tree()
        ex = HierarchicalExchange(tree, 0.0)
        b = rng.integers(0, 2, 4).astype(float)
        for t in range(12):
            ex.advance_frame(b, t)
        for lvl in range(1, 3):
            for node in node_levels(tree)[lvl]:
                expect = b[list(node.members)].sum()
                assert ex.read(lvl, node.index, 11) == pytest.approx(expect)

    def test_sigma_within_ring_bounds_even_during_warmup(self, paper_model, rng):
        tree = delayed_tree()
        ex = HierarchicalExchange(tree, float(paper_model.pi_b))
        sizes = tree.ring_size_matrix()
        for t in range(10):
            ex.advance_frame(rng.random(4), t)
            sigma = ex.sigma_all(t)
            assert (sigma >= -1e-12).all()
            assert (sigma <= sizes + 1e-12).all()


class TestLemmaIdentity:
    def test_exact_on_built_tree(self, paper_model, rng):
        topo = build_topology("grid", 16, (400.0, 400.0), 1, rng_seed=9)
        phi = compute_phi(topo, PathlossParams())
        tree = build_ibt(topo, phi, 0.9, gamma_delay=0.02)
        assert tree.delta.max() > 0
        pi_b = float(paper_model.pi_b)
        ex = HierarchicalExchange(tree, pi_b)
        running = RunningRingSums(tree, 50, pi_b)
        locals_seq = run_chain(paper_model, 16, 50, rng)
        running.commit(locals_seq)
        for t in range(50):
            ex.advance_frame(locals_seq[t], t)
            for aggregates in (ex.aggregates(t), running.aggregates(t)):
                assert identity_residual(tree, aggregates, locals_seq, t,
                                         pi_b) <= 1e-9

    def test_residual_names_a_wrong_aggregate(self, rng):
        # every cluster is checked, and frame 0's delayed members read pre
        tree = delayed_tree()
        locals_seq = rng.random((6, 4))
        running = RunningRingSums(tree, 6, pre=0.05)
        running.commit(locals_seq)
        row = running.aggregates(5)
        assert identity_residual(tree, row, locals_seq, 5, 0.05) <= 1e-12
        for k in range(len(row)):
            bad = row.copy()
            bad[k] += 0.25
            assert identity_residual(tree, bad, locals_seq, 5, 0.05) \
                == pytest.approx(0.25)
        assert identity_residual(tree, running.aggregates(0), locals_seq, 0,
                                 0.05) <= 1e-12
        assert identity_residual(tree, running.aggregates(0), locals_seq, 0,
                                 0.3) > 0.1


class TestMartingaleProperty:
    def test_noiseless_aggregate_equals_delayed_truth(self, paper_model, rng):
        # with error-free sensing the aggregate IS the delayed occupancy sum
        tree = delayed_tree()
        ex = HierarchicalExchange(tree, float(paper_model.pi_b))
        locals_seq = run_chain(paper_model, 4, 40, rng)
        for t in range(40):
            ex.advance_frame(locals_seq[t], t)
            for i in range(4):
                expect = sigma_oracle(tree, locals_seq, 0.05, i, t)
                assert np.allclose(ex.sigma_all(t)[i], expect, atol=1e-12)

    def test_conditional_mean_under_noisy_sensing(self, paper_model, rng):
        # the aggregate of posteriors predicts the delayed occupancy total:
        # E[sum b | sigma] = sigma, checked in coarse sigma bins at 3-sigma
        from hiersense import (SensorModel, posterior_update, prior_propagate,
                               sample_detection_count)
        sensor = SensorModel(0.1, 0.15)
        tree = delayed_tree()
        n, frames, m = 4, 8000, 3
        state = sample_steady_state(paper_model, n, rng)
        prior = np.full(n, 0.05)
        truth, posts = [], []
        for _ in range(frames):
            xi = sample_detection_count(sensor, state.b, np.full(n, m), rng)
            post = posterior_update(sensor, prior, xi, np.full(n, m))
            truth.append(state.b.astype(float))
            posts.append(post)
            prior = np.asarray(prior_propagate(paper_model, post))
            state = step_occupancy(paper_model, state, rng)
        truth, posts = np.array(truth), np.array(posts)
        ex = HierarchicalExchange(tree, float(paper_model.pi_b))
        level = 2
        i = 0
        ring = tree.ring_sets(i)[level]
        sig, agg = [], []
        for t in range(frames):
            ex.advance_frame(posts[t], t)
            if t < int(tree.delta.max()):
                continue
            sig.append(ex.sigma_all(t)[i, level])
            agg.append(sum(truth[t - tree.delta[level, j], j] for j in ring))
        sig, agg = np.array(sig), np.array(agg)
        for lo, hi in ((0.0, 0.2), (0.2, 0.7), (0.7, 2.0)):
            sel = (sig >= lo) & (sig < hi)
            if sel.sum() < 150:
                continue
            resid = agg[sel] - sig[sel]
            # frames in a bin are serially correlated; inflate the tolerance
            # by the chain's autocorrelation time (1+mu)/(1-mu) = 19
            n_eff = sel.sum() / 19.0
            tol = 3 * resid.std(ddof=1) / math.sqrt(n_eff)
            assert abs(resid.mean()) < max(tol, 0.05)


class TestTrafficAggregation:
    def test_same_protocol_carries_traffic(self, rng):
        # the exchange is value-agnostic: aggregated traffic obeys the same
        # delayed-local identity with a zero pre-start placeholder
        tree = delayed_tree()
        ex = HierarchicalExchange(tree, steady_value=0.0)
        traffic = rng.uniform(0, 2, size=(20, 4))
        for t in range(20):
            ex.advance_frame(traffic[t], t)
            assert identity_residual(tree, ex.aggregates(t), traffic, t,
                                     0.0) <= 1e-9
            for i in range(4):
                expect = sigma_oracle(tree, traffic, 0.0, i, t)
                assert np.allclose(ex.sigma_all(t)[i], expect, atol=1e-12)


class TestTrace:
    def test_trace_rows_cover_every_node(self):
        # one aggregate per cluster: 4 cells, 2 level-1 and 1 level-2 heads
        tree = delayed_tree()
        local = np.array([1.0, 0.0, 1.0, 0.0])
        ex = HierarchicalExchange(tree, 0.05)
        ex.advance_frame(local, 0)
        running = RunningRingSums(tree, 1, pre=0.05)
        running.commit(local)
        assert len(running.aggregates(0)) == 4 + 2 + 1
        assert np.array_equal(running.aggregates(0), ex.aggregates(0))
        assert np.array_equal(running.aggregates(0)[:4], local)


class TestDelayedRingSums:
    """Ring sums of delayed locals at frames whose reads reach before the
    start, where every missing local reads as ``pre``."""

    # frames0: frame -1 (all pre-start) and frame 0 (delayed rings pre-start);
    # frames1: every readable frame, mixing pre-start and committed reads
    @pytest.mark.parametrize("frames", [[-1, 0], list(range(-1, 6))])
    def test_frames_before_start_read_pre(self, frames, rng):
        tree = delayed_tree()
        x = rng.random((6, 4))
        running = RunningRingSums(tree, 6, pre=0.05)
        running.commit(x)
        sigma = running.ring_sums(frames)
        for k, t in enumerate(frames):
            # the same frame in a request that also reads committed rows
            mixed = running.ring_sums([t, 5])[0]
            assert np.array_equal(sigma[k], mixed)
            assert np.array_equal(sigma[k], running.ring_sums(t))
            for i in range(4):
                assert np.allclose(sigma[k, i], sigma_oracle(tree, x, 0.05, i, t),
                                   rtol=0, atol=1e-12)


def running_sums_tree(name):
    if name == "delayed":
        return delayed_tree()
    if name == "zero_mid":
        # delays >= 1 at levels 1 and 3 and a zero delay at level 2: a
        # single-frame commit fuses level 1, then levels 2 and 3 together
        pairs = [[(0, 1), (1, 2)], [(2, 1), (3, 3)], [(4, 1), (5, 1)],
                 [(6, 2), (7, 1)]]
        return from_nested(8, [[
            ([(pairs[0], 0), (pairs[1], 1)], 1),
            ([(pairs[2], 2), (pairs[3], 0)], 2)]])
    if name == "single":
        return from_nested(1, [0])
    if name == "wide":
        # clusters of 150 and 50 children: long sums, which numpy adds
        # pairwise rather than in order
        return from_nested(200, [
            [(j, j % 4) for j in range(150)],
            [(j, 1) for j in range(150, 200)]])
    topo = build_topology("grid", 16, (400.0, 400.0), 1, rng_seed=9)
    phi = compute_phi(topo, PathlossParams())
    c_max = {"ibt": math.inf, "forest": 60.0}[name]
    return build_ibt(topo, phi, 0.9, gamma_delay=0.02, c_max=c_max)


RUNNING_SUMS_TREES = ["delayed", "single", "ibt", "forest", "wide",
                      "zero_mid"]


class TestRunningRingSums:
    """Per-level aggregates kept across frames against both oracles."""

    def test_trees_cover_fused_and_split_runs(self):
        """A single-frame commit fuses a run of levels in one reduceat; the
        trees below must include both a run of several levels and a tree
        of several runs, so that the row checks cover both."""
        plans = [running_sums_tree(name).ring_sum_plan
                 for name in RUNNING_SUMS_TREES]
        assert any(len(plan.runs) < len(plan.levels) for plan in plans)
        assert any(len(plan.runs) > 1 for plan in plans)
        zero_mid = running_sums_tree("zero_mid").ring_sum_plan
        assert [(start, stop) for *_, start, stop in zero_mid.runs] == \
            [(8, 12), (12, 15)]

    @pytest.mark.parametrize("name", RUNNING_SUMS_TREES)
    def test_every_frame_matches_closed_form_and_exchange(self, name, rng):
        tree = running_sums_tree(name)
        if name == "forest":
            assert (tree.ring_size_matrix() == 0).any()
        if name in ("delayed", "ibt"):
            assert tree.delta.max() > 1  # reads reach past frame 0
        frames = 20
        x = rng.random((frames, tree.n_cells))
        running = RunningRingSums(tree, frames)
        exchange = HierarchicalExchange(tree, 0.0)
        # before any commit, frame -1 reads only pre-start zeros
        expect = [np.zeros((tree.n_cells, tree.depth + 1))]
        assert np.array_equal(running.ring_sums(-1), expect[0])
        for t in range(frames):
            running.commit(x[t])
            exchange.advance_frame(x[t], t)
            expect.append(exchange.sigma_all(t))
            assert np.array_equal(running.outer_ring_sums(t), expect[-1][:, 1:])
            # every stored frame still reads what the exchange returned
            assert np.array_equal(running.ring_sums(np.arange(-1, t + 1)),
                                  expect)
        for i in range(tree.n_cells):
            assert np.allclose(running.ring_sums(frames - 1)[i],
                               sigma_oracle(tree, x, 0.0, i, frames - 1),
                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["delayed", "ibt", "forest", "wide",
                                      "zero_mid"])
    def test_block_commit_matches_row_commits(self, name, rng):
        tree = running_sums_tree(name)
        x = rng.random((12, tree.n_cells))
        rows = RunningRingSums(tree, 12, pre=0.05)
        for t in range(12):
            rows.commit(x[t])
        blocks = RunningRingSums(tree, 12, pre=0.05)
        blocks.commit(x[:5])
        blocks.commit(x[5])
        blocks.commit(x[6:])
        assert rows.t == blocks.t == 11
        frames = np.arange(-1, 12)
        assert np.array_equal(blocks.ring_sums(frames), rows.ring_sums(frames))
        # a block fuses level by level, each row's sums bit for bit
        for t in frames:
            assert blocks.aggregates(t).tobytes() == rows.aggregates(t).tobytes()

    def test_engines_on_one_tree_keep_their_own_aggregates(self, rng):
        tree = running_sums_tree("zero_mid")
        x = rng.random((9, tree.n_cells))
        specs = [(6, 0.5), (9, 0.0)]  # (n_frames, pre)
        # interleaved commits on two engines that share the tree's plan...
        shared = [RunningRingSums(tree, n, pre) for n, pre in specs]
        shared[1].commit(x[:3])
        for t in range(6):
            shared[0].commit(x[t])
            shared[1].commit(x[t + 3])
        # ...read what each engine reads alone, on its own copy of the tree
        alone = [RunningRingSums(AggregationTree.from_dict(tree.to_dict()),
                                 n, pre) for n, pre in specs]
        for t in range(6):
            alone[0].commit(x[t])
        alone[1].commit(x[:3])
        for t in range(3, 9):
            alone[1].commit(x[t])
        for one, other in zip(shared, alone):
            frames = np.arange(-1, one.t + 1)
            assert np.array_equal(one.ring_sums(frames),
                                  other.ring_sums(frames))
            for t in frames:
                assert np.array_equal(one.aggregates(t), other.aggregates(t))

    def test_shared_plan_is_read_only(self):
        plan = running_sums_tree("zero_mid").ring_sum_plan
        for arr in (plan.size, plan.own, plan.sub, plan.rings,
                    *(a for part in plan.levels + plan.runs for a in part[:2])):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_uncommitted_frames_are_refused(self):
        running = RunningRingSums(delayed_tree(), 5)
        running.commit(np.ones(4))
        for frame in (-2, 1, [0, 1]):
            with pytest.raises(ValueError, match="not committed"):
                running.ring_sums(frame)
            with pytest.raises(ValueError, match="not committed"):
                running.aggregates(frame)
        for frame in (-2, 1):
            with pytest.raises(ValueError, match="not committed"):
                running.outer_ring_sums(frame)
