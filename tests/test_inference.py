import itertools

import numpy as np
import pytest

from hiersense import (HierarchicalExchange, InterferenceMatrix, SensorModel,
                       compute_weights, estimate_ip,
                       exact_belief, marginal_occupancy, sample_steady_state,
                       step_occupancy)
from hiersense.inference import estimate_is_hierarchical, estimate_is_oracle
from tests.conftest import random_phi
from tests.oracles import from_nested


def lift(node, levels):
    """Wrap a nested node in single-child clusters (carried, delay-free)."""
    for _ in range(levels):
        node = [(node, 0)]
    return node


def random_depth2_tree(rng, n=4, delay_choices=(0, 1, 2)):
    """Random two-level tree over n cells with random per-edge delays."""
    cells = list(rng.permutation(n))
    cut = int(rng.integers(1, n))
    groups = [cells[:cut], cells[cut:]]
    roots = []
    for grp in groups:
        pairs = [(int(c), int(rng.choice(delay_choices))) for c in grp]
        roots.append((pairs, int(rng.choice(delay_choices))))
    return from_nested(n, [roots])


def simulate_sigma_histories(tree, model, frames, rng):
    """Noiseless chain + exchange; returns (b history, per-cell sigma history)."""
    n = tree.n_cells
    ex = HierarchicalExchange(tree, float(model.pi_b))
    state = sample_steady_state(model, n, rng)
    b_hist = []
    sig_hist = {i: [] for i in range(n)}
    for t in range(frames):
        b_hist.append(state.b.copy())
        ex.advance_frame(state.b.astype(float), t)
        sigma = ex.sigma_all(t)
        for i in range(n):
            sig_hist[i].append(sigma[i])
        state = step_occupancy(model, state, rng)
    return np.array(b_hist), {i: np.array(v) for i, v in sig_hist.items()}


class TestComputeWeights:
    def test_isolated_cell(self):
        tree = from_nested(1, [0])
        phi = InterferenceMatrix(np.array([[3.7]]))
        w = compute_weights(tree, phi, 0.9)
        assert w.phi_tot[0] == 1.0
        assert w.phi_del[0, 0] == 1.0

    def test_zero_delays_recover_ring_sums(self, rng):
        tree = from_nested(
            4, [[([(0, 0), (1, 0)], 0), ([(2, 0), (3, 0)], 0)]])
        phi = random_phi(rng, 4)
        w = compute_weights(tree, phi, 0.9)
        coupling = phi.coupling()
        for i in range(4):
            for lvl, ring in enumerate(tree.ring_sets(i)):
                expect = sum(coupling[j, i] for j in ring)
                assert abs(w.phi_del[i, lvl] - expect) < 1e-12
            assert abs(w.phi_del[i].sum() - w.phi_tot[i]) < 1e-12

    def test_two_cell_hand_value(self):
        tree = from_nested(2, [[(0, 0), (1, 2)]])
        phi = InterferenceMatrix(np.array([[1.0, 0.25], [0.25, 1.0]]))
        w = compute_weights(tree, phi, 0.9)
        # cell 0 sees cell 1 at delay 2: 0.9^2 * 0.25
        assert abs(w.phi_del[0, 1] - 0.2025) < 1e-15

    def test_damping_bound(self, rng):
        tree = random_depth2_tree(rng)
        phi = random_phi(rng, 4)
        w = compute_weights(tree, phi, 0.9)
        coupling = phi.coupling()
        for i in range(4):
            for lvl, ring in enumerate(tree.ring_sets(i)):
                cap = sum(coupling[j, i] for j in ring)
                assert w.phi_del[i, lvl] <= cap + 1e-12


class TestMarginalOccupancy:
    def test_zero_delay_is_ring_average(self, paper_model):
        assert marginal_occupancy(3.0, 4, 0, paper_model) == pytest.approx(0.75)

    def test_steady_aggregate_is_fixed_point(self, paper_model):
        for delta in (0, 1, 7):
            got = marginal_occupancy(0.05 * 4, 4, delta, paper_model)
            assert got == pytest.approx(0.05)

    def test_hand_value(self, paper_model):
        # 0.05 + 0.9 * (0.5 - 0.05)
        assert marginal_occupancy(2.0, 4, 1, paper_model) == pytest.approx(0.455)

    def test_bounds_enforced(self, paper_model):
        with pytest.raises(ValueError):
            marginal_occupancy(5.0, 4, 0, paper_model)
        with pytest.raises(ValueError):
            marginal_occupancy(1.0, 0, 0, paper_model)


class TestEstimateIp:
    def test_isolated_cell_reduces_to_own_posterior(self, paper_model):
        tree = from_nested(1, [0])
        phi = InterferenceMatrix(np.array([[8.0]]))
        w = compute_weights(tree, phi, float(paper_model.mu))
        for bhat in (0.0, 0.3, 1.0):
            ip = estimate_ip(np.array([[bhat]]), w, paper_model)
            assert ip[0] == pytest.approx(bhat)

    def test_steady_aggregates_give_prior_level(self, paper_model, rng):
        tree = random_depth2_tree(rng)
        phi = random_phi(rng, 4)
        w = compute_weights(tree, phi, float(paper_model.mu))
        sigma = 0.05 * w.ring_size.astype(float)
        ip = estimate_ip(sigma, w, paper_model)
        assert np.allclose(ip, 0.05 * w.phi_tot, atol=1e-12)

    def test_caterpillar_tree_recovers_exact_interference(self, paper_model,
                                                          rng):
        # all rings are singletons and delays are zero, so the ring averages
        # carry full information and the estimate equals the direct weighted
        # sum over the true occupancy
        inner = [([(0, 0), (1, 0)], 0), (lift(2, 1), 0)]
        tree = from_nested(4, [[(inner, 0), (lift(3, 2), 0)]])
        phi = random_phi(rng, 4)
        w = compute_weights(tree, phi, float(paper_model.mu))
        coupling = phi.coupling()
        b_hist, sig_hist = simulate_sigma_histories(tree, paper_model, 12, rng)
        sigma = np.array([sig_hist[j][-1] for j in range(4)])
        ip = estimate_ip(sigma, w, paper_model)
        for i in (0, 1):  # chain-innermost cells see every cell individually
            assert all(len(r) <= 1 for r in tree.ring_sets(i))
            expect = float(coupling[:, i] @ b_hist[-1])
            assert abs(ip[i] - expect) < 1e-12

    def test_matches_lemma_marginal_assembly(self, paper_model, rng):
        # the closed form is exactly the weighted sum of per-cell marginals
        for _ in range(25):
            tree = random_depth2_tree(rng)
            phi = random_phi(rng, 4)
            w = compute_weights(tree, phi, float(paper_model.mu))
            coupling = phi.coupling()
            sizes = w.ring_size
            sigma = rng.random((4, tree.depth + 1)) * sizes
            ip = estimate_ip(sigma, w, paper_model)
            for i in range(4):
                expect = 0.0
                for lvl, ring in enumerate(tree.ring_sets(i)):
                    for j in ring:
                        marg = marginal_occupancy(sigma[i, lvl], len(ring),
                                                  int(tree.delta[lvl, j]),
                                                  paper_model)
                        expect += coupling[j, i] * float(marg)
                assert abs(ip[i] - expect) < 1e-12

    def test_affine_sensitivity(self, paper_model, rng):
        tree = random_depth2_tree(rng)
        phi = random_phi(rng, 4)
        w = compute_weights(tree, phi, float(paper_model.mu))
        sigma = 0.5 * w.ring_size.astype(float)
        base = estimate_ip(sigma, w, paper_model)
        for lvl in range(tree.depth + 1):
            bumped = sigma.copy()
            ok = w.ring_size[:, lvl] > 0
            bumped[ok, lvl] += 0.25
            delta_ip = estimate_ip(bumped, w, paper_model) - base
            slope = np.where(ok, w.phi_del[:, lvl]
                             / np.maximum(w.ring_size[:, lvl], 1), 0.0)
            assert np.allclose(delta_ip, 0.25 * slope, atol=1e-12)

    def test_unreachable_rings_fall_back_to_prior(self, paper_model, rng):
        # two disconnected singletons: forest with empty rings
        tree = from_nested(2, [0, 1])
        phi = random_phi(rng, 2)
        w = compute_weights(tree, phi, float(paper_model.mu))
        ip = estimate_ip(np.array([[1.0], [0.0]]), w, paper_model)
        coupling = phi.coupling()
        # own cell exact, the other at its steady-state prior
        assert ip[0] == pytest.approx(1.0 + 0.05 * coupling[1, 0])
        assert ip[1] == pytest.approx(0.0 + 0.05 * coupling[0, 1], abs=1e-12)


class TestEstimateIs:
    def test_oracle_examples(self, rng):
        phi = InterferenceMatrix(np.array([[4.0, 1.0], [1.0, 4.0]]))
        assert estimate_is_oracle(phi.coupling(), np.zeros(2)).tolist() \
            == [0.0, 0.0]
        got = estimate_is_oracle(phi.coupling(), np.array([0.0, 1.0]))
        assert got[0] == pytest.approx(0.25)
        assert got[1] == pytest.approx(0.0)

    def test_oracle_excludes_own_cell(self, rng):
        phi = random_phi(rng, 5)
        a = rng.uniform(0, 2, 5)
        coupling = phi.coupling()
        got = estimate_is_oracle(coupling, a)
        for i in range(5):
            expect = sum(coupling[j, i] * a[j] for j in range(5) if j != i)
            assert abs(got[i] - expect) < 1e-12

    def test_hierarchical_ring_average_form(self, paper_model, rng):
        tree = random_depth2_tree(rng, delay_choices=(0,))
        phi = random_phi(rng, 4)
        w1 = compute_weights(tree, phi, 1.0)
        traffic = rng.uniform(0, 2, 4)
        ex = HierarchicalExchange(tree, 0.0)
        ex.advance_frame(traffic, 0)
        sigma_a = ex.sigma_all(0)
        got = estimate_is_hierarchical(sigma_a, w1)
        coupling = phi.coupling()
        for i in range(4):
            expect = 0.0
            for lvl, ring in enumerate(tree.ring_sets(i)):
                if lvl == 0 or len(ring) == 0:
                    continue
                expect += (traffic[ring].mean()
                           * sum(coupling[j, i] for j in ring))
            assert abs(got[i] - expect) < 1e-12


class TestExactBelief:
    def test_single_cell_point_mass(self, paper_model):
        tree = from_nested(1, [0])
        belief = exact_belief([[1.0]], tree, paper_model, 0)
        assert belief.prob([1]) == pytest.approx(1.0)
        assert belief.prob([0]) == pytest.approx(0.0)

    def test_normalization_on_random_instances(self, paper_model, rng):
        for _ in range(10):
            tree = random_depth2_tree(rng)
            _, sig = simulate_sigma_histories(tree, paper_model, 10, rng)
            cell = int(rng.integers(4))
            belief = exact_belief(sig[cell], tree, paper_model, cell)
            assert belief.total() == pytest.approx(1.0, abs=1e-12)

    def test_noisy_sensor_rejected(self, paper_model):
        tree = from_nested(1, [0])
        with pytest.raises(ValueError):
            exact_belief([[1.0]], tree, paper_model, 0, SensorModel(0.1, 0.0))

    def test_infeasible_history_rejected(self, paper_model):
        tree = from_nested(2, [[(0, 0), (1, 0)]])
        with pytest.raises(ValueError):
            exact_belief([[0.0, 2.5]], tree, paper_model, 0)  # fractional
        with pytest.raises(ValueError):
            exact_belief([[0.0, 4.0]], tree, paper_model, 0)  # above |ring|

    def test_permutation_symmetry_with_homogeneous_delays(self, paper_model):
        # cells of a ring sharing one delay are exchangeable given the
        # aggregate (the delayed bits are uniform over permutations)
        tree = from_nested(
            4, [[([(0, 1), (1, 1)], 2), ([(2, 1), (3, 1)], 2)]])
        hist = np.array([[1.0, 1.0, 2.0]])
        belief = exact_belief(hist, tree, paper_model, 0)
        ring = tree.ring_sets(0)[2].tolist()
        for b in itertools.product((0, 1), repeat=4):
            swapped = list(b)
            swapped[ring[0]], swapped[ring[1]] = b[ring[1]], b[ring[0]]
            assert belief.prob(b) == pytest.approx(belief.prob(swapped),
                                                   abs=1e-15)

    def test_marginals_match_closed_form(self, paper_model, rng):
        # enumeration oracle vs the delay-compensated ring average
        worst = 0.0
        for _ in range(20):
            tree = random_depth2_tree(rng)
            _, sig = simulate_sigma_histories(tree, paper_model, 9, rng)
            for i in range(4):
                belief = exact_belief(sig[i], tree, paper_model, i)
                sigma_t = sig[i][-1]
                for lvl, ring in enumerate(tree.ring_sets(i)):
                    for j in ring:
                        lem = marginal_occupancy(sigma_t[lvl], len(ring),
                                                 int(tree.delta[lvl, j]),
                                                 paper_model)
                        worst = max(worst,
                                    abs(belief.marginal(int(j)) - float(lem)))
        assert worst <= 1e-12

    def test_point_masses_at_full_knowledge(self, paper_model, rng):
        # zero delays and singleton rings pin the belief to the truth
        tree = from_nested(
            3, [[([(0, 0), (1, 0)], 0), (lift(2, 1), 0)]])
        b_hist, sig = simulate_sigma_histories(tree, paper_model, 6, rng)
        for i in (0, 1):
            assert all(len(r) <= 1 for r in tree.ring_sets(i))
            belief = exact_belief(sig[i], tree, paper_model, i)
            assert belief.prob(b_hist[-1].tolist()) == pytest.approx(1.0)
