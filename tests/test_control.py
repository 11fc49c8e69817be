import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersense import (ControlParams, HierarchicalExchange,
                       InterferenceMatrix, exact_belief,
                       exact_throughput, network_inr, optimal_traffic,
                       sample_steady_state, step_occupancy, throughput_lb,
                       utility)
from hiersense import control as ctl
from hiersense.topology import NO_LINK, frame_delays
from tests.conftest import random_phi
from tests.oracles import decide

PARAMS = ControlParams(lam=1.0, sinr_th=10 ** 0.5)


def grid_argmax(ip, is_, m, phi_ii, model, params, upper):
    """Two-stage grid argmax of the utility at ~1e-7*upper resolution.

    Concavity guarantees the coarse argmax brackets the true maximizer.
    """
    coarse = np.linspace(0.0, upper, 10001)
    u = utility(coarse, ip, is_, m, phi_ii, model, params)
    k = int(np.argmax(u))
    lo, hi = coarse[max(k - 1, 0)], coarse[min(k + 1, len(coarse) - 1)]
    fine = np.linspace(lo, hi, 2001)
    uf = utility(fine, ip, is_, m, phi_ii, model, params)
    return float(fine[int(np.argmax(uf))])


class TestThroughputLb:
    def test_zero_traffic(self):
        assert throughput_lb(0.0, 10, 1.0, 0.5, 30.0, PARAMS) == 0.0

    def test_vanishing_threshold_recovers_traffic(self, rng):
        for a in rng.uniform(0, 5, 10):
            params = ControlParams(lam=1.0, sinr_th=1e-12)
            got = throughput_lb(a, 10, 1.0, 1.0, 30.0, params)
            assert got == pytest.approx(a, rel=1e-9)

    def test_dense_mode_drops_self_exclusion(self):
        finite = throughput_lb(2.0, 1e12, 0.3, 0.1, 30.0, PARAMS)
        dense = throughput_lb(2.0, math.inf, 0.3, 0.1, 30.0, PARAMS)
        assert dense == pytest.approx(finite, rel=1e-9)
        assert dense < throughput_lb(2.0, 2, 0.3, 0.1, 30.0, PARAMS)


class TestExactThroughput:
    def test_zero_traffic(self, rng):
        phi = random_phi(rng, 2)
        got = exact_throughput([0.0, 0.0], [0, 1], [3.0, 3.0], phi, PARAMS, 0)
        assert got == 0.0

    def test_single_deterministic_transmitter(self):
        phi = InterferenceMatrix(np.array([[25.0]]))
        got = exact_throughput([1.0], [0], [1.0], phi, PARAMS, 0)
        assert got == pytest.approx(math.exp(-PARAMS.sinr_th / 25.0))

    def test_matches_direct_enumeration(self, rng):
        # independent re-derivation: sum over all access outcomes
        phi = random_phi(rng, 2)
        w = phi.coupling()
        a, b, m = np.array([1.5, 0.8]), np.array([0, 1]), np.array([3.0, 2.0])
        th = PARAMS.sinr_th
        total = 0.0
        for eta_hat in range(3):       # own cell, one slot removed
            for eta_other in range(3):
                p1 = math.comb(2, eta_hat) * (0.5 ** eta_hat) * (0.5 ** (2 - eta_hat))
                p_acc = a[1] / m[1]
                p2 = math.comb(2, eta_other) * p_acc ** eta_other \
                    * (1 - p_acc) ** (2 - eta_other)
                den = 1 + th * (eta_hat + w[1, 0] * eta_other + w[:, 0] @ b)
                total += p1 * p2 / den
        expect = a[0] * math.exp(-th / phi.phi[0, 0]) * total
        got = exact_throughput(a, b, m, phi, PARAMS, 0)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_rejects_large_instances(self, rng):
        phi = random_phi(rng, 2)
        with pytest.raises(ValueError):
            exact_throughput([1, 1], [0, 0], [20, 20], phi, PARAMS, 0)

    def test_jensen_direction(self, rng):
        # the closed-form bound never exceeds the enumerated value
        for _ in range(50):
            phi = random_phi(rng, 2)
            w = phi.coupling()
            m = rng.integers(1, 6, size=2).astype(float)
            a = rng.uniform(0, m)
            b = rng.integers(0, 2, size=2)
            i = int(rng.integers(2))
            ip = float(w[:, i] @ b)
            is_ = float(sum(w[j, i] * a[j] for j in range(2) if j != i))
            lb = throughput_lb(a[i], m[i], ip, is_, phi.phi[i, i], PARAMS)
            exact = exact_throughput(a, b, m, phi, PARAMS, i)
            assert lb <= exact + 1e-12


class TestOptimalTraffic:
    def test_high_interference_shuts_down(self, paper_model):
        a = optimal_traffic(50.0, 0.0, 10.0, 30.0, paper_model, PARAMS)
        assert a == 0.0

    def test_vanishing_cost_weight_saturates(self, paper_model):
        params = ControlParams(lam=1e-12, sinr_th=10 ** 0.5)
        a = optimal_traffic(0.5, 0.0, 10.0, 30.0, paper_model, params)
        assert a == 10.0

    def test_zero_interference_returns_upper_clip(self, paper_model):
        assert optimal_traffic(0.0, 0.2, 7.0, 30.0, paper_model, PARAMS) == 7.0
        dense = optimal_traffic(0.0, 0.2, math.inf, 30.0, paper_model, PARAMS,
                                a_max=0.5)
        assert dense == 0.5
        with pytest.raises(ValueError):
            optimal_traffic(0.0, 0.2, math.inf, 30.0, paper_model, PARAMS)

    def test_spec_instance_against_grid(self, paper_model):
        params = ControlParams(lam=1.0, sinr_th=10 ** 0.5)
        a_star = optimal_traffic(0.1, 0.0, 10.0, 10 ** 1.5, paper_model, params)
        a_grid = grid_argmax(0.1, 0.0, 10.0, 10 ** 1.5, paper_model, params, 10.0)
        assert abs(a_star - a_grid) <= 1e-4 * 10.0

    def test_random_draws_against_grid(self, paper_model, rng):
        worst = 0.0
        for _ in range(100):
            m = float(rng.integers(1, 12))
            ip = float(rng.uniform(0.005, 3.0))
            is_ = float(rng.uniform(0.0, 3.0))
            phi_ii = float(rng.uniform(3.0, 300.0))
            params = ControlParams(lam=float(10 ** rng.uniform(-2, 2)),
                                   sinr_th=float(10 ** rng.uniform(-0.5, 1.0)))
            a_star = optimal_traffic(ip, is_, m, phi_ii, paper_model, params)
            a_grid = grid_argmax(ip, is_, m, phi_ii, paper_model, params, m)
            worst = max(worst, abs(a_star - a_grid) / m)
        assert worst <= 1e-4

    def test_single_su_linear_branch(self, paper_model):
        # m=1 kills the quadratic term; the slope sign decides 0 or m
        strong = ControlParams(lam=100.0, sinr_th=10 ** 0.5)
        weak = ControlParams(lam=1e-6, sinr_th=10 ** 0.5)
        assert optimal_traffic(0.5, 0.0, 1.0, 30.0, paper_model, strong) == 0.0
        assert optimal_traffic(0.5, 0.0, 1.0, 30.0, paper_model, weak) == 1.0

    def test_monotone_in_interference(self, paper_model):
        ips = np.linspace(1e-3, 5.0, 200)
        a_prev, u_prev = math.inf, math.inf
        for ip in ips:
            a = optimal_traffic(ip, 0.2, 10.0, 30.0, paper_model, PARAMS)
            u = utility(a, ip, 0.2, 10.0, 30.0, paper_model, PARAMS)
            assert a <= a_prev + 1e-12 and u <= u_prev + 1e-12
            a_prev, u_prev = a, u

    def test_vectorized_matches_scalar(self, paper_model, rng):
        n = 30
        ip = rng.uniform(0, 2, n)
        is_ = rng.uniform(0, 2, n)
        m = rng.integers(1, 12, n).astype(float)
        phi_ii = rng.uniform(5, 100, n)
        vec = optimal_traffic(ip, is_, m, phi_ii, paper_model, PARAMS)
        for k in range(n):
            got = optimal_traffic(float(ip[k]), float(is_[k]), float(m[k]),
                                  float(phi_ii[k]), paper_model, PARAMS)
            assert vec[k] == pytest.approx(got, abs=1e-15)


@st.composite
def kernel_cases(draw):
    """A block of frames of a few cells: single-SU (m = 1, c = 0), finite
    and dense populations; ip and is_ that reach 0 and -0.0; lambda from
    1e-3 to 1e2."""
    n = draw(st.integers(1, 8))
    frames = draw(st.integers(1, 3))
    cells = st.lists(st.one_of(st.floats(0.0, 5.0), st.just(-0.0)),
                     min_size=n * frames, max_size=n * frames)
    kinds = draw(st.lists(st.sampled_from(["single", "finite", "dense"]),
                          min_size=n, max_size=n))
    m = np.array([1.0 if kind == "single" else math.inf if kind == "dense"
                  else float(draw(st.integers(2, 12))) for kind in kinds])
    return dict(
        ip=np.array(draw(cells)).reshape(frames, n),
        is_=np.array(draw(cells)).reshape(frames, n), m=m,
        phi_ii=np.array(draw(st.lists(st.floats(3.0, 300.0), min_size=n,
                                      max_size=n))),
        lam=10 ** draw(st.floats(-3.0, 2.0)),
        sinr_th=10 ** draw(st.floats(-0.5, 1.0)),
        a_max=draw(st.one_of(st.floats(0.05, 5.0), st.none())))


def split_rule(kernel, ip, is_, lam):
    """Every frame of an (frames, n_cells) block decided as the frame loop
    does: the block's gain built once, then one step per frame."""
    gain = kernel.gain(ip, lam * kernel.phi_ii)
    out = np.empty(ip.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(len(ip)):
            kernel.step(ip[t], is_[t], gain[t], out[t])
    return out


class TestTrafficKernel:
    def test_equals_its_oracle_bit_for_bit(self, paper_model):
        seen = set()

        @settings(derandomize=True, max_examples=400, deadline=None,
                  database=None)
        @given(kernel_cases())
        def check(case):
            ip, is_, m = case["ip"], case["is_"], case["m"]
            params = ControlParams(lam=case["lam"], sinr_th=case["sinr_th"])
            kernel = ctl.TrafficKernel(m, case["phi_ii"], paper_model,
                                       case["sinr_th"], case["a_max"])
            try:
                want = np.array([optimal_traffic(ip[t], is_[t], m,
                                                 case["phi_ii"], paper_model,
                                                 params, case["a_max"])
                                 for t in range(len(ip))])
            except ValueError as exc:
                # only a dense cell at ip = 0 with no rail is rejected
                with pytest.raises(ValueError, match="needs a_max") as err:
                    kernel.check_ip(ip)
                assert str(err.value) == str(exc)
                seen.add("rejected")
                return
            kernel.check_ip(ip)
            for t in range(len(ip)):
                got = decide(kernel, ip[t], is_[t], case["lam"] * kernel.phi_ii)
                assert got.dtype == want.dtype
                assert got.tobytes() == want[t].tobytes()
            assert split_rule(kernel, ip, is_, case["lam"]).tobytes() \
                == want.tobytes()
            seen.update(name for name, hit in (
                ("m=1", m == 1), ("finite", np.isfinite(m) & (m > 1)),
                ("dense", np.isinf(m)), ("ip=0", ip == 0),
                ("ip=-0.0", (ip == 0) & np.signbit(ip)),
                ("is=0", is_ == 0), ("lower clip", want == 0),
                ("upper clip", want == kernel.upper),
                ("interior", (want > 0) & (want < kernel.upper)))
                if hit.any())

        check()
        assert seen == {"m=1", "finite", "dense", "ip=0", "ip=-0.0", "is=0",
                        "lower clip", "upper clip", "interior", "rejected"}

    def test_nan_and_infinite_values_land_on_the_oracle_clip(self,
                                                             paper_model):
        th = 10 ** 0.5

        def rule_value(kernel, ip, is_, lam):
            gain = kernel.gain(ip, lam * kernel.phi_ii)
            root = np.sqrt(1.0 + th * (ip + is_))
            with np.errstate(divide="ignore", invalid="ignore"):
                return gain, root / kernel.th_c * (gain - root)

        # single SUs (c = 0): the value is +-inf, or inf * 0 = NaN where the
        # gain equals the root exactly; step lam until it does in cell 0
        kernel = ctl.TrafficKernel(np.ones(3), np.full(3, 30.0), paper_model,
                                   th)
        ip, is_ = np.array([[0.5, 0.0, 1.0]]), np.array([[0.25, 0.0, 0.0]])
        root = math.sqrt(1.0 + th * 0.75)
        lam = float((kernel.gain_num[0] / root) ** 2 / (30.0 * 0.5))
        for _ in range(200):
            gain, val = rule_value(kernel, ip, is_, lam)
            if gain[0, 0] == root:
                break
            lam = np.nextafter(lam, math.inf if gain[0, 0] > root else 0.0)
        assert np.isnan(val[0, 0]) and val[0, 1] == math.inf \
            and val[0, 2] == -math.inf
        cases = [(kernel, ip, is_, lam)]
        # a gain numerator that underflows to 0 makes 0 / 0 at ip = 0
        kernel = ctl.TrafficKernel(np.array([1.0, 4.0]), np.full(2, 1e-3),
                                   paper_model, th)
        ip, is_ = np.zeros((1, 2)), np.array([[0.0, 0.5]])
        gain, val = rule_value(kernel, ip, is_, 1.0)
        assert np.isnan(gain).all() and np.isnan(val).all()
        cases.append((kernel, ip, is_, 1.0))
        for kernel, ip, is_, lam in cases:
            want = optimal_traffic(ip[0], is_[0], kernel.upper, kernel.phi_ii,
                                   paper_model, ControlParams(lam, th))
            assert split_rule(kernel, ip, is_, lam).tobytes() \
                == want.tobytes()
            assert decide(kernel, ip[0], is_[0],
                          lam * kernel.phi_ii).tobytes() \
                == want.tobytes()

    def test_block_checks_name_the_fault(self, paper_model):
        kernel = ctl.TrafficKernel(np.array([3.0, math.inf]),
                                   np.array([30.0, 40.0]), paper_model,
                                   10 ** 0.5)
        kernel.check_ip(np.array([[0.0, 0.1], [0.2, 0.3]]))
        with pytest.raises(ValueError, match="must be nonnegative"):
            kernel.check_ip(np.array([[0.1, 0.1], [-1e-300, 0.3]]))
        with pytest.raises(ValueError, match="needs a_max"):
            kernel.check_ip(np.array([[0.1, 0.1], [0.2, 0.0]]))


class TestUtility:
    def test_zero_traffic_zero_utility(self, paper_model):
        assert utility(0.0, 1.0, 0.5, 10.0, 30.0, paper_model, PARAMS) == 0.0

    def test_concave_in_traffic(self, paper_model, rng):
        for _ in range(50):
            ip = float(rng.uniform(0.01, 2))
            is_ = float(rng.uniform(0, 2))
            m = float(rng.integers(1, 12))
            lo, hi = sorted(rng.uniform(0, m, 2))
            mid = (lo + hi) / 2
            u = [utility(a, ip, is_, m, 30.0, paper_model, PARAMS)
                 for a in (lo, mid, hi)]
            assert u[1] >= (u[0] + u[2]) / 2 - 1e-12

    def test_optimum_dominates_grid(self, paper_model, rng):
        for _ in range(20):
            ip = float(rng.uniform(0.01, 2))
            is_ = float(rng.uniform(0, 2))
            m = float(rng.integers(1, 12))
            a_star = optimal_traffic(ip, is_, m, 30.0, paper_model, PARAMS)
            u_star = utility(a_star, ip, is_, m, 30.0, paper_model, PARAMS)
            grid = np.linspace(0, m, 1000)
            assert u_star >= utility(grid, ip, is_, m, 30.0, paper_model,
                                     PARAMS).max() - 1e-9


class TestNetworkInr:
    def test_zero_traffic(self, paper_model, rng):
        phi = random_phi(rng, 4)
        inr, iota = network_inr(np.zeros(4), np.ones(4), phi, paper_model)
        assert inr == 0.0 and not iota.any()

    def test_single_interferer(self, paper_model, rng):
        phi = random_phi(rng, 4)
        a = np.array([0, 1.0, 0, 0])
        b = np.array([0, 0, 0, 1])
        inr, _ = network_inr(a, b, phi, paper_model)
        assert inr == pytest.approx(phi.phi[1, 3] / (4 * 0.05))

    def test_decomposition_identity(self, paper_model, rng):
        for _ in range(20):
            phi = random_phi(rng, 6)
            a = rng.uniform(0, 2, 6)
            b = rng.integers(0, 2, 6)
            inr, iota = network_inr(a, b, phi, paper_model)
            assert inr == iota.sum() / 6  # exact by construction
            double_sum = sum(a[i] * phi.phi[i, j] * b[j]
                             for i in range(6) for j in range(6)) / (6 * 0.05)
            assert inr == pytest.approx(double_sum, rel=1e-12)


class TestBaselines:
    def test_full_nsi_zero_delay_is_exact(self, paper_model, rng):
        phi = random_phi(rng, 5)
        delays = np.zeros((5, 5), dtype=int)
        b_hist = rng.integers(0, 2, size=(4, 5))
        got = ctl.full_nsi_ip(phi, delays, b_hist, paper_model)[3]
        expect = b_hist[3].astype(float) @ phi.coupling()
        assert np.allclose(got, expect, atol=1e-12)

    def test_full_nsi_delay_compensation(self, paper_model, rng):
        phi = random_phi(rng, 3)
        w = phi.coupling()
        delays = np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        b_hist = rng.integers(0, 2, size=(6, 3))
        t = 5
        got = ctl.full_nsi_ip(phi, delays, b_hist, paper_model)[t]
        for i in range(3):
            expect = 0.0
            for j in range(3):
                d = delays[j, i]
                expect += w[j, i] * (0.05 + 0.9 ** d * (b_hist[t - d, j] - 0.05))
            assert got[i] == pytest.approx(expect, abs=1e-12)

    def test_full_nsi_pre_history_uses_prior(self, paper_model, rng):
        phi = random_phi(rng, 3)
        delays = np.full((3, 3), 10, dtype=int)
        np.fill_diagonal(delays, 0)
        b_hist = np.ones((2, 3), dtype=int)
        got = ctl.full_nsi_ip(phi, delays, b_hist, paper_model)[1]
        w = phi.coupling()
        expect = w.diagonal() * 1.0 + 0.05 * (w.sum(axis=0) - w.diagonal())
        assert np.allclose(got, expect, atol=1e-12)

    def test_radius_limits(self, paper_model, rng):
        phi = random_phi(rng, 5)
        dist = rng.uniform(10, 100, size=(5, 5))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        b = rng.integers(0, 2, 5)
        got = ctl.radius_nsi_ip(phi, dist, math.inf, b, paper_model)
        exact = b.astype(float) @ phi.coupling()
        assert np.allclose(got, exact, atol=1e-12)
        # zero radius: own cell only, prior elsewhere
        got0 = ctl.radius_nsi_ip(phi, dist, 0.0, b, paper_model)
        w = phi.coupling()
        expect0 = b * w.diagonal() + 0.05 * (w.sum(axis=0) - w.diagonal())
        assert np.allclose(got0, expect0, atol=1e-12)

    def test_radius_cost_counts_neighbors(self):
        dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        cost = lambda r: ctl.nsi_cost(frame_delays(dist, 0.0, r))
        assert cost(1.0) == pytest.approx((1 + 2 + 1) / 3)
        assert cost(0.5) == 0.0

    @staticmethod
    def radius_oracle_ip(phi, dist, radius, b, model):
        """Exact bits inside the radius, the prior's weight beyond it."""
        w = phi.coupling()
        within = dist <= radius
        return np.asarray(b, dtype=float) @ (w * within) \
            + float(model.pi_b) * (w * ~within).sum(axis=0)

    @staticmethod
    def radius_oracle_cost(dist, radius):
        """Mean number of other cells inside the radius."""
        within = (dist <= radius) & ~np.eye(len(dist), dtype=bool)
        return float(within.sum(axis=1).mean())

    @staticmethod
    def symmetric_distances(rng, n):
        dist = rng.uniform(10, 100, size=(n, n))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        return dist

    @pytest.mark.parametrize("radius", [0.0, 55.0, math.inf])
    def test_radius_nsi_matches_its_oracle(self, paper_model, rng, radius):
        phi = random_phi(rng, 6)
        dist = self.symmetric_distances(rng, 6)
        b_hist = rng.integers(0, 2, size=(7, 6))
        delays = frame_delays(dist, 0.0, radius)
        expect = self.radius_oracle_ip(phi, dist, radius, b_hist, paper_model)
        for got in (ctl.full_nsi_ip(phi, delays, b_hist, paper_model),
                    ctl.radius_nsi_ip(phi, dist, radius, b_hist, paper_model)):
            assert got.shape == expect.shape
            assert np.allclose(got, expect, rtol=1e-12, atol=0.0)
        # one frame in, one frame out
        one = ctl.radius_nsi_ip(phi, dist, radius, b_hist[2], paper_model)
        assert one.shape == (6,)
        assert np.allclose(one, expect[2], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("radius", [0.0, 55.0, math.inf])
    def test_radius_cost_matches_its_oracle(self, rng, radius):
        dist = self.symmetric_distances(rng, 6)
        got = ctl.nsi_cost(frame_delays(dist, 0.0, radius))
        assert got == self.radius_oracle_cost(dist, radius)

    @pytest.mark.parametrize("gamma_delay", [0.0, 0.02, 1.0])
    def test_full_nsi_cost_is_every_other_cell(self, rng, gamma_delay):
        dist = self.symmetric_distances(rng, 7)
        delays = frame_delays(dist, gamma_delay)
        assert (delays == np.ceil(gamma_delay * dist)).all()
        assert ctl.nsi_cost(delays) == 6.0

    def test_no_link_pairs_stay_at_the_prior(self, paper_model, rng):
        phi = random_phi(rng, 3)
        w = phi.coupling()
        delays = np.array([[0, NO_LINK, 1], [NO_LINK, 0, 2], [1, 2, 0]])
        b_hist = rng.integers(0, 2, size=(5, 3))
        got = ctl.full_nsi_ip(phi, delays, b_hist, paper_model)
        for t in range(5):
            for i in range(3):
                expect = 0.0
                for j in range(3):
                    d = delays[j, i]
                    p = 0.05 if d == NO_LINK or t < d else \
                        0.05 + 0.9 ** d * (b_hist[t - d, j] - 0.05)
                    expect += w[j, i] * p
                assert got[t, i] == pytest.approx(expect, rel=1e-12)

    def test_uncoordinated(self):
        m = np.array([4.0, 4.0])
        assert ctl.uncoordinated_traffic(0.0, m).tolist() == [0.0, 0.0]
        assert ctl.uncoordinated_traffic(0.25, m).tolist() == [1.0, 1.0]
        dense = ctl.uncoordinated_traffic(0.5, np.full(2, math.inf), a_max=0.6)
        assert dense.tolist() == [0.3, 0.3]
        with pytest.raises(ValueError):
            ctl.uncoordinated_traffic(0.5, np.full(2, math.inf))

    def test_metropolis_weights_average_exactly(self, rng):
        adj = ctl.random_regular_connected(16, 5, seed=3)
        assert adj.sum(axis=1).tolist() == [5] * 16
        w = ctl.metropolis_weights(adj)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.allclose(w, w.T)
        x = rng.random(16)
        mixed = np.linalg.matrix_power(w, 400) @ x
        assert np.allclose(mixed, x.mean(), atol=1e-9)

    def test_consensus_ip_scales_by_total_coupling(self, rng):
        adj = ctl.random_regular_connected(8, 3, seed=1)
        mixer = ctl.consensus_mixer(adj, 200)
        phi = random_phi(rng, 8)
        phi_tot = phi.coupling().sum(axis=0)
        b_hat = rng.integers(0, 2, 8).astype(float)
        got = ctl.consensus_ip(mixer, b_hat, phi_tot)
        assert np.allclose(got, b_hat.mean() * phi_tot, atol=1e-6)


@pytest.fixture(scope="module")
def nx():
    """networkx, the oracle of the consensus-graph port, at the version the
    port follows."""
    nx = pytest.importorskip(
        "networkx", reason="networkx (the test extra) is the port's oracle")
    if not nx.__version__.startswith("3.6."):
        pytest.skip(f"the port follows networkx 3.6.x, not {nx.__version__}")
    return nx


def networkx_regular_connected(nx, n, degree, seed, max_tries=50):
    """The networkx form the port replaces: its adjacency and the number of
    attempts it took."""
    for attempt in range(max_tries):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            adj = nx.to_numpy_array(g, nodelist=range(n)).astype(bool)
            return adj, attempt + 1
    raise RuntimeError(f"no connected degree-{degree} graph found in "
                       f"{max_tries} tries")


class TestRandomRegularConnected:
    # (n, degree): seeds; degree 2 on 8-20 cells often needs several attempts
    CASES = {(1, 0): range(5), (2, 1): range(5), (6, 4): range(20),
             (9, 8): range(10), (16, 15): range(10), (10, 9): range(10),
             (64, 5): range(2000, 2060), (16, 3): range(60),
             (64, 3): range(20), (256, 4): range(10), (9, 4): range(40),
             (8, 2): range(40), (9, 2): range(40), (12, 2): range(40),
             (20, 2): range(40)}
    # sha256 of the adjacency's bytes; fixed, so they hold without networkx
    GOLDEN = {
        (64, 5, 2037):
            "7edf8351563747f74b8f5c0c2b13ff8400f1c63f5f4d44e5178b40cc273e026b",
        (9, 4, 1):
            "032fe7abcf2c212dafa0eec92a10f3ce3b2fc8929fd14860833f7bef37e537ff",
        (20, 2, 1):
            "6e434b58d1d4dffa6fb143f534a2259adec724abca0258f000917b3b2ccc3d06",
    }

    def test_same_adjacency_as_networkx(self, nx):
        cases = [(n, d, seed) for (n, d), seeds in self.CASES.items()
                 for seed in seeds]
        assert len(cases) >= 400 and (64, 5, 2037) in cases
        retried = 0
        for n, degree, seed in cases:
            expect, attempts = networkx_regular_connected(nx, n, degree, seed)
            got = ctl.random_regular_connected(n, degree, seed)
            assert got.dtype == bool and got.shape == (n, n)
            assert np.array_equal(got, expect), (n, degree, seed)
            retried += attempts > 1
        # seed + attempt is exercised, not only each seed's first draw
        assert retried >= 50

    def test_same_runtime_error_as_networkx(self, nx):
        with pytest.raises(RuntimeError) as expect:
            networkx_regular_connected(nx, 8, 1, 0, max_tries=3)
        with pytest.raises(RuntimeError) as got:
            ctl.random_regular_connected(8, 1, 0, max_tries=3)
        assert str(got.value) == str(expect.value) \
            == "no connected degree-1 graph found in 3 tries"

    @pytest.mark.parametrize("n, degree, seed", sorted(GOLDEN))
    def test_golden_digest(self, n, degree, seed):
        adj = ctl.random_regular_connected(n, degree, seed)
        assert adj.dtype == bool and adj.shape == (n, n)
        assert hashlib.sha256(adj.tobytes()).hexdigest() \
            == self.GOLDEN[n, degree, seed]

    @pytest.mark.parametrize("n, degree", [(7, 3), (4, 4), (4, 5), (4, -2)])
    def test_impossible_graph_raises_before_drawing(self, monkeypatch, n,
                                                    degree):
        # without this check the pairing would never finish
        def no_draw(*args):
            raise AssertionError("drew a graph")

        monkeypatch.setattr(ctl, "_regular_edges", no_draw)
        with pytest.raises(ValueError, match=rf"no degree-{degree} regular "
                                             rf"graph on n={n} nodes"):
            ctl.random_regular_connected(n, degree, seed=0)


class TestUpperBoundByFullKnowledge:
    def test_jensen_on_exact_beliefs(self, paper_model, rng):
        # expected utility under the belief never beats knowing the state
        from tests.test_inference import random_depth2_tree
        worst = 0.0
        for _ in range(15):
            tree = random_depth2_tree(rng)
            phi = random_phi(rng, 4)
            w = phi.coupling()
            ex = HierarchicalExchange(tree, float(paper_model.pi_b))
            state = sample_steady_state(paper_model, 4, rng)
            hist = {i: [] for i in range(4)}
            for t in range(8):
                ex.advance_frame(state.b.astype(float), t)
                sig = ex.sigma_all(t)
                for i in range(4):
                    hist[i].append(sig[i])
                state = step_occupancy(paper_model, state, rng)
            is_ = 0.3
            m = 6.0
            for i in range(4):
                belief = exact_belief(np.array(hist[i]), tree, paper_model, i)
                ip_belief = sum(w[j, i] * belief.marginal(j) for j in range(4))
                a_b = optimal_traffic(ip_belief, is_, m, phi.phi[i, i],
                                      paper_model, PARAMS)
                lhs = utility(a_b, ip_belief, is_, m, phi.phi[i, i],
                              paper_model, PARAMS)
                rhs = 0.0
                for code in range(16):
                    bvec = [(code >> j) & 1 for j in range(4)]
                    p = belief.prob(bvec)
                    if p == 0.0:
                        continue
                    ip_b = float(w[:, i] @ np.array(bvec, dtype=float))
                    a_pt = optimal_traffic(ip_b, is_, m, phi.phi[i, i],
                                           paper_model, PARAMS)
                    rhs += p * utility(a_pt, ip_b, is_, m, phi.phi[i, i],
                                       paper_model, PARAMS)
                worst = max(worst, lhs - rhs)
        assert worst <= 1e-12