import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersense import (ConfigError, ExperimentConfig, OccupancyModel,
                       OccupancyState, SchemeSpec, k_step_marginal,
                       prepare_trial, sample_steady_state, step_occupancy)


class TestOccupancyModel:
    def test_paper_rates(self, paper_model):
        assert math.isclose(paper_model.pi_b, 0.05)
        assert math.isclose(paper_model.mu, 0.9)

    def test_rejects_negative_memory(self):
        with pytest.raises(ValueError):
            OccupancyModel(0.6, 0.6)

    def test_degenerate_static_chain(self):
        model = OccupancyModel(0.0, 0.0)
        assert model.mu == 1 and model.pi_b == 0


class TestSampling:
    def test_zero_birth_rate_starts_empty(self, rng):
        state = sample_steady_state(OccupancyModel(0.0, 0.1), 50, rng)
        assert not state.b.any()

    def test_steady_state_mean(self, paper_model, rng):
        n = 100_000
        b = sample_steady_state(paper_model, n, rng).b
        sigma = math.sqrt(0.05 * 0.95 / n)
        assert abs(b.mean() - 0.05) < 3 * sigma

    def test_static_chain_is_absorbing(self, rng):
        model = OccupancyModel(0.0, 0.0)
        state = OccupancyState(b=rng.integers(0, 2, 20))
        for _ in range(10):
            nxt = step_occupancy(model, state, rng)
            assert np.array_equal(nxt.b, state.b)
            state = nxt
        assert state.t == 10

    @pytest.mark.parametrize("nu1, nu0", [
        (0.005, 0.095), (0.3, 0.7), (0.05, 0.0),
        (Fraction(1, 50), Fraction(9, 50))])
    def test_step_is_the_transition_law(self, nu1, nu0):
        model = OccupancyModel(nu1, nu0)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        b = rng.integers(0, 2, 500).astype(np.int8)
        ref_rng.integers(0, 2, 500)
        nxt = step_occupancy(model, OccupancyState(b=b, t=4), rng)
        u = ref_rng.random(500)
        expect = np.where(b == 1, u >= float(nu0), u < float(nu1))
        assert nxt.t == 5 and nxt.b.dtype == np.int8
        assert nxt.b.tobytes() == expect.astype(np.int8).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_memoryless_chain_forgets_state(self, rng):
        # nu1 + nu0 = 1 makes the next state i.i.d. Bernoulli(pi_b)
        model = OccupancyModel(0.3, 0.7)
        ones = OccupancyState(b=np.ones(200_000, dtype=np.int8))
        zeros = OccupancyState(b=np.zeros(200_000, dtype=np.int8))
        m1 = step_occupancy(model, ones, rng).b.mean()
        m0 = step_occupancy(model, zeros, rng).b.mean()
        sigma = math.sqrt(0.3 * 0.7 / 200_000)
        assert abs(m1 - 0.3) < 3 * sigma and abs(m0 - 0.3) < 3 * sigma

    def test_transition_frequencies(self, paper_model, rng):
        n, steps = 2000, 50
        state = sample_steady_state(paper_model, n, rng)
        up = down = at0 = at1 = 0
        for _ in range(steps):
            nxt = step_occupancy(paper_model, state, rng)
            at0 += int((state.b == 0).sum())
            at1 += int((state.b == 1).sum())
            up += int(((state.b == 0) & (nxt.b == 1)).sum())
            down += int(((state.b == 1) & (nxt.b == 0)).sum())
            state = nxt
        for count, total, p in ((up, at0, 0.005), (down, at1, 0.095)):
            sigma = math.sqrt(p * (1 - p) / total)
            assert abs(count / total - p) < 3 * sigma

    def test_long_run_occupancy_fraction(self, paper_model, rng):
        n, steps = 64, 4000
        state = sample_steady_state(paper_model, n, rng)
        total = 0
        for _ in range(steps):
            total += int(state.b.sum())
            state = step_occupancy(paper_model, state, rng)
        frac = total / (n * steps)
        # time-averaged Markov chain variance carries the (1+mu)/(1-mu) factor
        sigma = math.sqrt(0.05 * 0.95 * (1 + 0.9) / (1 - 0.9) / (n * steps))
        assert abs(frac - 0.05) < 3 * sigma

    def test_cells_stay_uncorrelated(self, paper_model, rng):
        steps = 6000
        state = sample_steady_state(paper_model, 2, rng)
        xs = np.empty((steps, 2))
        for t in range(steps):
            xs[t] = state.b
            state = step_occupancy(paper_model, state, rng)
        x, y = xs[:, 0] - xs[:, 0].mean(), xs[:, 1] - xs[:, 1].mean()
        corr = float((x * y).mean() / (x.std() * y.std()))
        # effective sample size shrinks by the chain's autocorrelation time
        n_eff = steps * (1 - 0.9) / (1 + 0.9)
        assert abs(corr) < 3 / math.sqrt(n_eff)


class TestKStepMarginal:
    def test_zero_delay_identity(self, paper_model):
        assert k_step_marginal(paper_model, 0.73, 0) == 0.73

    def test_large_delay_converges_to_steady_state(self, paper_model):
        assert abs(k_step_marginal(paper_model, 1.0, 5000) - 0.05) < 1e-12

    def test_one_step_from_occupied(self, paper_model):
        got = k_step_marginal(paper_model, 1.0, 1)
        assert abs(got - 0.905) < 1e-12  # 0.05 + 0.9 * 0.95

    def test_rejects_negative_delay(self, paper_model):
        with pytest.raises(ValueError):
            k_step_marginal(paper_model, 0.5, -1)

    def test_semigroup_exact_on_rationals(self):
        # Fraction arithmetic keeps the composition law bitwise exact
        model = OccupancyModel(Fraction(1, 200), Fraction(19, 200))
        assert model.pi_b == Fraction(1, 20) and model.mu == Fraction(9, 10)
        for p_num in (0, 7, 20):
            p = Fraction(p_num, 20)
            for d1 in (0, 1, 3, 10):
                for d2 in (0, 2, 5):
                    two_hops = k_step_marginal(model, k_step_marginal(model, p, d1), d2)
                    assert two_hops == k_step_marginal(model, p, d1 + d2)

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5), st.floats(0, 1),
           st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_semigroup_float_within_ulps(self, nu1, nu0, p, d1, d2):
        model = OccupancyModel(nu1, nu0)
        lhs = k_step_marginal(model, k_step_marginal(model, p, d1), d2)
        rhs = k_step_marginal(model, p, d1 + d2)
        assert abs(lhs - rhs) < 1e-14


def population_config(mode, m=10):
    return ExperimentConfig(n_cells=4, area=(200.0, 200.0),
                            schemes=(SchemeSpec("unc", "uncoordinated"),),
                            frames=2, trials=1, population_mode=mode,
                            m_per_cell=m)


class TestPopulation:
    def test_constant_mode(self):
        ctx = prepare_trial(population_config("constant", 10), 0)
        assert (ctx.m == 10).all()

    def test_dense_mode_is_unbounded_marker(self):
        ctx = prepare_trial(population_config("dense"), 0)
        assert np.isinf(ctx.m).all()

    def test_rejects_empty_cells(self):
        with pytest.raises(ConfigError, match="population.m"):
            population_config("constant", 0).validate()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="population.mode"):
            population_config("sparse").validate()
