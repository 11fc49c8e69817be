import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersense import (OccupancyModel, SensorModel, k_step_marginal,
                       posterior_update, prior_propagate,
                       sample_detection_count, sample_steady_state,
                       step_occupancy)


class TestSensorModel:
    def test_rejects_uninformative_sensor(self):
        with pytest.raises(ValueError):
            SensorModel(0.6, 0.5)
        with pytest.raises(ValueError):
            SensorModel(-0.1, 0.0)

    def test_noiseless_flag(self):
        assert SensorModel(0.0, 0.0).noiseless
        assert not SensorModel(0.1, 0.0).noiseless


class TestDetectionCount:
    def test_noiseless_counts(self, rng, noiseless_sensor):
        assert sample_detection_count(noiseless_sensor, 1, 5, rng) == 5
        assert sample_detection_count(noiseless_sensor, 0, 5, rng) == 0

    def test_false_alarm_rate(self, rng):
        model = SensorModel(0.1, 0.0)
        xi = sample_detection_count(model, 0, 10_000, rng)
        sigma = math.sqrt(10_000 * 0.1 * 0.9)
        assert abs(xi - 1000) < 3 * sigma

    def test_requires_a_sensor(self, rng, noiseless_sensor):
        with pytest.raises(ValueError):
            sample_detection_count(noiseless_sensor, 1, 0, rng)


class TestPosteriorUpdate:
    def test_noiseless_unanimous(self, noiseless_sensor):
        assert posterior_update(noiseless_sensor, 0.3, 5, 5) == 1.0
        assert posterior_update(noiseless_sensor, 0.3, 0, 5) == 0.0

    def test_hand_computed_value(self):
        # prior 0.5, m=2, eps_f=0.1, eps_m=0.2, xi=2:
        #   num = 0.5 * 0.8^2 = 0.32, alt = 0.5 * 0.1^2 -> 0.32/0.325
        model = SensorModel(0.1, 0.2)
        got = posterior_update(model, 0.5, 2, 2)
        assert abs(got - 0.32 / 0.325) < 1e-12

    def test_zero_prior_absorbs(self):
        model = SensorModel(0.1, 0.2)
        for xi in range(4):
            assert posterior_update(model, 0.0, xi, 3) == 0.0

    def test_degenerate_observation_raises(self, noiseless_sensor):
        # a mixed count is impossible without noise
        with pytest.raises(ValueError):
            posterior_update(noiseless_sensor, 0.5, 2, 5)
        # zero prior and a noiseless unanimous-positive observation: 0/0
        with pytest.raises(ValueError):
            posterior_update(noiseless_sensor, 0.0, 5, 5)

    def test_out_of_range_count(self):
        with pytest.raises(ValueError):
            posterior_update(SensorModel(0.1, 0.1), 0.5, 6, 5)

    def test_no_underflow_at_large_m(self):
        # plain likelihoods are ~exp(-4400) here and would underflow to 0/0
        model = SensorModel(0.2, 0.2)
        got = posterior_update(model, 0.5, 2502, 5000)
        # likelihood ratio collapses to (2*xi - m) * log(4)
        expected = 1.0 / (1.0 + math.exp(-4 * math.log(4.0)))
        assert abs(got - expected) < 1e-12

    def test_vectorized_matches_scalar(self, rng):
        model = SensorModel(0.15, 0.05)
        priors = rng.uniform(0.01, 0.99, 20)
        ms = rng.integers(1, 30, 20)
        xis = rng.integers(0, ms + 1)
        vec = posterior_update(model, priors, xis, ms)
        scalars = [posterior_update(model, float(p), int(x), int(m))
                   for p, x, m in zip(priors, xis, ms)]
        assert np.allclose(vec, scalars, atol=0, rtol=1e-15)

    def test_equals_the_log_space_formula(self, rng):
        # the Bayes combine written out, with a fresh array per operation
        model = SensorModel(0.15, 0.05)
        # small priors round in 1 - prior, so log1p(-prior) would differ
        priors = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 100),
                                 10.0 ** rng.uniform(-12.0, 0.0, 200)])
        ms = rng.integers(1, 30, priors.size)
        xis = rng.integers(0, ms + 1)

        def log_lik(p):
            with np.errstate(divide="ignore", invalid="ignore"):
                return (np.where(xis > 0, xis * np.log(p), 0.0)
                        + np.where(ms - xis > 0, (ms - xis) * np.log1p(-p),
                                   0.0))

        with np.errstate(divide="ignore"):
            log_num = np.log(priors) + log_lik(1.0 - model.eps_m)
            log_alt = np.log(1.0 - priors) + log_lik(model.eps_f)
        expect = np.exp(log_num - np.logaddexp(log_num, log_alt))
        got = posterior_update(model, priors, xis, ms)
        assert got.tobytes() == expect.tobytes()

    @given(st.floats(0.01, 0.99), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_count(self, prior, m):
        model = SensorModel(0.2, 0.1)
        posts = [posterior_update(model, prior, xi, m) for xi in range(m + 1)]
        assert all(b >= a for a, b in zip(posts, posts[1:]))
        for a, b in zip(posts, posts[1:]):
            # strict except where the float posterior has saturated
            if 1e-12 < a and b < 1 - 1e-12:
                assert b > a


class TestPriorPropagate:
    def test_fixed_point_at_steady_state(self, paper_model):
        assert abs(prior_propagate(paper_model, 0.05) - 0.05) < 1e-15

    def test_hand_value(self, paper_model):
        assert abs(prior_propagate(paper_model, 1.0) - 0.905) < 1e-12

    def test_memoryless_always_returns_steady_state(self):
        model = OccupancyModel(0.3, 0.7)
        for post in (0.0, 0.4, 1.0):
            assert abs(prior_propagate(model, post) - 0.3) < 1e-15

    def test_is_exactly_one_step_marginal(self, paper_model, rng):
        for post in rng.random(50):
            assert prior_propagate(paper_model, post) \
                == k_step_marginal(paper_model, post, 1)


class TestFilterBehavior:
    def test_noiseless_filter_tracks_truth(self, paper_model, rng,
                                           noiseless_sensor):
        state = sample_steady_state(paper_model, 32, rng)
        prior = np.full(32, 0.05)
        for _ in range(200):
            xi = sample_detection_count(noiseless_sensor, state.b,
                                        np.full(32, 4), rng)
            post = posterior_update(noiseless_sensor, prior, xi, np.full(32, 4))
            assert np.array_equal(post, state.b.astype(float))
            prior = prior_propagate(paper_model, post)
            state = step_occupancy(paper_model, state, rng)

    def test_posterior_calibration(self, paper_model, rng):
        # E[b | posterior in a bin] should sit near the bin's posterior mass
        model = SensorModel(0.15, 0.25)
        n, steps = 400, 400
        state = sample_steady_state(paper_model, n, rng)
        prior = np.full(n, 0.05)
        posts, truths = [], []
        for _ in range(steps):
            xi = sample_detection_count(model, state.b, np.full(n, 3), rng)
            post = posterior_update(model, prior, xi, np.full(n, 3))
            posts.append(post)
            truths.append(state.b.astype(float))
            prior = np.asarray(prior_propagate(paper_model, post))
            state = step_occupancy(paper_model, state, rng)
        posts = np.concatenate(posts)
        truths = np.concatenate(truths)
        for lo, hi in ((0.0, 0.02), (0.02, 0.2), (0.2, 0.6), (0.6, 1.0)):
            sel = (posts >= lo) & (posts < hi)
            if sel.sum() < 200:
                continue
            predicted = posts[sel].mean()
            observed = truths[sel].mean()
            sigma = math.sqrt(max(predicted * (1 - predicted), 1e-6) / sel.sum())
            # sensing draws are independent given the state, but states repeat
            # across the bin; allow a generous correlation inflation
            assert abs(observed - predicted) < 6 * sigma
