"""Local Bayesian occupancy estimation from noisy binary detections.

Each of the M SUs in a cell reports a one-bit detection of the local
occupancy through a binary asymmetric channel (false-alarm eps_f,
mis-detection eps_m).  The count of positive reports is a sufficient
statistic; the cell head folds it into the running posterior and propagates
the belief through the occupancy dynamics between frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OccupancyModel, k_step_marginal


@dataclass(frozen=True)
class SensorModel:
    eps_f: float = 0.0
    eps_m: float = 0.0

    def __post_init__(self):
        if not (0 <= self.eps_f < 1 and 0 <= self.eps_m < 1):
            raise ValueError("error probabilities must lie in [0, 1)")
        if self.eps_f + self.eps_m >= 1:
            raise ValueError("eps_f + eps_m must be < 1 (informative sensor)")

    @property
    def noiseless(self) -> bool:
        return self.eps_f == 0.0 and self.eps_m == 0.0


def sample_detection_count(model: SensorModel, b, m, rng):
    """Number of SUs (out of m) reporting 'occupied' given true occupancy b."""
    b = np.asarray(b)
    if (np.asarray(m) < 1).any():
        raise ValueError("need at least one sensing SU")
    p = np.where(b == 1, 1.0 - model.eps_m, model.eps_f)
    return rng.binomial(np.asarray(m), p)


def _log_likelihood(xi, m, p):
    """log of p**xi * (1-p)**(m-xi) with the 0**0 := 1 convention."""
    xi = np.asarray(xi, dtype=float)
    m = np.asarray(m, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hit = np.where(xi > 0, xi * np.log(p), 0.0)
        t_miss = np.where(m - xi > 0, (m - xi) * np.log1p(-p), 0.0)
    return t_hit + t_miss


def _count_log_likelihoods(model: SensorModel, xi, m):
    """log P(xi | occupied) and log P(xi | empty) of detection counts."""
    if ((xi < 0) | (xi > m)).any():
        raise ValueError("detection count must lie in [0, m]")
    return (_log_likelihood(xi, m, 1.0 - model.eps_m),
            _log_likelihood(xi, m, model.eps_f))


def _combine(prior, log_l1, log_l0):
    """Posterior from a prior and the two hypotheses' log-likelihoods."""
    if ((prior < 0) | (prior > 1)).any():
        raise ValueError("prior must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        log_num = np.log(prior) + log_l1
        log_alt = np.log(1.0 - prior) + log_l0
    log_evidence = np.logaddexp(log_num, log_alt)
    # -inf exactly where both terms are -inf: a 0/0 posterior
    if np.isneginf(log_evidence).any():
        raise ValueError("observation impossible under both hypotheses "
                         "(inconsistent sensor model or detection count)")
    return np.exp(log_num - log_evidence)


def posterior_update(model: SensorModel, prior, xi, m):
    """Bayes update of the occupancy belief from a detection count.

    Likelihoods are combined in log space so large sensor populations cannot
    underflow.  An observation impossible under both hypotheses (0/0
    posterior) signals an inconsistent model and raises.
    """
    log_l1, log_l0 = _count_log_likelihoods(model, np.asarray(xi),
                                            np.asarray(m))
    post = _combine(np.asarray(prior, dtype=float), log_l1, log_l0)
    return float(post) if post.ndim == 0 else post


def prior_propagate(model: OccupancyModel, posterior):
    """Push the posterior one frame forward through the occupancy chain."""
    return k_step_marginal(model, posterior, 1)


def filter_posteriors(model: OccupancyModel, sensor: SensorModel, xi_seq, m
                      ) -> np.ndarray:
    """(frames, cells) posteriors of a run of detection counts, from the
    steady-state prior: :func:`posterior_update` then
    :func:`prior_propagate`, frame by frame.  The count checks and
    likelihoods, which read no prior, are done once for the whole block."""
    log_l1, log_l0 = _count_log_likelihoods(sensor, xi_seq, m)
    out = np.empty(xi_seq.shape)
    prior = np.full(xi_seq.shape[1], float(model.pi_b))
    for t in range(len(out)):
        out[t] = post = _combine(prior, log_l1[t], log_l0[t])
        prior = np.asarray(prior_propagate(model, post), dtype=float)
    return out
