"""Two-state Markov occupancy dynamics of the licensed users.

Each cell's occupancy bit evolves independently: an empty cell becomes
occupied with probability nu1 per frame, an occupied one clears with
probability nu0.  The chain memory mu = 1 - nu1 - nu0 drives both the
steady-state mixing rate and the delay compensation used throughout the
estimators (k-step marginals decay towards the steady state as mu**k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OccupancyModel:
    """Per-cell occupancy chain with transition probabilities (nu1, nu0).

    Arithmetic is kept generic: constructing the model from
    ``fractions.Fraction`` values keeps ``mu``, ``pi_b`` and
    :func:`k_step_marginal` exact, which the composition tests rely on.
    Negative memory (nu1 + nu0 > 1) is rejected; delay compensation with
    oscillating chains is out of scope.
    """

    def __init__(self, nu1, nu0):
        if not (0 <= nu1 <= 1 and 0 <= nu0 <= 1):
            raise ValueError("nu1 and nu0 must lie in [0, 1]")
        if nu1 + nu0 > 1:
            raise ValueError("nu1 + nu0 must not exceed 1 (memory must be >= 0)")
        self.nu1 = nu1
        self.nu0 = nu0
        self.mu = 1 - nu1 - nu0
        total = nu1 + nu0
        self.pi_b = nu1 / total if total > 0 else nu1 * 0

    def __repr__(self):
        return f"OccupancyModel(nu1={self.nu1}, nu0={self.nu0})"


@dataclass
class OccupancyState:
    """Occupancy bits of every cell at frame t."""

    b: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.int8)
        if not np.isin(self.b, (0, 1)).all():
            raise ValueError("occupancy entries must be 0 or 1")


def sample_steady_state(model: OccupancyModel, n_cells: int, rng) -> OccupancyState:
    """Draw every cell independently from the stationary distribution."""
    b = (rng.random(n_cells) < float(model.pi_b)).astype(np.int8)
    return OccupancyState(b=b, t=0)


def step_occupancy(model: OccupancyModel, state: OccupancyState, rng) -> OccupancyState:
    """Advance every cell one frame under the (nu1, nu0) transition law."""
    nxt = occupancy_chain(model, state.b, rng.random((1, len(state.b))))[1]
    return OccupancyState(b=nxt, t=state.t + 1)


def occupancy_chain(model: OccupancyModel, b0, u) -> np.ndarray:
    """(len(u) + 1, cells) int8 occupancy rows: ``b0``, then one frame per
    row of uniforms ``u``.  An occupied cell stays occupied when its draw is
    at least nu0, and an empty one becomes occupied when it is below nu1."""
    stay = u >= float(model.nu0)
    arrive = u < float(model.nu1)
    rows = np.empty((len(u) + 1, len(b0)), dtype=np.int8)
    rows[0] = b0
    occupied = rows.view(bool)  # the rows hold only 0 and 1
    for t in range(len(u)):
        rows[t + 1] = np.where(occupied[t], stay[t], arrive[t])
    return rows


def k_step_marginal(model: OccupancyModel, b_prob, delta: int):
    """P(occupied at t) given P(occupied at t - delta) = b_prob.

    Chapman-Kolmogorov for the two-state chain collapses to
    pi_b + mu**delta * (b_prob - pi_b).
    """
    if delta < 0 or delta != int(delta):
        raise ValueError("delta must be a nonnegative integer")
    return model.pi_b + model.mu ** int(delta) * (b_prob - model.pi_b)
