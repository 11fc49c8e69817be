"""From multi-scale estimates to beliefs and interference estimates.

The per-cell marginal occupancy given a ring aggregate has a closed form:
the ring average, pulled towards the steady state by mu raised to that
cell's delay.  Summing those marginals against the interference weights
gives the estimated licensed-user interference as an affine function of the
ring aggregates, with precomputable delay-compensated weights.

For small noiseless instances the full joint belief can be enumerated: it
factorizes over rings, and within a ring the conditional law given the
(exactly observed) delayed aggregate is uniform over permutations, each
pushed to the present through per-cell transition factors.  That enumerator
is the reference oracle against which the closed forms are tested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OccupancyModel
from .hierarchy import AggregationTree
from .sensing import SensorModel
from .topology import _phi_array, coupling_matrix


@dataclass(frozen=True)
class DelayCompensatedWeights:
    """Interference weights of every cell, total and per h-distance ring.

    phi_tot[i] sums phi[j, i] / phi[i, i] over the whole network; the ring
    weights additionally discount each contributor by mu to its delay, so
    with all delays zero the reachable ring weights sum back to phi_tot.
    """

    phi_tot: np.ndarray
    phi_del: np.ndarray
    ring_size: np.ndarray

    def __post_init__(self):
        if self.phi_del.shape != self.ring_size.shape \
                or self.phi_del.shape[0] != self.phi_tot.shape[0]:
            raise ValueError("weight array shapes disagree")


def compute_weights(tree: AggregationTree, phi, mu: float | tuple[float, ...]
                    ) -> DelayCompensatedWeights | tuple:
    """The tree's interference weights discounted by the occupancy memory
    ``mu``; for a tuple of memories, one set of weights per entry, all from
    one h-distance pass."""
    if _phi_array(phi).shape[0] != tree.n_cells:
        raise ValueError("phi and tree disagree on the cell count")
    w = coupling_matrix(phi)
    phi_tot = w.sum(axis=0)
    n, rings = tree.n_cells, tree.depth + 1
    # ring[i, j]: the h-distance from i to j, or depth + 1 when unreachable
    ring = np.zeros((n, n), dtype=np.min_scalar_type(rings))
    for ids in tree.cluster_of:
        ring += ids[:, None] != ids[None, :]
    # one bincount over (cell, ring) bins adds each bin in ascending j; an
    # unreachable pair adds +0.0 to the last ring, which changes no sum
    bins = (np.minimum(ring, rings - 1) + np.arange(n)[:, None] * rings).ravel()
    delta, ring_size = tree.delta.astype(float), tree.ring_size_matrix()
    out = []
    for m in (mu if isinstance(mu, tuple) else (mu,)):
        discount = np.vstack([float(m) ** delta, np.zeros(n)])
        g = discount[ring, np.arange(n)] * w.T  # m**delta[ring[i, j], j] * w[j, i]
        phi_del = np.bincount(bins, g.ravel(), n * rings).reshape(n, rings)
        out.append(DelayCompensatedWeights(phi_tot=phi_tot, phi_del=phi_del,
                                           ring_size=ring_size))
    return tuple(out) if isinstance(mu, tuple) else out[0]


def marginal_occupancy(sigma_l, ring_size: int, delta_j: int,
                       model: OccupancyModel):
    """P(cell occupied now) from the delayed ring aggregate it belongs to."""
    if ring_size < 1:
        raise ValueError("ring_size must be >= 1")
    if np.any(np.asarray(sigma_l) < 0) or np.any(np.asarray(sigma_l) > ring_size):
        raise ValueError("aggregate must lie in [0, ring size]")
    return model.pi_b + model.mu ** int(delta_j) * (sigma_l / ring_size - model.pi_b)


def estimate_ip(sigma, weights: DelayCompensatedWeights, model: OccupancyModel
                ) -> np.ndarray:
    """Estimated licensed-user interference per cell (affine in the aggregates).

    ``sigma`` is one frame's (n_cells, depth+1) aggregates or a stack of
    frames with a leading frame axis; the result has the same leading axes.
    Empty or unreachable rings contribute no correction, leaving those cells
    at their steady-state prior inside phi_tot.
    """
    sig = np.asarray(sigma)
    if sig.shape[-2:] != weights.phi_del.shape:
        raise ValueError("sigma and weights disagree on shape")
    pi_b = float(model.pi_b)
    size = weights.ring_size
    if (sig < -1e-9).any() or (sig > size + 1e-9).any():
        raise ValueError("aggregates must lie within ring bounds")
    with np.errstate(invalid="ignore"):
        corr = np.where(size > 0, sig / np.maximum(size, 1) - pi_b, 0.0)
    ip = pi_b * weights.phi_tot + (corr * weights.phi_del).sum(axis=-1)
    return np.maximum(ip, 0.0)


def estimate_is_oracle(coupling, prev_traffic) -> np.ndarray:
    """SU interference from the previous frame's committed traffic.

    ``coupling`` is ``topology.coupling_matrix(phi)``, built once per trial.
    """
    a = np.asarray(prev_traffic, dtype=float)
    return a @ coupling - a  # drop the own-cell term (weight 1)


def estimate_is_hierarchical(sigma_traffic, weights_uncompensated:
                             DelayCompensatedWeights) -> np.ndarray:
    """SU interference from hierarchically aggregated traffic.

    Traffic has no known transition kernel, so no memory compensation is
    applied (the weights must be built with mu = 1) and the prior is zero:
    unreachable cells simply contribute nothing.
    """
    sig = np.asarray(sigma_traffic)
    w = weights_uncompensated
    # an empty ring's sum and phi_del are both exactly zero
    avg = sig / np.maximum(w.ring_size, 1)
    # ring 0 is the cell itself, excluded from the mutual-interference sum
    return (avg[:, 1:] * w.phi_del[:, 1:]).sum(axis=1)


@dataclass
class BeliefTable:
    """Exact joint occupancy belief over all cells (bit j of the index = b_j)."""

    n_cells: int
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.shape != (2 ** self.n_cells,):
            raise ValueError("belief table has the wrong size")
        if (self.probs < 0).any():
            raise ValueError("beliefs must be nonnegative")

    def total(self) -> float:
        return float(self.probs.sum())

    def prob(self, b) -> float:
        idx = 0
        for j, bit in enumerate(b):
            idx |= (int(bit) & 1) << j
        return float(self.probs[idx])

    def marginal(self, j: int) -> float:
        idx = np.arange(2 ** self.n_cells)
        return float(self.probs[(idx >> j) & 1 == 1].sum())


def _ring_factor(members, delays, sigma_l: int, model: OccupancyModel
                 ) -> np.ndarray:
    """Law of the ring's current bits given its delayed aggregate equals sigma_l.

    Conditioned on the aggregate, the delayed bits are uniform over the
    sigma_l-subsets of the ring; each configuration is pushed to the present
    by per-cell transition factors and the mixture is returned as a table
    over the 2**s current-bit patterns (bit k = members[k]).
    """
    s = len(members)
    pi_b = float(model.pi_b)
    mu = float(model.mu)
    t1 = np.array([pi_b + mu ** int(d) * (1.0 - pi_b) for d in delays])
    t0 = np.array([pi_b + mu ** int(d) * (0.0 - pi_b) for d in delays])
    weight = (math.factorial(sigma_l) * math.factorial(s - sigma_l)
              / math.factorial(s))
    table = np.zeros(2 ** s)
    for ones in itertools.combinations(range(s), sigma_l):
        p_one = t0.copy()
        p_one[list(ones)] = t1[list(ones)]
        for idx in range(2 ** s):
            bits = (idx >> np.arange(s)) & 1
            table[idx] += np.where(bits == 1, p_one, 1.0 - p_one).prod()
    return weight * table


def exact_belief(sigma_history, tree: AggregationTree, model: OccupancyModel,
                 cell: int, sensor: SensorModel | None = None) -> BeliefTable:
    """Enumerate the exact joint belief of one cell on a small instance.

    Requires noiseless sensing: the delayed aggregates are then observed
    directly, so the aggregate-distribution factor collapses to a point mass
    at the latest observation and the history adds nothing further.  Cells
    outside every ring (disconnected subtrees) enter as independent
    steady-state draws.
    """
    if sensor is not None and not sensor.noiseless:
        raise ValueError("the exact enumerator requires noiseless sensing")
    n = tree.n_cells
    if n > 12:
        raise ValueError("exact enumeration is limited to small instances")
    hist = np.atleast_2d(np.asarray(sigma_history, dtype=float))
    if hist.shape[1] != tree.depth + 1:
        raise ValueError("sigma history must have depth+1 columns")

    rings = tree.ring_sets(cell)
    sizes = [len(r) for r in rings]
    for lvl, s in enumerate(sizes):
        if (hist[:, lvl] < -1e-9).any() or (hist[:, lvl] > s + 1e-9).any():
            raise ValueError(f"sigma history violates ring bounds at level {lvl}")
    # warm-up rows may carry fractional steady-state placeholders; only the
    # latest aggregates pin the point mass and must be genuine counts
    if (np.abs(hist[-1] - np.rint(hist[-1])) > 1e-9).any():
        raise ValueError("noiseless aggregates must be integral")
    latest = np.rint(hist[-1]).astype(int)

    probs = np.ones(2 ** n)
    idx = np.arange(2 ** n)
    covered = np.zeros(n, dtype=bool)
    for lvl, ring in enumerate(rings):
        if len(ring) == 0:
            continue
        covered[ring] = True
        table = _ring_factor(list(ring), tree.delta[lvl][ring], latest[lvl], model)
        sub = np.zeros(2 ** n, dtype=int)
        for k, j in enumerate(ring):
            sub |= ((idx >> int(j)) & 1) << k
        probs *= table[sub]
    pi_b = float(model.pi_b)
    for j in np.flatnonzero(~covered):
        bit = (idx >> int(j)) & 1
        probs *= np.where(bit == 1, pi_b, 1.0 - pi_b)

    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"belief table failed to normalize: sum={total}")
    return BeliefTable(n_cells=n, probs=probs / total)
