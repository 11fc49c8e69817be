"""Per-frame hierarchical information exchange over an aggregation tree.

Every frame, cell heads push their local estimates up the tree: a level-L
head reads each child's running aggregate at that child's edge delay and sums
them.  Reads target strictly older buffer slots, so the synchronous in-memory
sweep is observationally identical to asynchronous message passing with the
stated integer delays.  Each cell then extracts its multi-scale view: the
difference between its level-L head's current aggregate and its level-(L-1)
head's aggregate one edge-delay ago isolates exactly the cells at h-distance
L, each observed at its own accumulated delay.

Values buffered before frame 0 are represented by the steady-state
expectation (cluster size times the configured steady value), which keeps the
telescoping identity between aggregates and delayed locals exact from the
very first frame.

That identity also gives the exchange's output in closed form:
:func:`delayed_ring_sums` computes the multi-scale estimates of any set of
frames directly from the local-value history, without buffers.  The sweep
uses it; the exchange remains the protocol model and the test oracle.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import AggregationTree


class BufferUnderrunError(RuntimeError):
    """A read fell off the retained history: the buffer was sized too small."""


class HierarchicalExchange:
    """Mutable per-trial buffers realizing the exchange protocol.

    ``steady_value`` is the per-cell placeholder for pre-start frames
    (the steady-state occupancy probability for belief aggregation, zero for
    traffic aggregation).  ``track_locals`` retains the full local-value
    history so tests can assert the aggregate/delayed-local identity.
    """

    def __init__(self, tree: AggregationTree, steady_value: float,
                 history_len: int | None = None, track_locals: bool = False):
        self.tree = tree
        self.steady_value = float(steady_value)
        self.window = int(history_len) if history_len is not None \
            else tree.total_edge_delay_sum + 1
        if self.window < 1:
            raise ValueError("history length must be >= 1")
        self._t = -1
        self._buffers = [np.zeros((len(lv), self.window)) for lv in tree.levels]
        self._placeholder = [
            np.array([len(c.members) * self.steady_value for c in lv])
            for lv in tree.levels
        ]
        self._plan = tree.fusion_plan()
        self._locals: list[np.ndarray] | None = [] if track_locals else None

    @property
    def t(self) -> int:
        return self._t

    def _read_vec(self, level: int, cluster_idx, tau) -> np.ndarray:
        """Buffered aggregates S at the given (possibly pre-start) frames."""
        cluster_idx = np.asarray(cluster_idx, dtype=int)
        tau = np.asarray(tau, dtype=int)
        pre = tau < 0
        if ((~pre) & (tau <= self._t - self.window)).any() or (tau > self._t).any():
            raise BufferUnderrunError(
                f"read at level {level} outside the {self.window}-frame window "
                f"(t={self._t}); increase history_len")
        out = self._buffers[level][cluster_idx, tau % self.window]
        if pre.any():
            out = np.where(pre, self._placeholder[level][cluster_idx], out)
        return out

    def read(self, level: int, cluster_idx: int, tau: int) -> float:
        return float(self._read_vec(level, [cluster_idx], [tau])[0])

    def advance_frame(self, local_values, t: int) -> None:
        """Ingest frame-t local estimates and fuse every level bottom-up."""
        if t != self._t + 1:
            raise ValueError(f"frames must advance one at a time (got {t}, "
                             f"expected {self._t + 1})")
        local_values = np.asarray(local_values, dtype=float)
        if local_values.shape != (self.tree.n_cells,):
            raise ValueError("need exactly one local estimate per cell")
        self._t = t
        slot = t % self.window
        self._buffers[0][:, slot] = local_values
        for lvl, (idx, lag, seg) in enumerate(self._plan, start=1):
            vals = self._read_vec(lvl - 1, idx, t - lag)
            self._buffers[lvl][:, slot] = np.add.reduceat(vals, seg)
        if self._locals is not None:
            self._locals.append(local_values.copy())

    def compute_sigma(self, i: int, t: int) -> np.ndarray:
        """Multi-scale estimate vector sigma_i^(0..D) as of frame t."""
        return self.sigma_all(t)[i]

    def sigma_all(self, t: int) -> np.ndarray:
        """(n_cells, depth+1) multi-scale estimates for every cell at frame t."""
        if t != self._t:
            raise ValueError("sigma is extracted at the frame just advanced")
        tree = self.tree
        n, depth = tree.n_cells, tree.depth
        sigma = np.zeros((n, depth + 1))
        sigma[:, 0] = self._buffers[0][:, t % self.window]
        cells = np.arange(n)
        for lvl in range(1, depth + 1):
            own_head = tree.cluster_of[lvl]
            sub_head = tree.cluster_of[lvl - 1]
            edge = tree.delta[lvl] - tree.delta[lvl - 1]
            sigma[:, lvl] = (self._read_vec(lvl, own_head, np.full(n, t))
                             - self._read_vec(lvl - 1, sub_head[cells], t - edge))
        return sigma

    def trace_rows(self, t: int):
        """(level, head index, aggregate value) rows for the current frame."""
        if t != self._t:
            raise ValueError("trace reflects the frame just advanced")
        rows = []
        for lvl, buf in enumerate(self._buffers):
            for k in range(buf.shape[0]):
                rows.append((lvl, k, float(buf[k, t % self.window])))
        return rows

    # ----------------------------------------------------------------- oracles

    def local_history(self, j: int, tau: int) -> float:
        """Tracked local value of cell j at frame tau (steady value before 0)."""
        if self._locals is None:
            raise RuntimeError("exchange was not constructed with track_locals")
        if tau < 0:
            return self.steady_value
        return float(self._locals[tau][j])

    def aggregate_identity_residual(self, t: int) -> float:
        """Max |S_m^(L) - sum of members' delayed locals| over all nodes.

        The telescoping of per-level fusion with the delay recursion makes
        this zero up to floating-point summation error; tests pin it at 1e-9.
        """
        if t != self._t:
            raise ValueError("residual is evaluated at the frame just advanced")
        worst = 0.0
        for lvl in range(self.tree.depth + 1):
            for node in self.tree.levels[lvl]:
                s = self.read(lvl, node.index, t)
                direct = sum(self.local_history(j, t - self.tree.delta[lvl, j])
                             for j in node.members)
                worst = max(worst, abs(s - direct))
        return worst


def delayed_ring_sums(tree: AggregationTree, x, pre: float, frames
                      ) -> np.ndarray:
    """Multi-scale estimates of every cell at the given frames, in closed form.

    Returns sigma[k, i, L] = sum over the cells j at h-distance L from i of
    x[frames[k] - delta_L(j), j], with x before frame 0 read as ``pre``: what
    an exchange fed the rows of ``x`` (steady value ``pre``) returns from
    ``sigma_all(frames[k])``.  Aggregates are fused level by level in the
    exchange's order, over just the frames the requested ones read, so the
    two agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    frames = np.asarray(frames, dtype=int)
    pre = float(pre)
    # level L is read at most reach[L] frames before the earliest request
    edge_max = (tree.delta[1:] - tree.delta[:-1]).max(axis=1, initial=0)
    reach = np.append(np.cumsum(edge_max[::-1])[::-1], 0)
    start = frames.min() - reach
    stop = frames.max() + 1
    tau = np.arange(start[0], stop)
    agg = [np.where((tau < 0)[:, None], pre, x[np.maximum(tau, 0)])]
    for lvl, (idx, lag, seg) in enumerate(tree.fusion_plan(), start=1):
        tau = np.arange(start[lvl], stop)
        vals = agg[-1][tau[:, None] - lag[None, :] - start[lvl - 1], idx]
        size = np.bincount(tree.cluster_of[lvl], minlength=len(seg))
        agg.append(np.where((tau < 0)[:, None], size * pre,
                            np.add.reduceat(vals, seg, axis=1)))

    sigma = np.empty((len(frames), tree.n_cells, tree.depth + 1))
    sigma[:, :, 0] = agg[0][frames - start[0]]
    for lvl in range(1, tree.depth + 1):
        own = agg[lvl][frames - start[lvl]][:, tree.cluster_of[lvl]]
        edge = tree.delta[lvl] - tree.delta[lvl - 1]
        sub = agg[lvl - 1][frames[:, None] - edge[None, :] - start[lvl - 1],
                           tree.cluster_of[lvl - 1][None, :]]
        sigma[:, :, lvl] = own - sub
    return sigma
