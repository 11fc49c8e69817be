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
very first frame; :func:`identity_residual` checks that identity.

:class:`RunningRingSums` keeps the same per-level aggregates for every
frame of a history committed frame by frame or in blocks, without a
bounded window, and reads any committed frame's aggregates and multi-scale
estimates from them.  The sweep, ``simulate --trace`` and ``validate`` use
it; :class:`HierarchicalExchange` models the bounded-buffer protocol and is
the test oracle the engine is checked against.
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
    traffic aggregation).
    """

    def __init__(self, tree: AggregationTree, steady_value: float,
                 history_len: int | None = None):
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

    def aggregates(self, t: int) -> np.ndarray:
        """Every cluster's aggregate at frame t, level by level."""
        if t != self._t:
            raise ValueError("aggregates are read at the frame just advanced")
        slot = t % self.window
        return np.concatenate([buf[:, slot] for buf in self._buffers])


class RunningRingSums:
    """Every level's aggregate of every frame of a local-value history.

    Row r of one (frames, clusters) array holds frame r - 1 - reach (reach:
    the sum over levels of the longest edge delay), each level's clusters
    after those of the level below; gathers are flat offsets from a row.
    Rows before frame 0 hold the cluster size times ``pre``, each cell's
    pre-start value.  Committing a frame fuses its row in the exchange's
    order, one gather and one reduceat per level, so the ring sums of a
    committed frame equal the exchange's ``sigma_all`` bit for bit.
    """

    def __init__(self, tree: AggregationTree, n_frames: int, pre: float = 0.0):
        size = np.array([len(c.members) for lv in tree.levels for c in lv])
        self._width = width = len(size)
        off = np.cumsum([0] + [len(level) for level in tree.levels])
        self._origin = -1 - tree.total_edge_delay_sum
        self._agg = np.empty((n_frames - self._origin, width))
        self._agg[:-self._origin] = size * float(pre)
        self._flat = self._agg.reshape(-1)
        # level L fuses its children's aggregates at their edge delays
        self._plan = [(-lag * width + off[lvl - 1] + idx, seg, off[lvl],
                       off[lvl + 1])
                      for lvl, (idx, lag, seg) in enumerate(tree.fusion_plan(),
                                                            start=1)]
        # ring L of a cell: its level-L head's aggregate now, minus its
        # level-(L-1) head's aggregate one edge delay earlier
        edge = tree.delta[1:] - tree.delta[:-1]
        self._own = np.ascontiguousarray((off[:-1, None] + tree.cluster_of).T)
        self._sub = np.ascontiguousarray(
            (-edge * width + off[:-2, None] + tree.cluster_of[:-1]).T)
        self._n_cells = tree.n_cells
        self.t = -1

    def commit(self, values) -> None:
        """Append the next frame's local values, (n_cells,), or the next
        frames', (frames, n_cells), and fuse their aggregates."""
        block = np.atleast_2d(values)
        first = self.t + 1 - self._origin
        self._agg[first:first + len(block), :self._n_cells] = block
        flat = self._flat
        for row in range(first, first + len(block)):
            at = row * self._width
            for base, seg, start, stop in self._plan:
                flat[at + start:at + stop] = \
                    np.add.reduceat(flat.take(base + at), seg)
        self.t += len(block)

    def _rows(self, frames) -> np.ndarray:
        """Row indices of frames from -1 to the last commit."""
        frames = np.asarray(frames, dtype=int)
        if (frames < -1).any() or (frames > self.t).any():
            raise ValueError(f"frame {frames.tolist()} not committed "
                             f"(last is {self.t})")
        return frames - self._origin

    def aggregates(self, t: int) -> np.ndarray:
        """Every cluster's aggregate at committed frame t, level by level,
        each level's clusters in index order."""
        return self._agg[self._rows(t)].copy()

    def ring_sums(self, frames) -> np.ndarray:
        """(n_cells, depth+1) ring sums at a frame, or (frames, n_cells,
        depth+1) at an array of frames, each from -1 to the last commit."""
        at = (self._rows(frames) * self._width)[..., None, None]
        sigma = self._flat.take(at + self._own)
        sigma[..., 1:] -= self._flat.take(at + self._sub)
        return sigma


def identity_residual(tree: AggregationTree, aggregates, history, t: int,
                      pre: float) -> float:
    """Max |aggregate - sum of its members' delayed locals| over the
    clusters of one frame's ``aggregates`` row (level by level, as
    :meth:`RunningRingSums.aggregates` returns it).

    Member j of a level-L cluster enters as ``history[t - delta_L(j), j]``,
    or as ``pre`` before frame 0.  The telescoping of per-level fusion with
    the delay recursion makes this zero up to floating-point summation
    error.
    """
    history = np.asarray(history, dtype=float)
    cells = np.arange(tree.n_cells)
    direct = []
    for lvl, level in enumerate(tree.levels):
        tau = t - tree.delta[lvl]
        delayed = np.where(tau < 0, pre, history[np.maximum(tau, 0), cells])
        direct.append(np.bincount(tree.cluster_of[lvl], weights=delayed,
                                  minlength=len(level)))
    return float(np.abs(np.asarray(aggregates) - np.concatenate(direct)).max())
