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
frames directly from the local-value history, without buffers, and
:class:`RunningRingSums` keeps the same per-level aggregates across frames
for a history committed one frame at a time.  The sweep uses these; the
exchange remains the protocol model and the test oracle.
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
    layout = _AggregateLayout(tree)
    origin = frames.min() - layout.reach[0]
    stop = frames.max() + 1
    agg = layout.empty(origin, stop, float(pre))
    first = max(origin, 0)
    agg[first - origin:, :tree.n_cells] = x[first:max(stop, first)]
    for t in range(first, stop):
        layout.fuse(agg, origin, t)
    return layout.ring_sums(agg, origin, frames)


class RunningRingSums:
    """:func:`delayed_ring_sums` of a history that grows one frame at a time.

    Keeps every level's aggregate of every committed frame, in the layout
    ``delayed_ring_sums`` builds.  Committing frame t fuses only row t (one
    gather and one reduceat per level), and the ring sums of any frame from
    -1 to the last committed one are read from stored rows, equal bit for
    bit to ``delayed_ring_sums`` over the committed history with ``pre`` 0:
    values before frame 0 read as zero, as traffic does.
    """

    def __init__(self, tree: AggregationTree, n_frames: int):
        self._layout = _AggregateLayout(tree)
        self._origin = -1 - self._layout.reach[0]
        self._agg = self._layout.empty(self._origin, n_frames, 0.0)
        self._n_cells = tree.n_cells
        self.t = -1

    def commit(self, values) -> None:
        """Append the next frame's local values and fuse its aggregates."""
        t = self.t + 1
        self._agg[t - self._origin, :self._n_cells] = values
        self._layout.fuse(self._agg, self._origin, t)
        self.t = t

    def ring_sums(self, frame: int) -> np.ndarray:
        """(n_cells, depth+1) ring sums at ``frame``, like one frame of
        ``delayed_ring_sums``."""
        if not -1 <= frame <= self.t:
            raise ValueError(f"frame {frame} is not committed (last is {self.t})")
        return self._layout.ring_sums(self._agg, self._origin,
                                      np.array([frame]))[0]


class _AggregateLayout:
    """Every level's aggregates side by side in one (frames, clusters) array.

    Row r of an array with origin o holds frame o + r; level L's clusters
    are the columns ``columns[L]``, and frames before 0 hold the cluster
    size times the pre-start value.  Gathers are flat offsets from the row
    of the frame being fused or read.
    """

    def __init__(self, tree: AggregationTree):
        sizes = [len(level) for level in tree.levels]
        self.width = width = sum(sizes)
        off = np.concatenate(([0], np.cumsum(sizes)))
        self.columns = [slice(off[lvl], off[lvl + 1])
                        for lvl in range(len(sizes))]
        self.size = np.concatenate([np.bincount(ids, minlength=k) for ids, k
                                    in zip(tree.cluster_of, sizes)])
        edge = tree.delta[1:] - tree.delta[:-1]
        # level L is read at most reach[L] frames before a requested frame,
        # so its rows are needed from frame origin + lead[L] on
        edge_max = edge.max(axis=1, initial=0)
        self.reach = np.append(np.cumsum(edge_max[::-1])[::-1], 0)
        lead = self.reach[0] - self.reach
        # level L fuses its children's aggregates at their edge delays
        self.plan = [(lead[lvl], -lag * width + off[lvl - 1] + idx, seg,
                      self.columns[lvl])
                     for lvl, (idx, lag, seg) in enumerate(tree.fusion_plan(),
                                                            start=1)]
        # ring L of a cell: its level-L head's aggregate now, minus its
        # level-(L-1) head's aggregate one edge delay earlier
        self.own = np.ascontiguousarray((off[:-1, None] + tree.cluster_of).T)
        self.sub = np.ascontiguousarray(
            (-edge * width + off[:-2, None] + tree.cluster_of[:-1]).T)

    def empty(self, origin: int, stop: int, pre: float) -> np.ndarray:
        """Rows for frames origin .. stop-1 with the pre-start rows filled."""
        agg = np.empty((stop - origin, self.width))
        agg[:max(-origin, 0)] = self.size * pre
        return agg

    def fuse(self, agg, origin: int, t: int) -> None:
        """Fuse frame t >= 0 of every level >= 1 from the level below, in
        the exchange's order: one gather and one reduceat per level."""
        flat = agg.reshape(-1)
        row = t - origin
        at = row * self.width
        for lead, base, seg, cols in self.plan:
            if row >= lead:
                flat[at + cols.start:at + cols.stop] = \
                    np.add.reduceat(flat.take(base + at), seg)

    def ring_sums(self, agg, origin: int, frames) -> np.ndarray:
        """sigma[k, i, L] of the requested frames from the stored rows."""
        flat = agg.reshape(-1)
        at = ((frames - origin) * self.width)[:, None, None]
        sigma = flat.take(at + self.own)
        sigma[:, :, 1:] -= flat.take(at + self.sub)
        return sigma
