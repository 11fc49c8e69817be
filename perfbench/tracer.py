"""Span tracing of hiersense's layers from outside the package.

While a ``Tracer`` is active, each target function is replaced by a wrapper
that records one span around the call: its name, the span that was open when
it was called (its parent), and its start and end times.  Targets are
replaced under the names through which the CLI and the harness call them
(``harness.build_ibt``, ``control.optimal_traffic``,
``HierarchicalExchange.advance_frame``, ...), so the package's source is
untouched and every wrapped call returns exactly what it would have.

A span's self time is its duration minus the time covered by its direct
children.  Layer metrics are sums of self times, plus exact counts computed
from the wrapped calls' arguments and results.  Counting runs after the
span's end and is excluded from the parent's self time, so it only shows in
the tracing overhead.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np

from hiersense import cli, control, harness
from hiersense.aggregation import HierarchicalExchange
from hiersense.harness import SweepResult, Simulation


# ----------------------------------------------------------------------------
# Exact counts, computed from the arguments and results of wrapped calls


def _count_topology(counts, topology, *args, **kwargs):
    n = topology.cell_count
    counts["topology.los_pair_tests"] += n * (n - 1) // 2 * len(topology.blockages)


def _count_tree(counts, tree, *args, **kwargs):
    counts["hierarchy.merges"] += len(tree.merge_log)
    counts["hierarchy.depth_max"] = max(counts["hierarchy.depth_max"], tree.depth)


def _count_exchange(counts, _, exchange, tree, *args, **kwargs):
    clusters = sum(len(level) for level in tree.levels)
    counts["aggregation.buffer_bytes"] += clusters * exchange.window * 8


def _count_frame(counts, *args, **kwargs):
    counts["aggregation.frames"] += 1


def _count_point(counts, _, ctx, *args, **kwargs):
    counts["harness.points"] += 1
    counts["harness.measured_frames"] += ctx.config.frames
    counts["harness.total_frames"] += ctx.t_total


def _count_decision(counts, a, ip, is_, m, phi_ii, model, params, a_max=None):
    m = np.asarray(m, dtype=float)
    rail = np.inf if a_max is None else float(a_max)
    upper = np.where(np.isinf(m), rail, m)
    a = np.asarray(a)
    counts["control.clipped"] += int(np.count_nonzero((a <= 0.0) | (a >= upper)))
    counts["control.decisions"] += a.size


def _count_sensing(counts, *args, **kwargs):
    counts["sensing.updates"] += 1


def _count_step(counts, *args, **kwargs):
    counts["dynamics.steps"] += 1


# ----------------------------------------------------------------------------
# Targets: (owner, attribute, span name, layer metric, counter)

ROOT_SPAN = "cli.main"
SETUP_SPAN = "harness.prepare_trial"
FRAME_SPAN = "harness.run_frame"

LAYER_TARGETS = (
    (harness, "prepare_trial", SETUP_SPAN, "harness.setup_self_s", None),
    (cli, "main", ROOT_SPAN, "cli.self_s", None),
    (cli, "cmd_sweep", "cli.cmd_sweep", "cli.self_s", None),
    (cli, "load_config", "cli.load_config", "cli.config_s", None),
    (cli, "run_experiment", "harness.run_experiment", "harness.loop_self_s",
     None),
    (SweepResult, "write_csv", "cli.write_csv", "cli.write_s", None),
    (SweepResult, "write_summary_csv", "cli.write_summary_csv", "cli.write_s",
     None),
    # set-up
    (harness, "prepare_scheme", "harness.prepare_scheme",
     "harness.setup_self_s", None),
    (harness, "_build_fading_layout", "harness.build_fading_layout",
     "harness.setup_self_s", None),
    (harness, "build_topology", "topology.build_topology", "topology.build_s",
     _count_topology),
    (harness, "compute_phi", "topology.compute_phi", "topology.phi_s", None),
    (harness, "build_ibt", "hierarchy.build_ibt", "hierarchy.build_ibt_s",
     _count_tree),
    (harness, "build_random_tree", "hierarchy.build_random_tree",
     "hierarchy.build_rt_s", _count_tree),
    (harness, "compute_weights", "inference.compute_weights",
     "inference.weights_s", None),
    (harness, "_simulate_occupancy", "dynamics.simulate_occupancy",
     "dynamics.step_s", None),
    (harness, "sample_steady_state", "dynamics.sample_steady_state",
     "dynamics.step_s", None),
    (harness, "step_occupancy", "dynamics.step_occupancy", "dynamics.step_s",
     _count_step),
    (harness, "_simulate_sensing", "sensing.simulate_sensing",
     "sensing.filter_s", None),
    (harness, "sample_detection_count", "sensing.sample_detection_count",
     "sensing.filter_s", None),
    (harness, "posterior_update", "sensing.posterior_update",
     "sensing.filter_s", _count_sensing),
    (harness, "prior_propagate", "sensing.prior_propagate", "sensing.filter_s",
     None),
    # frame loop
    (harness, "run_trial_point", "harness.run_trial_point",
     "harness.loop_self_s", _count_point),
    (Simulation, "run_frame", FRAME_SPAN, "harness.frame_self_s", None),
    (HierarchicalExchange, "__init__", "aggregation.init", "aggregation.init_s",
     _count_exchange),
    (HierarchicalExchange, "advance_frame", "aggregation.advance_frame",
     "aggregation.advance_s", _count_frame),
    (HierarchicalExchange, "sigma_all", "aggregation.sigma_all",
     "aggregation.sigma_s", None),
    (harness, "estimate_ip", "inference.estimate_ip", "inference.estimate_ip_s",
     None),
    (harness, "estimate_is_oracle", "inference.estimate_is_oracle",
     "inference.estimate_is_s", None),
    (harness, "estimate_is_hierarchical", "inference.estimate_is_hierarchical",
     "inference.estimate_is_s", None),
    (control, "full_nsi_ip", "control.full_nsi_ip", "control.baseline_ip_s",
     None),
    (control, "radius_nsi_ip", "control.radius_nsi_ip", "control.baseline_ip_s",
     None),
    (control, "consensus_ip", "control.consensus_ip", "control.baseline_ip_s",
     None),
    (control, "optimal_traffic", "control.optimal_traffic", "control.decide_s",
     _count_decision),
    (control, "uncoordinated_traffic", "control.uncoordinated_traffic",
     "control.decide_s", None),
    (control, "utility", "control.utility", "control.score_s", None),
    (control, "network_inr", "control.network_inr", "control.score_s", None),
    (control, "throughput_lb", "control.throughput_lb", "control.score_s", None),
    (harness, "eval_fading_success", "harness.eval_fading_success",
     "harness.eval_s", None),
)

# The frame's own call of the throughput bound is the analytic_lb evaluation
# mode, the counterpart of eval_fading_success under fading_mc; called from
# control.utility it is part of scoring the decision.
EVAL_BY_PARENT = {("control.throughput_lb", FRAME_SPAN): "harness.eval_s"}

COUNT_METRICS = ("topology.los_pair_tests", "hierarchy.merges",
                 "hierarchy.depth_max", "aggregation.frames",
                 "aggregation.buffer_bytes", "harness.points",
                 "sensing.updates", "dynamics.steps")
RATIO_METRICS = ("harness.measured_frame_ratio", "control.clip_ratio")

# The untraced sweeps that give the end-to-end metrics time only set-up.
SETUP_TARGETS = tuple(t[:4] + (None,) for t in LAYER_TARGETS
                      if t[2] == SETUP_SPAN)


class Tracer:
    """Context manager that wraps ``targets`` and collects their spans."""

    def __init__(self, targets=LAYER_TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, t1)
            if counter is not None:
                counter(counts, out, *args, **kwargs)
                spans[idx] = (name, parent, t0, t1, perf_counter())
            return out

        return traced

    def __enter__(self):
        for owner, attr, name, _, counter in self.targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    # ------------------------------------------------------------- analysis

    def total(self, span_name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s[3] - s[2] for s in self.spans if s[0] == span_name)

    def own_times(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """Name, parent and self seconds of every span, in call order."""
        spans = self.spans
        names = tuple(s[0] for s in spans)
        parent = np.array([s[1] for s in spans], dtype=int)
        t0, t1, t2 = (np.array([s[k] for s in spans]) for k in (2, 3, 4))
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=(t2 - t0)[nested],
                              minlength=len(names))
        return names, parent, (t1 - t0) - covered

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per layer metric."""
        return metric_sums(self.targets, *self.own_times())

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer time, count and ratio of one traced sweep."""
        out = self.self_times()
        c = self.counts
        for key in COUNT_METRICS:
            out[key] = int(c[key])
        out["harness.measured_frame_ratio"] = \
            c["harness.measured_frames"] / max(c["harness.total_frames"], 1)
        out["control.clip_ratio"] = \
            c["control.clipped"] / max(c["control.decisions"], 1)
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span: id, parent id, name, start, end."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for k, (name, parent, t0, t1, _) in enumerate(self.spans):
                fh.write(f"{k},{parent},{name},{t0 - base:.9f},{t1 - base:.9f}\n")


def metric_sums(targets, names, parent, own) -> dict[str, float]:
    """Self seconds of the spans summed per layer metric of ``targets``."""
    metric_of = {t[2]: t[3] for t in targets}
    out = dict.fromkeys(dict.fromkeys(metric_of.values()), 0.0)
    for k, name in enumerate(names):
        pname = names[parent[k]] if parent[k] >= 0 else None
        metric = EVAL_BY_PARENT.get((name, pname), metric_of[name])
        out[metric] += float(own[k])
    return out
