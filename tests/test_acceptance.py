"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Grid choices were calibrated so every scheme's sweep brackets its 0 dB INR
crossing densely; seeds are fixed, so reruns are bit-identical.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hiersense import (ControlParams, ExperimentConfig, HierarchicalExchange,
                       OccupancyModel, SchemeSpec,
                       SensorModel, build_ibt, build_topology, compute_phi,
                       eval_fading_success, exact_belief, exact_throughput,
                       k_step_marginal, marginal_occupancy, optimal_traffic,
                       posterior_update, prior_propagate, run_experiment,
                       sample_detection_count, sample_steady_state,
                       step_occupancy, throughput_lb, utility)
from hiersense.aggregation import identity_residual
from hiersense.harness import FadingLayout
from hiersense.topology import PathlossParams
from tests.conftest import random_phi
from tests.test_control import grid_argmax
from tests.test_inference import random_depth2_tree, simulate_sigma_histories

MODEL = OccupancyModel(0.005, 0.095)


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def paired_sem(diffs):
    diffs = np.asarray(diffs, dtype=float)
    return float(diffs.std(ddof=1) / math.sqrt(len(diffs)))


def nearest_zero_db(result, scheme):
    """Grid value and trial rows at the scheme's INR point closest to 0 dB."""
    best = None
    for gval, rows in result.groups(scheme).items():
        inr_db = 10 * math.log10(np.mean([r.mean_inr_linear for r in rows]))
        if best is None or abs(inr_db) < abs(best[1]):
            best = (gval, inr_db, rows)
    return best


def test_criterion_1_exact_belief_matches_closed_form():
    """Exact joint-belief enumeration vs the closed-form marginal, 100x."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        tree = random_depth2_tree(rng, delay_choices=(0, 1, 2))
        _, sig = simulate_sigma_histories(tree, MODEL, 10, rng)
        for i in range(4):
            belief = exact_belief(sig[i], tree, MODEL, i, SensorModel(0, 0))
            sigma_t = sig[i][-1]
            for lvl, ring in enumerate(tree.ring_sets(i)):
                for j in ring:
                    closed = marginal_occupancy(sigma_t[lvl], len(ring),
                                                int(tree.delta[lvl, j]), MODEL)
                    worst = max(worst,
                                abs(belief.marginal(int(j)) - float(closed)))
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed <= 60.0,
           f"max |enumeration - closed form| = {worst:.3e} (tol 1e-12), "
           f"{elapsed:.1f}s (limit 60s)")


def test_criterion_2_aggregate_identity_holds_every_frame():
    """Aggregates equal delayed local estimates on a delayed 8x8 tree."""
    rng = np.random.default_rng(102)
    topo = build_topology("grid", 64, (800.0, 800.0), 1, rng_seed=42)
    phi = compute_phi(topo, PathlossParams())
    tree = build_ibt(topo, phi, 0.9, gamma_delay=0.02)
    assert tree.delta.max() > 0
    sensor = SensorModel(0.05, 0.1)
    ex = HierarchicalExchange(tree, 0.05)
    state = sample_steady_state(MODEL, 64, rng)
    prior = np.full(64, 0.05)
    m = np.full(64, 4)
    posteriors = np.zeros((500, 64))
    worst = 0.0
    for t in range(500):
        xi = sample_detection_count(sensor, state.b, m, rng)
        post = np.asarray(posterior_update(sensor, prior, xi, m))
        posteriors[t] = post
        ex.advance_frame(post, t)
        worst = max(worst, identity_residual(tree, ex.aggregates(t),
                                             posteriors, t, 0.05))
        prior = np.asarray(prior_propagate(MODEL, post))
        state = step_occupancy(MODEL, state, rng)
    report(2, worst <= 1e-9,
           f"max aggregate/delayed-local residual over 500 frames x "
           f"{sum(map(len, tree.cluster_sizes))} nodes = {worst:.3e} (tol 1e-9)")


def test_criterion_3_closed_form_traffic_matches_grid_search():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        m = float(rng.integers(1, 13))
        ip = float(10 ** rng.uniform(-2.5, 0.7))
        is_ = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.8 else 0.0
        phi_ii = float(10 ** rng.uniform(0.5, 2.5))
        params = ControlParams(lam=float(10 ** rng.uniform(-2, 2)),
                               sinr_th=float(10 ** rng.uniform(-0.5, 1.0)))
        a_star = optimal_traffic(ip, is_, m, phi_ii, MODEL, params)
        a_grid = grid_argmax(ip, is_, m, phi_ii, MODEL, params, m)
        worst = max(worst, abs(a_star - a_grid) / m)
    report(3, worst <= 1e-4,
           f"max |a*_closed - a*_grid| / M over 1000 draws = {worst:.3e} "
           f"(tol 1e-4)")


def test_criterion_4_jensen_orderings_hold():
    rng = np.random.default_rng(104)
    params = ControlParams(lam=1.0, sinr_th=10 ** 0.5)
    violations = 0
    checked = 0
    # (a) closed-form bound vs exact enumeration on 2-cell instances, M <= 5
    for trial in range(3):
        phi = random_phi(rng, 2)
        w = phi.coupling()
        for m1 in range(1, 6):
            for m2 in range(1, 6):
                for bcode in range(4):
                    b = np.array([bcode & 1, bcode >> 1])
                    for f1 in (0.0, 0.3, 0.7, 1.0):
                        for f2 in (0.0, 0.5, 1.0):
                            a = np.array([f1 * m1, f2 * m2])
                            m = np.array([m1, m2], dtype=float)
                            ip = float(w[:, 0] @ b)
                            is_ = float(w[1, 0] * a[1])
                            lb = throughput_lb(a[0], m1, ip, is_,
                                               phi.phi[0, 0], params)
                            exact = exact_throughput(a, b, m, phi, params, 0)
                            checked += 1
                            if lb > exact + 1e-12:
                                violations += 1
    # (b) expected utility under the belief vs knowing the state
    for _ in range(20):
        tree = random_depth2_tree(rng)
        phi = random_phi(rng, 4)
        w = phi.coupling()
        _, sig = simulate_sigma_histories(tree, MODEL, 8, rng)
        for i in range(4):
            belief = exact_belief(sig[i], tree, MODEL, i)
            ip_b = sum(w[j, i] * belief.marginal(j) for j in range(4))
            a_b = optimal_traffic(ip_b, 0.3, 6.0, phi.phi[i, i], MODEL, params)
            lhs = utility(a_b, ip_b, 0.3, 6.0, phi.phi[i, i], MODEL, params)
            rhs = 0.0
            for code in range(16):
                bvec = np.array([(code >> j) & 1 for j in range(4)], dtype=float)
                p = belief.prob(bvec.astype(int).tolist())
                if p == 0.0:
                    continue
                ip_pt = float(w[:, i] @ bvec)
                a_pt = optimal_traffic(ip_pt, 0.3, 6.0, phi.phi[i, i], MODEL,
                                       params)
                rhs += p * utility(a_pt, ip_pt, 0.3, 6.0, phi.phi[i, i], MODEL,
                                   params)
            checked += 1
            if lhs > rhs + 1e-12:
                violations += 1
    report(4, violations == 0,
           f"{violations} Jensen violations over {checked} instances (need 0)")


def test_criterion_5_fading_success_calibration():
    rng = np.random.default_rng(105)
    th = 10 ** 0.5
    n = 100_000

    phi_own = 20.0
    single = FadingLayout(su_cell=np.array([0]),
                          pl_su_su=np.array([[phi_own]]),
                          pl_pu_su=np.zeros((1, 1)),
                          pl_su_pu=np.zeros((1, 1)))
    # one cell, one SU: a frame's throughput is its success count
    thr, _ = eval_fading_success(single, np.ones((n, 1)), np.array([1.0]),
                                 np.zeros((n, 1), dtype=int), th, 0.05, rng)
    wins = int(thr.sum())
    p1 = math.exp(-th / phi_own)
    err1 = abs(wins / n - p1)
    tol1 = 3 * math.sqrt(p1 * (1 - p1) / n)

    p_own, p_int = 25.0, 4.0
    # SU 1's own link is cut, so it only interferes and every success is
    # SU 0's; its draws and SU 0's SINR are unchanged
    two = FadingLayout(su_cell=np.array([0, 1]),
                       pl_su_su=np.array([[p_own, p_int], [p_int, 0.0]]),
                       pl_pu_su=np.zeros((2, 2)),
                       pl_su_pu=np.zeros((2, 2)))
    # both SUs always transmit; a frame's throughput is its successes over
    # the two cells
    thr2, _ = eval_fading_success(two, np.ones((n, 2)), np.ones(2),
                                  np.zeros((n, 2), dtype=int), th, 0.05, rng)
    wins2 = int(2 * thr2.sum())
    p2 = math.exp(-th / p_own) / (1 + th * p_int / p_own)
    err2 = abs(wins2 / n - p2)
    tol2 = 3 * math.sqrt(p2 * (1 - p2) / n)

    report(5, err1 < tol1 and err2 < tol2,
           f"single-link |emp - exp(-th/phi)| = {err1:.2e} (3sigma {tol1:.2e}); "
           f"two-user |emp - closed form| = {err2:.2e} (3sigma {tol2:.2e})")


@pytest.fixture(scope="module")
def tradeoff_sweep():
    """Shared desk-scale throughput/INR sweep (criterion 6 + dominance)."""
    cfg = ExperimentConfig(
        n_cells=64, area=(800.0, 800.0), n_blockages=0,
        schemes=(SchemeSpec("full", "full_nsi"),
                 SchemeSpec("ibt", "ibt"),
                 SchemeSpec("rt", "rt"),
                 SchemeSpec("unc", "uncoordinated")),
        lambda_grid=tuple(np.logspace(math.log10(0.008), math.log10(0.04), 13)),
        ptx_grid=tuple(np.logspace(-2.6, -1.4, 9)),
        frames=300, trials=20, master_seed=7)
    return run_experiment(cfg)


def test_criterion_6_tree_scheme_tradeoff(tradeoff_sweep):
    t0 = time.time()
    picks = {s: nearest_zero_db(tradeoff_sweep, s) for s in ("full", "ibt", "rt")}
    thr = {s: float(np.mean([r.mean_su_throughput for r in picks[s][2]]))
           for s in picks}
    deg_ibt = (thr["full"] - thr["ibt"]) / thr["full"]
    deg_rt = (thr["full"] - thr["rt"]) / thr["full"]
    ok = deg_ibt <= 0.25 and deg_rt >= 1.5 * deg_ibt
    report(6, ok,
           f"at ~0 dB (full {picks['full'][1]:+.2f} dB, ibt {picks['ibt'][1]:+.2f} dB, "
           f"rt {picks['rt'][1]:+.2f} dB): ibt degradation {deg_ibt:.1%} "
           f"(limit 25%), rt degradation {deg_rt:.1%} "
           f"(need >= {1.5 * deg_ibt:.1%}); eval {time.time() - t0:.0f}s")


def test_scheme_dominance_at_matched_inr(tradeoff_sweep):
    """Mean-throughput ordering full >= ibt >= rt and ibt > uncoordinated."""
    picks = {s: nearest_zero_db(tradeoff_sweep, s)
             for s in ("full", "ibt", "rt", "unc")}
    per_trial = {s: np.array([r.mean_su_throughput for r in picks[s][2]])
                 for s in picks}
    for hi, lo in (("full", "ibt"), ("ibt", "rt")):
        gap = per_trial[hi] - per_trial[lo]
        assert gap.mean() >= -3 * paired_sem(gap), (hi, lo, gap.mean())
    gap = per_trial["ibt"] - per_trial["unc"]
    assert gap.mean() > 3 * paired_sem(gap)


def test_criterion_7_aggregation_cost_tradeoff():
    rng_seed = 13
    topo = build_topology("grid", 64, (800.0, 800.0), 1, rng_seed)
    phi = compute_phi(topo, PathlossParams())
    full_cost = build_ibt(topo, phi, 0.9).cost_per_cell

    fractions = (0.0, 0.15, 0.3, 0.45, 0.6, 0.8, 1.0)
    radii = (0.0, 100.0, 143.0, 202.0, 283.0, 400.0, 800.0)
    schemes = []
    for f in fractions:
        c_max = 1e-9 if f == 0 else f * full_cost
        schemes.append(SchemeSpec(f"ibt@{f}", "ibt", c_max=c_max))
        schemes.append(SchemeSpec(f"rt@{f}", "rt", c_max=c_max))
    for r in radii:
        schemes.append(SchemeSpec(f"rad@{r}", "radius_nsi", radius=r))
    cfg = ExperimentConfig(
        n_cells=64, area=(800.0, 800.0), n_blockages=1, schemes=tuple(schemes),
        lambda_grid=tuple(np.logspace(math.log10(0.004), math.log10(0.05), 9)),
        frames=250, trials=10, master_seed=13)
    result = run_experiment(cfg)

    def capped_curve(prefix, keys):
        """(cost, best throughput with INR <= 0 dB, per-trial bests) per point."""
        out = []
        for key in keys:
            name = f"{prefix}@{key}"
            best = None
            for rows in result.groups(name).values():
                inr = np.mean([r.mean_inr_linear for r in rows])
                if inr > 1.0:  # cap: average INR at most 0 dB
                    continue
                thr = float(np.mean([r.mean_su_throughput for r in rows]))
                if best is None or thr > best[1]:
                    best = (float(np.mean([r.agg_cost_per_cell for r in rows])),
                            thr, [r.mean_su_throughput for r in rows])
            out.append(best)
        return out

    ibt = capped_curve("ibt", fractions)
    rt = capped_curve("rt", fractions)
    rad = capped_curve("rad", radii)

    def cost_to_reach(curve, target):
        for cost, thr, _ in curve:
            if thr >= target:
                return cost
        return math.inf

    ibt_sat = ibt[-1][1]
    rad_sat = rad[-1][1]
    ibt_cost90 = cost_to_reach(ibt, 0.9 * ibt_sat)
    rad_cost90 = cost_to_reach(rad, 0.9 * rad_sat)

    # "does not improve with cost": equivalence test.  A pure 3-sigma zero
    # test is unfalsifiable against an epsilon slope (random rings always
    # carry a sliver of global-load signal), so flat means statistically
    # zero or negligible next to the gain the matched tree extracts.
    rt_diff = np.array(rt[-1][2]) - np.array(rt[0][2])
    ibt_gain = ibt[-1][1] - ibt[0][1]
    rt_flat = rt_diff.mean() <= max(3 * paired_sem(rt_diff), 0.1 * ibt_gain)

    ok = ibt_cost90 <= 0.5 * rad_cost90 and rt_flat
    report(7, ok,
           f"ibt reaches 90% of saturation at cost {ibt_cost90:.2f} hops/cell "
           f"vs radius-NSI at {rad_cost90:.2f} cells (need <= 50%); "
           f"rt max-vs-min cost gain {rt_diff.mean():+.2e} "
           f"(3sigma {3 * paired_sem(rt_diff):.2e}, 10% of ibt gain "
           f"{0.1 * ibt_gain:.2e})")


def test_criterion_8_fading_scheme_ordering():
    cfg = ExperimentConfig(
        topology_kind="random", n_cells=64, area=(800.0, 800.0), n_blockages=0,
        population_mode="constant", m_per_cell=10, eval_mode="fading_mc",
        schemes=(SchemeSpec("full", "full_nsi"),
                 SchemeSpec("ibt", "ibt"),
                 SchemeSpec("cons", "consensus", degree=5, rounds=10),
                 SchemeSpec("unc", "uncoordinated")),
        lambda_grid=tuple(np.logspace(math.log10(0.005), math.log10(0.05), 9)),
        ptx_grid=tuple(np.logspace(-3.5, -2.3, 7)),
        frames=250, trials=20, master_seed=11)
    result = run_experiment(cfg)

    picks = {s: nearest_zero_db(result, s)
             for s in ("full", "ibt", "cons", "unc")}
    per_trial = {s: np.array([r.mean_su_throughput for r in picks[s][2]])
                 for s in picks}
    thr = {s: float(v.mean()) for s, v in per_trial.items()}

    # Full-NSI >= IBT within noise; IBT beats both baselines at 3 sigma;
    # consensus and uncoordinated both sit in the poor band far below IBT
    full_ok = thr["full"] >= thr["ibt"] \
        - 3 * paired_sem(per_trial["full"] - per_trial["ibt"])
    ibt_vs_cons = thr["ibt"] - thr["cons"] \
        > 3 * paired_sem(per_trial["ibt"] - per_trial["cons"])
    ibt_vs_unc = thr["ibt"] - thr["unc"] \
        > 3 * paired_sem(per_trial["ibt"] - per_trial["unc"])
    poor_band = max(thr["cons"], thr["unc"]) <= 0.75 * thr["ibt"]
    ok = full_ok and ibt_vs_cons and ibt_vs_unc and poor_band
    report(8, ok,
           f"throughputs at ~0 dB: full {thr['full']:.4f} >= ibt {thr['ibt']:.4f} "
           f"> cons {thr['cons']:.4f} / unc {thr['unc']:.4f}; "
           f"3sigma gaps (ibt-cons: {ibt_vs_cons}, ibt-unc: {ibt_vs_unc}), "
           f"poor band <= 75% of ibt: {poor_band}")


def test_criterion_9_dynamics_calibration():
    rng = np.random.default_rng(109)
    n, frames = 8, 15_000  # 1.2e5 cell-frames
    state = sample_steady_state(MODEL, n, rng)
    total = 0
    for _ in range(frames):
        total += int(state.b.sum())
        state = step_occupancy(MODEL, state, rng)
    frac = total / (n * frames)
    sigma = math.sqrt(0.05 * 0.95 * (1 + 0.9) / (1 - 0.9) / (n * frames))
    frac_ok = abs(frac - 0.05) < 3 * sigma

    exact = OccupancyModel(Fraction(1, 200), Fraction(19, 200))
    semigroup_ok = True
    for p_num in range(0, 21, 4):
        p = Fraction(p_num, 20)
        for d1 in (0, 1, 2, 5, 9):
            for d2 in (0, 1, 3, 8):
                lhs = k_step_marginal(exact, k_step_marginal(exact, p, d1), d2)
                semigroup_ok &= lhs == k_step_marginal(exact, p, d1 + d2)
    report(9, frac_ok and semigroup_ok,
           f"occupancy fraction {frac:.5f} vs 0.05 (3sigma {3 * sigma:.5f}); "
           f"k-step semigroup exact on rationals: {semigroup_ok}")
