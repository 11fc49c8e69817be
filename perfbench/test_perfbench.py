"""Checks of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench

The counts that later changes may cite must repeat exactly between two
sweeps at one seed, tracing must not change a single output bit, and the
correctness gate must reject rows that drift from the reference.
"""

import math

import pytest

import run

run.pin_blas()

import bench  # noqa: E402
import tracer  # noqa: E402

SEED = 3


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_counts_repeat_and_tracing_is_neutral(workload, tmp_path):
    plain = bench.run_sweep(workload, SEED, tmp_path / "plain.csv", traced=False)
    first = bench.run_sweep(workload, SEED, tmp_path / "a.csv", traced=True)
    second = bench.run_sweep(workload, SEED, tmp_path / "b.csv", traced=True)
    assert plain["code"] == 0 and plain["text"]
    assert first["text"] == plain["text"] == second["text"]

    a, b = bench.layer_metrics(first), bench.layer_metrics(second)
    assert {k: a[k] for k in bench.COUNTS} == {k: b[k] for k in bench.COUNTS}
    assert a["harness.points"] == bench.expected_points(workload, SEED)

    # self times and counting time partition the root span: nothing is
    # counted twice and nothing is lost
    spans = first["tracer"]
    root = spans.total(tracer.ROOT_SPAN)
    own = sum(v for k, v in a.items() if k.endswith("_s"))
    counting = sum(end - t1 for _, _, _, t1, end in spans.spans)
    assert own + counting == pytest.approx(root, rel=1e-9)


def test_gate_rejects_drift_beyond_tolerance(tmp_path):
    rep = bench.run_sweep("tradeoff", SEED, tmp_path / "rows.csv", traced=False)
    n_points = bench.expected_points("tradeoff", SEED)
    assert bench.failed_points(rep, n_points, None, rep["rows"]) == 0

    col = bench.CSV_COLUMNS.index("mean_su_throughput")
    reference = [list(row) for row in rep["rows"]]
    value = float(reference[1][col])
    reference[1][col] = repr(value * (1 + 1e-14))
    assert bench.failed_points(rep, n_points, None, reference) == 0
    reference[1][col] = repr(value * (1 + 1e-10))
    assert bench.failed_points(rep, n_points, None, reference) == 1

    bad = dict(rep, rows=[list(row) for row in rep["rows"]])
    bad["rows"][2][bench.CSV_COLUMNS.index("mean_inr_db")] = repr(-math.inf)
    assert bench.failed_points(bad, n_points, rep["rows"], None) == 1


def test_times_scale_with_the_host_factor():
    result, detail = bench.run("tradeoff", SEED, 1.0, trace=False)
    loops = detail["samples"]["reference_loop_s"]
    assert result["correct"] and loops["n"] >= bench.REFERENCE_LOOPS_PER_SWEEP
    factor = detail["host_factor"]
    assert factor == pytest.approx(
        sum(loops["values"]) / loops["n"] / bench.REFERENCE_LOOP_S)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    raw = detail["unscaled"]
    walls = detail["samples"]["wall_sweep_s"]
    assert raw["sweep_s"] == pytest.approx(sum(walls["values"]) / walls["n"])
    assert metrics["sweep_s"] * factor == pytest.approx(raw["sweep_s"])
    assert metrics["setup_s"] * factor == pytest.approx(raw["setup_s"])
    frames = bench.expected_points("tradeoff", SEED) * bench.cli.load_config(
        str(bench.config_path("tradeoff")), []).frames
    assert metrics["frames_per_s"] / factor == pytest.approx(
        frames / (raw["sweep_s"] - raw["setup_s"]))
