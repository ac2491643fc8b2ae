"""Tests for metrics, seeding, the study harness, and file formats."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stablevol.experiment import (
    GridCell,
    StudySpec,
    abs_error,
    benchmark_cells,
    derive,
    load_model_config,
    read_data_csv,
    reference_model,
    rmse,
    run_metrics,
    run_study,
    sensitivity_models,
    write_boxplot_csv,
    write_data_csv,
    write_filtered_csv,
    write_summary_csv,
)
from stablevol.filters import FilterOutput, SmcConfig, abc_apf_run
from stablevol.svm import simulate

from _oracles import REFERENCE_CONFIG, gauss_config, svm_model


def small_cell(eps=0.25, n=50, **kw) -> GridCell:
    return GridCell("abc-apf", gauss_config(eps, n, **kw))


def small_spec(cells=None, replicates=3, horizon=20, base_seed=4242) -> StudySpec:
    return StudySpec(
        model=reference_model(),
        horizon=horizon,
        cells=tuple(cells or [small_cell()]),
        replicates=replicates,
        base_seed=base_seed,
    )


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def test_metrics_pinned_cases():
    # None marks paths of different lengths, which both metrics reject.
    for metric, estimate, truth, expected in [
        (rmse, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.0),
        (rmse, [2.0, 3.0, 4.0], [1.0, 2.0, 3.0], 1.0),
        (rmse, [3.0, 4.0], [0.0, 0.0], math.sqrt(12.5)),
        (rmse, [1.0, 2.0], [1.0], None),
        (abs_error, [1.0, 2.0], [1.0, 2.0], 0.0),
        (abs_error, [3.0, -4.0], [0.0, 0.0], 3.5),
        (abs_error, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0),
        (abs_error, [1.0], [1.0, 2.0], None),
    ]:
        if expected is None:
            with pytest.raises(ValueError, match="length mismatch"):
                metric(estimate, truth)
        else:
            assert metric(estimate, truth) == pytest.approx(expected)


@given(
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40),
)
@example([64.74479086291521] * 6)  # sides one rounding step apart
def test_rmse_dominates_abs_error(diffs):
    est = np.asarray(diffs)
    truth = np.zeros_like(est)
    r, a = rmse(est, truth), abs_error(est, truth)
    # Each side carries a few ulps of rounding at its own size; the floor
    # covers squares that underflow.
    assert r**2 >= a**2 - 1e-12 * max(a**2, 1.0)


def test_run_metrics_requires_truth_with_initial_state():
    out = FilterOutput(
        filtered_mean=np.array([1.0, 2.0]),
        ess_trace=np.array([10.0, 10.0]),
        resample_count=2,
        degeneracy_count=0,
        elapsed=0.5,
    )
    with_h0 = run_metrics(out, np.array([9.0, 1.5, 2.5]))
    assert with_h0.rmse == pytest.approx(0.5)
    assert with_h0.ae == pytest.approx(0.5)
    assert with_h0.elapsed == 0.5
    for truth in ([1.5, 2.5], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError):
            run_metrics(out, np.array(truth))


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


def test_derive_deterministic_and_distinct():
    s = 20260823
    assert derive(s, 0, "data") == derive(s, 0, "data")
    assert derive(s, 0, "data") != derive(s, 1, "data")
    assert derive(s, 0, "data") != derive(s, 0, "cell-0")
    assert derive(s + 1, 0, "data") != derive(s, 0, "data")
    assert 0 <= derive(s, 0, "data") < 2**64


# ---------------------------------------------------------------------------
# Grid cells and named grids
# ---------------------------------------------------------------------------


def test_cell_rejects_unknown_algorithm():
    # Each algorithm runs one config type, and only that type.
    apf, smc = small_cell().config, SmcConfig(50, 0.25)
    for algo, config in [("kalman", apf), ("abc-smc", apf), ("abc-apf", smc)]:
        with pytest.raises(ValueError, match="'abc-smc' on an SmcConfig, got"):
            GridCell(algo, config)


def test_reference_model_parameters():
    # REFERENCE_CONFIG spells the paper's model out by hand.
    assert reference_model() == svm_model()


def test_benchmark_grid_shape():
    cells = benchmark_cells(n_particles=500)
    assert len(cells) == 15
    apf = [c for c in cells if c.algo == "abc-apf"]
    smc = [c for c in cells if c.algo == "abc-smc"]
    assert len(apf) == 12 and len(smc) == 3
    assert sorted({c.config.kernel.epsilon for c in apf}) == [0.25, 0.5, 0.75, 1.5]
    assert sorted({c.config.proposal.kind for c in apf}) == [
        "central_t",
        "noncentral_t",
        "shifted_t",
    ]
    # the SMC baseline has percentile columns, never the 1.5 bandwidth column
    assert sorted({c.config.smc_percentile for c in smc}) == [0.25, 0.5, 0.75]
    assert all(c.config.n_particles == 500 for c in cells)
    assert len({c.label for c in cells}) == 15


def test_equal_configs_share_one_label():
    # The label prints each config number, so equal configs must print one
    # label, or one run would derive two sets of seeds: an unset threshold
    # runs as N/2, and an int config number is the equal float.
    ess = {"resample_policy": "ess_threshold"}
    for algo, make in [
        ("abc-apf", lambda v, **kw: gauss_config(v, 64, **kw, **ess)),
        ("abc-smc", lambda v, **kw: SmcConfig(64, v, **kw, **ess)),
    ]:
        for a, b in [
            (make(0.25), make(0.25, resample_threshold=32.0)),
            (make(1, resample_threshold=1), make(1.0, resample_threshold=1.0)),
        ]:
            assert a == b and GridCell(algo, a).label == GridCell(algo, b).label


def test_sensitivity_grid_order_and_fixed_coefficients():
    models = sensitivity_models(1.0, 1.0)
    pairs = [(m.obs_noise.alpha, m.obs_noise.beta) for _, m in models]
    assert pairs == [(2.0, 0.0), (1.9, 0.9), (1.2, 0.3), (0.8, -0.2), (0.1, -0.8)]
    for _, m in models:
        assert (m.mu, m.phi) == (0.0, 0.9)
        assert m.sigma_h == 1.0
        assert m.obs_noise.gamma == 1.0


# ---------------------------------------------------------------------------
# run_study: seed discipline, pairing, determinism, aggregation
# ---------------------------------------------------------------------------


def _scores(metrics):
    # wall time is the one field that legitimately varies between runs
    return (metrics.rmse, metrics.ae, metrics.degeneracy_count)


def test_study_cells_are_paired_on_shared_data():
    # A cell duplicated under a different bandwidth still sees the same data:
    # rerunning one cell standalone with the seeds derived from the replicate
    # and its label reproduces its row, so identical cells score identically.
    spec = small_spec(cells=[small_cell(), small_cell(eps=0.5)], replicates=2)
    res = run_study(spec)
    cell = spec.cells[1]
    for r in range(2):
        data = simulate(spec.model, spec.horizon, derive(spec.base_seed, r, "data"))
        rng = np.random.default_rng(derive(spec.base_seed, r, cell.label))
        out = abc_apf_run(data.y, spec.model, cell.config, rng)
        assert _scores(run_metrics(out, data.h)) == _scores(res.metrics[1][r])


def test_aggregate_mean_matches_manual_mean():
    spec = small_spec(replicates=5)
    res = run_study(spec)
    agg = res.aggregate(0)
    rmses = [m.rmse for m in res.metrics[0]]
    assert agg["mean"].rmse == pytest.approx(float(np.mean(rmses)), abs=1e-15)
    assert agg["median"].rmse == pytest.approx(float(np.median(rmses)), abs=1e-15)
    assert agg["min"].rmse == pytest.approx(min(rmses), abs=0.0)
    assert agg["max"].rmse == pytest.approx(max(rmses), abs=0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(replicates=0)
    with pytest.raises(ValueError):
        small_spec(horizon=0)
    with pytest.raises(ValueError):
        StudySpec(reference_model(), 10, (), 1, 0)


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**REFERENCE_CONFIG, **overrides}))
    return path


def test_load_model_config_roundtrip(tmp_path):
    assert load_model_config(write_config(tmp_path)) == reference_model()


def test_load_model_config_rejects_bad_inputs(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(ValueError):
        load_model_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_model_config(path)
    with pytest.raises(ValueError):
        load_model_config(write_config(tmp_path, extra_key=1.0))
    # a repeated key is rejected rather than resolved to its last value
    path.write_text(write_config(tmp_path).read_text()[:-1] + ', "mu": 1}')
    with pytest.raises(ValueError, match="repeats"):
        load_model_config(path)
    path.write_text(json.dumps({k: v for k, v in REFERENCE_CONFIG.items() if k != "sigma_v"}))
    with pytest.raises(ValueError):
        load_model_config(path)
    with pytest.raises(ValueError):
        load_model_config(write_config(tmp_path, phi=1.5))
    for bad in ("zero", True):
        with pytest.raises(ValueError, match="finite real number"):
            load_model_config(write_config(tmp_path, mu=bad))
    for key in ("mu", "sigma_h", "sigma_v"):
        for value in (math.nan, math.inf, -math.inf, 10**400):
            # json.dumps writes NaN / Infinity / -Infinity, which json.load accepts;
            # 10**400 is a valid JSON integer that no float can hold.
            with pytest.raises(ValueError, match="finite"):
                load_model_config(write_config(tmp_path, **{key: value}))


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


def test_data_csv_roundtrip_and_layout(tmp_path):
    traj = simulate(reference_model(), 25, 987)
    path = tmp_path / "data.csv"
    write_data_csv(path, traj)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "y", "h_true"]
    assert rows[1][0] == "0" and rows[1][1] == ""
    assert [r[0] for r in rows[1:]] == [str(t) for t in range(26)]
    back = read_data_csv(path)
    assert np.array_equal(back.h, traj.h)
    assert np.array_equal(back.y, traj.y)


def test_read_data_csv_rejects_malformed(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("time,value\n1,2\n")
    with pytest.raises(ValueError):
        read_data_csv(path)
    path.write_text("t,y,h_true\n1,0.5,0.1\n")
    with pytest.raises(ValueError):
        read_data_csv(path)
    for row in ("1,0.5", "1,0.5,0.1,9"):
        path.write_text(f"t,y,h_true\n0,,0.1\n{row}\n")
        with pytest.raises(ValueError, match="3 fields"):
            read_data_csv(path)
    # t must read 0, 1, ..., T in order, and the t=0 row carries no y.
    for body, match in [
        ("0,,0.1\n2,0.5,0.2\n1,0.4,0.3\n1,0.3,0.4\n", "t column"),
        ("0,,0.1\n1,0.5,0.2\n3,0.4,0.3\n", "t column"),
        ("0,,0.1\n1.0,0.5,0.2\n", "t column"),
        ("", "t column"),
        ("0,0.7,0.1\n1,0.5,0.2\n", "t=0 row"),
    ]:
        path.write_text("t,y,h_true\n" + body)
        with pytest.raises(ValueError, match=match):
            read_data_csv(path)


def test_filtered_csv_layout(tmp_path):
    out = FilterOutput(
        filtered_mean=np.array([0.25, -1.5]),
        ess_trace=np.array([42.0, 17.5]),
        resample_count=2,
        degeneracy_count=0,
        elapsed=0.1,
    )
    path = tmp_path / "filtered.csv"
    write_filtered_csv(path, out)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "h_est", "ess"]
    assert rows[1] == ["1", "0.25", "42.0"]
    assert rows[2] == ["2", "-1.5", "17.5"]


def test_summary_csv_layout(tmp_path):
    spec = small_spec(cells=[small_cell()], replicates=3)
    res = run_study(spec)
    path = tmp_path / "summary.csv"
    write_summary_csv(path, res)
    rows = list(csv.reader(path.open()))
    assert rows[0] == [
        "algo", "proposal", "kernel", "eps", "replicate", "rmse", "ae", "seconds", "degeneracies",
    ]
    body = rows[1:]
    assert len(body) == 3 + 4  # replicates + aggregate rows
    assert [r[4] for r in body] == ["0", "1", "2", "mean", "median", "min", "max"]
    assert body[0][:4] == ["abc-apf", "shifted_t", "gaussian", "0.25"]
    mean_row = body[3]
    rmses = [float(r[5]) for r in body[:3]]
    assert float(mean_row[5]) == pytest.approx(float(np.mean(rmses)), rel=1e-12)


def test_boxplot_csv_long_format(tmp_path):
    spec = small_spec(cells=[small_cell()], replicates=2)
    res = run_study(spec)
    path = tmp_path / "box.csv"
    write_boxplot_csv(path, res)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["algo", "proposal", "kernel", "eps", "replicate", "metric", "value"]
    assert len(rows) == 1 + 2 * 3  # one row per replicate per metric
    assert {r[5] for r in rows[1:]} == {"rmse", "ae", "seconds"}
    for r in rows[1:]:
        float(r[6])  # parses as a number
