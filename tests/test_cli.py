"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import stablevol.experiment as experiment_mod
import stablevol.filters as filters_mod
from stablevol.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from stablevol.experiment import read_data_csv
from stablevol.proposals import SeriesConvergenceError


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            dict(mu=-0.2, phi=0.95, sigma_h=0.6, alpha=1.75, beta=0.1, sigma_v=0.8)
        )
    )
    return path


def run_simulate(tmp_path, config_path, horizon=30, seed=11):
    data = tmp_path / "data.csv"
    code = main(
        [
            "simulate",
            "--config", str(config_path),
            "--horizon", str(horizon),
            "--seed", str(seed),
            "--out", str(data),
        ]
    )
    assert code == EXIT_OK
    return data


def test_simulate_writes_readable_data(tmp_path, config_path):
    data = run_simulate(tmp_path, config_path)
    traj = read_data_csv(data)
    assert traj.horizon == 30
    assert np.all(np.isfinite(traj.h))


def test_simulate_deterministic_per_seed(tmp_path, config_path):
    a = run_simulate(tmp_path, config_path, seed=5)
    content_a = a.read_text()
    b_dir = tmp_path / "again"
    b_dir.mkdir()
    b = run_simulate(b_dir, config_path, seed=5)
    assert b.read_text() == content_a


@pytest.mark.parametrize(
    "extra",
    [
        ["--algo", "abc-apf", "--eps", "0.25"],
        ["--algo", "abc-apf", "--eps", "0.5", "--proposal", "central-t", "--scheme", "systematic"],
        ["--algo", "abc-apf", "--eps", "0.5", "--resample", "ess:25"],
        ["--algo", "abc-smc", "--smc-percentile", "0.5"],
    ],
)
def test_filter_produces_estimates(tmp_path, config_path, extra):
    data = run_simulate(tmp_path, config_path)
    out = tmp_path / "filtered.csv"
    code = main(
        [
            "filter",
            *extra,
            "--particles", "64",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "h_est", "ess"]
    assert len(rows) == 31
    for row in rows[1:]:
        assert np.isfinite(float(row[1]))
        assert 1.0 - 1e-9 <= float(row[2]) <= 64.0 + 1e-9


def test_experiment_writes_summary_and_boxplot(tmp_path, config_path):
    summary = tmp_path / "summary.csv"
    box = tmp_path / "box.csv"
    code = main(
        [
            "experiment",
            "--config", str(config_path),
            "--replicates", "2",
            "--seed", "99",
            "--horizon", "10",
            "--particles", "50",
            "--out", str(summary),
            "--boxplot-out", str(box),
        ]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(summary.open()))
    # 15 grid cells x (2 replicates + 4 aggregate rows) + header
    assert len(rows) == 1 + 15 * 6
    box_rows = list(csv.reader(box.open()))
    assert len(box_rows) == 1 + 15 * 2 * 3


def test_missing_config_is_config_error(tmp_path):
    code = main(
        [
            "simulate",
            "--config", str(tmp_path / "nope.json"),
            "--horizon", "5",
            "--seed", "1",
            "--out", str(tmp_path / "d.csv"),
        ]
    )
    assert code == EXIT_CONFIG


def test_invalid_config_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(
        [
            "simulate",
            "--config", str(bad),
            "--horizon", "5",
            "--seed", "1",
            "--out", str(tmp_path / "d.csv"),
        ]
    )
    assert code == EXIT_CONFIG


def test_non_finite_config_value_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"mu": NaN, "phi": 0.95, "sigma_h": 0.6, "alpha": 1.75, "beta": 0.1, "sigma_v": 0.8}'
    )
    out = tmp_path / "d.csv"
    code = main(
        [
            "simulate",
            "--config", str(bad),
            "--horizon", "5",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, expected",
    [
        # the stationary mean mu / (1 - phi) overflows: rejected as a config error
        (dict(mu=1e308, phi=0.5), EXIT_CONFIG),
        # a finite stationary law whose draws overflow exp(h / 2)
        (dict(sigma_h=1000.0), EXIT_NUMERICAL),
        # exp(h / 2) stays finite but two of the 2000 observations exp(h / 2) v do not
        (dict(mu=70.6), EXIT_NUMERICAL),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_model_exit_code(tmp_path, config_path, overrides, expected):
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()), **overrides}))
    out = tmp_path / "d.csv"
    code = main(
        [
            "simulate",
            "--config", str(config_path),
            "--horizon", "2000",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == expected
    assert not out.exists()


def test_apf_without_bandwidth_is_config_error(tmp_path, config_path):
    data = run_simulate(tmp_path, config_path, horizon=5)
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(tmp_path / "f.csv"),
        ]
    )
    assert code == EXIT_CONFIG


def test_bad_resample_policy_is_config_error(tmp_path, config_path):
    data = run_simulate(tmp_path, config_path, horizon=5)
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "0.25",
            "--resample", "never",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(tmp_path / "f.csv"),
        ]
    )
    assert code == EXIT_CONFIG


def test_bad_replicate_count_is_config_error(tmp_path, config_path):
    code = main(
        [
            "experiment",
            "--config", str(config_path),
            "--replicates", "0",
            "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert code == EXIT_CONFIG


def test_malformed_data_csv_is_config_error(tmp_path, config_path):
    data = tmp_path / "data.csv"
    data.write_text("wrong,header\n1,2\n")
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "0.25",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(tmp_path / "f.csv"),
        ]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "row",
    ["1,0.5", "1,0.5,0.1,9", "2,0.5,0.1", "5,0.5,0.1"],
    ids=["short", "long", "t-out-of-order", "t-repeated"],
)
def test_malformed_data_row_is_config_error(tmp_path, config_path, row):
    data = run_simulate(tmp_path, config_path, horizon=5)
    data.write_text(data.read_text() + row + "\n")
    out = tmp_path / "f.csv"
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "0.25",
            "--particles", "64",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_infinite_bandwidth_is_config_error(tmp_path, config_path):
    data = run_simulate(tmp_path, config_path, horizon=5)
    out = tmp_path / "f.csv"
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "inf",
            "--particles", "64",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_observation_is_config_error(tmp_path, config_path, bad):
    data = run_simulate(tmp_path, config_path, horizon=5)
    lines = data.read_text().splitlines()
    t, _, h = lines[3].split(",")
    lines[3] = ",".join([t, bad, h])
    data.write_text("\n".join(lines) + "\n")
    assert not np.all(np.isfinite(read_data_csv(data).y))
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "0.25",
            "--particles", "64",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(tmp_path / "f.csv"),
        ]
    )
    assert code == EXIT_CONFIG


def test_nan_weight_maps_to_exit_three(tmp_path, config_path, monkeypatch):
    data = run_simulate(tmp_path, config_path, horizon=5)
    monkeypatch.setattr(
        filters_mod, "log_kernel", lambda spec, u: np.full(np.shape(u), np.nan)
    )
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "0.25",
            "--particles", "64",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(tmp_path / "f.csv"),
        ]
    )
    assert code == EXIT_NUMERICAL


def test_numerical_failure_maps_to_exit_three(tmp_path, config_path, monkeypatch):
    data = run_simulate(tmp_path, config_path, horizon=5)

    def boom(*args, **kwargs):
        raise SeriesConvergenceError("no convergence")

    monkeypatch.setattr(experiment_mod, "abc_apf_run", boom)
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "0.25",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(tmp_path / "f.csv"),
        ]
    )
    assert code == EXIT_NUMERICAL


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_steps_degenerate_is_numerical_failure(tmp_path, config_path):
    # At eps=1e-300 the Gaussian kernel's squared gap overflows, every weight
    # is log-zero, every step is a degenerate reset and no estimate is written;
    # the CLI's own message is the only report of the overflow.
    data = run_simulate(tmp_path, config_path, horizon=5)
    out = tmp_path / "f.csv"
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "1e-300",
            "--particles", "64",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == EXIT_NUMERICAL
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_some_steps_degenerate_is_numerical_failure(tmp_path, config_path, capsys):
    # At this bandwidth 18 of the 20 steps are degenerate resets and two keep
    # a weight; a reset step's estimate ignores its observation, so the run
    # fails and no estimate is written.
    data = run_simulate(tmp_path, config_path, horizon=20, seed=1)
    out = tmp_path / "f.csv"
    code = main(
        [
            "filter",
            "--algo", "abc-apf",
            "--eps", "3.16e-158",
            "--particles", "200",
            "--config", str(config_path),
            "--data", str(data),
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == EXIT_NUMERICAL
    assert not out.exists()
    assert "18 of 20 steps" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs_as_subprocess(tmp_path, config_path):
    out = tmp_path / "data.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "stablevol",
            "simulate",
            "--config", str(config_path),
            "--horizon", "5",
            "--seed", "2",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
