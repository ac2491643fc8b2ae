"""End-to-end tests of the command-line interface.

Every failing command goes through ``Cli.fails``, which checks the whole
failure contract: the exit code, no file left behind, and exactly one stderr
line with the code's prefix.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import stablevol.experiment as experiment_mod
import stablevol.filters as filters_mod
from stablevol.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from stablevol.experiment import read_data_csv
from stablevol.proposals import SeriesConvergenceError

MODEL = dict(mu=-0.2, phi=0.95, sigma_h=0.6, alpha=1.75, beta=0.1, sigma_v=0.8)

# The flags each command gets unless a test overrides them; None drops a flag.
DEFAULTS = {
    "simulate": dict(horizon=5, seed=1),
    "filter": dict(algo="abc-apf", eps=0.25, particles=64, seed=1),
    "experiment": dict(replicates=1, seed=1, horizon=5, particles=50),
}

PREFIX = {EXIT_CONFIG: "error: ", EXIT_NUMERICAL: "numerical failure: "}


class Cli:
    """Runs ``main`` on one model config, data file and output in a test's directory."""

    def __init__(self, tmp_path, capsys):
        self.dir = tmp_path
        self.config = tmp_path / "model.json"
        self.data = tmp_path / "data.csv"
        self.out = tmp_path / "out.csv"
        self.capsys = capsys
        self.model()

    def model(self, **overrides):
        self.config.write_text(json.dumps({**MODEL, **overrides}))

    def argv(self, command, **flags):
        flags = {"config": self.config, **DEFAULTS[command], "out": self.out, **flags}
        if command == "filter":
            flags.setdefault("data", self.data)
        return [command] + [
            part
            for name, value in flags.items()
            if value is not None
            for part in (f"--{name.replace('_', '-')}", str(value))
        ]

    def simulate(self, **flags):
        flags = {"seed": 11, "out": self.data, **flags}
        assert main(self.argv("simulate", **flags)) == EXIT_OK

    def fails(self, code, command, fragment=None, **flags):
        """Run ``command`` with RuntimeWarnings raised as errors and check that
        it exits ``code``, writes no file and prints one prefixed stderr line
        (holding ``fragment`` when one is given)."""
        before = set(self.dir.rglob("*"))
        self.capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(self.argv(command, **flags)) == code
        assert set(self.dir.rglob("*")) == before
        err = self.capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(PREFIX[code]), err
        if fragment is not None:
            assert fragment in err, err


@pytest.fixture()
def cli(tmp_path, capsys):
    return Cli(tmp_path, capsys)


def test_simulate_writes_readable_data(cli):
    cli.simulate(horizon=30)
    traj = read_data_csv(cli.data)
    assert traj.horizon == 30
    assert np.all(np.isfinite(traj.h))


def test_simulate_deterministic_per_seed(cli):
    again = cli.dir / "again.csv"
    cli.simulate(horizon=30, seed=5)
    cli.simulate(horizon=30, seed=5, out=again)
    assert again.read_text() == cli.data.read_text()


@pytest.mark.parametrize(
    "extra",
    [
        dict(eps=0.25),
        dict(eps=0.5, proposal="central-t", scheme="systematic"),
        dict(eps=0.5, resample="ess:25"),
        dict(algo="abc-smc", eps=None, smc_percentile=0.5),
    ],
)
def test_filter_produces_estimates(cli, extra):
    cli.simulate(horizon=30)
    assert main(cli.argv("filter", seed=3, **extra)) == EXIT_OK
    rows = list(csv.reader(cli.out.open()))
    assert rows[0] == ["t", "h_est", "ess"]
    assert len(rows) == 31
    for row in rows[1:]:
        assert np.isfinite(float(row[1]))
        assert 1.0 - 1e-9 <= float(row[2]) <= 64.0 + 1e-9


def test_experiment_writes_summary_and_boxplot(cli):
    box = cli.dir / "box.csv"
    flags = dict(replicates=2, seed=99, horizon=10, boxplot_out=box)
    assert main(cli.argv("experiment", **flags)) == EXIT_OK
    rows = list(csv.reader(cli.out.open()))
    # 15 grid cells x (2 replicates + 4 aggregate rows) + header
    assert len(rows) == 1 + 15 * 6
    box_rows = list(csv.reader(box.open()))
    assert len(box_rows) == 1 + 15 * 2 * 3


# ---------------------------------------------------------------------------
# Failures: one named case per cause, each checked by ``Cli.fails``
# ---------------------------------------------------------------------------


def test_missing_config_is_config_error(cli):
    cli.fails(EXIT_CONFIG, "simulate", "No such file", config=cli.dir / "nope.json")


def test_invalid_config_json_is_config_error(cli):
    cli.config.write_text("{broken")
    cli.fails(EXIT_CONFIG, "simulate", "not valid JSON")


def test_non_finite_config_value_is_config_error(cli):
    cli.model(mu=float("nan"))
    cli.fails(EXIT_CONFIG, "simulate", "'mu' must be finite")


@pytest.mark.parametrize(
    "overrides, expected, fragment",
    [
        # the stationary mean mu / (1 - phi) overflows: rejected as a config error
        (dict(mu=1e308, phi=0.5), EXIT_CONFIG, "stationary mean"),
        # a finite stationary law whose draws overflow exp(h / 2)
        (dict(sigma_h=1000.0), EXIT_NUMERICAL, "exp(h_t / 2) overflows at step 1: h_t = 1869.04"),
        # exp(h / 2) stays finite but two of the 2000 observations exp(h / 2) v do not
        (dict(mu=70.6), EXIT_NUMERICAL, "2 of 2000 simulated observations overflow"),
    ],
    ids=["overrides0-2", "overrides1-3", "overrides2-3"],
)
def test_overflowing_model_exit_code(cli, overrides, expected, fragment):
    cli.model(**overrides)
    cli.fails(expected, "simulate", fragment, horizon=2000)


def test_apf_without_bandwidth_is_config_error(cli):
    cli.simulate()
    cli.fails(EXIT_CONFIG, "filter", "requires --eps", eps=None)


def test_bad_resample_policy_is_config_error(cli):
    cli.simulate()
    cli.fails(EXIT_CONFIG, "filter", "--resample", resample="never")


@pytest.mark.parametrize(
    "flags",
    [
        dict(algo="abc-smc", eps=0.3),
        dict(algo="abc-smc", eps=None, kernel="gaussian"),
        dict(algo="abc-smc", eps=None, proposal="noncentral-t"),
        dict(smc_percentile=0.5),
    ],
    ids=["smc-eps", "smc-kernel", "smc-proposal", "apf-smc-percentile"],
)
def test_other_algorithms_flag_is_config_error(cli, flags):
    cli.simulate()
    cli.fails(EXIT_CONFIG, "filter", "does not take", **flags)


def test_bad_replicate_count_is_config_error(cli):
    cli.fails(EXIT_CONFIG, "experiment", "replicates", replicates=0)


@pytest.mark.parametrize(
    "command, flag, path, fragment",
    [
        ("simulate", "out", "no/x.csv", "does not exist"),
        ("filter", "out", "no/x.csv", "does not exist"),
        ("experiment", "boxplot_out", "no/x.csv", "does not exist"),
        ("filter", "out", ".", "is a directory"),
    ],
    ids=["simulate-out", "filter-out", "experiment-boxplot_out", "filter-out-is-directory"],
)
def test_missing_output_directory_stops_command_before_any_work(
    cli, command, flag, path, fragment
):
    # Every output path is checked before the command runs: a study whose
    # boxplot path is bad does not write its summary either, and a filter
    # stops on its output path before it finds its data file missing.
    cli.fails(EXIT_CONFIG, command, fragment, **{flag: cli.dir / path})


def test_malformed_data_csv_is_config_error(cli):
    cli.data.write_text("wrong,header\n1,2\n")
    cli.fails(EXIT_CONFIG, "filter", "data header")


@pytest.mark.parametrize(
    "row",
    ["1,0.5", "1,0.5,0.1,9", "2,0.5,0.1", "5,0.5,0.1"],
    ids=["short", "long", "t-out-of-order", "t-repeated"],
)
def test_malformed_data_row_is_config_error(cli, row):
    cli.simulate()
    cli.data.write_text(cli.data.read_text() + row + "\n")
    cli.fails(EXIT_CONFIG, "filter")


def test_infinite_bandwidth_is_config_error(cli):
    cli.simulate()
    cli.fails(EXIT_CONFIG, "filter", "epsilon must be finite", eps="inf")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_observation_is_config_error(cli, bad):
    cli.simulate()
    lines = cli.data.read_text().splitlines()
    t, _, h = lines[3].split(",")
    lines[3] = ",".join([t, bad, h])
    cli.data.write_text("\n".join(lines) + "\n")
    cli.fails(EXIT_CONFIG, "filter", "NaN or infinite")


def test_nan_weight_maps_to_exit_three(cli, monkeypatch):
    cli.simulate()
    monkeypatch.setattr(
        filters_mod, "log_kernel", lambda spec, u: np.full(np.shape(u), np.nan)
    )
    cli.fails(EXIT_NUMERICAL, "filter", "max is nan")


def test_numerical_failure_maps_to_exit_three(cli, monkeypatch):
    cli.simulate()

    def boom(*args, **kwargs):
        raise SeriesConvergenceError("no convergence")

    monkeypatch.setattr(experiment_mod, "abc_apf_run", boom)
    cli.fails(EXIT_NUMERICAL, "filter", "no convergence")


def test_all_steps_degenerate_is_numerical_failure(cli):
    # At eps=1e-300 the Gaussian kernel's squared gap overflows, every weight
    # is log-zero, every step is a degenerate reset and no estimate is written;
    # the CLI's own message is the only report of the overflow.
    cli.simulate()
    cli.fails(EXIT_NUMERICAL, "filter", "5 of 5 steps", eps=1e-300)


def test_some_steps_degenerate_is_numerical_failure(cli):
    # At this bandwidth 18 of the 20 steps are degenerate resets and two keep
    # a weight; a reset step's estimate ignores its observation, so the run
    # fails and no estimate is written.
    cli.simulate(horizon=20, seed=1)
    cli.fails(EXIT_NUMERICAL, "filter", "18 of 20 steps", eps=3.16e-158, particles=200)


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs_as_subprocess(cli):
    proc = subprocess.run(
        [sys.executable, "-m", "stablevol", *cli.argv("simulate", seed=2)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert cli.out.exists()
