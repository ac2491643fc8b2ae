"""End-to-end tests of the command-line interface.

Each test checks a decision made in ``stablevol.cli``: a flag, the resampling
policy, the per-algorithm filter rules, the output-path checks, the exit code
of each exception class, the degenerate-run check, ``--workers`` or the entry
point.  A rule on an input (a config value, a data row, a bandwidth, a model)
is tested in the module that enforces it, not again through ``main``.

Every failing command goes through ``Cli.fails``, which checks the whole
failure contract: the exit code, every file left byte for byte as it was, and
exactly one stderr line with the code's prefix.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stablevol.experiment as experiment_mod
from stablevol.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from stablevol.proposals import SeriesConvergenceError

# Spawned commands import this checkout's package, not an installed one.
SRC = Path(__file__).resolve().parents[1] / "src"

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

    def run_module(self, command, **flags):
        """Run ``python -m stablevol`` on ``command`` as a separate process."""
        return subprocess.run(
            [sys.executable, "-m", "stablevol", *self.argv(command, **flags)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    def simulate(self, **flags):
        flags = {"seed": 11, "out": self.data, **flags}
        assert main(self.argv("simulate", **flags)) == EXIT_OK

    def files(self):
        """Every file under the test's directory, mapped to its bytes."""
        return {path: path.read_bytes() for path in self.dir.rglob("*") if path.is_file()}

    def fails(self, code, command, fragment=None, **flags):
        """Run ``command`` with RuntimeWarnings raised as errors and check that
        it exits ``code``, writes, changes or removes no file and prints one
        prefixed stderr line (holding ``fragment`` when one is given)."""
        before = self.files()
        self.capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(self.argv(command, **flags)) == code
        assert self.files() == before
        err = self.capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(PREFIX[code]), err
        if fragment is not None:
            assert fragment in err, err


@pytest.fixture()
def cli(tmp_path, capsys):
    return Cli(tmp_path, capsys)


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


def _without_seconds(summary, box):
    """The summary rows minus their ``seconds`` column and the boxplot rows
    minus the ``seconds`` metric: every figure that is not a timing."""
    summary_rows = [row[:7] + row[8:] for row in csv.reader(summary.open())]
    box_rows = [row for row in csv.reader(box.open()) if row[5] != "seconds"]
    return summary_rows, box_rows


# The study the entry-point tests spawn, and repeat in process.
SPAWNED_STUDY = dict(replicates=2, seed=99)


@pytest.fixture(scope="module")
def spawned_study(tmp_path_factory):
    """One ``python -m stablevol experiment --workers 2`` run, shared by the
    entry-point tests: its process result and its summary and boxplot paths."""
    spawned = Cli(tmp_path_factory.mktemp("spawned"), capsys=None)
    outputs = spawned.out, spawned.dir / "box.csv"
    proc = spawned.run_module(
        "experiment", **SPAWNED_STUDY, boxplot_out=outputs[1], workers=2
    )
    return proc, outputs


def test_module_entry_point_runs_as_subprocess(spawned_study):
    proc, outputs = spawned_study
    assert proc.returncode == EXIT_OK, proc.stderr
    assert all(path.exists() for path in outputs)


def test_module_entry_point_runs_a_study_on_spawned_workers(spawned_study):
    # __main__ runs the command without a __name__ guard; the spawned workers
    # import it without running the study again, so they print nothing.
    proc, _ = spawned_study
    assert proc.returncode == EXIT_OK and proc.stderr == "", proc.stderr


def test_experiment_outputs_do_not_depend_on_worker_count(cli, spawned_study):
    # Each (replicate, cell) pair owns a derived seed, so the spawned workers
    # give the serial study's figures; only the timings differ.
    proc, outputs = spawned_study
    assert proc.returncode == EXIT_OK, proc.stderr
    box = cli.dir / "box.csv"
    assert main(cli.argv("experiment", **SPAWNED_STUDY, boxplot_out=box, workers=1)) == EXIT_OK
    assert _without_seconds(*outputs) == _without_seconds(cli.out, box)


# ---------------------------------------------------------------------------
# Failures: one named case per cause, each checked by ``Cli.fails``
# ---------------------------------------------------------------------------


def test_missing_config_is_config_error(cli):
    cli.fails(EXIT_CONFIG, "simulate", "No such file", config=cli.dir / "nope.json")


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        # a finite stationary law whose draws overflow exp(h / 2)
        (dict(sigma_h=1000.0), "exp(h_t / 2) overflows at step 1: h_t = 1869.04"),
        # exp(h / 2) stays finite but two of the 2000 observations exp(h / 2) v do not
        (dict(mu=70.6), "2 of 2000 simulated observations overflow"),
    ],
    ids=["overrides1-3", "overrides2-3"],
)
def test_overflowing_model_exit_code(cli, overrides, fragment):
    # An OverflowError is a numerical failure (exit 3), not a config error.
    cli.model(**overrides)
    cli.fails(EXIT_NUMERICAL, "simulate", fragment, horizon=2000)


@pytest.mark.parametrize(
    "mu",
    [
        # exp(h / 2) = inf: the gap over it is inf / inf, a NaN weight, and
        # numpy's divide and invalid warnings must not print a second line.
        1500.0,
        # exp(h / 2) = 0: the gap over it and log(0) make the NaN weight.
        -1500.0,
    ],
    ids=["apf-overflow", "apf-underflow"],
)
def test_filter_on_non_finite_observation_scale_is_numerical_failure(cli, mu):
    # The stationary mean mu is finite, so the model itself is accepted.
    cli.simulate()
    cli.model(mu=mu, phi=0.0)
    cli.fails(EXIT_NUMERICAL, "filter", "max is nan")


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


def test_bad_worker_count_is_config_error(cli):
    cli.fails(EXIT_CONFIG, "experiment", "--workers must be >= 1", workers=0)


def test_overflowing_model_fails_the_same_under_workers(cli):
    # The overflow is raised in a spawned worker.  Run as a process, so the
    # check sees the workers' stderr too: the command still prints one line.
    cli.model(mu=70.6)
    proc = cli.run_module("experiment", replicates=2, horizon=2000, workers=2)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr.splitlines() == [
        "numerical failure: 2 of 2000 simulated observations overflow"
    ], proc.stderr
    assert not cli.out.exists()


@pytest.mark.parametrize(
    "command, flag, path, fragment",
    [
        ("simulate", "out", "no/x.csv", "does not exist"),
        ("filter", "out", "no/x.csv", "does not exist"),
        ("experiment", "boxplot_out", "no/x.csv", "does not exist"),
        ("filter", "out", ".", "is a directory"),
        # An output must not overwrite the command's input or its other output.
        ("filter", "out", "data.csv", "same file as --data"),
        ("simulate", "out", "model.json", "same file as --config"),
        ("experiment", "boxplot_out", "out.csv", "same file as --boxplot-out"),
        # A hard link is the same file under another name.
        ("filter", "out", "link.csv", "same file as --data"),
    ],
    ids=[
        "simulate-out",
        "filter-out",
        "experiment-boxplot_out",
        "filter-out-is-directory",
        "filter-out-is-data",
        "simulate-out-is-config",
        "experiment-boxplot_out-is-out",
        "filter-out-is-hard-link-to-data",
    ],
)
def test_missing_output_directory_stops_command_before_any_work(
    cli, command, flag, path, fragment
):
    # Every output path is checked before the command runs: a study whose
    # boxplot path is bad does not write its summary either, and a filter
    # stops on its output path before it finds its data file missing.
    if path in ("data.csv", "link.csv"):
        cli.simulate()
    if path == "link.csv":
        os.link(cli.data, cli.dir / path)
    cli.fails(EXIT_CONFIG, command, fragment, **{flag: cli.dir / path})


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
