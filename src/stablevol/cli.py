"""Command-line front end: simulate data, filter it, or run a full study.

Exit codes: 0 on success, 2 on configuration/validation errors (including
non-finite observations or model parameters, a model whose stationary mean or
variance is not finite, a config that repeats a key, a ``filter`` flag that
belongs to the other ``--algo``, and an output path that is bad: its directory
does not exist, it is a directory, or it names the same file as ``--config``,
``--data`` or the other output, by name or by a hard link; output paths are
checked before any work), 3
on numerical failures (including an overflow, a filter run on an observation
scale exp(h / 2) that overflows or underflows, and a filter run in which any
step was a degenerate reset).  Exit 2 or 3 writes no output file and prints one
``error: `` or ``numerical failure: `` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .experiment import (
    GridCell,
    StudySpec,
    benchmark_cells,
    load_model_config,
    read_data_csv,
    run_study,
    write_boxplot_csv,
    write_data_csv,
    write_filtered_csv,
    write_summary_csv,
)
from .filters import DegenerateCloudError, FilterConfig, SmcConfig
from .kernels import KernelSpec
from .proposals import ProposalSpec, SeriesConvergenceError
from .svm import simulate

_NUMERICAL_ERRORS = (
    SeriesConvergenceError,
    DegenerateCloudError,
    FloatingPointError,
    OverflowError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablevol",
        description="ABC particle filtering for stable-noise stochastic volatility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a model trajectory to CSV")
    sim.set_defaults(handler=_cmd_simulate)
    sim.add_argument("--config", required=True, help="model-parameter JSON file")
    sim.add_argument("--horizon", type=int, required=True, metavar="T")
    sim.add_argument("--seed", type=int, required=True, metavar="S")
    sim.add_argument("--out", required=True, help="output data CSV (t,y,h_true)")

    filt = sub.add_parser("filter", help="run one filter over a data CSV")
    filt.set_defaults(handler=_cmd_filter)
    filt.add_argument("--algo", choices=["abc-apf", "abc-smc"], required=True)
    filt.add_argument(
        "--proposal",
        choices=["central-t", "shifted-t", "noncentral-t"],
        help="abc-apf only",
    )
    filt.add_argument(
        "--kernel", choices=["gaussian", "uniform"], help="abc-apf only (default gaussian)"
    )
    filt.add_argument("--eps", type=float, metavar="E", help="abc-apf only, required")
    filt.add_argument("--smc-percentile", type=float, metavar="P", help="abc-smc only")
    filt.add_argument("--particles", type=int, default=5000, metavar="N")
    filt.add_argument(
        "--resample",
        default="every",
        metavar="{every|ess:N0}",
        help="resampling policy: 'every' or 'ess:N0'",
    )
    filt.add_argument("--scheme", choices=["multinomial", "systematic"], default="multinomial")
    filt.add_argument("--config", required=True, help="model-parameter JSON file")
    filt.add_argument("--data", required=True, help="input data CSV")
    filt.add_argument("--seed", type=int, required=True, metavar="S")
    filt.add_argument("--out", required=True, help="output CSV (t,h_est,ess)")

    exp = sub.add_parser("experiment", help="run the benchmark study grid")
    exp.set_defaults(handler=_cmd_experiment)
    exp.add_argument("--config", required=True, help="model-parameter JSON file")
    exp.add_argument("--replicates", type=int, required=True, metavar="R")
    exp.add_argument("--seed", type=int, required=True, metavar="S")
    exp.add_argument("--out", required=True, help="summary CSV path")
    exp.add_argument("--boxplot-out", default=None, help="optional long-format CSV path")
    exp.add_argument("--horizon", type=int, default=500, metavar="T")
    exp.add_argument("--particles", type=int, default=5000, metavar="N")
    exp.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="processes running replicates (default 1, so 'seconds' times a run alone)",
    )
    return parser


def _parse_policy(text: str):
    if text == "every":
        return "every_step", None
    if text.startswith("ess:"):
        try:
            return "ess_threshold", float(text[4:])
        except ValueError as exc:
            raise ValueError(f"bad resample threshold in {text!r}") from exc
    raise ValueError(f"--resample must be 'every' or 'ess:N0', got {text!r}")


# The options each --algo does not read; the parser leaves them None when absent.
_FOREIGN_OPTIONS = {"abc-apf": ("smc_percentile",), "abc-smc": ("eps", "kernel", "proposal")}


def _filter_config(args) -> FilterConfig | SmcConfig:
    policy, threshold = _parse_policy(args.resample)
    foreign = [
        "--" + name.replace("_", "-")
        for name in _FOREIGN_OPTIONS[args.algo]
        if getattr(args, name) is not None
    ]
    if foreign:
        raise ValueError(f"{args.algo} does not take {', '.join(foreign)}")
    given = dict(
        n_particles=args.particles,
        resample_policy=policy,
        resample_threshold=threshold,
        resample_scheme=args.scheme,
    )
    # A flag left out keeps the config's default.
    if args.algo == "abc-smc":
        if args.smc_percentile is not None:
            given["smc_percentile"] = args.smc_percentile
        return SmcConfig(**given)
    if args.eps is None:
        raise ValueError("abc-apf requires --eps")
    if args.proposal is not None:
        given["proposal"] = ProposalSpec(args.proposal.replace("-", "_"))
    return FilterConfig(kernel=KernelSpec(args.kernel or "gaussian", args.eps), **given)


def _cmd_simulate(args) -> int:
    model = load_model_config(args.config)
    traj = simulate(model, args.horizon, args.seed)
    write_data_csv(args.out, traj)
    return EXIT_OK


def _cmd_filter(args) -> int:
    model = load_model_config(args.config)
    config = _filter_config(args)
    traj = read_data_csv(args.data)
    rng = np.random.default_rng(args.seed)
    output = GridCell(args.algo, config).run(traj.y, model, rng)
    if output.degeneracy_count > 0:
        # A reset step's weights ignore its observation, so its estimate
        # carries no information from the data.
        raise DegenerateCloudError(
            f"{output.degeneracy_count} of {len(traj.y)} steps had all weights log-zero"
        )
    write_filtered_csv(args.out, output)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    model = load_model_config(args.config)
    spec = StudySpec(
        model=model,
        horizon=args.horizon,
        cells=benchmark_cells(n_particles=args.particles),
        replicates=args.replicates,
        base_seed=args.seed,
    )
    result = run_study(spec, max_workers=args.workers)
    write_summary_csv(args.out, result)
    if args.boxplot_out:
        write_boxplot_csv(args.boxplot_out, result)
    return EXIT_OK


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file: by device and inode when
    both exist, so a hard link counts, else by resolved name.  Neither raises
    on a symlink loop (``exists`` reads False for one, and realpath, unlike
    Path.resolve() before Python 3.13, returns); the loop then fails as an
    OSError when it is opened."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Checked first, so a bad output path costs no work and leaves no output.
        named = {
            "--config": args.config,
            "--data": getattr(args, "data", None),
            "--out": args.out,
            "--boxplot-out": getattr(args, "boxplot_out", None),
        }
        for flag in ("--out", "--boxplot-out"):
            path = named[flag]
            if not path:
                continue
            if not Path(path).parent.is_dir():
                raise ValueError(f"the directory of {path} does not exist")
            if Path(path).is_dir():
                raise ValueError(f"{path} is a directory, not a file")
            for other, target in named.items():
                if other != flag and target and _same_file(path, target):
                    raise ValueError(f"{flag} {path} is the same file as {other}")
        # An overflow surfaces as an inf that the handlers reject with an
        # exit code of their own, so numpy's warning would only repeat it.
        # The same holds for the APF's division by an observation scale that
        # overflowed or underflowed: the NaN weight it leaves fails normalize.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main_entry() -> None:
    sys.exit(main())
