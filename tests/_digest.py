"""Golden digest of the package's outputs: what "the same answers" means.

It is the suite's only byte-level pin of outputs: every other test checks a
property, an oracle or a reference.  (``test_log_phat_pinned_bits`` pins
single density values, to reach and count the non-central t's quadrature
fallback, which no group at these sizes takes.)

Each named group runs one part of the package at a small size (T <= 20,
N <= 128) and hashes what it returns with SHA-256:

- ``sample/alpha=A``: stable draws on every (beta, gamma) of the grid below,
  as arrays and as scalars (the type of a scalar draw is hashed too);
- ``simulate/M``: the state and observation paths of each model;
- ``apf/M/P/K/POLICY/SCHEME``: filtered means, ESS trace and the two counters
  of one ABC-APF run, for each proposal, kernel, resampling policy and scheme;
- ``smc/M/PCT``: the same for ABC-SMC at survival percentiles 0.25 and 1.0;
- ``study/summary``, ``study/boxplot``: the CSVs of a tiny study;
- ``cli/...``: each command's exit code and the bytes of the files it wrote.

A run that raises is hashed as its exception class.  The study and CLI
groups stop the clock (``time.perf_counter`` reads 0), so their ``seconds``
columns are fixed.  ``golden_digest.json`` records one hash per group with
the numpy version and platform it was written on; float bits depend on
numpy's build and its SIMD dispatch, so the file holds for that platform.
``tests/test_digest.py`` recomputes every group and names each one that moved.

A change that moves outputs on purpose regenerates the file with

    python tests/_digest.py

and lists the changed groups in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # run as a script from an uninstalled checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from stablevol.cli import main as cli_main
from stablevol.experiment import (
    GridCell,
    StudySpec,
    reference_model,
    run_study,
    sensitivity_models,
    write_boxplot_csv,
    write_summary_csv,
)
from stablevol.filters import (
    FilterConfig, LinearGaussianParams, SmcConfig, abc_apf_run, abc_smc_run
)
from stablevol.kernels import KernelSpec
from stablevol.proposals import ProposalSpec
from stablevol.stable import StableParams, sample
from stablevol.svm import SvmParams, simulate

GOLDEN = Path(__file__).resolve().parent / "golden_digest.json"

HORIZON = 20
PARTICLES = 128

ALPHAS = (0.1, 0.5, 0.8, 1.0, 1.0 + 1e-12, 1.2, 1.75, 2.0)
BETAS = (-1.0, -0.3, 0.0, 0.5, 1.0)
GAMMAS = (0.5, 1.0, math.e)

MODELS = {
    "reference": reference_model(),
    "linear-gaussian": LinearGaussianParams(mu=0.0, phi=0.9, sigma_h=0.5, sigma_y=0.5),
    **dict(sensitivity_models(1.0, 1.0)),
    # The alpha = 1 branch, where the scale also moves the location.
    "alpha-one": SvmParams(
        mu=0.0, phi=0.9, sigma_h=0.5, obs_noise=StableParams(alpha=1.0, beta=0.5, gamma=0.7)
    ),
    "alpha-one-guard-band": SvmParams(
        mu=0.0,
        phi=0.9,
        sigma_h=0.5,
        obs_noise=StableParams(alpha=1.0 + 1e-12, beta=-0.3, gamma=1.3),
    ),
}
NONCENTRAL_MODELS = ("reference", "linear-gaussian")

# Exceptions a run may raise on its inputs; any other one is a fault here.
_RUN_ERRORS = (ArithmeticError, ValueError, RuntimeError)

# The CLI's model config: the reference model's parameters.
_CLI_MODEL = dict(mu=-0.2, phi=0.95, sigma_h=0.6, alpha=1.75, beta=0.1, sigma_v=0.8)


def platform_name() -> str:
    return f"{platform.system()} {platform.machine()}, Python {platform.python_version()}"


def _hash(*items) -> str:
    """SHA-256 over ``items``: arrays and numpy scalars by type, shape and
    bytes, and Python scalars, strings and bytes by their exact repr."""
    digest = hashlib.sha256()
    for item in items:
        if isinstance(item, (np.ndarray, np.generic)):
            array = np.asarray(item)
            head = f"{type(item).__name__} {array.dtype.str} {array.shape}".encode()
            parts = (head, np.ascontiguousarray(array).tobytes())
        elif isinstance(item, (int, float, str, bytes, type(None))):
            parts = (repr(item).encode(),)
        else:
            # A container's repr would print its arrays rounded.
            raise TypeError(f"cannot hash {type(item).__name__} exactly")
        for part in parts:
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


def _outcome(compute, *args) -> tuple:
    """The items ``compute(*args)`` returns, or the class name of the error
    it raises."""
    try:
        return compute(*args)
    except _RUN_ERRORS as exc:
        return ("raises " + type(exc).__name__,)


def _path_items(model):
    path = simulate(model, HORIZON, 3)
    return path.h, path.y


def _filter_items(run, ys, model, config):
    out = run(ys, model, config, np.random.default_rng(7))
    return out.filtered_mean, out.ess_trace, out.resample_count, out.degeneracy_count


def _sample_groups() -> dict:
    groups = {}
    for alpha in ALPHAS:
        items = []
        for beta in BETAS:
            for gamma in GAMMAS:
                params = StableParams(alpha=alpha, beta=beta, gamma=gamma)
                rng = np.random.default_rng(11)
                items += [sample(params, rng, 64), sample(params, rng, (2, 3))]
                items += [sample(params, rng, ()) for _ in range(3)]
        groups[f"sample/alpha={alpha!r}"] = _hash(*items)
    return groups


def _filter_groups() -> dict:
    groups = {}
    for name, model in MODELS.items():
        path = _outcome(_path_items, model)
        groups[f"simulate/{name}"] = _hash(*path)
        if len(path) == 1:
            continue
        ys = path[1]
        proposals = ["central_t", "shifted_t"]
        if name in NONCENTRAL_MODELS:
            proposals.append("noncentral_t")
        for proposal in proposals:
            for kernel in ("gaussian", "uniform"):
                for policy in ("every_step", "ess_threshold"):
                    for scheme in ("multinomial", "systematic"):
                        config = FilterConfig(
                            PARTICLES,
                            KernelSpec(kernel, 0.5),
                            ProposalSpec(proposal),
                            resample_policy=policy,
                            resample_scheme=scheme,
                        )
                        key = f"apf/{name}/{proposal}/{kernel}/{policy}/{scheme}"
                        groups[key] = _hash(
                            *_outcome(_filter_items, abc_apf_run, ys, model, config)
                        )
        for percentile in (0.25, 1.0):
            config = SmcConfig(PARTICLES, percentile)
            groups[f"smc/{name}/{percentile}"] = _hash(
                *_outcome(_filter_items, abc_smc_run, ys, model, config)
            )
    return groups


def _stopped_clock():
    """A context in which ``time.perf_counter`` reads 0."""
    return mock.patch.object(time, "perf_counter", lambda: 0.0)


def _study_groups(tmp: Path) -> dict:
    cells = (
        GridCell(
            "abc-apf", FilterConfig(64, KernelSpec("gaussian", 0.5), ProposalSpec("shifted_t"))
        ),
        GridCell(
            "abc-apf",
            FilterConfig(
                64,
                KernelSpec("uniform", 0.5),
                ProposalSpec("central_t"),
                resample_policy="ess_threshold",
                resample_scheme="systematic",
            ),
        ),
        GridCell("abc-smc", SmcConfig(64, 0.5)),
    )
    spec = StudySpec(model=reference_model(), horizon=12, cells=cells, replicates=3, base_seed=5)
    with _stopped_clock():
        result = run_study(spec)
    write_summary_csv(tmp / "summary.csv", result)
    write_boxplot_csv(tmp / "boxplot.csv", result)
    return {
        "study/summary": _hash((tmp / "summary.csv").read_bytes()),
        "study/boxplot": _hash((tmp / "boxplot.csv").read_bytes()),
    }


def _cli_groups(tmp: Path) -> dict:
    config, data = tmp / "model.json", tmp / "data.csv"
    config.write_text(json.dumps(_CLI_MODEL))

    def command(name, *argv, outputs=()):
        for path in outputs:
            path.unlink(missing_ok=True)
        with _stopped_clock(), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([*argv, "--config", str(config)])
        written = [path.read_bytes() if path.exists() else None for path in outputs]
        return {f"cli/{name}": _hash(code, *written)}

    groups = command(
        "simulate", "simulate", "--horizon", "15", "--seed", "4", "--out", str(data),
        outputs=[data],
    )
    out = tmp / "filtered.csv"
    filters = {
        "apf-shifted-t": ["--algo", "abc-apf", "--eps", "0.5"],
        "apf-central-t-uniform-ess-systematic": [
            "--algo", "abc-apf", "--proposal", "central-t", "--kernel", "uniform",
            "--eps", "0.75", "--resample", "ess:40", "--scheme", "systematic",
        ],
        "apf-noncentral-t": ["--algo", "abc-apf", "--proposal", "noncentral-t", "--eps", "0.5"],
        "smc": ["--algo", "abc-smc", "--smc-percentile", "0.5"],
        # Exit 3: every step is a degenerate reset.
        "apf-degenerate": ["--algo", "abc-apf", "--eps", "1e-300"],
        # Exit 2: the APF needs a bandwidth.
        "apf-missing-eps": ["--algo", "abc-apf"],
    }
    for name, flags in filters.items():
        groups |= command(
            f"filter/{name}", "filter", *flags, "--particles", "64", "--seed", "9",
            "--data", str(data), "--out", str(out), outputs=[out],
        )
    summary, boxplot = tmp / "summary.csv", tmp / "boxplot.csv"
    groups |= command(
        "experiment", "experiment", "--replicates", "2", "--seed", "6", "--horizon", "6",
        "--particles", "32", "--out", str(summary), "--boxplot-out", str(boxplot),
        outputs=[summary, boxplot],
    )
    return groups


def build() -> dict:
    """Every group's name mapped to its SHA-256."""
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        return {
            **_sample_groups(),
            **_filter_groups(),
            **_study_groups(Path(tmp)),
            **_cli_groups(Path(tmp)),
        }


def write_golden() -> None:
    record = {"numpy": np.__version__, "platform": platform_name(), "groups": build()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
    print(f"wrote {len(json.loads(GOLDEN.read_text())['groups'])} groups to {GOLDEN}")
