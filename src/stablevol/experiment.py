"""Simulation-study harness: paired replicates, metrics, aggregation, CSV I/O.

A study is a grid of filter configurations ("cells") run against shared
per-replicate datasets, so cells are compared on identical data.  Every
random stream is derived from (base_seed, replicate, label) via SHA-256, which
makes results reproducible bit-for-bit regardless of execution order or the
number of worker processes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .filters import FilterConfig, FilterOutput, SmcConfig, abc_apf_run, abc_smc_run
from .kernels import KernelSpec, _as_float
from .proposals import DOF, ProposalSpec
from .stable import StableParams
from .svm import SvmParams, Trajectory, simulate

__all__ = [
    "rmse",
    "abs_error",
    "derive",
    "run_metrics",
    "RunMetrics",
    "GridCell",
    "StudySpec",
    "StudyResult",
    "run_study",
    "reference_model",
    "benchmark_cells",
    "sensitivity_models",
    "load_model_config",
    "write_data_csv",
    "read_data_csv",
    "write_filtered_csv",
    "write_summary_csv",
    "write_boxplot_csv",
]


def _residual(estimate, truth) -> np.ndarray:
    """estimate - truth, for two paths of the same shape."""
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {t.shape}")
    return e - t


def rmse(estimate, truth) -> float:
    """Root mean squared error between two equal-length paths."""
    return float(np.sqrt(np.mean(_residual(estimate, truth) ** 2)))


def abs_error(estimate, truth) -> float:
    """Mean absolute error between two equal-length paths."""
    return float(np.mean(np.abs(_residual(estimate, truth))))


def derive(base_seed: int, replicate: int, label: str) -> int:
    """Collision-resistant 64-bit seed for the (replicate, label) sub-stream."""
    raw = f"{int(base_seed)}|{int(replicate)}|{label}".encode()
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


@dataclass(frozen=True)
class RunMetrics:
    """Error and cost summary of one filter run against the true state path."""

    rmse: float
    ae: float
    elapsed: float
    degeneracy_count: int


def run_metrics(output: FilterOutput, h_true) -> RunMetrics:
    """Metrics of a filter output versus the true path h_0..h_T.

    The comparison covers t = 1..T; a path of any other length raises.
    """
    h = np.asarray(h_true, dtype=float)[1:]
    return RunMetrics(
        rmse=rmse(output.filtered_mean, h),
        ae=abs_error(output.filtered_mean, h),
        elapsed=output.elapsed,
        degeneracy_count=output.degeneracy_count,
    )


@dataclass(frozen=True)
class GridCell:
    """One algorithm/configuration cell of a study grid."""

    algo: str
    config: FilterConfig | SmcConfig

    def __post_init__(self) -> None:
        expected = {"abc-apf": FilterConfig, "abc-smc": SmcConfig}.get(self.algo)
        if type(self.config) is not expected:
            raise ValueError(
                "algo must be 'abc-apf' on a FilterConfig or 'abc-smc' on an SmcConfig, "
                f"got {self.algo!r} on a {type(self.config).__name__}"
            )

    @property
    def bandwidth(self) -> float:
        """The eps column value: kernel bandwidth, or the SMC percentile."""
        if self.algo == "abc-smc":
            return self.config.smc_percentile
        return self.config.kernel.epsilon

    @property
    def proposal_name(self) -> str:
        return "-" if self.algo == "abc-smc" else self.config.proposal.kind

    @property
    def kernel_name(self) -> str:
        return "uniform" if self.algo == "abc-smc" else self.config.kernel.kind

    @property
    def label(self) -> str:
        """Canonical content string; identical configurations share seeds."""
        c = self.config
        smc = self.algo == "abc-smc"
        parts = [
            self.algo,
            self.proposal_name,
            "-" if smc else DOF,
            # ABC-SMC's kernel prints as "uniform|None", text its derived seeds hash.
            self.kernel_name,
            None if smc else c.kernel.epsilon,
            c.smc_percentile if smc else "-",
            c.n_particles,
            c.resample_policy,
            c.resample_threshold,
            c.resample_scheme,
        ]
        return "|".join(str(p) for p in parts)

    def run(self, ys, model, rng) -> FilterOutput:
        if self.algo == "abc-apf":
            return abc_apf_run(ys, model, self.config, rng)
        return abc_smc_run(ys, model, self.config, rng)


@dataclass(frozen=True)
class StudySpec:
    """A full study: model, horizon, grid cells, replicate count, base seed."""

    model: SvmParams
    horizon: int
    cells: tuple
    replicates: int
    base_seed: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if len(self.cells) == 0:
            raise ValueError("study needs at least one grid cell")
        object.__setattr__(self, "cells", tuple(self.cells))


# The summary's aggregate rows, in order.
_AGGREGATES = {"mean": np.mean, "median": np.median, "min": np.min, "max": np.max}


@dataclass
class StudyResult:
    """Per-cell, per-replicate metrics plus aggregate views."""

    spec: StudySpec
    metrics: list  # metrics[cell_index][replicate] -> RunMetrics

    def aggregate(self, cell_index: int) -> dict:
        """Each ``RunMetrics`` field reduced over the cell's replicates, as a
        float, by each of ``_AGGREGATES``."""
        ms = self.metrics[cell_index]
        columns = {
            f.name: np.array([getattr(m, f.name) for m in ms], dtype=float)
            for f in fields(RunMetrics)
        }
        return {
            name: RunMetrics(**{key: float(reduce(col)) for key, col in columns.items()})
            for name, reduce in _AGGREGATES.items()
        }


def _replicate_task(spec: StudySpec, replicate: int):
    data = simulate(spec.model, spec.horizon, derive(spec.base_seed, replicate, "data"))
    row = []
    for cell in spec.cells:
        rng = np.random.default_rng(derive(spec.base_seed, replicate, cell.label))
        output = cell.run(data.y, spec.model, rng)
        row.append(run_metrics(output, data.h))
    return row


def run_study(spec: StudySpec, max_workers: int = 1) -> StudyResult:
    """Run every cell against every paired replicate.

    ``max_workers`` > 1 runs replicates in a pool of spawned processes (the
    filters are Python-bound, so threads would share one interpreter lock);
    results are bit-identical for any worker count because each
    (replicate, cell) pair owns a derived seed.  The workers handle numpy's
    floating-point errors as the caller does, and the first replicate that
    raises stops the study: the replicates not yet started are dropped.
    """
    if max_workers <= 1:
        rows = [_replicate_task(spec, r) for r in range(spec.replicates)]
    else:
        # Imported here, so a serial study loads no multiprocessing modules.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(
            max_workers,
            mp_context=get_context("spawn"),
            initializer=functools.partial(np.seterr, **np.geterr()),
        ) as pool:
            try:
                rows = list(
                    pool.map(functools.partial(_replicate_task, spec), range(spec.replicates))
                )
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    metrics = [
        [rows[r][c] for r in range(spec.replicates)] for c in range(len(spec.cells))
    ]
    return StudyResult(spec=spec, metrics=metrics)


# ---------------------------------------------------------------------------
# Reference configurations
# ---------------------------------------------------------------------------


def reference_model() -> SvmParams:
    """The default simulation-study model used across the demos and CLI."""
    return SvmParams(
        mu=-0.2,
        phi=0.95,
        sigma_h=0.6,
        obs_noise=StableParams(alpha=1.75, beta=0.1, gamma=0.8),
    )


def benchmark_cells(
    n_particles: int = 5000,
    epsilons=(0.25, 0.5, 0.75, 1.5),
    percentiles=(0.25, 0.5, 0.75),
    proposals=("central_t", "shifted_t", "noncentral_t"),
) -> tuple:
    """The standard comparison grid: every proposal at every Gaussian-kernel
    bandwidth, plus the ABC-SMC baseline at each survival percentile."""
    cells = []
    for kind in proposals:
        for eps in epsilons:
            cells.append(
                GridCell(
                    algo="abc-apf",
                    config=FilterConfig(
                        n_particles=n_particles,
                        kernel=KernelSpec("gaussian", eps),
                        proposal=ProposalSpec(kind),
                    ),
                )
            )
    for pct in percentiles:
        cells.append(GridCell("abc-smc", SmcConfig(n_particles, pct)))
    return tuple(cells)


def sensitivity_models(sigma_h: float, sigma_v: float) -> tuple:
    """Tail-index sweep: (label, model) pairs from Gaussian (alpha=2) down to
    extremely heavy-tailed observation noise, at the given noise scales."""
    grid = [(2.0, 0.0), (1.9, 0.9), (1.2, 0.3), (0.8, -0.2), (0.1, -0.8)]
    models = []
    for alpha, beta in grid:
        models.append(
            (
                f"alpha={alpha},beta={beta}",
                SvmParams(
                    mu=0.0,
                    phi=0.9,
                    sigma_h=sigma_h,
                    obs_noise=StableParams(alpha, beta, sigma_v),
                ),
            )
        )
    return tuple(models)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("mu", "phi", "sigma_h", "alpha", "beta", "sigma_v")


def _unique_keys(pairs) -> dict:
    """Build a JSON object, rejecting a key that appears twice in it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"config repeats key {key!r}")
        out[key] = value
    return out


def load_model_config(path) -> SvmParams:
    """Read a model-parameter JSON file ({mu, phi, sigma_h, alpha, beta, sigma_v})."""
    with open(path) as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    missing = [k for k in _CONFIG_KEYS if k not in raw]
    if missing:
        raise ValueError(f"config missing keys: {missing}")
    extra = [k for k in raw if k not in _CONFIG_KEYS]
    if extra:
        raise ValueError(f"config has unknown keys: {extra}")
    values = {}
    for key in _CONFIG_KEYS:
        value = _as_float(f"config key {key!r}", raw[key])
        # json accepts NaN and Infinity, and an int too large for a float reads inf.
        if not math.isfinite(value):
            raise ValueError(f"config key {key!r} must be finite, got {raw[key]!r}")
        values[key] = value
    return SvmParams(
        mu=values["mu"],
        phi=values["phi"],
        sigma_h=values["sigma_h"],
        obs_noise=StableParams(values["alpha"], values["beta"], values["sigma_v"]),
    )


def write_data_csv(path, traj: Trajectory) -> None:
    """Write `t,y,h_true` with an initial `0,,h0` row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", "h_true"])
        writer.writerow([0, "", repr(float(traj.h[0]))])
        for t in range(1, traj.horizon + 1):
            writer.writerow([t, repr(float(traj.y[t - 1])), repr(float(traj.h[t]))])


def read_data_csv(path) -> Trajectory:
    """Read a data CSV back into a trajectory."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "y", "h_true"]:
            raise ValueError(f"unexpected data header: {header}")
        rows = [row for row in reader if row]
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"data row must have 3 fields (t,y,h_true), got {row}")
    if not rows or [row[0] for row in rows] != [str(t) for t in range(len(rows))]:
        raise ValueError("the t column must read 0, 1, ..., T, from the t=0 initial-state row")
    if rows[0][1]:
        raise ValueError(f"the t=0 row holds h_0 only, but its y is {rows[0][1]!r}")
    h = np.array([float(row[2]) for row in rows])
    y = np.array([float(row[1]) for row in rows[1:]])
    return Trajectory(h=h, y=y)


def write_filtered_csv(path, output: FilterOutput) -> None:
    """Write `t,h_est,ess` for t = 1..T."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "h_est", "ess"])
        for t in range(len(output.filtered_mean)):
            writer.writerow(
                [t + 1, repr(float(output.filtered_mean[t])), repr(float(output.ess_trace[t]))]
            )


def _cell_fixed_columns(cell: GridCell) -> list:
    return [cell.algo, cell.proposal_name, cell.kernel_name, cell.bandwidth]


def write_summary_csv(path, result: StudyResult) -> None:
    """Per-replicate rows plus mean/median/min/max aggregate rows per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["algo", "proposal", "kernel", "eps", "replicate", "rmse", "ae", "seconds", "degeneracies"]
        )
        for c, cell in enumerate(result.spec.cells):
            fixed = _cell_fixed_columns(cell)
            for r, m in enumerate(result.metrics[c]):
                writer.writerow(fixed + [r, m.rmse, m.ae, m.elapsed, m.degeneracy_count])
            for name, m in result.aggregate(c).items():
                writer.writerow(fixed + [name, m.rmse, m.ae, m.elapsed, m.degeneracy_count])


def write_boxplot_csv(path, result: StudyResult) -> None:
    """Long-format per-replicate metric values for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "proposal", "kernel", "eps", "replicate", "metric", "value"])
        for c, cell in enumerate(result.spec.cells):
            fixed = _cell_fixed_columns(cell)
            for r, m in enumerate(result.metrics[c]):
                writer.writerow(fixed + [r, "rmse", m.rmse])
                writer.writerow(fixed + [r, "ae", m.ae])
                writer.writerow(fixed + [r, "seconds", m.elapsed])
