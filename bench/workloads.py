"""The benchmark's workloads, their output checks and their metrics.

A *unit* is the piece of work one end-to-end timing covers: one filter call
for ``apf_shifted`` and ``lg_small_cloud``, one ``run_study`` call for
``study_grid``.  Every workload owns a fixed set of inputs derived from the
workload seed and cycles through them, so input ``k`` always gives the same
output and a repeat of it must match bit for bit.  Accuracy figures are
means over one pass through the inputs, which makes them repeat exactly for
a given seed however many units fit in the time window.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from stablevol import experiment
from stablevol.experiment import (
    GridCell,
    StudySpec,
    benchmark_cells,
    derive,
    reference_model,
    rmse,
    run_study,
)
from stablevol.filters import (
    FilterConfig,
    LinearGaussianParams,
    abc_apf_run,
    kalman_run,
)
from stablevol.kernels import KernelSpec
from stablevol.proposals import ProposalSpec
from stablevol.svm import simulate

from tracing import Tracer

# Records are short so that one unit fits inside the fast stretches of a
# noisy shared host (see END_TO_END); N and the per-step work are those of
# the headline runs, and accuracy is averaged over many inputs instead.
SIZES = {
    "full": {
        "apf_shifted": {"horizon": 100, "particles": 5000, "inputs": 40},
        "lg_small_cloud": {"horizon": 100, "particles": 256, "inputs": 40},
        "study_grid": {"horizon": 100, "particles": 2000, "replicates": 2, "inputs": 16},
    },
    "tiny": {
        "apf_shifted": {"horizon": 20, "particles": 200, "inputs": 2},
        "lg_small_cloud": {"horizon": 40, "particles": 64, "inputs": 2},
        "study_grid": {"horizon": 15, "particles": 100, "replicates": 2, "inputs": 2},
    },
}

SETUP_REPEATS = 5

# Criterion 4 of the acceptance suite: shifted-t ABC-APF at eps 0.25 has mean
# RMSE 0.984 +- 0.15 on the reference model.  The band holds for a mean over
# many steps, so accuracy checks run at full size only.
CRITERION4_CELL = "abc-apf:shifted_t:0.25"
CRITERION4_RMSE = (0.984, 0.15)
# Criterion 3 of the acceptance suite: mean |ABC mean - Kalman mean| <= 0.1,
# averaged over several records; here over one pass through the inputs.
KALMAN_GAP_TOL = 0.1

# Unit times are reported as the fastest unit in the window (best of k).  On
# a shared host the speed of the whole machine shifts by up to 2x for seconds
# to minutes, with short fast stretches in between, which moved the median of
# a 30 s window by up to 30% between runs.  The best of many short units
# catches the fast stretches.  The median and the mean throughput are still
# printed for reading, with their sample count.
END_TO_END = {
    "setup_s": "s",
    "psteps_per_s_peak": "1/s",
    "run_s_min": "s",
    "rmse_mean": "logvol",
    "peak_rss_mb": "MB",
}

# Per-layer times and counts are per unit: means over the traced units.
PER_LAYER = {
    "stable.sample_s": "s",
    "stable.variates": "count",
    "stable.ns_per_variate": "ns",
    "filters.resample_s": "s",
    "filters.resample_calls": "count",
    "filters.resample_us_per_call": "us",
    "proposals.log_phat_s": "s",
    "proposals.evals": "count",
    "filters.normalize_s": "s",
    "filters.ess_s": "s",
    "kernels.log_kernel_s": "s",
    "kernels.evals": "count",
    "filters.loop_self_s": "s",
    "svm.transition_s": "s",
    "svm.observe_s": "s",
    "svm.scale_s": "s",
    "filters.resolve_epsilon_s": "s",
    "experiment.filter_busy_s": "s",
    "experiment.concurrency": "ratio",
    "experiment.simulate_s": "s",
    "filters.ess_frac_p50": "ratio",
    "filters.unique_ancestor_frac": "ratio",
    "filters.resample_rate": "ratio",
    "filters.degenerate_steps": "count",
    "trace.overhead_frac": "ratio",
    "trace.absent_bindings": "count",
}

# Per-layer time metric -> span whose self time it reports.
_SELF_TIMES = {
    "stable.sample_s": "stable.sample",
    "filters.resample_s": "filters.resample",
    "proposals.log_phat_s": "proposals.log_phat",
    "filters.normalize_s": "filters.normalize",
    "filters.ess_s": "filters.ess",
    "kernels.log_kernel_s": "kernels.log_kernel",
    "filters.loop_self_s": "filters.run",
    "svm.transition_s": "svm.transition",
    "svm.observe_s": "svm.observe",
    "svm.scale_s": "svm.scale",
    "filters.resolve_epsilon_s": "filters.resolve_epsilon",
}


@dataclass
class UnitResult:
    """What one unit produced, reduced to what the checks and metrics need."""

    outputs: list  # (n_particles, FilterOutput) per filter call
    rmse: dict  # cell label -> mean RMSE over the unit's records
    fingerprint: bytes
    kalman_gap: float | None = None


def _cell_name(cell: GridCell) -> str:
    return f"{cell.algo}:{cell.proposal_name}:{cell.bandwidth}"


@contextmanager
def _capturing(sink: list):
    """Record (n_particles, output) of each filter call the study makes."""
    saved = {name: getattr(experiment, name) for name in ("abc_apf_run", "abc_smc_run")}

    def capture(fn):
        def call(ys, model, config, rng):
            output = fn(ys, model, config, rng)
            sink.append((config.n_particles, output))
            return output

        return call

    try:
        for name, fn in saved.items():
            setattr(experiment, name, capture(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(experiment, name, fn)


class ApfShifted:
    """Shifted-t ABC-APF on the reference model, multinomial every step."""

    def __init__(self, seed: int, horizon: int, particles: int, inputs: int):
        self.model = reference_model()
        self.cell = GridCell(
            "abc-apf",
            FilterConfig(particles, KernelSpec("gaussian", 0.25), ProposalSpec("shifted_t")),
        )
        self.data = [simulate(self.model, horizon, derive(seed, k, "data")) for k in range(inputs)]
        self.rngs = [derive(seed, k, "filter") for k in range(inputs)]
        self.steps = particles * horizon

    def unit(self, k: int, tracer: Tracer | None = None) -> UnitResult:
        run, model = abc_apf_run, self.model
        if tracer is not None:
            run, model = tracer.wrap("filters.run", abc_apf_run), tracer.model(model)
        data = self.data[k]
        output = run(data.y, model, self.cell.config, self.rngs[k])
        return UnitResult(
            outputs=[(self.cell.config.n_particles, output)],
            rmse={_cell_name(self.cell): rmse(output.filtered_mean, data.h[1:])},
            fingerprint=output.filtered_mean.tobytes(),
        )


class LgSmallCloud:
    """Central-t ABC-APF on a linear-Gaussian model, checked against Kalman."""

    def __init__(self, seed: int, horizon: int, particles: int, inputs: int):
        self.model = LinearGaussianParams(0.0, 0.9, 0.5, 0.5)
        self.cell = GridCell(
            "abc-apf",
            FilterConfig(
                particles,
                KernelSpec("gaussian", 0.1),
                ProposalSpec("central_t"),
                resample_policy="ess_threshold",
                resample_scheme="systematic",
            ),
        )
        self.data = [self.model.simulate(horizon, derive(seed, k, "lg-data")) for k in range(inputs)]
        self.kalman = [kalman_run(self.model, y)[0] for _x, y in self.data]
        self.rngs = [derive(seed, k, "lg-filter") for k in range(inputs)]
        self.steps = particles * horizon

    def unit(self, k: int, tracer: Tracer | None = None) -> UnitResult:
        run, model = abc_apf_run, self.model
        if tracer is not None:
            run, model = tracer.wrap("filters.run", abc_apf_run), tracer.model(model)
        x, y = self.data[k]
        output = run(y, model, self.cell.config, self.rngs[k])
        return UnitResult(
            outputs=[(self.cell.config.n_particles, output)],
            rmse={_cell_name(self.cell): rmse(output.filtered_mean, x[1:])},
            fingerprint=output.filtered_mean.tobytes(),
            kalman_gap=float(np.mean(np.abs(output.filtered_mean - self.kalman[k]))),
        )


class StudyGrid:
    """Paired-replicate study over three cells, run serially.

    With two worker threads on a noisy 2-core host, the best unit time
    spread by 11-25% of its median between sets of runs, close to the 25%
    bound, and thread scheduling adds noise of its own, so the thread pool
    is not timed here.
    """

    def __init__(self, seed: int, horizon: int, particles: int, replicates: int, inputs: int):
        self.model = reference_model()
        self.cells = benchmark_cells(
            particles, epsilons=(0.25,), percentiles=(0.25,), proposals=("shifted_t", "central_t")
        )
        self.horizon = horizon
        self.replicates = replicates
        self.base_seeds = [derive(seed, k, "study") for k in range(inputs)]
        self.steps = particles * horizon * replicates * len(self.cells)

    def unit(self, k: int, tracer: Tracer | None = None) -> UnitResult:
        model = self.model if tracer is None else tracer.model(self.model)
        spec = StudySpec(model, self.horizon, self.cells, self.replicates, self.base_seeds[k])
        outputs = []
        with _capturing(outputs):
            result = run_study(spec)
        rmses = np.array([[m.rmse for m in row] for row in result.metrics])
        return UnitResult(
            outputs=outputs,
            rmse={_cell_name(c): float(np.mean(rmses[i])) for i, c in enumerate(self.cells)},
            fingerprint=rmses.tobytes(),
        )


WORKLOADS = {
    "apf_shifted": ApfShifted,
    "lg_small_cloud": LgSmallCloud,
    "study_grid": StudyGrid,
}


@dataclass
class Checks:
    """Output checks; a unit that raises or fails one counts as failed."""

    inputs: int
    check_accuracy: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: dict = field(default_factory=dict)  # input index -> first UnitResult

    def attempt(self, workload, k: int, tracer: Tracer | None = None):
        """Run unit ``k`` once; returns (result or None, wall seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = workload.unit(k, tracer)
        except Exception:  # a unit that raises is a failed unit, not a crash
            wall = time.perf_counter() - start
            self._fail(f"input {k} raised:\n{traceback.format_exc()}")
            return None, wall
        wall = time.perf_counter() - start
        problem = self._check(k, result)
        if problem:
            self._fail(f"input {k}: {problem}")
        return result, wall

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def _check(self, k: int, result: UnitResult) -> str | None:
        for n, output in result.outputs:
            if not np.all(np.isfinite(output.filtered_mean)):
                return "non-finite filtered mean"
            ess = output.ess_trace
            if not (np.all(ess >= 1.0 - 1e-9) and np.all(ess <= n * (1.0 + 1e-9))):
                return f"ESS outside [1, {n}]: min {ess.min()}, max {ess.max()}"
        reference = self.first.setdefault(k, result)
        if result.fingerprint != reference.fingerprint:
            return "a repeat of the same input gave a different output"
        return None

    def accuracy(self) -> dict:
        """Per-cell RMSE and Kalman gap over one pass through the inputs."""
        firsts = [self.first[k] for k in range(self.inputs) if k in self.first]
        if len(firsts) < self.inputs:
            self._fail_all("not every input produced a checked output")
            return {"rmse": {}, "rmse_mean": math.nan, "kalman_gap": None}
        cells = {name: float(np.mean([r.rmse[name] for r in firsts])) for name in firsts[0].rmse}
        gaps = [r.kalman_gap for r in firsts if r.kalman_gap is not None]
        out = {
            "rmse": cells,
            "rmse_mean": float(np.mean(list(cells.values()))),
            "kalman_gap": float(np.mean(gaps)) if gaps else None,
        }
        if self.check_accuracy and CRITERION4_CELL in cells:
            target, tol = CRITERION4_RMSE
            if not abs(cells[CRITERION4_CELL] - target) <= tol:
                self._fail_all(
                    f"{CRITERION4_CELL} mean RMSE {cells[CRITERION4_CELL]:.4f} "
                    f"outside {target}+-{tol}"
                )
        if self.check_accuracy and gaps and not out["kalman_gap"] <= KALMAN_GAP_TOL:
            self._fail_all(f"mean kalman_gap {out['kalman_gap']:.4f} > {KALMAN_GAP_TOL}")
        return out

    def _fail_all(self, message: str) -> None:
        # Every unit repeats one of the inputs, so an aggregate failure
        # condemns all of them.
        self.failed = self.attempted
        self.problems.append(message)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Report:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    info: list  # human-readable lines
    problems: list
    accuracy: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            import_s: float = 0.0) -> Report:
    """Run one workload for ``seconds`` and return its metrics.

    Untraced runs report ``END_TO_END``; traced runs interleave untraced and
    traced units of the same input and report ``PER_LAYER``.
    """
    spec = SIZES[size][name]
    checks = Checks(inputs=spec["inputs"], check_accuracy=size == "full")
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, **spec)
        checks.attempt(workload, 0)
        setups.append(time.perf_counter() - start)
    if trace:
        return _measure_traced(workload, checks, seconds)

    walls = []  # of units that returned; a unit that raised is not timed
    start = time.perf_counter()
    i = 0
    while i < checks.inputs or time.perf_counter() - start < seconds:
        result, wall = checks.attempt(workload, i % checks.inputs)
        if result is not None:
            walls.append(wall)
        i += 1
    accuracy = checks.accuracy()
    best = min(walls, default=math.nan)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "psteps_per_s_peak": workload.steps / best,
        "run_s_min": best,
        "rmse_mean": accuracy["rmse_mean"],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = [
        f"units timed {len(walls)}, setups {len(setups)}",
        f"run_s_p50 {statistics.median(walls or [math.nan]):.6g} s (n={len(walls)})",
        f"psteps_per_s {workload.steps * len(walls) / (sum(walls) or math.nan):.6g} 1/s "
        f"(n={len(walls)})",
        f"failed_frac {checks.failed / checks.attempted:.4f} "
        f"({checks.failed} of {checks.attempted} units)",
    ]
    info += [f"rmse_mean[{cell}] {value:.6f}" for cell, value in accuracy["rmse"].items()]
    if accuracy["kalman_gap"] is not None:
        info.append(f"kalman_gap {accuracy['kalman_gap']:.6f} (tolerance {KALMAN_GAP_TOL})")
    return Report(
        metrics={key: (value, END_TO_END[key]) for key, value in metrics.items()},
        attempted=checks.attempted,
        failed=checks.failed,
        info=info,
        problems=checks.problems,
        accuracy=accuracy,
    )


def _measure_traced(workload, checks: Checks, seconds: float) -> Report:
    tracer = Tracer()
    ratios, busy, walls, stats, first_pass = [], [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < checks.inputs or time.perf_counter() - start < seconds:
        k = i % checks.inputs
        plain, plain_wall = checks.attempt(workload, k)
        tracer.unit, tracer.keep_spans = i, i == 0
        with tracer.patched():
            traced, traced_wall = checks.attempt(workload, k, tracer)
        unit_stats = tracer.collect()
        stats.append(unit_stats)
        if plain is not None:
            busy.append(sum(output.elapsed for _n, output in plain.outputs))
            walls.append(plain_wall)
            ratios.append(traced_wall / plain_wall)
        if i < checks.inputs and traced is not None:
            first_pass.append((unit_stats, traced))
        i += 1
    checks.accuracy()

    def per_unit(key, span, rows):
        return sum(row[key].get(span, 0) for row in rows) / max(len(rows), 1)

    counts = [row for row, _ in first_pass]
    metrics = {metric: per_unit("self_s", span, stats) for metric, span in _SELF_TIMES.items()}
    variates = per_unit("items", "stable.sample", counts)
    resample_calls = per_unit("calls", "filters.resample", counts)
    outputs = [pair for _, result in first_pass for pair in result.outputs]
    steps = sum(len(output.ess_trace) for _n, output in outputs)
    ess_fracs = np.concatenate([output.ess_trace / n for n, output in outputs]) if outputs else [0.0]
    # Integer totals, so the ratio does not depend on which thread ran what.
    unique = sum(row["unique_ancestors"] for row in counts)
    drawn = sum(row["ancestors"] for row in counts)
    metrics.update(
        {
            "stable.variates": variates,
            "stable.ns_per_variate": 1e9 * metrics["stable.sample_s"] / variates if variates else 0.0,
            "filters.resample_calls": resample_calls,
            "filters.resample_us_per_call": (
                1e6 * metrics["filters.resample_s"] / resample_calls if resample_calls else 0.0
            ),
            "proposals.evals": per_unit("items", "proposals.log_phat", counts),
            "kernels.evals": per_unit("items", "kernels.log_kernel", counts),
            "experiment.filter_busy_s": statistics.fmean(busy) if busy else 0.0,
            "experiment.concurrency": sum(busy) / sum(walls) if walls else 0.0,
            "experiment.simulate_s": per_unit("total_s", "experiment.simulate", stats),
            "filters.ess_frac_p50": float(np.median(ess_fracs)),
            "filters.unique_ancestor_frac": unique / drawn if drawn else 0.0,
            "filters.resample_rate": (
                sum(output.resample_count for _n, output in outputs) / steps if steps else 0.0
            ),
            "filters.degenerate_steps": (
                sum(output.degeneracy_count for _n, output in outputs) / max(len(first_pass), 1)
            ),
            "trace.overhead_frac": statistics.median(ratios) - 1.0 if ratios else 0.0,
            "trace.absent_bindings": len(tracer.absent),
        }
    )
    info = [
        f"unit pairs (untraced, traced) {i}",
        f"failed_frac {checks.failed / checks.attempted:.4f} "
        f"({checks.failed} of {checks.attempted} units)",
    ]
    info += [f"absent binding {binding}" for binding in sorted(tracer.absent)]
    return Report(
        metrics={key: (metrics[key], unit) for key, unit in PER_LAYER.items()},
        attempted=checks.attempted,
        failed=checks.failed,
        info=info,
        problems=checks.problems,
        spans=tracer.spans(),
    )
