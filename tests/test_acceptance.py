"""Release acceptance suite: nine numbered criteria, one verdict line each.

Every test computes its measurements, writes a single line of the form
``[criterion N] <name>: PASS|FAIL (<measurements>)`` to the real stdout —
bypassing pytest's capture so the verdict always lands in the run log —
and then asserts on the same condition.

The heavyweight inputs (the 100-replicate benchmark study and the 50-replicate
tail-index sweep) are module-scoped fixtures shared by the criteria that read
them, so each is computed once.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from _oracles import cached_cdf_interpolant, ks_critical, ks_vs_stable_cdf
from stablevol.experiment import (
    GridCell,
    StudySpec,
    benchmark_cells,
    derive,
    reference_model,
    run_study,
    sensitivity_models,
)
from stablevol.filters import (
    FilterConfig,
    LinearGaussianParams,
    ParticleCloud,
    abc_apf_run,
    ess,
    kalman_run,
    normalize,
    resample,
)
from stablevol.kernels import KernelSpec, log_kernel
from stablevol.proposals import ProposalSpec, log_phat
from stablevol.stable import StableParams, sample
from stablevol.svm import simulate

pytestmark = pytest.mark.acceptance

BASE_SEED = 20260823
N_DRAWS = 100_000


def report(capsys, number: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def apf_cell(eps: float, proposal: str = "shifted_t", n: int = 5000) -> GridCell:
    return GridCell(
        algo="abc-apf",
        config=FilterConfig(
            n_particles=n,
            kernel=KernelSpec("gaussian", eps),
            proposal=ProposalSpec(proposal),
        ),
    )


def pick(cells, algo, bandwidth, proposal=None):
    for cell in cells:
        if cell.algo != algo or cell.bandwidth != bandwidth:
            continue
        if proposal is not None and cell.proposal_name != proposal:
            continue
        return cell
    raise LookupError(f"no cell {algo}/{bandwidth}/{proposal}")


# ---------------------------------------------------------------------------
# Shared heavyweight computations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_study():
    """Benchmark grid at full scale: T=500, N=5000, 100 paired replicates.

    Cells: shifted-t ABC-APF at bandwidths 0.25 and 1.5 plus the ABC-SMC
    baseline at survival percentile 0.25.  Read by criteria 4, 5 and 6.
    """
    grid = benchmark_cells(5000)
    cells = (
        pick(grid, "abc-apf", 0.25, "shifted_t"),
        pick(grid, "abc-apf", 1.5, "shifted_t"),
        pick(grid, "abc-smc", 0.25),
    )
    spec = StudySpec(
        model=reference_model(),
        horizon=500,
        cells=cells,
        replicates=100,
        base_seed=BASE_SEED,
    )
    start = time.perf_counter()
    result = run_study(spec, max_workers=os.cpu_count())
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def tail_sweep():
    """Mean RMSE of shifted-t ABC-APF across the tail-index ladder.

    Five observation-noise models from Gaussian (alpha=2) down to alpha=0.1,
    50 paired replicates each (same base seed, so the same random streams pair
    the runs across models).  Read by criterion 7.
    """
    cell = apf_cell(0.25)
    means = []
    for _label, model in sensitivity_models(1.0, 1.0):
        spec = StudySpec(
            model=model,
            horizon=500,
            cells=(cell,),
            replicates=50,
            base_seed=BASE_SEED,
        )
        result = run_study(spec, max_workers=os.cpu_count())
        means.append(result.aggregate(0)["mean"].rmse)
    return means


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_sampler_matches_closed_forms(capsys):
    start = time.perf_counter()
    normal_draws = sample(
        StableParams(2.0, 0.0, 1.0), np.random.default_rng(1003), N_DRAWS
    )
    d_normal = scipy.stats.kstest(
        normal_draws, scipy.stats.norm(scale=np.sqrt(2.0)).cdf
    ).statistic
    cauchy_draws = sample(
        StableParams(1.0, 0.0, 1.0), np.random.default_rng(2004), N_DRAWS
    )
    d_cauchy = scipy.stats.kstest(cauchy_draws, scipy.stats.cauchy.cdf).statistic
    elapsed = time.perf_counter() - start
    crit = ks_critical(N_DRAWS)
    ok = d_normal < crit and d_cauchy < crit and elapsed < 5.0
    line = report(
        capsys,
        1,
        "stable sampler vs closed forms",
        ok,
        f"KS normal {d_normal:.5f}, cauchy {d_cauchy:.5f}, critical {crit:.5f}, "
        f"{elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_2_sampler_matches_quadrature_cdf(capsys):
    start = time.perf_counter()
    crit = ks_critical(N_DRAWS)
    stats = {}
    for alpha, beta in [(1.75, 0.1), (1.2, 0.3), (0.8, -0.2)]:
        rng = np.random.default_rng(int(1000 * alpha + 100 * beta))
        draws = sample(StableParams(alpha, beta, 1.0), rng, N_DRAWS)
        oracle = cached_cdf_interpolant(alpha, beta, n_grid=401)
        stats[(alpha, beta)] = ks_vs_stable_cdf(draws, oracle)
    elapsed = time.perf_counter() - start
    ok = all(d < crit for d in stats.values()) and elapsed < 120.0
    detail = ", ".join(f"({a},{b}) D={d:.5f}" for (a, b), d in stats.items())
    line = report(
        capsys,
        2,
        "stable sampler vs numeric CDF",
        ok,
        f"{detail}, critical {crit:.5f}, {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_3_filter_matches_kalman_oracle(capsys):
    lg = LinearGaussianParams(0.0, 0.9, 0.5, 0.5)
    config = FilterConfig(
        n_particles=5000,
        kernel=KernelSpec("gaussian", 0.05),
        proposal=ProposalSpec("shifted_t"),
    )
    gaps = []
    for i in range(10):
        _x, y = lg.simulate(200, seed=8100 + i)
        output = abc_apf_run(y, lg, config, rng=8200 + i)
        kalman_means, _ = kalman_run(lg, y)
        gaps.append(float(np.mean(np.abs(output.filtered_mean - kalman_means))))
    mean_gap = float(np.mean(gaps))
    ok = mean_gap <= 0.1
    line = report(
        capsys,
        3,
        "ABC-APF vs Kalman oracle",
        ok,
        f"mean absolute gap {mean_gap:.4f} over 10 seeds, tolerance 0.1",
    )
    assert ok, line


def test_criterion_4_benchmark_error_levels(table_study, capsys):
    result, elapsed = table_study
    agg = result.aggregate(0)
    mean_rmse, mean_ae = agg["mean"].rmse, agg["mean"].ae
    per_run = agg["mean"].elapsed
    ok = (
        abs(mean_rmse - 0.984) <= 0.15
        and abs(mean_ae - 0.755) <= 0.15
        and per_run <= 5.0
        and elapsed <= 900.0
    )
    line = report(
        capsys,
        4,
        "benchmark error levels at bandwidth 0.25",
        ok,
        f"mean RMSE {mean_rmse:.3f} (target 0.984±0.15), "
        f"mean AE {mean_ae:.3f} (target 0.755±0.15), "
        f"{per_run:.2f} s/run, study {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_5_apf_beats_smc_at_median(table_study, capsys):
    result, _ = table_study
    apf_median = result.aggregate(0)["median"].rmse
    smc_median = result.aggregate(2)["median"].rmse
    ok = apf_median < smc_median
    line = report(
        capsys,
        5,
        "ABC-APF beats ABC-SMC at the median",
        ok,
        f"median RMSE APF {apf_median:.3f} < SMC {smc_median:.3f}",
    )
    assert ok, line


def test_criterion_6_error_grows_with_bandwidth(table_study, capsys):
    result, _ = table_study
    rmse_tight = result.aggregate(0)["mean"].rmse
    rmse_wide = result.aggregate(1)["mean"].rmse
    ok = rmse_wide > rmse_tight
    line = report(
        capsys,
        6,
        "wider bandwidth raises mean RMSE",
        ok,
        f"mean RMSE {rmse_wide:.3f} at eps=1.5 > {rmse_tight:.3f} at eps=0.25",
    )
    assert ok, line


def test_criterion_7_error_grows_with_heavier_tails(tail_sweep, capsys):
    means = tail_sweep
    inversions = [max(0.0, means[i] - means[i + 1]) for i in range(len(means) - 1)]
    ok = all(inv <= 0.05 for inv in inversions)
    path = " -> ".join(f"{m:.3f}" for m in means)
    line = report(
        capsys,
        7,
        "mean RMSE non-decreasing as tails heavy",
        ok,
        f"alpha 2 -> 0.1 gives RMSE {path}, worst inversion "
        f"{max(inversions):.3f} (allowed 0.05)",
    )
    assert ok, line


def test_criterion_8_proposal_cost_ordering(capsys):
    model = reference_model()
    data = simulate(model, 500, derive(BASE_SEED, 0, "data"))
    kinds = ("central_t", "shifted_t", "noncentral_t")
    configs = {
        kind: FilterConfig(
            n_particles=5000,
            kernel=KernelSpec("gaussian", 0.25),
            proposal=ProposalSpec(kind),
        )
        for kind in kinds
    }
    times = {kind: [] for kind in kinds}
    # Each repetition times every proposal back to back, so a drift in the
    # host's speed lands on all three rather than on one proposal's runs.
    # As timeit does, each run is timed with the cyclic collector off, so a
    # collection over the whole session's objects lands in no timed run.
    for rep in range(3):
        for kind in kinds:
            rng = np.random.default_rng(derive(BASE_SEED, rep, f"cpu|{kind}"))
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                abc_apf_run(data.y, model, configs[kind], rng)
                times[kind].append(time.perf_counter() - start)
            finally:
                gc.enable()
    best = {kind: min(times[kind]) for kind in kinds}
    ok = (
        best["central_t"] < best["shifted_t"] < best["noncentral_t"]
        and best["noncentral_t"] >= 3.0 * best["shifted_t"]
    )
    line = report(
        capsys,
        8,
        "proposal cost ordering",
        ok,
        f"central {best['central_t']:.2f} s < shifted {best['shifted_t']:.2f} s "
        f"< non-central {best['noncentral_t']:.2f} s "
        f"(ratio {best['noncentral_t'] / best['shifted_t']:.1f}x, need >= 3x)",
    )
    assert ok, line


def test_criterion_9_property_suite_spot_checks(capsys):
    """Condensed re-assertion of the per-module property suites.

    The full suites live in test_stable / test_kernels / test_proposals /
    test_filters / test_experiment; this spot-checks the headline gates in one
    place so the acceptance log records them explicitly.
    """
    checks = []

    # Weight normalization to 1e-12, including under a constant log-shift.
    rng = np.random.default_rng(606)
    logs = rng.normal(size=1000) * 30.0
    lw = normalize(logs)
    lw_shifted = normalize(logs + 123.0)
    checks.append(abs(np.exp(lw).sum() - 1.0) < 1e-12)
    checks.append(np.allclose(np.exp(lw), np.exp(lw_shifted), rtol=0.0, atol=1e-12))

    # ESS bounds: 1 <= ESS <= N, with the extremes attained.
    checks.append(1.0 <= ess(lw) <= 1000.0)
    checks.append(abs(ess(np.full(64, -np.log(64.0))) - 64.0) < 1e-9)
    one_hot = np.full(64, -np.inf)
    one_hot[13] = 0.0
    checks.append(abs(ess(one_hot) - 1.0) < 1e-12)

    # Resampling unbiasedness: expected offspring counts match N * weight for
    # both schemes, within four standard errors over 4000 repetitions.
    weights = np.array([0.05, 0.1, 0.15, 0.3, 0.4])
    cloud = ParticleCloud(np.arange(5.0), normalize(np.log(weights)))
    reps = 4000
    for scheme in ("multinomial", "systematic"):
        counts = np.zeros(5)
        rng = np.random.default_rng(707)
        for _ in range(reps):
            _resampled, ancestors = resample(cloud, scheme, rng)
            counts += np.bincount(ancestors, minlength=5)
        observed = counts / reps
        expected = 5.0 * weights
        se = np.sqrt(5.0 * weights * (1.0 - weights) / reps)
        checks.append(bool(np.all(np.abs(observed - expected) < 4.0 * se)))

    # Density normalizations: smoothing kernel and proposal families
    # integrate to one.
    gauss = KernelSpec("gaussian", 0.7)
    mass, _ = scipy.integrate.quad(lambda v: np.exp(log_kernel(gauss, v)), -40, 40)
    checks.append(abs(mass - 1.0) < 1e-6)
    for spec_, xi in [
        (ProposalSpec("central_t"), 0.0),
        (ProposalSpec("shifted_t"), 2.0),
        (ProposalSpec("noncentral_t"), 1.5),
    ]:
        mass, _ = scipy.integrate.quad(
            lambda v: np.exp(log_phat(spec_, v, xi)), -400, 400, limit=200
        )
        checks.append(abs(mass - 1.0) < 1e-4)

    # Seed determinism under varying worker counts: the study harness returns
    # bit-identical error metrics for any worker count.
    spec = StudySpec(
        model=reference_model(),
        horizon=15,
        cells=(apf_cell(0.25, n=40), apf_cell(0.5, "central_t", n=40)),
        replicates=6,
        base_seed=777,
    )
    serial = run_study(spec, max_workers=1)
    pooled = run_study(spec, max_workers=4)
    same = all(
        (a.rmse, a.ae, a.degeneracy_count) == (b.rmse, b.ae, b.degeneracy_count)
        for c in range(2)
        for a, b in zip(serial.metrics[c], pooled.metrics[c])
    )
    checks.append(same)

    ok = all(checks)
    line = report(
        capsys,
        9,
        "property-suite spot checks",
        ok,
        f"{sum(checks)}/{len(checks)} gates hold "
        "(normalization, ESS bounds, unbiased resampling, density mass, "
        "worker-count determinism)",
    )
    assert ok, line
