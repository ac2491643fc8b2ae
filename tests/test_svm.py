"""Tests for the stochastic-volatility state-space model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from stablevol.filters import LinearGaussianParams
from stablevol.stable import StableParams
from stablevol.svm import SvmParams, Trajectory, simulate

from _oracles import (
    cached_cdf_interpolant,
    ks_critical,
    ks_vs_stable_cdf,
)


def make_params(mu=-0.2, phi=0.95, sigma_h=0.6, alpha=1.75, beta=0.1, sigma_v=0.8) -> SvmParams:
    return SvmParams(mu, phi, sigma_h, StableParams(alpha, beta, sigma_v))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def make_lg(mu=0.0, phi=0.9, sigma_h=0.5, sigma_y=0.5) -> LinearGaussianParams:
    return LinearGaussianParams(mu, phi, sigma_h, sigma_y)


# The AR1State domain, shared by both models.
_AR1_ROWS = [
    dict(phi=1.0),
    dict(phi=-1.01),
    dict(mu=math.nan),  # a non-finite mu leaves the stationary mean undefined
    dict(mu=math.inf),
    dict(mu=1e308, phi=0.5),  # a finite mu whose stationary mean overflows
    dict(sigma_h=0.0),
    dict(sigma_h=math.inf),
    dict(sigma_h=1e160),  # a stationary variance that overflows (sigma_h**2 raises)
]
_OWN_ROWS = {
    make_params: [],  # SvmParams adds no check to AR1State's
    make_lg: [dict(sigma_y=0.0), dict(sigma_y=math.inf), dict(sigma_y=1e160)],
}


@pytest.mark.parametrize(
    "make, bad",
    [
        pytest.param(
            make, bad, id=f"{name}-" + ",".join(f"{k}={v}" for k, v in bad.items())
        )
        for make, name in [(make_params, "SvmParams"), (make_lg, "LinearGaussianParams")]
        for bad in _AR1_ROWS + _OWN_ROWS[make]
    ],
)
def test_rejects_bad_parameters(make, bad):
    with pytest.raises(ValueError):
        make(**bad)


# ---------------------------------------------------------------------------
# Stationary law of the state
# ---------------------------------------------------------------------------


def test_initial_sample_stationary_moments():
    params = make_params(mu=0.0, phi=0.9, sigma_h=0.2)
    assert params.stationary_var == pytest.approx(0.04 / 0.19, abs=1e-12)
    rng = np.random.default_rng(2101)
    draws = params.initial_sample(rng, size=100_000)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.01)
    assert np.var(draws) == pytest.approx(0.04 / 0.19, abs=0.01)


def test_initial_sample_degenerate_ar_is_standard_normal():
    params = make_params(mu=0.0, phi=0.0, sigma_h=1.0)
    draws = params.initial_sample(np.random.default_rng(2102), size=100_000)
    res = stats.kstest(draws, stats.norm.cdf)
    assert res.statistic < ks_critical(len(draws))


# ---------------------------------------------------------------------------
# Transition
# ---------------------------------------------------------------------------


def test_transition_mean_cases():
    assert make_params().transition_mean(-4.0) == pytest.approx(-4.0)
    assert make_params(mu=0.0, phi=0.9).transition_mean(1.0) == pytest.approx(0.9)
    assert make_params(mu=1.0, phi=0.0).transition_mean(7.0) == pytest.approx(1.0)


def test_transition_sample_noise_scale():
    params = make_params()
    rng = np.random.default_rng(2103)
    draws = params.transition_sample(np.full(100_000, -4.0), rng)
    assert np.std(draws) == pytest.approx(0.6, abs=0.01)


def test_transition_sample_tiny_noise_collapses_to_mean():
    params = make_params(sigma_h=1e-12)
    val = params.transition_sample(2.0, np.random.default_rng(0))
    assert val == pytest.approx(params.transition_mean(2.0), abs=1e-9)


@pytest.fixture(scope="module")
def state_path():
    # One 100,000-step path, stepped in Python, shared by the two path checks.
    params = make_params(mu=0.0, phi=0.95, sigma_h=0.6)
    rng = np.random.default_rng(2104)
    n = 100_000
    h = np.empty(n)
    h[0] = params.initial_sample(rng)
    for t in range(1, n):
        h[t] = params.transition_sample(h[t - 1], rng)
    return h


def test_state_path_stationary_variance(state_path):
    assert np.var(state_path) == pytest.approx(0.36 / (1.0 - 0.9025), rel=0.05)


def test_state_path_lag_one_autocorrelation(state_path):
    centered = state_path - np.mean(state_path)
    rho = float(np.dot(centered[1:], centered[:-1]) / np.dot(centered, centered))
    assert rho == pytest.approx(0.95, abs=0.03)


# ---------------------------------------------------------------------------
# Observation
# ---------------------------------------------------------------------------


def test_observe_sample_volatility_scales_quantiles():
    params = make_params()
    c = 1.3
    lo = params.observe_sample(np.zeros(200_000), np.random.default_rng(2107))
    hi = params.observe_sample(np.full(200_000, 2.0 * c), np.random.default_rng(2107))
    for q in (0.1, 0.25, 0.75, 0.9):
        ratio = np.quantile(hi, q) / np.quantile(lo, q)
        assert ratio == pytest.approx(math.exp(c), rel=0.02)


def test_observation_scale_is_exponential_half_state():
    params = make_params()
    assert params.observation_scale(0.0) == pytest.approx(1.0)
    assert params.observation_scale(2.0) == pytest.approx(math.e)
    vec = params.observation_scale(np.array([-2.0, 0.0, 4.0]))
    assert np.allclose(vec, np.exp(np.array([-1.0, 0.0, 2.0])))


# ---------------------------------------------------------------------------
# Whole-trajectory simulation
# ---------------------------------------------------------------------------


def test_simulate_shapes_and_finiteness():
    traj = simulate(make_params(), 500, 2109)
    assert isinstance(traj, Trajectory)
    assert len(traj.h) == 501
    assert len(traj.y) == 500
    assert traj.horizon == 500
    assert np.all(np.isfinite(traj.h))
    assert np.all(np.isfinite(traj.y))


def test_simulate_rejects_empty_horizon():
    with pytest.raises(ValueError):
        simulate(make_params(), 0, 1)


def test_simulate_tiny_noise_pins_state_at_stationary_mean():
    params = make_params(sigma_h=1e-10, sigma_v=1e-10)
    traj = simulate(params, 50, 2111)
    assert np.allclose(traj.h, params.stationary_mean, atol=1e-8)


def test_rescaled_residuals_recover_observation_noise_law():
    params = make_params()
    traj = simulate(params, 100_000, 2112)
    residuals = traj.y / np.exp(traj.h[1:] / 2.0)
    oracle = cached_cdf_interpolant(1.75, 0.1, 0.8)
    assert ks_vs_stable_cdf(residuals, oracle) < ks_critical(len(residuals))
