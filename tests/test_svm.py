"""Tests for the stochastic-volatility state-space model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from stablevol.experiment import reference_model
from stablevol.filters import LinearGaussianParams
from stablevol.stable import StableParams
from stablevol.svm import SvmParams, Trajectory, simulate

from _oracles import (
    cached_cdf_interpolant,
    ks_critical,
    ks_vs_stable_cdf,
)


def make_params(
    mu=-0.2, phi=0.95, sigma_h=0.6, alpha=1.75, beta=0.1, sigma_v=0.8, delta=0.0
) -> SvmParams:
    return SvmParams(mu, phi, sigma_h, StableParams(alpha, beta, sigma_v, delta))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        dict(phi=1.0),
        dict(phi=-1.01),
        dict(mu=math.nan),  # a non-finite mu leaves the stationary mean undefined
        dict(mu=math.inf),
        dict(mu=1e308, phi=0.5),  # a finite mu whose stationary mean overflows
        dict(sigma_h=0.0),
        dict(sigma_h=math.inf),
        dict(sigma_h=1e160),  # a stationary variance that overflows (sigma_h**2 raises)
        dict(sigma_v=0.0),
        dict(delta=0.5),  # observation noise that is not centred
    ],
    ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
)
def test_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        make_params(**bad)


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


def test_stationary_mean_reference_parameters():
    assert make_params().stationary_mean == pytest.approx(-4.0, abs=1e-12)


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


# Regression pin, not an independent oracle: the bytes below were recorded from
# the simulator itself.  They fix the simulated datasets, so any change to the
# RNG consumption order or to the arithmetic (e.g. numpy's exp in place of
# math.exp in SvmParams.observe_sample) shows up here.
_PINNED_SVM_H = [
    "-0x1.40b401dd78be0p-4", "-0x1.cecab9dcf70b3p+0", "-0x1.18308ac4cf595p+1",
    "-0x1.3597b0e8d43cdp+1", "-0x1.2e5f5c6e14bf4p+1", "-0x1.6c28eb299a20dp+1",
    "-0x1.4e89d73d4b26ep+1", "-0x1.66c19e5208537p+1", "-0x1.448ded467cb74p+1",
]
_PINNED_SVM_Y = [
    "0x1.5e8613d7e756ep-1", "-0x1.37e8d6b302721p-4", "0x1.6d1e64e64b91dp-4",
    "0x1.cebbc184be54dp-8", "0x1.441aadda7f009p-2", "0x1.8d8d014a139b7p-4",
    "-0x1.3f9ceb1980fd9p+1", "-0x1.8889c6fbe77d8p-3",
]
_PINNED_LG_X = [
    "0x1.2ba8fe7bf9c5fp+1", "0x1.a886b716e3204p-1", "0x1.d972fd52084f6p-2",
    "0x1.3bb7f070aad8cp-2", "0x1.4acb68cdbd70ep-3", "0x1.ce8eee850d734p+0",
    "0x1.732a6ec3eadeap+0", "0x1.f11417ee4d1adp-1", "0x1.5b5359ee00de1p-1",
]
_PINNED_LG_Y = [
    "0x1.09c79ee008ed8p+0", "0x1.e362aedb60941p-3", "-0x1.6741d762ba364p-1",
    "-0x1.159780ee79901p-2", "0x1.eb7581e8e594dp+0", "0x1.4f2934e10c9ebp+0",
    "0x1.c5eb7e7109a2ep-2", "0x1.d6b41fd01919bp-1",
]


def _hex(values):
    return [float(v).hex() for v in values]


def test_simulate_pinned_bytes():
    traj = simulate(reference_model(), 8, 3)
    assert _hex(traj.h) == _PINNED_SVM_H
    assert _hex(traj.y) == _PINNED_SVM_Y
    x, y = LinearGaussianParams(0.0, 0.9, 0.5, 0.5).simulate(8, 3)
    assert _hex(x) == _PINNED_LG_X
    assert _hex(y) == _PINNED_LG_Y


def test_simulate_tiny_noise_pins_state_at_stationary_mean():
    params = make_params(sigma_h=1e-10, sigma_v=1e-10)
    traj = simulate(params, 50, 2111)
    assert np.allclose(traj.h, params.stationary_mean, atol=1e-8)


def test_rescaled_residuals_recover_observation_noise_law():
    params = make_params()
    traj = simulate(params, 100_000, 2112)
    residuals = traj.y / np.exp(traj.h[1:] / 2.0)
    oracle = cached_cdf_interpolant(1.75, 0.1, 0.8, 0.0)
    assert ks_vs_stable_cdf(residuals, oracle) < ks_critical(len(residuals))
