"""Tests for the first-stage lookahead densities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

import stablevol.proposals as proposals_mod
from stablevol.proposals import ProposalSpec, SeriesConvergenceError, log_phat

from _oracles import LOG_NCT_DOF2_NC15_AT_2, LOG_T2_AT_ONE, LOG_T2_AT_ZERO


def test_spec_validation():
    with pytest.raises(ValueError):
        ProposalSpec("laplace")
    assert ProposalSpec("central_t").is_state_independent
    assert not ProposalSpec("shifted_t").is_state_independent
    assert not ProposalSpec("noncentral_t").is_state_independent


# ---------------------------------------------------------------------------
# Pinned density values
# ---------------------------------------------------------------------------


def test_central_t_at_zero():
    assert math.log(1.0 / (2.0 * math.sqrt(2.0))) == pytest.approx(LOG_T2_AT_ZERO, abs=1e-12)
    assert log_phat(ProposalSpec("central_t"), 0.0, xi=123.0) == pytest.approx(
        LOG_T2_AT_ZERO, abs=1e-12
    )


def test_shifted_t_reduces_to_center():
    assert log_phat(ProposalSpec("shifted_t"), 3.0, xi=3.0) == pytest.approx(
        LOG_T2_AT_ZERO, abs=1e-12
    )


def test_noncentral_t_at_zero_noncentrality_matches_hand_value():
    assert log_phat(ProposalSpec("noncentral_t"), 1.0, xi=0.0) == pytest.approx(
        LOG_T2_AT_ONE, abs=1e-12
    )


def test_noncentral_t_frozen_quadrature_value():
    assert log_phat(ProposalSpec("noncentral_t"), 2.0, xi=1.5) == pytest.approx(
        LOG_NCT_DOF2_NC15_AT_2, abs=1e-9
    )


def test_central_t_ignores_state_summary():
    vals = log_phat(ProposalSpec("central_t"), 0.5, xi=np.array([-5.0, 0.0, 9.0]))
    assert vals.shape == (3,)
    assert np.allclose(vals, vals[0], atol=0.0)


# ---------------------------------------------------------------------------
# Distributional properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, xi",
    [("central_t", 0.0), ("shifted_t", 1.7), ("noncentral_t", 2.5)],
)
def test_density_integrates_to_one(kind, xi):
    spec = ProposalSpec(kind)

    def dens(y):
        return math.exp(log_phat(spec, y, xi))

    mass, _ = quad(dens, -400.0, 400.0, epsabs=1e-9, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-4)


@given(y=st.floats(-30.0, 30.0), xi=st.floats(-30.0, 30.0), c=st.floats(-10.0, 10.0))
def test_shifted_t_shift_equivariance(y, xi, c):
    spec = ProposalSpec("shifted_t")
    assert log_phat(spec, y + c, xi + c) == pytest.approx(
        log_phat(spec, y, xi), abs=1e-10
    )


def test_noncentral_matches_central_at_zero_noncentrality():
    ys = np.linspace(-12.0, 12.0, 100)
    nct = log_phat(ProposalSpec("noncentral_t"), ys, np.zeros_like(ys))
    central = log_phat(ProposalSpec("central_t"), ys, np.zeros_like(ys))
    assert np.max(np.abs(nct - central)) < 1e-10


def test_t2_tails_dominate_gaussian_kernel():
    # The lookahead must out-tail the kernel so importance ratios stay bounded.
    eps = 0.25
    spec = ProposalSpec("central_t")

    def log_gap(u):
        log_n = -0.5 * math.log(2.0 * math.pi) - math.log(eps) - 0.5 * (u / eps) ** 2
        return log_phat(spec, u, 0.0) - log_n

    assert log_gap(20.0 * eps) > 50.0
    assert log_gap(20.0 * eps) > log_gap(10.0 * eps) > log_gap(5.0 * eps)


def test_noncentral_cross_checked_against_scipy():
    ys = np.linspace(-8.0, 8.0, 33)
    for nc in (-12.0, -6.0, -2.0, -0.5, 0.0, 1.0, 3.0, 7.0, 12.0):
        mine = log_phat(ProposalSpec("noncentral_t"), ys, np.full_like(ys, nc))
        ref = stats.nct.logpdf(ys, 2.0, nc)
        assert np.max(np.abs(mine - ref)) < 5e-6, f"nc={nc}"


def test_noncentral_broadcasts_observation_against_states():
    xi = np.array([-4.0, -1.0, 0.0, 2.0])
    vals = log_phat(ProposalSpec("noncentral_t"), 0.3, xi)
    assert vals.shape == xi.shape
    singles = [log_phat(ProposalSpec("noncentral_t"), 0.3, float(x)) for x in xi]
    assert np.allclose(vals, singles, atol=0.0)


def test_series_convergence_error_raised_past_max_terms(monkeypatch):
    monkeypatch.setattr(proposals_mod, "_MAX_TERMS", 3)
    monkeypatch.setattr(proposals_mod, "_Z_OVERFLOW", math.inf)
    with pytest.raises(SeriesConvergenceError):
        log_phat(ProposalSpec("noncentral_t"), 5.0, 8.0)
