"""Tests for the stable-distribution sampler and its reference law."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from stablevol.stable import StableParams, _cms, sample

from _oracles import (
    CMS_ALPHA_HALF_VALUE,
    CMS_ALPHA_ONE_VALUE,
    PDF_175_01_AT_1,
    TRANSFORM_ALPHA_ONE_E_SCALE,
    cached_cdf_interpolant,
    char_fn,
    ks_critical,
)


# ---------------------------------------------------------------------------
# StableParams validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha, beta, gamma",
    [
        (0.0, 0.0, 1.0),
        (2.1, 0.0, 1.0),
        (-0.5, 0.0, 1.0),
        (1.5, 1.2, 1.0),
        (1.5, -1.01, 1.0),
        (1.5, 0.0, -0.1),
        (1.5, 0.0, 0.0),
        (1.5, 0.0, math.inf),
    ],
)
def test_params_rejects_out_of_domain(alpha, beta, gamma):
    with pytest.raises(ValueError):
        StableParams(alpha, beta, gamma)


def test_params_accepts_boundaries():
    StableParams(2.0, 1.0, 1e-300)
    StableParams(0.1, -1.0, 2.5)


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "law, t, expected",
    [
        # At alpha = 2 the skew term vanishes: every beta gives N(0, 2).
        pytest.param((2.0, 0.7, 1.0), 1.0, math.exp(-1.0), id="normal-beta-0.7"),
        pytest.param((2.0, -0.4, 1.0), 1.0, math.exp(-1.0), id="normal-beta--0.4"),
        pytest.param((1.0, 0.0, 1.0), -2.0, math.exp(-2.0), id="cauchy-negative-t"),
    ],
)
def test_char_fn_closed_form_values(law, t, expected):
    assert char_fn(StableParams(*law), t) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "params",
    [
        StableParams(1.75, 0.1, 0.8),
        StableParams(1.2, 0.3, 1.0),
        StableParams(0.8, -0.2, 2.0),
        StableParams(1.0, 0.9, 1.3),
        StableParams(2.0, 0.0, 1.0),
    ],
)
def test_char_fn_conjugate_symmetry_and_bound(params):
    ts = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 42.0])
    for t in ts:
        fwd = char_fn(params, float(t))
        bwd = char_fn(params, float(-t))
        assert bwd == pytest.approx(np.conj(fwd), abs=1e-12)
        if t == 0.0:
            assert abs(fwd) == pytest.approx(1.0, abs=1e-14)
        else:
            assert abs(fwd) < 1.0


@given(
    alpha=st.floats(0.1, 2.0),
    beta=st.floats(-1.0, 1.0),
    gamma=st.floats(0.25, 4.0),
    t=st.floats(-50.0, 50.0),
)
@example(1.0, 0.5, 2.0, 1e-3)
@example(0.7, -0.9, 0.5, 3.0)
def test_char_fn_symmetry_property(alpha, beta, gamma, t):
    # The fixed-law checks above, over drawn laws.  A flipped skew term still
    # passes them, so the Levy law S(1/2, 1, gamma), with closed form
    # exp(-sqrt(-2 i gamma t)), pins it.
    params = StableParams(alpha, beta, gamma)
    assert char_fn(params, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    phi = char_fn(params, t)
    assert abs(phi) <= 1.0
    assert char_fn(params, -t) == pytest.approx(np.conj(phi), abs=1e-12)
    levy = char_fn(StableParams(0.5, 1.0, gamma), t)
    assert levy == pytest.approx(np.exp(-np.sqrt(-2j * gamma * t)), abs=1e-12)


# ---------------------------------------------------------------------------
# Sampler formula: the CMS transform at chosen (U, W)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "law, u, w, expected, tol",
    [
        pytest.param((2.0, 0.0, 1.0), 0.0, 1.0, 0.0, 0.0, id="normal-zero-angle"),
        # tan(pi / 4) reads 0.9999999999999999 in floating point.
        pytest.param((1.0, 0.0, 1.0), math.pi / 4, 17.3, 1.0, 1e-15, id="cauchy-tangent"),
        pytest.param(
            (0.5, 1.0, 1.0), 0.3, 1.2, CMS_ALPHA_HALF_VALUE, 1e-12, id="skewed-half-stable"
        ),
        # Away from alpha = 1 the scale only multiplies the standard draw.
        pytest.param((0.5, 1.0, 2.5), 0.3, 1.2, 2.5 * CMS_ALPHA_HALF_VALUE, 1e-12, id="scale"),
        # Within ALPHA_ONE_BAND of alpha = 1 the alpha = 1 branch runs.
        pytest.param(
            (1.0 + 1e-12, 0.3, 1.0), 0.4, 0.9, CMS_ALPHA_ONE_VALUE, 1e-12, id="guard-band"
        ),
        # At alpha = 1 the location moves by beta (2 / pi) gamma log(gamma).  The
        # standard draw is exactly 0 at U = 0, W = 1, so these rows read that term.
        pytest.param((1.0, 1.0, 1.0), 0.0, 1.0, 0.0, 0.0, id="alpha-one-unit-scale"),
        pytest.param(
            (1.0, 1.0, math.e), 0.0, 1.0, TRANSFORM_ALPHA_ONE_E_SCALE, 1e-15,
            id="alpha-one-scale-e",
        ),
    ],
)
def test_cms_values(law, u, w, expected, tol):
    assert abs(_cms(StableParams(*law), u, w) - expected) <= tol


# ---------------------------------------------------------------------------
# Sampling: closed-form laws
# ---------------------------------------------------------------------------


def test_sample_alpha_two_moments():
    rng = np.random.default_rng(1001)
    draws = sample(StableParams(2.0, 0.0, 1.0), rng, size=1_000_000)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.01)
    assert np.var(draws) == pytest.approx(2.0, abs=0.05)


def test_sample_cauchy_quartiles():
    rng = np.random.default_rng(1002)
    draws = sample(StableParams(1.0, 0.0, 1.0), rng, size=1_000_000)
    q1, q3 = np.quantile(draws, [0.25, 0.75])
    assert q1 == pytest.approx(-1.0, abs=0.02)
    assert q3 == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# Sampling vs. the reference CDF: closed forms, else scipy's stable CDF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "law, seed, closed_form",
    [
        pytest.param((2.0, 0.0, 0.7), 1003, stats.norm(0.0, 0.7 * 2**0.5), id="normal"),
        pytest.param((1.0, 0.0, 2.0), 2004, stats.cauchy(0.0, 2.0), id="cauchy"),
        pytest.param((1.75, 0.1, 0.8), 1005, None, id="experiment-noise"),
        *[
            pytest.param((a, b, 1.0), int(1000 * a + 100 * b), None, id=f"{a}-{b}")
            for a in (1.75, 1.2, 0.8)
            for b in (0.0, 0.5)
        ],
    ],
)
def test_sample_ks_vs_reference_cdf(law, seed, closed_form):
    draws = sample(StableParams(*law), np.random.default_rng(seed), size=100_000)
    cdf = cached_cdf_interpolant(*law) if closed_form is None else closed_form.cdf
    assert stats.kstest(draws, cdf).statistic < ks_critical(len(draws))


# ---------------------------------------------------------------------------
# Reference law: scipy's levy_stable in the package's parameterization
# ---------------------------------------------------------------------------

_LEVY = (0.5, 1.0, 1.0, 0.0)


def _levy_pdf(x):
    return math.sqrt(1.0 / (2.0 * math.pi)) * x**-1.5 * math.exp(-1.0 / (2.0 * x))


def _levy_cdf(x):
    return math.erfc(math.sqrt(1.0 / (2.0 * x)))


# Values that tie scipy's law to the package's: alpha = 2 is the normal law
# with variance 2 gamma^2 and alpha = 1, beta = 0 the Cauchy law.  The Levy law
# S(1/2, 1, 1, 0) lives on [0, inf) here, which fixes the skew direction (under
# scipy's S0 its location would move by 1).  PDF_175_01_AT_1 is an independent
# quadrature value for a law with no closed form.
_CLOSED_FORM_VALUES = [
    pytest.param(
        (2.0, 0.0, 1.0, 0.0), 0.0, "pdf", 1.0 / (2.0 * math.sqrt(math.pi)), 1e-12, id="normal-pdf-0"
    ),
    pytest.param(
        (2.0, 0.0, 0.7, 0.3), 1.0, "cdf", stats.norm(0.3, 0.7 * 2**0.5).cdf(1.0), 1e-12,
        id="normal-cdf-1",
    ),
    pytest.param((1.0, 0.0, 1.0, 0.0), 0.0, "pdf", 1.0 / math.pi, 1e-12, id="cauchy-pdf-0"),
    pytest.param((1.0, 0.0, 2.0, -1.0), 1.0, "cdf", 0.75, 1e-12, id="cauchy-cdf-1"),
    pytest.param((1.75, 0.1, 1.0, 0.0), 1.0, "pdf", PDF_175_01_AT_1, 1e-8, id="independent-pdf-1"),
    pytest.param(_LEVY, 0.01, "cdf", _levy_cdf(0.01), 1e-12, id="levy-cdf-support-edge"),
    *[
        pytest.param(_LEVY, x, kind, closed(x), 1e-12, id=f"levy-{kind}-{x}")
        for x in (0.5, 1.0, 3.0)
        for kind, closed in (("pdf", _levy_pdf), ("cdf", _levy_cdf))
    ],
]


@pytest.mark.parametrize("law, x, oracle, expected, tol", _CLOSED_FORM_VALUES)
def test_reference_law_closed_form_values(law, x, oracle, expected, tol):
    alpha, beta, gamma, delta = law
    value = getattr(stats.levy_stable, oracle)(x, alpha, beta, loc=delta, scale=gamma)
    assert abs(value - expected) <= tol


# Every interpolant a KS test builds: criterion 2's three laws at n_grid 401,
# and the KS table's six laws and the observation noise at 301.
_KS_INTERPOLANTS = [
    pytest.param((a, b, g), n, id=f"{a}-{b}-{g}-{n}")
    for a, b, g, n in [
        (1.75, 0.1, 1.0, 401), (1.2, 0.3, 1.0, 401), (0.8, -0.2, 1.0, 401),
        *[(a, b, 1.0, 301) for a in (1.75, 1.2, 0.8) for b in (0.0, 0.5)],
        (1.75, 0.1, 0.8, 301),
    ]
]


@pytest.mark.parametrize("law, n_grid", _KS_INTERPOLANTS)
def test_interpolant_meets_power_law_tail_at_grid_edges(law, n_grid):
    oracle = cached_cdf_interpolant(*law, n_grid=n_grid)
    lo, hi = oracle.lo, oracle.hi
    # Each grid edge against the tail one ulp past it.
    grid_lo, tail_lo, grid_hi, tail_hi = oracle(
        [lo, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, np.inf)]
    )
    assert abs(grid_lo - tail_lo) <= 2e-5
    assert abs(grid_hi - tail_hi) <= 2e-5


# ---------------------------------------------------------------------------
# Law-level coherence checks (sampler vs. characteristic function)
# ---------------------------------------------------------------------------


def test_empirical_char_fn_matches_analytic():
    params = StableParams(1.3, -0.4, 1.5)
    draws = sample(params, np.random.default_rng(1007), size=200_000)
    for t in (0.3, 1.0, 2.0):
        emp = np.mean(np.exp(1j * t * draws))
        assert emp == pytest.approx(char_fn(params, t), abs=0.01)
