"""Tests for the stable-distribution sampler and its quadrature oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from stablevol.stable import StableParams, sample, transform

from _inversion import _tail_switch_radius, cdf_numeric, char_fn, pdf_numeric
from _oracles import (
    CMS_ALPHA_HALF_VALUE,
    PDF_175_01_AT_1,
    TRANSFORM_ALPHA_ONE_E_SCALE,
    ScriptedRng,
    cached_cdf_interpolant,
    ks_critical,
    ks_vs_stable_cdf,
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
        StableParams(alpha, beta, gamma, 0.0)


def test_params_accepts_boundaries():
    StableParams(2.0, 1.0, 1e-300, -3.0)
    StableParams(0.1, -1.0, 2.5, 0.0)


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def test_char_fn_alpha_two_skew_term_vanishes():
    val = char_fn(StableParams(2.0, 0.7, 1.0, 0.0), 1.0)
    assert val == pytest.approx(math.exp(-1.0), abs=1e-12)
    # any beta yields the same law at alpha=2
    assert char_fn(StableParams(2.0, -0.4, 1.0, 0.0), 1.0) == pytest.approx(val, abs=1e-14)


def test_char_fn_at_zero_is_one():
    for p in (StableParams(1.0, 0.5, 2.0, -1.0), StableParams(0.7, -0.9, 0.5, 4.0)):
        assert char_fn(p, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_char_fn_cauchy_negative_argument():
    assert char_fn(StableParams(1.0, 0.0, 1.0, 0.0), -2.0) == pytest.approx(
        math.exp(-2.0), abs=1e-12
    )


@pytest.mark.parametrize(
    "params",
    [
        StableParams(1.75, 0.1, 0.8, 0.0),
        StableParams(1.2, 0.3, 1.0, -0.7),
        StableParams(0.8, -0.2, 2.0, 1.5),
        StableParams(1.0, 0.9, 1.3, 0.4),
        StableParams(2.0, 0.0, 1.0, 0.0),
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
    delta=st.floats(-5.0, 5.0),
    t=st.floats(-50.0, 50.0),
)
@example(1.0, 0.5, 2.0, -1.0, 1e-3)
@example(0.7, -0.9, 0.5, 4.0, 3.0)
def test_char_fn_symmetry_property(alpha, beta, gamma, delta, t):
    # The fixed-law checks above, over drawn laws.  A flipped skew term still
    # passes them, so the Levy law S(1/2, 1, gamma, delta), with closed form
    # exp(i delta t - sqrt(-2 i gamma t)), pins it.
    params = StableParams(alpha, beta, gamma, delta)
    assert char_fn(params, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    phi = char_fn(params, t)
    assert abs(phi) <= 1.0
    assert char_fn(params, -t) == pytest.approx(np.conj(phi), abs=1e-12)
    levy = char_fn(StableParams(0.5, 1.0, gamma, delta), t)
    assert levy == pytest.approx(np.exp(1j * delta * t - np.sqrt(-2j * gamma * t)), abs=1e-12)


# ---------------------------------------------------------------------------
# Sampler formula pinned through a scripted rng
# ---------------------------------------------------------------------------


def test_sampler_gaussian_branch_at_zero_angle():
    rng = ScriptedRng(uniform_values=[0.0], exponential_values=[1.0])
    assert sample(StableParams(2.0, 0.0, 1.0, 0.0), rng) == pytest.approx(0.0, abs=1e-15)


def test_sampler_cauchy_branch_is_tangent():
    rng = ScriptedRng(uniform_values=[math.pi / 4], exponential_values=[17.3])
    assert sample(StableParams(1.0, 0.0, 1.0, 0.0), rng) == pytest.approx(1.0, abs=1e-12)


def test_sampler_skewed_half_stable_frozen_value():
    rng = ScriptedRng(uniform_values=[0.3], exponential_values=[1.2])
    assert sample(StableParams(0.5, 1.0, 1.0, 0.0), rng) == pytest.approx(
        CMS_ALPHA_HALF_VALUE, abs=1e-12
    )


def test_sampler_guard_band_routes_to_alpha_one_branch():
    rng_a = ScriptedRng(uniform_values=[0.4], exponential_values=[0.9])
    rng_b = ScriptedRng(uniform_values=[0.4], exponential_values=[0.9])
    near_one = sample(StableParams(1.0 + 1e-12, 0.3, 1.0, 0.0), rng_a)
    at_one = sample(StableParams(1.0, 0.3, 1.0, 0.0), rng_b)
    assert near_one == at_one


# ---------------------------------------------------------------------------
# Output transform
# ---------------------------------------------------------------------------


def test_transform_affine_case():
    assert transform(1.0, StableParams(1.5, 0.0, 2.0, 3.0)) == pytest.approx(5.0)


def test_transform_alpha_one_log_term_vanishes_at_unit_scale():
    assert transform(0.0, StableParams(1.0, 1.0, 1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_transform_alpha_one_log_term_at_scale_e():
    assert transform(0.0, StableParams(1.0, 1.0, math.e, 0.0)) == pytest.approx(
        TRANSFORM_ALPHA_ONE_E_SCALE, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Sampling: closed-form laws
# ---------------------------------------------------------------------------


def test_sample_alpha_two_moments():
    rng = np.random.default_rng(1001)
    draws = sample(StableParams(2.0, 0.0, 1.0, 0.0), rng, size=1_000_000)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.01)
    assert np.var(draws) == pytest.approx(2.0, abs=0.05)


def test_sample_cauchy_quartiles():
    rng = np.random.default_rng(1002)
    draws = sample(StableParams(1.0, 0.0, 1.0, 0.0), rng, size=1_000_000)
    q1, q3 = np.quantile(draws, [0.25, 0.75])
    assert q1 == pytest.approx(-1.0, abs=0.02)
    assert q3 == pytest.approx(1.0, abs=0.02)


def test_sample_alpha_two_ks_vs_normal_with_scale_location():
    rng = np.random.default_rng(1003)
    draws = sample(StableParams(2.0, 0.0, 0.7, 0.3), rng, size=100_000)
    res = stats.kstest(draws, stats.norm(loc=0.3, scale=0.7 * math.sqrt(2.0)).cdf)
    assert res.statistic < ks_critical(len(draws))


def test_sample_cauchy_ks_with_scale_location():
    rng = np.random.default_rng(2004)
    draws = sample(StableParams(1.0, 0.0, 2.0, -1.0), rng, size=100_000)
    res = stats.kstest(draws, stats.cauchy(loc=-1.0, scale=2.0).cdf)
    assert res.statistic < ks_critical(len(draws))


# ---------------------------------------------------------------------------
# Sampling vs. the quadrature CDF oracle
# ---------------------------------------------------------------------------


def test_sample_experiment_noise_ks_vs_quadrature_cdf():
    rng = np.random.default_rng(1005)
    draws = sample(StableParams(1.75, 0.1, 0.8, 0.0), rng, size=100_000)
    oracle = cached_cdf_interpolant(1.75, 0.1, 0.8, 0.0)
    assert ks_vs_stable_cdf(draws, oracle) < ks_critical(len(draws))


@pytest.mark.parametrize("alpha", [1.75, 1.2, 0.8])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_sample_ks_grid_vs_quadrature_cdf(alpha, beta):
    rng = np.random.default_rng(int(1000 * alpha + 100 * beta))
    draws = sample(StableParams(alpha, beta, 1.0, 0.0), rng, size=100_000)
    oracle = cached_cdf_interpolant(alpha, beta)
    assert ks_vs_stable_cdf(draws, oracle) < ks_critical(len(draws))


# ---------------------------------------------------------------------------
# Density oracle
# ---------------------------------------------------------------------------


def test_pdf_cauchy_at_zero():
    val = pdf_numeric(StableParams(1.0, 0.0, 1.0, 0.0), 0.0)
    assert val == pytest.approx(1.0 / math.pi, abs=1e-7)


def test_pdf_normal_at_zero():
    val = pdf_numeric(StableParams(2.0, 0.0, 1.0, 0.0), 0.0)
    assert val == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-7)


def test_pdf_cross_checked_against_independent_quadrature():
    val = pdf_numeric(StableParams(1.75, 0.1, 1.0, 0.0), 1.0)
    assert val == pytest.approx(PDF_175_01_AT_1, abs=10e-8)


@pytest.mark.parametrize(
    "alpha, beta, radius",
    [(2.0, 0.0, 30.0), (1.75, 0.1, 300.0), (1.2, 0.3, 600.0), (0.8, -0.2, 9000.0)],
)
def test_pdf_nonnegative_and_unit_mass(alpha, beta, radius):
    params = StableParams(alpha, beta, 1.0, 0.0)
    v_max = math.asinh(radius)
    v = np.linspace(-v_max, v_max, 281)
    xs = np.sinh(v)
    dens = np.array([pdf_numeric(params, float(x)) for x in xs])
    assert np.all(dens >= 0.0)
    mass = np.trapezoid(dens * np.cosh(v), v)
    assert abs(mass - 1.0) <= 1e-3


def _one_term_tail_pdf(params, x):
    """alpha C_alpha (1 +- beta) gamma^alpha |x - delta|^(-alpha - 1)."""
    a = params.alpha
    c_alpha = math.gamma(a) * math.sin(math.pi * a / 2.0) / math.pi
    side = 1.0 + params.beta if x > params.delta else 1.0 - params.beta
    return a * c_alpha * side * params.gamma**a * abs(x - params.delta) ** (-a - 1.0)


@pytest.mark.parametrize("alpha, beta", [(1.75, 0.1), (1.2, 0.3), (0.8, -0.2)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pdf_switches_to_power_law_tail(alpha, beta, sign):
    params = StableParams(alpha, beta, 1.0, 0.0)
    radius = _tail_switch_radius(params)
    # Just inside the switch the inversion agrees with the tail expansion ...
    x_in = sign * 0.99 * radius
    assert pdf_numeric(params, x_in) == pytest.approx(_one_term_tail_pdf(params, x_in), rel=1e-2)
    # ... and past it the density is that expansion.
    x_out = sign * 1.01 * radius
    assert pdf_numeric(params, x_out) == pytest.approx(
        _one_term_tail_pdf(params, x_out), rel=1e-12
    )


# Regression pin of the reference density and CDF, (x, pdf, cdf) per law
# (alpha, beta, gamma, delta), recorded from the inversion with 6 panels per
# e^{-ixt} period and tolerance 1e-8.  Points with |x| in the hundreds inside
# the tail switch exercise the oscillation grid; the rest cover the bulk and
# the alpha = 1 branch.  A change to the grid or the tolerance must stay
# within 1e-12.
_DENSITY_PINS = [
    ((1.75, 0.1, 1.0, 0.0), [
        (-300.0, 2.7178904923466938e-08, 4.6592408440229035e-06),
        (-3.0, 0.030495672082985578, 0.031231319481445474),
        (-0.5, 0.26706353676227484, 0.3682968712362845),
        (0.0, 0.28327433365540805, 0.507529882521961),
        (1.0, 0.20725058561327306, 0.7624357313886607),
        (200.0, 1.013055158971606e-07, 0.9999884222267547),
    ]),
    ((1.5, -0.7, 2.0, 1.0), [
        (-300.0, 9.152695310205712e-07, 0.00018366408589146126),
        (-3.0, 0.029461669185904326, 0.10591281821398779),
        (-0.5, 0.07449829702888396, 0.22813534082831277),
        (0.0, 0.08779148358936018, 0.26866446682404627),
        (1.0, 0.11550981987343319, 0.3703999251905289),
        (200.0, 4.5696709581594434e-07, 0.999939541651951),
    ]),
    ((1.2, 0.3, 1.0, 0.0), [
        (-300.0, 8.319145897757864e-07, 0.00020762283989367303),
        (-3.0, 0.05564225409079983, 0.08796800879584687),
        (-0.5, 0.25709083827153395, 0.586246886396126),
        (0.0, 0.1883112045782756, 0.697761328000414),
        (1.0, 0.08695361603214403, 0.8293976275453916),
        (200.0, 3.7469312129814666e-06, 0.9993746746699605),
    ]),
    ((1.0, 0.5, 1.0, 0.0), [
        (-300.0, 1.7505612781798528e-06, 0.0005275571725632533),
        (-3.0, 0.016645663544486038, 0.048987445578080935),
        (-0.5, 0.29260958148075966, 0.2864085232950674),
        (0.0, 0.29252047056602404, 0.4375114838590963),
        (1.0, 0.15993626946128775, 0.6635450982516796),
        (200.0, 1.2103702131616698e-05, 0.9975940778482149),
    ]),
    ((0.8, -0.2, 1.0, 0.0), [
        (-300.0, 1.1815129899347724e-05, 0.004421098152000202),
        (-3.0, 0.04925924281705894, 0.18409805790326933),
        (-0.5, 0.3559818372906298, 0.5646443619794907),
        (0.0, 0.22760100272848294, 0.7195404336166972),
        (1.0, 0.06511303361007523, 0.8426450466314332),
        (200.0, 1.5952252422502574e-05, 0.9959721975206521),
    ]),
]


@pytest.mark.parametrize("law, rows", _DENSITY_PINS)
def test_density_and_cdf_match_pinned_values(law, rows):
    params = StableParams(*law)
    for x, pdf, cdf in rows:
        assert abs(pdf_numeric(params, x) - pdf) <= 1e-12, x
        assert abs(cdf_numeric(params, x) - cdf) <= 1e-12, x


def test_pdf_far_tail_is_finite_and_positive():
    # Past the inversion's oscillation budget (it raised QuadratureError here).
    params = StableParams(0.8, -0.2, 1.0, 0.0)
    for x in (5e4, -5e4):
        val = pdf_numeric(params, x)
        assert math.isfinite(val) and val > 0.0


# ---------------------------------------------------------------------------
# CDF oracle
# ---------------------------------------------------------------------------


def test_cdf_symmetric_law_at_center():
    assert cdf_numeric(StableParams(1.2, 0.0, 1.0, 0.0), 0.0) == pytest.approx(0.5, abs=1e-7)
    assert cdf_numeric(StableParams(1.75, 0.0, 2.0, 3.0), 3.0) == pytest.approx(0.5, abs=1e-7)


def test_cdf_levy_left_support_edge():
    val = cdf_numeric(StableParams(0.5, 1.0, 1.0, 0.0), 0.01)
    assert 0.0 <= val <= 1e-8


def test_cdf_monotone_and_bounded():
    params = StableParams(1.2, 0.3, 1.0, 0.0)
    xs = [-50.0, -5.0, -1.0, 0.0, 1.0, 5.0, 50.0]
    vals = [cdf_numeric(params, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.05 and vals[-1] > 0.95


def test_cdf_cross_checked_against_monte_carlo():
    params = StableParams(1.75, 0.1, 1.0, 0.0)
    n = 1_000_000
    draws = sample(params, np.random.default_rng(1006), size=n)
    emp = float(np.mean(draws <= 2.0))
    se = math.sqrt(emp * (1.0 - emp) / n)
    assert cdf_numeric(params, 2.0) == pytest.approx(emp, abs=3.0 * se)


# ---------------------------------------------------------------------------
# Law-level coherence checks (sampler vs. characteristic function)
# ---------------------------------------------------------------------------


def test_empirical_char_fn_matches_analytic():
    params = StableParams(1.3, -0.4, 1.0, 0.5)
    draws = sample(params, np.random.default_rng(1007), size=200_000)
    for t in (0.3, 1.0, 2.0):
        emp = np.mean(np.exp(1j * t * draws))
        assert emp == pytest.approx(char_fn(params, t), abs=0.01)
