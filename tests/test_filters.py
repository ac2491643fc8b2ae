"""Tests for weight bookkeeping, resampling, the ABC filters, and the Kalman
reference filter."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stablevol.filters as filters_mod
from stablevol.cli import _NUMERICAL_ERRORS
from stablevol.experiment import reference_model
from stablevol.filters import (
    DegenerateCloudError,
    FilterConfig,
    LinearGaussianParams,
    ParticleCloud,
    SmcConfig,
    abc_apf_run,
    abc_apf_step,
    abc_smc_run,
    abc_smc_step,
    ess,
    kalman_run,
    normalize,
    resample,
    resolve_epsilon,
)
from stablevol.kernels import KernelSpec, log_kernel
from stablevol.proposals import ProposalSpec, log_phat
from stablevol.stable import StableParams
from stablevol.svm import SvmParams, simulate

from _oracles import KALMAN3_MEANS, KALMAN3_VARS, LG, gauss_config, svm_model


# ---------------------------------------------------------------------------
# normalize / ess
# ---------------------------------------------------------------------------


def test_normalize_pinned_cases():
    assert np.allclose(normalize([0.0, 0.0]), np.log([0.5, 0.5]), atol=1e-15)
    thirds = normalize([7.3, 7.3, 7.3])
    assert np.allclose(thirds, np.log([1 / 3] * 3), atol=1e-15)
    quarters = normalize([math.log(3.0), math.log(1.0)])
    assert np.allclose(quarters, np.log([0.75, 0.25]), atol=1e-12)


# Log weights whose spread normalize can resolve.
_LOG_WEIGHTS = st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=64).filter(
    lambda ws: max(ws) - min(ws) < 600.0
)


@given(_LOG_WEIGHTS)
def test_normalize_sums_to_one(raw):
    lw = normalize(raw)
    assert abs(float(np.sum(np.exp(lw))) - 1.0) < 1e-12
    assert np.all(np.exp(lw) >= 0.0)


@given(_LOG_WEIGHTS, st.floats(-300.0, 300.0))
@example([-1.0, -2.0, -3.0], 123.0)
def test_normalize_shift_invariance(raw, shift):
    assert np.allclose(normalize(raw), normalize(np.asarray(raw) + shift), atol=1e-12)


@given(_LOG_WEIGHTS)
def test_ess_bounds(raw):
    assert 1.0 - 1e-9 <= ess(normalize(raw)) <= len(raw) + 1e-9


def test_normalize_rejects_all_log_zero():
    # ess shares normalize's log normaliser, and with it these checks.
    for fn in (normalize, ess):
        with pytest.raises(DegenerateCloudError):
            fn([-math.inf, -math.inf])
        # A NaN or +inf weight is a numerical fault, not a degenerate cloud:
        # the reset must not swallow it.
        for bad in (math.nan, math.inf):
            with pytest.raises(FloatingPointError):
                fn([0.0, bad, -math.inf])


def test_ess_pinned_cases():
    # N only for uniform weights, 1 for a lone survivor, strictly between otherwise.
    one_hot = np.full(100, -math.inf)
    one_hot[3] = 0.0
    for lw, expected in [
        (np.full(100, -math.log(100.0)), 100.0),
        (one_hot, 1.0),
        ([math.log(0.5), math.log(0.5), -math.inf, -math.inf], 2.0),
        ([math.log(0.6), math.log(0.4)], 1.0 / 0.52),
    ]:
        assert ess(lw) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
def test_resample_one_hot_copies_winner(scheme):
    n = 8
    lw = np.full(n, -math.inf)
    lw[5] = 0.0
    cloud = ParticleCloud(np.arange(n, dtype=float), lw)
    out, ancestors = resample(cloud, scheme, np.random.default_rng(3001))
    # np.all alone passes on a wrong length, so the shapes are checked first.
    assert out.states.shape == out.log_weights.shape == ancestors.shape == (n,)
    assert np.all(ancestors == 5)
    assert np.all(out.states == 5.0)
    assert np.allclose(np.exp(out.log_weights), 1.0 / n, atol=1e-15)


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
def test_resample_unbiased_weighted_mean(scheme):
    # Every particle's mean copy count is N w_i, so the resampled cloud's mean
    # of any function of the states is unbiased for its weighted mean.
    rng = np.random.default_rng(3005)
    # Systematic copy counts vary far less, so fewer repetitions pin them.
    n, reps = 10, {"multinomial": 100_000, "systematic": 50_000}[scheme]
    weights = np.exp(normalize(rng.normal(size=n)))
    cloud = ParticleCloud(np.arange(n, dtype=float), np.log(weights))
    counts = np.array(
        [np.bincount(resample(cloud, scheme, rng)[1], minlength=n) for _ in range(reps)]
    )
    se = np.std(counts, axis=0) / math.sqrt(reps)
    assert np.all(np.abs(counts.mean(axis=0) - n * weights) < 4.0 * np.maximum(se, 1e-12))


def test_resample_rejects_unnormalized_weights():
    cloud = ParticleCloud(np.array([1.0, 2.0]), np.log([0.7, 0.7]))
    with pytest.raises(ValueError):
        resample(cloud, "multinomial", np.random.default_rng(0))
    with pytest.raises(ValueError):
        resample(cloud, "stratified-ish", np.random.default_rng(0))
    nan_cloud = ParticleCloud(np.arange(4.0), np.array([math.nan, 0.0, -1.0, -2.0]))
    for scheme in ("multinomial", "systematic"):
        with pytest.raises(ValueError):
            resample(nan_cloud, scheme, np.random.default_rng(0))


def _resample_weights(kind, n, rng):
    lw = rng.normal(size=n)
    if kind == "one_hot":
        lw = np.full(n, -math.inf)
        lw[n // 2] = 0.0
    elif kind == "zeros":
        # Exact zeros, single and in a run, give the CDF plateaus; the last
        # weight stays positive.
        lw[: n - 1 : 3] = -math.inf
        lw[n // 4 : n // 2] = -math.inf
    return normalize(lw)


@pytest.mark.parametrize("kind", ["random", "one_hot", "zeros"])
@pytest.mark.parametrize("n", [1, 2, 13, 5000])
def test_multinomial_ancestors_match_unsorted_search(n, kind):
    # The multinomial ancestors are exactly a plain search of the unsorted
    # uniforms, element for element, and consume the same draws.
    lw = _resample_weights(kind, n, np.random.default_rng(3007))
    cloud = ParticleCloud(np.arange(n, dtype=float), lw)
    rng = np.random.default_rng(3008)
    _, ancestors = resample(cloud, "multinomial", rng)

    same_seed = np.random.default_rng(3008)
    cdf = np.cumsum(np.exp(lw))
    cdf[-1] = 1.0
    expected = np.searchsorted(cdf, same_seed.random(n), side="right")
    assert np.array_equal(ancestors, expected)
    assert rng.bit_generator.state == same_seed.bit_generator.state


# ---------------------------------------------------------------------------
# resolve_epsilon (adaptive ABC-SMC tolerance)
# ---------------------------------------------------------------------------


def test_resolve_epsilon_quartile_convention():
    d = np.array([0.4, 0.1, 0.3, 0.2])
    assert resolve_epsilon(d, 0.25) == pytest.approx(0.1)
    assert resolve_epsilon(d, 0.5) == pytest.approx(0.2)
    assert resolve_epsilon(d, 0.51) == pytest.approx(0.3)  # ceil(2.04) = 3
    assert resolve_epsilon(d, 1.0) == pytest.approx(0.4)
    assert resolve_epsilon(d, 1e-9) == pytest.approx(0.1)
    # The closest quarter survives, and only it.
    assert np.flatnonzero(d <= resolve_epsilon(d, 0.25)).tolist() == [1]


def test_resolve_epsilon_exact_product_is_not_rounded_up():
    # 0.07 * 100 and 0.07 * 5000 round to 7.000000000000001 and 350.00000000000006.
    assert resolve_epsilon(np.arange(100.0), 0.07) == 6.0
    d = np.arange(5000.0)
    assert int(np.sum(d <= resolve_epsilon(d, 0.07))) == 350


# ---------------------------------------------------------------------------
# abc_apf_step
# ---------------------------------------------------------------------------


def test_single_particle_step_replays_rng_order():
    model = svm_model()
    cloud = ParticleCloud(np.array([-4.0]), np.array([0.0]))
    cfg = gauss_config(n=2)
    out, _ = abc_apf_step(cloud, 0.05, model, cfg, np.random.default_rng(3103))

    replay = np.random.default_rng(3103)
    replay.random(1)  # resampling draw consumed first
    z = replay.standard_normal((1,))  # then the transition noise
    expected_state = model.transition_mean(-4.0) + model.sigma_h * z[0]
    assert out.states[0] == expected_state
    assert out.log_weights[0] == pytest.approx(0.0, abs=1e-15)


def _reference_apf_step(states, log_weights, y, model, config, rng):
    """One ABC-APF step as the paper writes it, for a cloud that resamples
    every step (multinomially) or never (an ESS threshold of 1).

    Tilt each particle by p_hat at its transition mean, select on the tilted
    weights, propagate, simulate one pseudo-observation per particle, and
    weigh by the kernel at the observation scale over the parent's tilt.  A
    state-independent tilt (the central t) is a constant that cancels from
    both stages, so it is left out.  Returns (states, log weights).
    """
    if config.proposal.is_state_independent:
        tilt, first = np.zeros(len(states)), log_weights
    else:
        tilt = log_phat(config.proposal, y, model.transition_mean(states))
        first = normalize(log_weights + tilt)
    if config.resample_policy == "every_step":
        selected, parents = resample(ParticleCloud(states, first), "multinomial", rng)
        base, carried = selected.states, selected.log_weights
    else:
        base, carried, parents = states, first, np.arange(len(states))
    new_states = model.transition_sample(base, rng)
    y_sim = model.observe_sample(new_states, rng)
    scale = model.observation_scale(new_states)
    kernel = log_kernel(config.kernel, (y_sim - y) / scale)
    return new_states, normalize(carried + kernel - np.log(scale) - tilt[parents])


@pytest.mark.parametrize("weights", ["uniform", "random"])
@pytest.mark.parametrize("policy", ["every_step", "ess_threshold"])
@pytest.mark.parametrize("proposal", ["central_t", "shifted_t"])
def test_step_equals_reference_apf_step(proposal, policy, weights, monkeypatch):
    # Matched seeds give bit-identical clouds, and the step evaluates p_hat
    # once, or never for the central t's constant tilt.
    calls = []
    monkeypatch.setattr(filters_mod, "log_phat", lambda *args: calls.append(1) or log_phat(*args))
    model = svm_model()
    n, y = 512, 0.3
    init = np.random.default_rng(6)
    states = np.asarray(model.initial_sample(init, size=n))
    lw = normalize(init.normal(size=n)) if weights == "random" else np.full(n, -math.log(n))
    threshold = 1.0 if policy == "ess_threshold" else None
    cfg = FilterConfig(
        n, KernelSpec("gaussian", 0.5), ProposalSpec(proposal),
        resample_policy=policy, resample_threshold=threshold,
    )
    stepped, diag = abc_apf_step(ParticleCloud(states, lw), y, model, cfg, np.random.default_rng(3107))
    new_states, new_lw = _reference_apf_step(states, lw, y, model, cfg, np.random.default_rng(3107))
    assert diag.resampled == (policy == "every_step")
    assert np.array_equal(stepped.states, new_states)
    assert np.array_equal(stepped.log_weights, new_lw)
    assert len(calls) == (proposal == "shifted_t")


def test_filter_invariant_to_proposal_scaling(monkeypatch):
    # Multiplying every p_hat value by a constant must not change which
    # particles are selected or propagated: the states coincide exactly and
    # the means agree to float rounding.
    model = svm_model()
    ys = simulate(model, 50, 3105).y
    orig = filters_mod.log_phat

    def run(log_phat_fn):
        monkeypatch.setattr(filters_mod, "log_phat", log_phat_fn)
        states = []

        def step(*args):
            cloud, diag = abc_apf_step(*args)
            states.append(cloud.states)
            return cloud, diag

        return states, filters_mod._run(step, ys, model, gauss_config(n=400), 3106).filtered_mean

    st_a, mean_a = run(orig)
    st_b, mean_b = run(lambda spec, y, xi: orig(spec, y, xi) + 2.0)
    assert np.array_equal(st_a, st_b)
    assert np.allclose(mean_a, mean_b, rtol=0.0, atol=1e-10)


def test_degenerate_cloud_resets_to_uniform_and_is_counted():
    model = svm_model()
    n = 100
    cfg = FilterConfig(n_particles=n, kernel=KernelSpec("uniform", 1e-8), proposal=ProposalSpec("shifted_t"))
    ys = np.full(3, 1e6)  # unreachable by any pseudo-observation
    out = abc_apf_run(ys, model, cfg, np.random.default_rng(3107))
    assert out.degeneracy_count == 3
    assert np.allclose(out.ess_trace, n, atol=1e-6)
    assert np.all(np.isfinite(out.filtered_mean))
    cloud = ParticleCloud(np.zeros(n), np.full(n, -math.log(n)))
    reset, diag = abc_apf_step(cloud, 1e6, model, cfg, np.random.default_rng(3108))
    assert diag.degenerate
    assert reset.log_weights is filters_mod._uniform_log_weights(n)


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
def test_uniform_clouds_share_one_read_only_log_weight_array(scheme, monkeypatch):
    # A run's prior cloud, a resampled cloud and a degenerate reset (above)
    # all take one read-only -log(n) array per cloud size.  One read-only
    # arange per size serves the systematic grid and the identity ancestry of
    # a carried cloud, so no step builds one.
    n = 37
    uniform, indices = filters_mod._uniform_log_weights(n), filters_mod._indices(n)
    assert np.array_equal(uniform, np.full(n, -math.log(n)))
    assert np.array_equal(indices, np.arange(n))
    for shared in (uniform, indices):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            shared += 1

    def no_new_arange(*args, **kwargs):
        raise AssertionError("np.arange called in the step")

    monkeypatch.setattr(np, "arange", no_new_arange)
    priors = []

    def spy_step(cloud, *args):
        priors.append(cloud)
        return abc_apf_step(cloud, *args)

    cfg = gauss_config(n=n, resample_policy="ess_threshold", resample_scheme=scheme)
    filters_mod._run(spy_step, [0.1], LG, cfg, 3110)
    assert priors[0].log_weights is uniform
    rng = np.random.default_rng(3109)
    cloud = ParticleCloud(rng.normal(size=n), normalize(rng.normal(size=n)))
    first, _ = resample(cloud, scheme, rng)
    second, _ = resample(cloud, scheme, rng)
    assert first.log_weights is second.log_weights is uniform
    if scheme == "systematic":
        # A uniform cloud keeps everyone under the systematic grid.
        assert np.array_equal(resample(second, scheme, rng)[1], indices)
    carried, ancestors, resampled = filters_mod._select(second, cfg, rng)
    assert carried is second and not resampled
    assert ancestors is indices


# ---------------------------------------------------------------------------
# abc_apf_run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ys, message",
    [
        ([0.1, math.nan, -0.2], "NaN or infinite"),
        ([0.1, math.inf, -0.2], "NaN or infinite"),
        ([0.1, -math.inf, -0.2], "NaN or infinite"),
        ([], "empty"),
    ],
    ids=["nan", "inf", "-inf", "empty"],
)
@pytest.mark.parametrize(
    "run",
    [
        lambda ys: abc_apf_run(ys, svm_model(), gauss_config(n=64, proposal="central_t"), 0),
        lambda ys: abc_apf_run(ys, svm_model(), gauss_config(n=64), 0),
        lambda ys: abc_smc_run(ys, svm_model(), SmcConfig(64), 0),
        lambda ys: kalman_run(LG, ys),
    ],
    ids=["apf-central-t", "apf-shifted-t", "smc", "kalman"],
)
def test_run_rejects_non_finite_observations(run, ys, message):
    # Every filter, the exact one included, refuses an empty record or one
    # holding a NaN or infinite value.
    with pytest.raises(ValueError, match=message):
        run(ys)


_ESS_SYSTEMATIC = {"resample_policy": "ess_threshold", "resample_scheme": "systematic"}


@pytest.mark.parametrize("model", [svm_model(), LG], ids=["svm", "lg"])
@pytest.mark.parametrize(
    "step, run, config",
    [
        (abc_apf_step, abc_apf_run, gauss_config(n=200)),
        (abc_smc_step, abc_smc_run, SmcConfig(200, 0.25)),
        (abc_apf_step, abc_apf_run, gauss_config(n=128, proposal="central_t", **_ESS_SYSTEMATIC)),
        (abc_apf_step, abc_apf_run, gauss_config(n=128, **_ESS_SYSTEMATIC)),
        (abc_smc_step, abc_smc_run, SmcConfig(128, **_ESS_SYSTEMATIC)),
    ],
    ids=["apf", "smc", "apf-central-t-ess", "apf-shifted-t-ess", "smc-ess"],
)
def test_run_equals_hand_driven_step(model, step, run, config):
    # A run is the step applied once per observation to the seeded prior
    # cloud; both paths must agree bit for bit.  Each cloud's cached weights
    # and ESS are the values computed afresh from its log weights.
    ys = simulate(svm_model(), 25, 3205).y
    out = run(ys, model, config, np.random.default_rng(3206))

    rng = np.random.default_rng(3206)
    n = config.n_particles
    cloud = ParticleCloud(model.initial_sample(rng, size=n), np.full(n, -math.log(n)))
    means, esses, resampled = [], [], 0
    for y in ys:
        cloud, diag = step(cloud, float(y), model, config, rng)
        assert cloud.weights.tobytes() == np.exp(cloud.log_weights).tobytes()
        assert float(cloud.ess).hex() == ess(cloud.log_weights).hex()
        means.append(float(np.dot(cloud.weights, cloud.states)))
        esses.append(cloud.ess)
        resampled += diag.resampled
    assert np.array_equal(out.filtered_mean, means)
    assert np.array_equal(out.ess_trace, esses)
    assert out.resample_count == resampled
    if step is abc_smc_step:
        # SMC resamples at the start of steps 2..T, never the prior cloud.
        assert out.resample_count == len(ys) - 1


@pytest.fixture
def ess_calls(monkeypatch):
    """A list that grows by one per call of the module-level ``filters.ess``."""
    calls = []
    orig = filters_mod.ess

    def spy(log_weights):
        calls.append(1)
        return orig(log_weights)

    monkeypatch.setattr(filters_mod, "ess", spy)
    return calls


@pytest.mark.parametrize(
    "run, proposal, policy, expected",
    [
        # every_step reads only the recorded ESS, once per step.  Under
        # ess_threshold the central t tests the carried cloud, whose ESS the
        # previous step recorded (plus the prior cloud's), while the shifted t
        # tests a freshly tilted cloud each step.  ABC-SMC tests the carried
        # cloud, so each cloud's ESS is computed once under either policy.
        (abc_apf_run, "central_t", "every_step", 30),
        (abc_apf_run, "central_t", "ess_threshold", 31),
        (abc_apf_run, "shifted_t", "every_step", 30),
        (abc_apf_run, "shifted_t", "ess_threshold", 60),
        (abc_smc_run, None, "every_step", 30),
        (abc_smc_run, None, "ess_threshold", 30),
    ],
)
def test_ess_call_counts_per_run(ess_calls, run, proposal, policy, expected):
    model = reference_model()
    ys = simulate(model, 30, 7).y
    if run is abc_smc_run:
        config = SmcConfig(128, resample_policy=policy, resample_scheme="systematic")
    else:
        config = FilterConfig(
            128, KernelSpec("gaussian", 0.25), ProposalSpec(proposal),
            resample_policy=policy, resample_scheme="systematic",
        )
    out = run(ys, model, config, np.random.default_rng(7))
    assert len(ess_calls) == expected
    if (proposal, policy) == ("central_t", "ess_threshold"):
        # The one case that both resamples and skips, so both branches of the
        # policy test read the cached ESS.
        assert 0 < out.resample_count < len(ys)


def test_particle_cloud_is_frozen(ess_calls):
    # Read-only, and each derived value is computed once, on first read.
    cloud = ParticleCloud(np.arange(4.0), normalize(np.arange(4.0)))
    assert cloud.weights is cloud.weights
    assert cloud.ess is cloud.ess
    assert len(ess_calls) == 1
    for name, value in [
        ("states", np.zeros(4)), ("log_weights", np.zeros(4)), ("t", 1),
        ("weights", np.zeros(4)), ("ess", 1.0),
    ]:
        with pytest.raises(AttributeError):
            setattr(cloud, name, value)
    with pytest.raises(AttributeError):
        del cloud.states


@st.composite
def _filter_cases(draw):
    """A random valid (model, run, config) triple over both filters."""
    model = SvmParams(
        draw(st.floats(-2.0, 2.0)),
        draw(st.floats(-0.99, 0.99)),
        draw(st.floats(0.05, 2.0)),
        StableParams(
            draw(st.floats(0.1, 2.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 2.0))
        ),
    )
    n = draw(st.integers(2, 64))
    policy = draw(st.sampled_from(["every_step", "ess_threshold"]))
    threshold = None
    if policy == "ess_threshold":
        threshold = draw(st.none() | st.floats(1.0, float(n)))
    common = dict(
        n_particles=n,
        resample_policy=policy,
        resample_threshold=threshold,
        resample_scheme=draw(st.sampled_from(["multinomial", "systematic"])),
    )
    if draw(st.booleans()):
        eps = 10.0 ** draw(st.floats(-300.0, 3.0))
        kernel = KernelSpec(draw(st.sampled_from(["gaussian", "uniform"])), eps)
        kind = draw(st.sampled_from(["central_t", "shifted_t", "noncentral_t"]))
        return model, abc_apf_run, FilterConfig(kernel=kernel, proposal=ProposalSpec(kind), **common)
    percentile = draw(st.floats(0.0, 1.0, exclude_min=True))
    return model, abc_smc_run, SmcConfig(smc_percentile=percentile, **common)


@settings(max_examples=200)
@given(case=_filter_cases(), horizon=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_filters_return_finite_output_or_documented_error(case, horizon, seed):
    # Any valid model, config and short record either filters to finite means
    # with 1 <= ESS <= N or raises one of the errors the CLI maps to exit 3.
    model, run, config = case
    ys = simulate(model, horizon, seed).y
    n = config.n_particles
    try:
        with np.errstate(all="ignore"):
            out = run(ys, model, config, np.random.default_rng(seed))
    except _NUMERICAL_ERRORS:
        return
    assert np.all(np.isfinite(out.filtered_mean))
    assert np.all(out.ess_trace >= 1.0 - 1e-9)
    assert np.all(out.ess_trace <= n * (1.0 + 1e-9))


def test_high_signal_to_noise_tracks_log_squared_observations():
    model = svm_model(mu=0.0, phi=0.95, sigma_h=1.5, alpha=2.0, beta=0.0, sigma_v=0.05)
    data = simulate(model, 200, 3203)
    cfg = gauss_config(eps=0.05, n=3000)
    out = abc_apf_run(data.y, model, cfg, np.random.default_rng(3204))
    prior_sd = math.sqrt(model.stationary_var)
    rmse_val = float(np.sqrt(np.mean((out.filtered_mean - data.h[1:]) ** 2)))
    assert rmse_val < 0.5 * prior_sd
    log_sq = 2.0 * np.log(np.abs(data.y))
    corr = float(np.corrcoef(out.filtered_mean, log_sq)[0, 1])
    assert corr > 0.85


# ---------------------------------------------------------------------------
# abc_smc_run
# ---------------------------------------------------------------------------


def test_smc_non_finite_tolerance_is_numerical_failure():
    # At h ~ 1500 exp(h / 2) overflows, so every distance and the tolerance are
    # infinite: a numerical failure, not a bad bandwidth.
    model = svm_model(mu=1500.0, phi=0.0)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="step 1"):
        abc_smc_run([0.1], model, SmcConfig(64), np.random.default_rng(0))


@pytest.mark.parametrize("percentile", [0.25, 1.0])
def test_smc_ess_bounded_by_kept_fraction(percentile):
    # The kept fraction bounds each step's ESS from above; at 1.0 every
    # particle is kept, so the ESS is the whole cloud.
    model = svm_model()
    data = simulate(model, 10, 3301)
    n = 256
    out = abc_smc_run(data.y, model, SmcConfig(n, percentile), np.random.default_rng(3302))
    assert out.degeneracy_count == 0
    assert np.all(np.isfinite(out.filtered_mean))
    assert np.all(out.ess_trace <= percentile * n + 1.0)
    if percentile == 1.0:
        assert np.allclose(out.ess_trace, n, atol=1e-6)


def test_smc_tracks_kalman_roughly_on_linear_gaussian_model():
    xs, ys = LG.simulate(100, 3305)
    k_means, _ = kalman_run(LG, ys)
    out = abc_smc_run(ys, LG, SmcConfig(2000, 0.25), np.random.default_rng(3306))
    gap = float(np.mean(np.abs(out.filtered_mean - k_means)))
    assert gap < 0.25


# ---------------------------------------------------------------------------
# Kalman reference filter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model, ys, means, variances, tol",
    [
        # Three steps by hand in exact rationals, from the prior N(0, 4/3).
        (LinearGaussianParams(0.0, 0.5, 1.0, 1.0), [1.0, -1.0, 2.0], KALMAN3_MEANS, KALMAN3_VARS, 1e-12),
        # A perfect observation is the filtered state, with no variance left.
        (replace(LG, sigma_y=1e-9), [1.5, -0.3, 0.8], [1.5, -0.3, 0.8], [0.0] * 3, 1e-12),
        # A near-static state with stationary mean 0.2 / (1 - 0.9) = 2 and
        # prior variance ~5e-18 shrinks every observation fully onto that mean.
        (replace(LG, mu=0.2, sigma_h=1e-9), np.ones(5), [2.0] * 5, [0.0] * 5, 1e-6),
    ],
    ids=["three-step", "perfect-observation", "static-state"],
)
def test_kalman_recursion_and_limits(model, ys, means, variances, tol):
    got_means, got_variances = kalman_run(model, ys)
    assert np.allclose(got_means, means, atol=tol)
    assert np.allclose(got_variances, variances, atol=tol)


def test_linear_gaussian_observation_scale_is_one():
    # The bad parameters are the LinearGaussianParams rows of
    # test_svm.py::test_rejects_bad_parameters.
    # The float 1.0 for any state, from which the APF step skips the scale.
    for h in (3.7, np.array([-1.0, 2.0])):
        scale = LG.observation_scale(h)
        assert type(scale) is float and scale == 1.0


class _ArrayScaleLG(LinearGaussianParams):
    """The linear-Gaussian model with its unit observation scale as an array,
    which takes the step's general (state-dependent scale) path."""

    def observation_scale(self, h):
        return np.ones(np.shape(h))


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
@pytest.mark.parametrize("policy", ["every_step", "ess_threshold"])
@pytest.mark.parametrize("proposal", ["central_t", "shifted_t"])
def test_unit_scale_shortcut_equals_array_scale_path(proposal, policy, scheme):
    # The float 1.0 skips the division and the log-scale pass, which must not
    # move a byte against the same model dividing by an array of ones.
    ys = LG.simulate(40, 3112)[1]
    cfg = gauss_config(n=128, proposal=proposal, resample_policy=policy, resample_scheme=scheme)
    array_lg = _ArrayScaleLG(LG.mu, LG.phi, LG.sigma_h, LG.sigma_y)
    plain, general = (abc_apf_run(ys, model, cfg, 3113) for model in (LG, array_lg))
    assert plain.filtered_mean.tobytes() == general.filtered_mean.tobytes()
    assert plain.ess_trace.tobytes() == general.ess_trace.tobytes()
    assert plain.resample_count == general.resample_count
    assert plain.degeneracy_count == general.degeneracy_count


# ---------------------------------------------------------------------------
# ABC-vs-exact coherence on the linear-Gaussian model
# ---------------------------------------------------------------------------


def _abc_target(eps):
    # With a Gaussian kernel the ABC likelihood on this model is exactly
    # N(y; x, sigma_y^2 + eps^2), so at every eps the ABC-APF targets the
    # Kalman filter whose observation noise is inflated to that scale.
    return replace(LG, sigma_y=math.sqrt(LG.sigma_y**2 + eps**2))


def test_abc_bias_falls_to_zero_with_the_bandwidth():
    # The bias a smaller eps removes, computed exactly: no particles.
    for s in range(2):
        _, ys = LG.simulate(200, 4000 + s)
        plain = kalman_run(LG, ys)[0]
        bias = [
            float(np.mean(np.abs(kalman_run(_abc_target(eps), ys)[0] - plain)))
            for eps in (1.5, 0.5, 0.25, 0.1, 0.05)
        ]
        assert all(wide > narrow for wide, narrow in zip(bias, bias[1:])), bias
        assert kalman_run(_abc_target(0.0), ys)[0].tobytes() == plain.tobytes()


@pytest.mark.parametrize("eps, bound", [(0.5, 0.025), (0.05, 0.04)], ids=["eps0.5", "eps0.05"])
@pytest.mark.parametrize("proposal", ["central_t", "shifted_t"])
def test_apf_means_match_exact_abc_target(proposal, eps, bound):
    # What is left against the exact target is Monte Carlo error, which grows
    # as eps shrinks (measured 0.008-0.010 at eps 0.5, 0.020-0.026 at 0.05).
    cfg = gauss_config(eps, 5000, proposal)
    for s in range(2):
        _, ys = LG.simulate(200, 4000 + s)
        out = abc_apf_run(ys, LG, cfg, np.random.default_rng(5000 + s))
        gap = float(np.mean(np.abs(out.filtered_mean - kalman_run(_abc_target(eps), ys)[0])))
        plain = float(np.mean(np.abs(out.filtered_mean - kalman_run(LG, ys)[0])))
        message = f"record {s}: gap {gap:.4f}, plain {plain:.4f}"
        assert gap < bound, message
        # At eps 0.5 the exact bias (0.094) dwarfs the Monte Carlo error, so
        # the filter must sit far closer to its target than to the plain one.
        assert eps < 0.5 or gap < plain / 4, message


_KERNEL = KernelSpec("gaussian", 0.25)
_ESS = {"resample_policy": "ess_threshold"}


def test_config_validation():
    # Each bad value is caught when the config is built, not inside numpy when
    # it runs.  Every-step resampling never reads a threshold, so it may not
    # hold one; a bool or a non-number is not a number here.
    for build, message in [
        (partial(FilterConfig, 1, _KERNEL), "n_particles must be >= 2"),
        *(
            (partial(make, n), f"n_particles must be an integer, got {n!r}")
            for n in (100.0, 2.5, True)
            for make in (partial(FilterConfig, kernel=_KERNEL), SmcConfig)
        ),
        (partial(gauss_config, resample_policy="sometimes"), "resample_policy must be one of"),
        (partial(gauss_config, resample_threshold=10.0), "read only under ess_threshold"),
        (partial(gauss_config, n=500, resample_threshold=0.5, **_ESS), r"\[1, n_particles\]"),
        (partial(gauss_config, n=100, resample_threshold=101.0, **_ESS), r"\[1, n_particles\]"),
        *(
            (partial(SmcConfig, 64, resample_threshold=bad, **_ESS),
             "resample_threshold must be a finite real number")
            for bad in (True, "32")
        ),
        *(
            (partial(SmcConfig, 10, p), r"smc_percentile must lie in \(0, 1\]")
            for p in (0.0, 1.5)
        ),
        *(
            (partial(SmcConfig, 64, bad), "smc_percentile must be a finite real number")
            for bad in (True, "0.5", None)
        ),
    ]:
        with pytest.raises(ValueError, match=message):
            build()


def test_config_numbers_are_stored_as_floats():
    # An int and the equal float build one config, and an unset threshold is
    # resolved to N/2 under ess_threshold.
    cfg = SmcConfig(64, 1, resample_threshold=32, **_ESS)
    assert (cfg.smc_percentile, cfg.resample_threshold) == (1.0, 32.0)
    assert type(cfg.smc_percentile) is float and type(cfg.resample_threshold) is float
    assert type(SmcConfig(np.int64(64)).n_particles) is int
    assert gauss_config(n=300, **_ESS).resample_threshold == 150.0
