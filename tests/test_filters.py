"""Tests for weight bookkeeping, resampling, the ABC filters, and the Kalman
reference filter."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablevol.filters as filters_mod
from stablevol.cli import _NUMERICAL_ERRORS
from stablevol.experiment import reference_model
from stablevol.filters import (
    DegenerateCloudError,
    FilterConfig,
    LinearGaussianParams,
    ParticleCloud,
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

from _oracles import KALMAN3_MEANS, KALMAN3_VARS


def svm_model(**kw) -> SvmParams:
    args = dict(mu=-0.2, phi=0.95, sigma_h=0.6, alpha=1.75, beta=0.1, sigma_v=0.8)
    args.update(kw)
    return SvmParams(
        args["mu"],
        args["phi"],
        args["sigma_h"],
        StableParams(args["alpha"], args["beta"], args["sigma_v"], 0.0),
    )


def gauss_config(eps=0.25, n=500, proposal="shifted_t", **kw) -> FilterConfig:
    return FilterConfig(
        n_particles=n, kernel=KernelSpec("gaussian", eps), proposal=ProposalSpec(proposal), **kw
    )


def smc_config(percentile=0.25, n=500) -> FilterConfig:
    return FilterConfig(
        n_particles=n,
        kernel=KernelSpec("uniform", None),
        proposal=ProposalSpec("shifted_t"),
        smc_percentile=percentile,
    )


LG = LinearGaussianParams(mu=0.0, phi=0.9, sigma_h=0.5, sigma_y=0.5)


# ---------------------------------------------------------------------------
# normalize / ess
# ---------------------------------------------------------------------------


def test_normalize_pinned_cases():
    assert np.allclose(normalize([0.0, 0.0]), np.log([0.5, 0.5]), atol=1e-15)
    thirds = normalize([7.3, 7.3, 7.3])
    assert np.allclose(thirds, np.log([1 / 3] * 3), atol=1e-15)
    quarters = normalize([math.log(3.0), math.log(1.0)])
    assert np.allclose(quarters, np.log([0.75, 0.25]), atol=1e-12)


@given(
    st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=64).filter(
        lambda ws: max(ws) - min(ws) < 600.0
    )
)
def test_normalize_sums_to_one(raw):
    lw = normalize(raw)
    assert abs(float(np.sum(np.exp(lw))) - 1.0) < 1e-12
    assert np.all(np.exp(lw) >= 0.0)


def test_normalize_shift_invariance():
    base = np.array([-1.0, -2.0, -3.0])
    assert np.allclose(normalize(base), normalize(base + 123.0), atol=1e-12)


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
    assert ess(np.full(100, -math.log(100.0))) == pytest.approx(100.0, abs=1e-9)
    one_hot = np.full(100, -math.inf)
    one_hot[3] = 0.0
    assert ess(one_hot) == pytest.approx(1.0, abs=1e-12)
    half = np.array([math.log(0.5), math.log(0.5), -math.inf, -math.inf])
    assert ess(half) == pytest.approx(2.0, abs=1e-12)


@given(st.lists(st.floats(-30.0, 0.0), min_size=2, max_size=64))
def test_ess_bounds(raw):
    lw = normalize(raw)
    val = ess(lw)
    n = len(lw)
    assert 1.0 - 1e-9 <= val <= n + 1e-9


def test_ess_maximal_only_for_uniform_weights():
    assert ess(normalize([0.0, 0.0, 0.0])) == pytest.approx(3.0, abs=1e-12)
    assert ess(np.log([0.6, 0.4])) < 2.0 - 1e-3


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
    assert np.all(ancestors == 5)
    assert np.all(out.states == 5.0)
    assert np.allclose(np.exp(out.log_weights), 1.0 / n, atol=1e-15)


def test_systematic_uniform_weights_keep_everyone():
    n = 16
    cloud = ParticleCloud(np.arange(n, dtype=float), np.full(n, -math.log(n)))
    _, ancestors = resample(cloud, "systematic", np.random.default_rng(3002))
    assert np.array_equal(np.sort(ancestors), np.arange(n))


def _copy_counts(weights, scheme, rng, reps):
    """Each repetition's copy count of every particle, shape (reps, N)."""
    n = weights.size
    cloud = ParticleCloud(np.arange(n, dtype=float), np.log(weights))
    ancestors = np.empty((reps, n), dtype=np.intp)
    for i in range(reps):
        ancestors[i] = resample(cloud, scheme, rng)[1]
    return np.sum(ancestors[:, :, None] == np.arange(n), axis=1)


def test_multinomial_expected_copy_count():
    counts = _copy_counts(np.array([0.7, 0.3]), "multinomial", np.random.default_rng(3003), 100_000)
    assert counts[:, 0].mean() == pytest.approx(1.4, abs=0.01)


def test_systematic_expected_copy_count():
    counts = _copy_counts(np.array([0.7, 0.3]), "systematic", np.random.default_rng(3004), 50_000)
    assert counts[:, 0].mean() == pytest.approx(1.4, abs=0.01)


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
def test_resample_unbiased_weighted_mean(scheme):
    # Every particle's mean copy count is N w_i, so the resampled cloud's mean
    # of any function of the states is unbiased for its weighted mean.
    rng = np.random.default_rng(3005)
    # Systematic copy counts vary far less, so fewer repetitions pin them.
    n, reps = 10, {"multinomial": 100_000, "systematic": 50_000}[scheme]
    weights = np.exp(normalize(rng.normal(size=n)))
    counts = _copy_counts(weights, scheme, rng, reps)
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


def test_resample_preserves_size_and_resets_weights():
    rng = np.random.default_rng(3006)
    lw = normalize(rng.normal(size=13))
    cloud = ParticleCloud(rng.normal(size=13), lw)
    out, ancestors = resample(cloud, "multinomial", rng)
    assert out.states.shape == (13,)
    assert ancestors.shape == (13,)
    assert np.allclose(np.exp(out.log_weights), 1.0 / 13.0, atol=1e-15)


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


def test_resolve_epsilon_keeps_closest_quarter():
    d = np.array([0.1, 0.2, 0.3, 0.4])
    eps = resolve_epsilon(d, 0.25)
    survivors = d <= eps
    assert int(np.sum(survivors)) == 1 and survivors[0]


def test_resolve_epsilon_exact_product_is_not_rounded_up():
    # 0.07 * 100 and 0.07 * 5000 round to 7.000000000000001 and 350.00000000000006.
    assert resolve_epsilon(np.arange(100.0), 0.07) == 6.0
    d = np.arange(5000.0)
    assert int(np.sum(d <= resolve_epsilon(d, 0.07))) == 350


# ---------------------------------------------------------------------------
# abc_apf_step
# ---------------------------------------------------------------------------


def test_constant_tilt_skips_proposal_evaluation(monkeypatch):
    calls = []
    orig = filters_mod.log_phat

    def spy(spec, y, xi):
        calls.append(spec.kind)
        return orig(spec, y, xi)

    monkeypatch.setattr(filters_mod, "log_phat", spy)
    model = svm_model()
    rng = np.random.default_rng(3101)
    states = np.asarray(model.initial_sample(rng, size=64))
    cloud = ParticleCloud(states, np.full(64, -math.log(64.0)))
    abc_apf_step(cloud, 0.1, model, gauss_config(n=64, proposal="central_t"), rng)
    assert calls == []
    abc_apf_step(cloud, 0.1, model, gauss_config(n=64), rng)
    assert calls == ["shifted_t"]


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
def test_step_equals_reference_apf_step(proposal, policy, weights):
    # Matched seeds give bit-identical clouds.
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


def test_filter_invariant_to_proposal_scaling(monkeypatch):
    # Multiplying every p_hat value by a constant must not change which
    # particles are selected or propagated: the states coincide exactly and
    # the weights and means agree to float rounding.
    model = svm_model()
    data = simulate(model, 50, 3105)
    cfg = gauss_config(n=400)
    orig = filters_mod.log_phat

    def run_steps(scale_shift):
        if scale_shift:
            monkeypatch.setattr(
                filters_mod, "log_phat", lambda spec, y, xi: orig(spec, y, xi) + 2.0
            )
        else:
            monkeypatch.setattr(filters_mod, "log_phat", orig)
        rng = np.random.default_rng(3106)
        n = cfg.n_particles
        states = np.asarray(model.initial_sample(rng, size=n))
        cloud = ParticleCloud(states, np.full(n, -math.log(n)))
        states_out, means = [], []
        for y in data.y:
            cloud, _ = abc_apf_step(cloud, float(y), model, cfg, rng)
            states_out.append(cloud.states.copy())
            means.append(float(np.dot(cloud.weights, cloud.states)))
        return states_out, np.array(means)

    st_a, mean_a = run_steps(False)
    st_b, mean_b = run_steps(True)
    for a, b in zip(st_a, st_b):
        assert np.array_equal(a, b)
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


def test_ess_threshold_policy_resamples_less_often():
    model = svm_model()
    data = simulate(model, 60, 3108)
    every = gauss_config(n=300)
    lazy = gauss_config(n=300, resample_policy="ess_threshold", resample_threshold=30.0)
    out_every = abc_apf_run(data.y, model, every, np.random.default_rng(3109))
    out_lazy = abc_apf_run(data.y, model, lazy, np.random.default_rng(3109))
    assert out_every.resample_count == 60
    assert out_lazy.resample_count < 60


def test_ess_threshold_defaults_to_half_the_cloud():
    cfg = gauss_config(n=300, resample_policy="ess_threshold")
    assert cfg.threshold == 150.0
    cfg2 = gauss_config(n=300, resample_policy="ess_threshold", resample_threshold=42.0)
    assert cfg2.threshold == 42.0


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
        lambda ys: abc_smc_run(ys, svm_model(), smc_config(n=64), 0),
        lambda ys: kalman_run(LG, ys),
    ],
    ids=["apf-central-t", "apf-shifted-t", "smc", "kalman"],
)
def test_run_rejects_non_finite_observations(run, ys, message):
    # Every filter, the exact one included, refuses an empty record or one
    # holding a NaN or infinite value.
    with pytest.raises(ValueError, match=message):
        run(ys)


@pytest.mark.parametrize("model", [svm_model(), LG], ids=["svm", "lg"])
@pytest.mark.parametrize(
    "step, run, config",
    [
        (abc_apf_step, abc_apf_run, gauss_config(n=200)),
        (
            abc_smc_step,
            abc_smc_run,
            FilterConfig(200, KernelSpec("uniform", None), smc_percentile=0.25),
        ),
    ],
    ids=["apf", "smc"],
)
def test_run_equals_hand_driven_step(model, step, run, config):
    # A run is the step applied once per observation to the seeded prior
    # cloud; both paths must agree bit for bit.
    ys = simulate(svm_model(), 25, 3205).y
    out = run(ys, model, config, np.random.default_rng(3206))

    rng = np.random.default_rng(3206)
    n = config.n_particles
    cloud = ParticleCloud(model.initial_sample(rng, size=n), np.full(n, -math.log(n)))
    means, esses, resampled = [], [], 0
    for y in ys:
        cloud, diag = step(cloud, float(y), model, config, rng)
        means.append(float(np.dot(cloud.weights, cloud.states)))
        esses.append(cloud.ess)
        resampled += diag.resampled
    assert np.array_equal(out.filtered_mean, means)
    assert np.array_equal(out.ess_trace, esses)
    assert out.resample_count == resampled
    if step is abc_smc_step:
        # SMC resamples at the start of steps 2..T, never the prior cloud.
        assert out.resample_count == len(ys) - 1


_PINNED_APF_SHIFTED_MEAN = [
    "-0x1.6011e98d3874ap+2", "-0x1.6f9c82b710bc2p+2", "-0x1.814548e319840p+2",
    "-0x1.be2a900441674p+2", "-0x1.7f57ca9de5489p+1", "-0x1.abd15d7033771p+1",
    "-0x1.56a0f256e7671p+2", "-0x1.42cebd7156476p+2",
]
_PINNED_APF_SHIFTED_ESS = [
    "0x1.b5561d7117ce4p+1", "0x1.96871c456061ap+3", "0x1.635460ab5ca22p+3",
    "0x1.d6690200748aep+1", "0x1.cb6a9d1f5c7cbp+0", "0x1.7939de8a94427p+2",
    "0x1.c62513af20767p+1", "0x1.18c171f8a6db2p+2",
]
_PINNED_APF_CENTRAL_MEAN = [
    "-0x1.4ca16d58168f8p+2", "-0x1.5d5b3f2ff2c03p+2", "-0x1.a62df1efa42b6p+2",
    "-0x1.51b434fc7bbfap+2", "-0x1.278fbae40ecd5p+2", "-0x1.1dbf1cc231922p+2",
    "-0x1.1509339f295bep+2", "-0x1.178c871075da2p+2",
]
_PINNED_APF_CENTRAL_ESS = [
    "0x1.dccc6e2515199p+3", "0x1.ad87ded9cfdbep+2", "0x1.324f6c6c391b3p+3",
    "0x1.7f4e9f6987cf8p+2", "0x1.4501c8d2db7b1p+2", "0x1.fc229c63df904p+3",
    "0x1.13bdad2f81dcap+4", "0x1.e5d30aca8b8e0p+2",
]
_PINNED_SMC_MEAN = [
    "-0x1.71727331204c2p+2", "-0x1.af3108f4f4726p+2", "-0x1.056af18c02708p+3",
    "-0x1.ebcea153615bcp+2", "-0x1.bfa472348bbbap+2", "-0x1.98081ae8c20b7p+2",
    "-0x1.a2dd53b99a010p+2", "-0x1.6ff5491cdd3b6p+2",
]
_PINNED_SMC_ESS = ["0x1.fffffffffffffp+3"] * 8


def test_run_pinned_bytes():
    # Regression pin of three whole runs (T=8, N=64), so a change to the
    # draws or to how they pair with the particles fails here.
    ys = simulate(svm_model(), 8, 3301).y
    cases = [
        (
            abc_apf_run,
            FilterConfig(64, KernelSpec("gaussian", 0.25), ProposalSpec("shifted_t")),
            _PINNED_APF_SHIFTED_MEAN, _PINNED_APF_SHIFTED_ESS, 8,
        ),
        (
            abc_apf_run,
            FilterConfig(
                64, KernelSpec("gaussian", 0.25), ProposalSpec("central_t"),
                resample_policy="ess_threshold", resample_scheme="systematic",
            ),
            _PINNED_APF_CENTRAL_MEAN, _PINNED_APF_CENTRAL_ESS, 7,
        ),
        (
            abc_smc_run,
            FilterConfig(64, KernelSpec("uniform", None), smc_percentile=0.25),
            _PINNED_SMC_MEAN, _PINNED_SMC_ESS, 7,
        ),
    ]
    for run, config, mean, ess_hex, resamples in cases:
        out = run(ys, svm_model(), config, np.random.default_rng(3302))
        assert [float(v).hex() for v in out.filtered_mean] == mean
        assert [float(v).hex() for v in out.ess_trace] == ess_hex
        assert out.resample_count == resamples
        assert out.degeneracy_count == 0


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
        config = FilterConfig(
            128, KernelSpec("uniform", None),
            resample_policy=policy, resample_scheme="systematic",
        )
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

    cloud = ParticleCloud(np.arange(4.0), normalize(np.arange(4.0)))
    ess_calls.clear()
    assert cloud.weights is cloud.weights
    assert cloud.ess is cloud.ess
    assert len(ess_calls) == 1


@pytest.mark.parametrize("proposal", ["central_t", "shifted_t"])
def test_cached_weights_and_ess_match_fresh_values(proposal):
    ys = simulate(svm_model(), 20, 3403).y
    model = svm_model()
    config = FilterConfig(
        128, KernelSpec("gaussian", 0.25), ProposalSpec(proposal),
        resample_policy="ess_threshold", resample_scheme="systematic",
    )
    rng = np.random.default_rng(3404)
    cloud = ParticleCloud(model.initial_sample(rng, size=128), np.full(128, -math.log(128)))
    for y in ys:
        cloud, _ = abc_apf_step(cloud, float(y), model, config, rng)
        assert cloud.weights.tobytes() == np.exp(cloud.log_weights).tobytes()
        assert float(cloud.ess).hex() == ess(cloud.log_weights).hex()


def test_particle_cloud_is_frozen():
    cloud = ParticleCloud(np.arange(4.0), np.full(4, -math.log(4.0)))
    for name, value in [("states", np.zeros(4)), ("log_weights", np.zeros(4)), ("t", 1)]:
        with pytest.raises(AttributeError):
            setattr(cloud, name, value)


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
    config = FilterConfig(kernel=KernelSpec("uniform", None), smc_percentile=percentile, **common)
    return model, abc_smc_run, config


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


def test_smc_requires_uniform_kernel():
    model = svm_model()
    with pytest.raises(ValueError):
        abc_smc_run([0.1], model, gauss_config(n=100), np.random.default_rng(0))


@pytest.mark.parametrize("percentile", [0.25, 1.0])
def test_smc_ess_bounded_by_kept_fraction(percentile):
    # The kept fraction bounds each step's ESS from above; at 1.0 every
    # particle is kept, so the ESS is the whole cloud.
    model = svm_model()
    data = simulate(model, 10, 3301)
    n = 256
    out = abc_smc_run(data.y, model, smc_config(percentile, n), np.random.default_rng(3302))
    assert out.degeneracy_count == 0
    assert np.all(np.isfinite(out.filtered_mean))
    assert np.all(out.ess_trace <= percentile * n + 1.0)
    if percentile == 1.0:
        assert np.allclose(out.ess_trace, n, atol=1e-6)


def test_smc_tracks_kalman_roughly_on_linear_gaussian_model():
    xs, ys = LG.simulate(100, 3305)
    k_means, _ = kalman_run(LG, ys)
    out = abc_smc_run(ys, LG, smc_config(percentile=0.25, n=2000), np.random.default_rng(3306))
    gap = float(np.mean(np.abs(out.filtered_mean - k_means)))
    assert gap < 0.25


# ---------------------------------------------------------------------------
# Kalman reference filter
# ---------------------------------------------------------------------------


def test_kalman_three_step_hand_recursion():
    lg = LinearGaussianParams(mu=0.0, phi=0.5, sigma_h=1.0, sigma_y=1.0)
    means, variances = kalman_run(lg, [1.0, -1.0, 2.0])
    assert np.allclose(means, KALMAN3_MEANS, atol=1e-12)
    assert np.allclose(variances, KALMAN3_VARS, atol=1e-12)


def test_kalman_perfect_observation_limit():
    lg = LinearGaussianParams(mu=0.0, phi=0.9, sigma_h=0.5, sigma_y=1e-9)
    ys = [1.5, -0.3, 0.8]
    means, variances = kalman_run(lg, ys)
    assert np.allclose(means, ys, atol=1e-6)
    assert np.all(variances < 1e-12)


def test_kalman_static_state_limit_is_shrinkage_path():
    # A near-static state with stationary mean 0.2 / (1 - 0.9) = 2 and prior
    # variance ~5e-18 shrinks every observation fully onto that mean.
    lg = LinearGaussianParams(mu=0.2, phi=0.9, sigma_h=1e-9, sigma_y=0.5)
    means, _ = kalman_run(lg, np.ones(5))
    assert np.allclose(means, 2.0, atol=1e-6)


def test_kalman_rejects_nonstationary_default_prior():
    # phi = 1 has no stationary law; the model refuses it when it is built.
    with pytest.raises(ValueError):
        lg = LinearGaussianParams(mu=0.0, phi=1.0, sigma_h=1.0, sigma_y=1.0)
        kalman_run(lg, [1.0, 2.0])


def test_linear_gaussian_validation_and_scale():
    for params in [
        (0.0, 0.9, 0.0, 1.0),
        (0.0, 0.9, math.inf, 1.0),
        (0.0, 0.9, 1.0, 0.0),
        (0.0, 0.9, 1.0, math.inf),
        (math.nan, 0.9, 0.5, 0.5),
        (math.inf, 0.9, 0.5, 0.5),
        (0.0, 1.0, 1.0, 1.0),
        (1e308, 0.5, 0.5, 0.5),
        (0.0, 0.9, 1e160, 0.5),
        (0.0, 0.9, 0.5, 1e160),
    ]:
        with pytest.raises(ValueError):
            LinearGaussianParams(*params)
    assert LG.observation_scale(3.7) == pytest.approx(1.0)
    assert np.allclose(LG.observation_scale(np.array([-1.0, 2.0])), 1.0)


# ---------------------------------------------------------------------------
# ABC-vs-exact coherence on the linear-Gaussian model
# ---------------------------------------------------------------------------


def test_shrinking_bandwidth_does_not_hurt_kalman_agreement():
    horizon = 200
    seeds = range(20)
    gaps = {}
    for eps in (0.25, 0.1, 0.05):
        cfg = FilterConfig(
            n_particles=5000,
            kernel=KernelSpec("gaussian", eps),
            proposal=ProposalSpec("shifted_t"),
        )
        per_seed = []
        for s in seeds:
            xs, ys = LG.simulate(horizon, 4000 + s)
            k_means, _ = kalman_run(LG, ys)
            out = abc_apf_run(ys, LG, cfg, np.random.default_rng(5000 + s))
            per_seed.append(float(np.mean(np.abs(out.filtered_mean - k_means))))
        gaps[eps] = np.array(per_seed)
    for wide, narrow in ((0.25, 0.1), (0.1, 0.05)):
        diff = gaps[narrow] - gaps[wide]
        slack = max(0.01, 2.0 * float(np.std(diff) / math.sqrt(len(diff))))
        assert float(np.mean(diff)) <= slack, (
            f"eps {wide}->{narrow} worsened the Kalman gap by {np.mean(diff):.4f}"
        )


@pytest.mark.parametrize("proposal", ["central_t", "shifted_t"])
def test_apf_means_match_inflated_kalman(proposal):
    # With a Gaussian kernel the ABC likelihood on this model is exactly
    # N(y; x, sigma_y^2 + eps^2), so at every eps the ABC-APF targets the
    # Kalman filter whose observation noise is inflated to that scale.
    eps = 0.5
    inflated = LinearGaussianParams(LG.mu, LG.phi, LG.sigma_h, math.sqrt(LG.sigma_y**2 + eps**2))
    cfg = FilterConfig(
        n_particles=5000,
        kernel=KernelSpec("gaussian", eps),
        proposal=ProposalSpec(proposal),
    )
    for s in range(2):
        _, ys = LG.simulate(200, 4000 + s)
        out = abc_apf_run(ys, LG, cfg, np.random.default_rng(5000 + s))
        gap = float(np.mean(np.abs(out.filtered_mean - kalman_run(inflated, ys)[0])))
        plain = float(np.mean(np.abs(out.filtered_mean - kalman_run(LG, ys)[0])))
        assert gap < 0.025 and gap < plain / 4, f"record {s}: gap {gap:.4f}, plain {plain:.4f}"


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(n_particles=1, kernel=KernelSpec("gaussian", 0.25))
    with pytest.raises(ValueError):
        gauss_config(resample_policy="sometimes")
    with pytest.raises(ValueError):
        gauss_config(resample_threshold=0.5)
    with pytest.raises(ValueError):
        gauss_config(n=100, resample_threshold=101.0)
    with pytest.raises(ValueError):
        FilterConfig(n_particles=10, kernel=KernelSpec("gaussian", 0.25), smc_percentile=0.0)
    with pytest.raises(ValueError):
        FilterConfig(n_particles=10, kernel=KernelSpec("gaussian", 0.25), smc_percentile=1.5)
