"""Likelihood-free particle filters and the exact linear-Gaussian benchmark.

Both filters share one loop, ``_run``: it draws the prior cloud from the
model's stationary law, applies a step function once per observation and
records the weighted mean, the ESS and the resample/degeneracy counters.
Both steps pick ancestors with ``_select``: it applies the resampling policy
to a selection cloud and either resamples once or keeps the identity
ancestry.  A ``ParticleCloud`` is frozen and computes its plain weights and
its ESS at most once, so the recorded ESS, the next step's policy test, the
filtered mean and the resampling CDF share those values.  The
filters differ in the selection law and in the weights:

* ``abc_apf_step`` (run by ``abc_apf_run``) is the ABC auxiliary particle
  filter: the previous cloud is tilted by a cheap proposal density
  p_hat(y_t | xi) evaluated at the per-particle transition mean xi,
  selected on these first-stage weights, propagated through the state
  transition, and reweighted by an ABC kernel applied to the gap between one
  simulated pseudo-observation per particle and the recorded observation,
  divided by the parent's tilt (standard auxiliary correction).
* ``abc_smc_step`` (run by ``abc_smc_run``) is the adaptive-tolerance ABC-SMC
  baseline: select on the carried weights, propagate, then keep the particles
  whose pseudo-observations land within the step's distance percentile.

Models are duck-typed: anything with ``initial_sample(rng, size)``,
``transition_mean(h)``, ``transition_sample(h, rng)``,
``observe_sample(h, rng)`` and ``observation_scale(h)`` works (``SvmParams``
and ``LinearGaussianParams`` both do).  All weights live in log space; a cloud
whose weights all vanish is reset to uniform and counted rather than aborting
the run.  Non-finite observations are rejected before the first step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, log_kernel
from .proposals import ProposalSpec, log_phat
from .svm import AR1State, simulate

__all__ = [
    "DegenerateCloudError",
    "ParticleCloud",
    "FilterConfig",
    "StepDiagnostics",
    "FilterOutput",
    "LinearGaussianParams",
    "normalize",
    "ess",
    "resample",
    "resolve_epsilon",
    "abc_apf_step",
    "abc_apf_run",
    "abc_smc_step",
    "abc_smc_run",
    "kalman_run",
]

_POLICIES = ("every_step", "ess_threshold")
_SCHEMES = ("multinomial", "systematic")
_TINY = np.finfo(float).tiny


class DegenerateCloudError(RuntimeError):
    """All particle weights are log-zero."""


@dataclass(frozen=True)
class ParticleCloud:
    """States plus normalized log weights at time index t.

    Frozen, so the plain weights ``exp(log_weights)`` and the ESS, each
    computed on first use and kept, always describe the cloud's own fields.
    """

    states: np.ndarray
    log_weights: np.ndarray
    t: int = 0
    _weights: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _ess: float | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            object.__setattr__(self, "_weights", np.exp(self.log_weights))
        return self._weights

    @property
    def ess(self) -> float:
        """``ess(log_weights)``, through the module-level function."""
        if self._ess is None:
            object.__setattr__(self, "_ess", ess(self.log_weights))
        return self._ess


def normalize(log_weights) -> np.ndarray:
    """Normalize log weights so the plain weights sum to one.

    Raises :class:`DegenerateCloudError` when every entry is log-zero and
    :class:`FloatingPointError` when an entry is NaN or +inf.
    """
    lw = np.asarray(log_weights, dtype=float)
    m = lw.max()
    if not math.isfinite(m):
        if m == -math.inf:
            raise DegenerateCloudError("all weights are log-zero")
        raise FloatingPointError(f"log weights must be finite or -inf, max is {m}")
    return lw - (m + math.log(float(np.exp(lw - m).sum())))


def ess(log_weights) -> float:
    """Effective sample size 1 / sum(w_i^2) of normalized log weights."""
    lw = 2.0 * np.asarray(log_weights, dtype=float)
    m = lw.max()
    return float(np.exp(-(m + math.log(float(np.exp(lw - m).sum())))))


def resample(cloud: ParticleCloud, scheme: str, rng):
    """Resample a cloud; returns (uniform-weight cloud, ancestor indices).

    ``multinomial`` draws ancestors i.i.d. from the weights; ``systematic``
    uses a single uniform offset on a stratified grid.  Both give every
    particle expected copy count N w_i.  Rejects unnormalized input.
    Multinomial uniforms are searched in sorted order and each result is
    put back in its uniform's slot, so the ancestors are the same array, in
    the same order, as a plain search of the unsorted uniforms.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    w = cloud.weights
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("resample requires normalized weights")
    n = len(w)
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    if scheme == "multinomial":
        # Sorted keys are searched far faster than scattered ones.  Equal
        # uniforms give equal results, so the order argsort picks among
        # ties does not matter.
        u = rng.random(n)
        order = np.argsort(u)
        ancestors = np.empty(n, dtype=np.intp)
        ancestors[order] = cdf.searchsorted(u[order], side="right")
    else:
        u = (rng.random() + np.arange(n)) / n
        ancestors = cdf.searchsorted(u, side="right")
    out = ParticleCloud(
        states=cloud.states[ancestors],
        log_weights=np.full(n, -math.log(n)),
        t=cloud.t,
    )
    return out, ancestors


def resolve_epsilon(distances: np.ndarray, percentile: float) -> float:
    """Adaptive ABC-SMC tolerance: the ceil(percentile * N)-th smallest distance.

    A product within 1e-9 above an integer counts as that integer, since float
    rounding lifts exact products past it (0.07 * 5000 = 350.00000000000006).
    """
    d = np.asarray(distances, dtype=float)
    k = math.ceil(percentile * len(d) - 1e-9)
    k = min(max(k, 1), len(d))
    return float(np.partition(d, k - 1)[k - 1])


@dataclass(frozen=True)
class FilterConfig:
    """Settings of the filter runners.

    Both runners read ``n_particles`` and the ``resample_*`` fields.  The
    ABC-APF also reads ``proposal`` and ``kernel`` (kind and ``epsilon``) and
    ignores ``smc_percentile``; ABC-SMC reads ``smc_percentile``, requires a
    uniform ``kernel`` and ignores ``proposal`` and ``kernel.epsilon``.
    """

    n_particles: int
    kernel: KernelSpec
    proposal: ProposalSpec = ProposalSpec("shifted_t")
    resample_policy: str = "every_step"
    resample_threshold: float | None = None
    resample_scheme: str = "multinomial"
    smc_percentile: float = 0.25

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {self.n_particles}")
        if self.resample_policy not in _POLICIES:
            raise ValueError(
                f"resample_policy must be one of {_POLICIES}, got {self.resample_policy!r}"
            )
        if self.resample_scheme not in _SCHEMES:
            raise ValueError(
                f"resample_scheme must be one of {_SCHEMES}, got {self.resample_scheme!r}"
            )
        if self.resample_threshold is not None and not (
            1.0 <= self.resample_threshold <= self.n_particles
        ):
            raise ValueError("resample_threshold must lie in [1, n_particles]")
        if not 0.0 < self.smc_percentile <= 1.0:
            raise ValueError(
                f"smc_percentile must lie in (0, 1], got {self.smc_percentile}"
            )

    @property
    def threshold(self) -> float:
        """Resolved ESS threshold (defaults to N/2)."""
        if self.resample_threshold is None:
            return self.n_particles / 2.0
        return self.resample_threshold


@dataclass
class StepDiagnostics:
    resampled: bool
    degenerate: bool
    ancestors: np.ndarray


@dataclass
class FilterOutput:
    """Per-step filtered means and diagnostics for one filter run.

    ``resample_count`` counts the steps that resampled.  The APF resamples
    before propagating at any step; ABC-SMC resamples the carried weights at
    the start of steps 2..T, so an every-step SMC run reports T - 1.
    """

    filtered_mean: np.ndarray
    ess_trace: np.ndarray
    resample_count: int
    degeneracy_count: int
    elapsed: float


def _select(selection: ParticleCloud, config: FilterConfig, rng):
    """Choose a step's ancestors; returns (cloud to propagate, ancestors, resampled).

    The selection law is ``selection``'s weights.  Under the resampling
    policy the cloud is either resampled once (uniform weights after) or
    carried with these weights and the identity ancestry.  A carried cloud
    reuses the ESS it already holds.
    """
    if config.resample_policy == "every_step" or selection.ess < config.threshold:
        return (*resample(selection, config.resample_scheme, rng), True)
    return selection, np.arange(len(selection)), False


def _reweighted(states, raw, t: int, resampled: bool, ancestors):
    """Normalize a step's raw log weights into its output cloud and diagnostics,
    resetting a fully degenerate cloud to uniform weights."""
    try:
        lw, degenerate = normalize(raw), False
    except DegenerateCloudError:
        lw, degenerate = np.full(len(raw), -math.log(len(raw))), True
    out = ParticleCloud(states, lw, t)
    return out, StepDiagnostics(resampled, degenerate, ancestors)


def abc_apf_step(cloud: ParticleCloud, y: float, model, config: FilterConfig, rng):
    """One auxiliary-filter step; returns (new cloud, diagnostics).

    Operates on ``cloud``'s own size (which may differ from
    ``config.n_particles``).  Consumes the rng in a fixed order: first-stage
    resampling draws, then transition noise, then pseudo-observation noise.
    """
    if config.proposal.is_state_independent:
        # A state-independent tilt cancels from both stages; skipping it keeps
        # the first-stage selection probabilities exactly the carried weights.
        lp, first = None, cloud
    else:
        lp = log_phat(config.proposal, y, model.transition_mean(cloud.states))
        first = ParticleCloud(cloud.states, normalize(cloud.log_weights + lp), cloud.t)
    selected, ancestors, resampled = _select(first, config, rng)
    new_states = model.transition_sample(selected.states, rng)
    y_sim = model.observe_sample(new_states, rng)
    # The kernel bandwidth is resolved per particle: the configured epsilon is
    # multiplied by the state-dependent observation-noise scale, so the
    # discrepancy is smoothed on the scale at which the noise actually enters.
    # Because the kernel is a normalized density, evaluating it at the rescaled
    # discrepancy and subtracting log(scale) is exactly the density of the
    # scaled kernel; the change-of-scale factor keeps particles at different
    # volatility levels comparable and makes the weight approach the true
    # observation likelihood as epsilon shrinks.
    obs_scale = model.observation_scale(new_states)
    # The ancestors are the identity when nothing was resampled, so
    # lp[ancestors] is the parent's tilt on both paths.
    kernel = log_kernel(config.kernel, (y_sim - y) / obs_scale)
    raw = selected.log_weights + kernel - np.log(obs_scale)
    if lp is not None:
        raw = raw - lp[ancestors]
    return _reweighted(new_states, raw, cloud.t + 1, resampled, ancestors)


def abc_smc_step(cloud: ParticleCloud, y: float, model, config: FilterConfig, rng):
    """One adaptive-tolerance ABC-SMC step; returns (new cloud, diagnostics).

    Resamples the carried weights first (never the prior cloud, ``t == 0``),
    then propagates, simulates one pseudo-observation per particle and keeps
    those within the ``smc_percentile`` distance quantile, ties included.
    Consumes the rng in that order: resampling, transition, observation.
    """
    if cloud.t > 0:
        cloud, ancestors, resampled = _select(cloud, config, rng)
    else:
        ancestors, resampled = np.arange(len(cloud)), False
    states = model.transition_sample(cloud.states, rng)
    d = np.abs(model.observe_sample(states, rng) - y)
    eps_t = max(resolve_epsilon(d, config.smc_percentile), _TINY)
    raw = cloud.log_weights + log_kernel(KernelSpec("uniform", eps_t), d)
    return _reweighted(states, raw, cloud.t + 1, resampled, ancestors)


def _run(step, ys, model, config: FilterConfig, rng) -> FilterOutput:
    """Draw the prior cloud and apply ``step`` once per observation."""
    ys = np.asarray(ys, dtype=float)
    if len(ys) == 0:
        raise ValueError("observation record is empty")
    if not np.all(np.isfinite(ys)):
        raise ValueError("observation record holds a NaN or infinite value")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    horizon = len(ys)
    filtered_mean = np.empty(horizon)
    ess_trace = np.empty(horizon)
    resample_count = 0
    degeneracy_count = 0
    start = time.perf_counter()
    n = config.n_particles
    states = np.asarray(model.initial_sample(rng, size=n), dtype=float)
    cloud = ParticleCloud(states=states, log_weights=np.full(n, -math.log(n)), t=0)
    for t, y in enumerate(ys.tolist()):
        cloud, diag = step(cloud, y, model, config, rng)
        filtered_mean[t] = float(cloud.weights.dot(cloud.states))
        ess_trace[t] = cloud.ess
        resample_count += diag.resampled
        degeneracy_count += diag.degenerate
    elapsed = time.perf_counter() - start
    return FilterOutput(filtered_mean, ess_trace, resample_count, degeneracy_count, elapsed)


def abc_apf_run(ys, model, config: FilterConfig, rng) -> FilterOutput:
    """Run the ABC auxiliary particle filter over a full observation record."""
    return _run(abc_apf_step, ys, model, config, rng)


def abc_smc_run(ys, model, config: FilterConfig, rng) -> FilterOutput:
    """Run the adaptive-tolerance ABC-SMC baseline over a full record."""
    if config.kernel.kind != "uniform":
        raise ValueError("abc_smc_run uses a uniform kernel with per-step tolerance")
    return _run(abc_smc_step, ys, model, config, rng)


# ---------------------------------------------------------------------------
# Linear-Gaussian benchmark model and the exact Kalman filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearGaussianParams(AR1State):
    """AR(1) state with additive Gaussian observation noise.

    x_t = mu + phi x_{t-1} + sigma_h w_t,   y_t = x_t + sigma_y v_t.

    The same duck-typed model interface as ``SvmParams``, so the ABC filters
    run on it unchanged and can be compared to the exact Kalman answer.
    """

    sigma_y: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sigma_y > 0.0:
            raise ValueError(f"sigma_y must be > 0, got {self.sigma_y}")

    def observe_sample(self, h, rng):
        return np.asarray(h, dtype=float) + self.sigma_y * rng.standard_normal(np.shape(h))

    def observation_scale(self, h):
        """Observation noise scale has no state dependence here: factor 1."""
        return np.ones(np.shape(h))

    def simulate(self, horizon: int, seed):
        """Simulate (x_{0:T}, y_{1:T}) with ``svm.simulate``."""
        traj = simulate(self, horizon, seed)
        return traj.h, traj.y


def kalman_run(lg: LinearGaussianParams, ys, prior_mean=None, prior_var=None):
    """Exact Kalman filter for the linear-Gaussian model.

    Returns (filtered means, filtered variances) for t = 1..T.  The prior on
    x_0 defaults to the stationary law (rejecting |phi| >= 1); an explicit
    (prior_mean, prior_var) pair overrides it.
    """
    ys = np.asarray(ys, dtype=float)
    if len(ys) == 0:
        raise ValueError("observation record is empty")
    if (prior_mean is None) != (prior_var is None):
        raise ValueError("prior_mean and prior_var must be given together")
    if prior_mean is None:
        m, p = lg.stationary_mean, lg.stationary_var
    else:
        m, p = float(prior_mean), float(prior_var)
        if not p >= 0.0:
            raise ValueError(f"prior_var must be >= 0, got {prior_var}")
    q, r2 = lg.sigma_h**2, lg.sigma_y**2
    means = np.empty(len(ys))
    variances = np.empty(len(ys))
    for t, y in enumerate(ys):
        m_pred = lg.mu + lg.phi * m
        p_pred = lg.phi**2 * p + q
        gain = p_pred / (p_pred + r2)
        m = m_pred + gain * (y - m_pred)
        p = (1.0 - gain) * p_pred
        means[t] = m
        variances[t] = p
    return means, variances
