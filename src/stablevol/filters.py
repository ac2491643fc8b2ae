"""Likelihood-free particle filters and the exact linear-Gaussian benchmark.

Both filters share one loop, ``_run``: it draws the prior cloud from the
model's stationary law, applies a step function once per observation and
records the weighted mean, the ESS and the resample/degeneracy counters.
Both steps pick ancestors with ``_select``: it applies the resampling policy
to a selection cloud and either resamples once or keeps the identity
ancestry.  A ``ParticleCloud``'s plain weights and ESS are
``functools.cached_property`` values: each is computed on first read (the only
read that takes the lock) and kept in the instance dict, so the recorded ESS,
the next step's policy test, the filtered mean and the resampling CDF share
them.  The filters differ in the selection law and in the weights:

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
the run.  An empty or non-finite record is rejected, as ``kalman_run`` does.

``kalman_run`` is the exact filter of ``LinearGaussianParams``.  Like the
particle filters, it starts from the stationary law of x_0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

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

    Frozen, so its plain weights ``exp(log_weights)`` and ESS always describe
    its own fields.  Both are ``functools.cached_property`` values: computed on
    first read, the only read that takes the lock, and kept in the instance dict.
    """

    states: np.ndarray
    log_weights: np.ndarray
    t: int = 0

    @cached_property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @cached_property
    def ess(self) -> float:
        """``ess(log_weights)``, through the module-level function."""
        return ess(self.log_weights)


def _log_normalizer(lw: np.ndarray) -> float:
    """log sum(exp(lw)), shifted by the max; raises as :func:`normalize` does."""
    m = lw.max()
    if not math.isfinite(m):
        if m == -math.inf:
            raise DegenerateCloudError("all weights are log-zero")
        raise FloatingPointError(f"log weights must be finite or -inf, max is {m}")
    return m + math.log(float(np.exp(lw - m).sum()))


def normalize(log_weights) -> np.ndarray:
    """Normalize log weights so the plain weights sum to one.

    Raises :class:`DegenerateCloudError` when every entry is log-zero and
    :class:`FloatingPointError` when an entry is NaN or +inf.
    """
    lw = np.asarray(log_weights, dtype=float)
    return lw - _log_normalizer(lw)


def ess(log_weights) -> float:
    """Effective sample size 1 / sum(w_i^2) of normalized log weights.

    Raises as :func:`normalize` does.
    """
    return float(np.exp(-_log_normalizer(2.0 * np.asarray(log_weights, dtype=float))))


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
    # Written so that a NaN sum fails too.
    if not abs(float(w.sum()) - 1.0) <= 1e-9:
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
    out = ParticleCloud(cloud.states[ancestors], np.full(n, -math.log(n)), cloud.t)
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
    return selection, np.arange(len(selection.states)), False


def _reweighted(states, raw, t: int, resampled: bool):
    """Normalize a step's raw log weights into its output cloud and diagnostics,
    resetting a fully degenerate cloud to uniform weights."""
    try:
        lw, degenerate = normalize(raw), False
    except DegenerateCloudError:
        lw, degenerate = np.full(len(raw), -math.log(len(raw))), True
    out = ParticleCloud(states, lw, t)
    return out, StepDiagnostics(resampled, degenerate)


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
    if lp is not None:
        # The parents' tilt (the ancestry is the identity when nothing was
        # resampled).  Gathered here, which frees the full tilt early: array
        # lifetimes decide whether glibc trims and re-faults heap pages each
        # step, worth ~10% at N=5000.
        lp = lp[ancestors]
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
    kernel = log_kernel(config.kernel, (y_sim - y) / obs_scale)
    raw = selected.log_weights + kernel - np.log(obs_scale)
    if lp is not None:
        raw -= lp
    return _reweighted(new_states, raw, cloud.t + 1, resampled)


def abc_smc_step(cloud: ParticleCloud, y: float, model, config: FilterConfig, rng):
    """One adaptive-tolerance ABC-SMC step; returns (new cloud, diagnostics).

    Resamples the carried weights first (never the prior cloud, ``t == 0``),
    then propagates, simulates one pseudo-observation per particle and keeps
    those within the ``smc_percentile`` distance quantile, ties included.
    Consumes the rng in that order: resampling, transition, observation.
    """
    resampled = False
    if cloud.t > 0:
        cloud, _, resampled = _select(cloud, config, rng)
    states = model.transition_sample(cloud.states, rng)
    d = np.abs(model.observe_sample(states, rng) - y)
    eps_t = max(resolve_epsilon(d, config.smc_percentile), _TINY)
    raw = cloud.log_weights + log_kernel(KernelSpec("uniform", eps_t), d)
    return _reweighted(states, raw, cloud.t + 1, resampled)


def _observations(ys) -> np.ndarray:
    """The observation record as floats; rejects an empty or non-finite one."""
    ys = np.asarray(ys, dtype=float)
    if len(ys) == 0:
        raise ValueError("observation record is empty")
    if not np.all(np.isfinite(ys)):
        raise ValueError("observation record holds a NaN or infinite value")
    return ys


def _run(step, ys, model, config: FilterConfig, rng) -> FilterOutput:
    """Draw the prior cloud and apply ``step`` once per observation."""
    ys = _observations(ys)
    rng = np.random.default_rng(rng)
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
        if not 0.0 < self.sigma_y < math.inf:
            raise ValueError(f"sigma_y must lie in (0, inf), got {self.sigma_y}")
        self._require_finite("sigma_y**2", lambda: self.sigma_y**2)

    def observe_sample(self, h, rng):
        return np.asarray(h, dtype=float) + self.sigma_y * rng.standard_normal(np.shape(h))

    def observation_scale(self, h):
        """Observation noise scale has no state dependence here: factor 1."""
        return np.ones(np.shape(h))

    def simulate(self, horizon: int, seed):
        """Simulate (x_{0:T}, y_{1:T}) with ``svm.simulate``."""
        traj = simulate(self, horizon, seed)
        return traj.h, traj.y


def kalman_run(lg: LinearGaussianParams, ys):
    """Exact Kalman filter for the linear-Gaussian model.

    Returns (filtered means, filtered variances) for t = 1..T.  x_0 follows
    the stationary law, the law every particle filter draws its prior cloud
    from.  Rejects the records the particle filters reject.
    """
    ys = _observations(ys)
    m, p = lg.stationary_mean, lg.stationary_var
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
