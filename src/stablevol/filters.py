"""Likelihood-free particle filters and the exact linear-Gaussian benchmark.

Both filters share one loop, ``_run``: it draws the prior cloud from the
model's stationary law, applies a step function once per observation and
records the weighted mean, the ESS and the resample/degeneracy counters.
Both steps pick ancestors with ``_select``: it applies the resampling policy
to a selection cloud and either resamples once or keeps the identity
ancestry.  A ``ParticleCloud`` computes its plain weights and ESS on first
read and keeps them in two private slots, so the recorded ESS, the next
step's policy test, the filtered mean and the resampling CDF share them.  The
filters differ in the selection law and in the weights:

* ``abc_apf_step`` (run by ``abc_apf_run`` on a ``FilterConfig``) is the ABC
  auxiliary particle filter: the previous cloud is tilted by a proposal density
  p_hat(y_t | xi) evaluated at the per-particle transition mean xi,
  selected on these first-stage weights, propagated through the state
  transition, and reweighted by an ABC kernel applied to the gap between one
  simulated pseudo-observation per particle and the recorded observation,
  divided by the parent's tilt (standard auxiliary correction).
* ``abc_smc_step`` (run by ``abc_smc_run`` on an ``SmcConfig``) is the
  adaptive-tolerance ABC-SMC baseline: select on the carried weights,
  propagate, then keep the particles whose pseudo-observations land within
  the step's distance percentile.

Models are duck-typed: anything with ``initial_sample(rng, size)``,
``transition_mean(h)``, ``transition_sample(h, rng)``,
``observe_sample(h, rng)`` and ``observation_scale(h)`` works (``SvmParams``
and ``LinearGaussianParams`` both do); ``observation_scale`` may return a
scalar that broadcasts against ``h``.  When it returns the float 1.0 (as
``LinearGaussianParams`` documents), the APF step skips the division by the
scale and the subtraction of its log: under IEEE arithmetic x / 1.0 and
x - 0.0 are x, so both paths give the same bytes.  All weights live in log
space; a cloud whose weights all vanish is reset to uniform and counted rather
than aborting the run.  Every uniform cloud of one size (the prior, a resampled
cloud, a reset) shares one read-only log-weight array, and every cloud of one
size shares one read-only ``arange``, read by the systematic grid and by the
identity ancestry of a carried cloud.  An empty or non-finite record is
rejected, as ``kalman_run`` does.

``kalman_run`` is the exact filter of ``LinearGaussianParams``.  Like the
particle filters, it starts from the stationary law of x_0.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter

import numpy as np

from .kernels import KernelSpec, _as_float, log_kernel
from .proposals import ProposalSpec, log_phat
from .svm import AR1State, simulate

__all__ = [
    "DegenerateCloudError",
    "ParticleCloud",
    "FilterConfig",
    "SmcConfig",
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


class ParticleCloud:
    """States plus normalized log weights at time index t.

    Read-only, so its plain weights ``exp(log_weights)`` and ESS always
    describe its own fields.  Each is computed on first read and kept in a
    private slot.
    """

    __slots__ = ("_states", "_log_weights", "_t", "_weights", "_ess")

    def __init__(self, states: np.ndarray, log_weights: np.ndarray, t: int = 0):
        self._states = states
        self._log_weights = log_weights
        self._t = t
        self._weights = None
        self._ess = None

    # Properties without a setter or deleter: assigning or deleting raises
    # AttributeError.
    states = property(attrgetter("_states"))
    log_weights = property(attrgetter("_log_weights"))
    t = property(attrgetter("_t"))

    def __repr__(self) -> str:
        return (
            f"ParticleCloud(states={self._states!r}, "
            f"log_weights={self._log_weights!r}, t={self._t!r})"
        )

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = np.exp(self._log_weights)
        return self._weights

    @property
    def ess(self) -> float:
        """``ess(log_weights)``, through the module-level function."""
        if self._ess is None:
            self._ess = ess(self._log_weights)
        return self._ess


@cache
def _uniform_log_weights(n: int) -> np.ndarray:
    """The log weights -log(n) of a uniform n-particle cloud, built once per
    size and read-only, since every uniform cloud of that size shares them."""
    lw = np.full(n, -math.log(n))
    lw.flags.writeable = False
    return lw


@cache
def _indices(n: int) -> np.ndarray:
    """``np.arange(n)``, built once per size and read-only: the systematic
    grid and the identity ancestry of every n-particle cloud share it."""
    idx = np.arange(n)
    idx.flags.writeable = False
    return idx


def _log_normalizer(lw: np.ndarray) -> float:
    """log sum(exp(lw)), shifted by the max; raises as :func:`normalize` does."""
    # The ufunc reductions over every axis, as ``lw.max()`` and ``.sum()``
    # call them, without the Python frame those methods add in numpy.
    m = float(np.maximum.reduce(lw, None))
    if not math.isfinite(m):
        if m == -math.inf:
            raise DegenerateCloudError("all weights are log-zero")
        raise FloatingPointError(f"log weights must be finite or -inf, max is {m}")
    return m + math.log(float(np.add.reduce(np.exp(lw - m), None)))


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
    if not abs(float(np.add.reduce(w, None)) - 1.0) <= 1e-9:
        raise ValueError("resample requires normalized weights")
    n = len(w)
    cdf = w.cumsum()
    cdf[-1] = 1.0
    if scheme == "multinomial":
        # Sorted keys are searched far faster than scattered ones.  Equal
        # uniforms give equal results, so the order argsort picks among
        # ties does not matter.
        u = rng.random(n)
        order = u.argsort()
        ancestors = np.empty(n, dtype=np.intp)
        ancestors[order] = cdf.searchsorted(u[order], side="right")
    else:
        u = (rng.random() + _indices(n)) / n
        ancestors = cdf.searchsorted(u, side="right")
    out = ParticleCloud(cloud.states[ancestors], _uniform_log_weights(n), cloud.t)
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
class _CloudConfig:
    """The cloud size and the resampling rule, which both filters read.

    ``n_particles`` is an integer.  ``resample_threshold`` is read only under
    ``ess_threshold``, where an unset one becomes N/2; a set one is stored as
    a float.
    """

    n_particles: int
    resample_policy: str = field(default="every_step", kw_only=True)
    resample_threshold: float | None = field(default=None, kw_only=True)
    resample_scheme: str = field(default="multinomial", kw_only=True)

    def __post_init__(self) -> None:
        n = self.n_particles
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"n_particles must be an integer, got {n!r}")
        if n < 2:
            raise ValueError(f"n_particles must be >= 2, got {n}")
        object.__setattr__(self, "n_particles", int(n))
        if self.resample_policy not in _POLICIES:
            raise ValueError(
                f"resample_policy must be one of {_POLICIES}, got {self.resample_policy!r}"
            )
        if self.resample_scheme not in _SCHEMES:
            raise ValueError(
                f"resample_scheme must be one of {_SCHEMES}, got {self.resample_scheme!r}"
            )
        if self.resample_threshold is None:
            if self.resample_policy == "ess_threshold":
                # Resolved here, so an unset threshold and N/2 are one config
                # and print one ``GridCell.label``.
                object.__setattr__(self, "resample_threshold", self.n_particles / 2.0)
            return
        if self.resample_policy != "ess_threshold":
            raise ValueError("resample_threshold is read only under ess_threshold")
        threshold = _as_float("resample_threshold", self.resample_threshold)
        if not 1.0 <= threshold <= self.n_particles:
            raise ValueError("resample_threshold must lie in [1, n_particles]")
        object.__setattr__(self, "resample_threshold", threshold)


@dataclass(frozen=True)
class FilterConfig(_CloudConfig):
    """Settings of the ABC-APF: its kernel (kind and ``epsilon``) and proposal."""

    kernel: KernelSpec
    proposal: ProposalSpec = ProposalSpec("shifted_t")


@dataclass(frozen=True)
class SmcConfig(_CloudConfig):
    """Settings of ABC-SMC, which sets a uniform kernel's tolerance per step at
    the ``smc_percentile`` distance quantile (stored as a float)."""

    smc_percentile: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        percentile = _as_float("smc_percentile", self.smc_percentile)
        if not 0.0 < percentile <= 1.0:
            raise ValueError(f"smc_percentile must lie in (0, 1], got {percentile}")
        object.__setattr__(self, "smc_percentile", percentile)


@dataclass(slots=True)
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


def _select(selection: ParticleCloud, config: _CloudConfig, rng):
    """Choose a step's ancestors; returns (cloud to propagate, ancestors, resampled).

    The selection law is ``selection``'s weights.  Under the resampling
    policy the cloud is either resampled once (uniform weights after) or
    carried with these weights and the identity ancestry.  A carried cloud
    reuses the ESS it already holds.
    """
    if config.resample_policy == "every_step" or selection.ess < config.resample_threshold:
        out, ancestors = resample(selection, config.resample_scheme, rng)
        return out, ancestors, True
    return selection, _indices(len(selection.states)), False


def _reweighted(states, raw, t: int, resampled: bool):
    """Normalize a step's raw log weights into its output cloud and diagnostics,
    resetting a fully degenerate cloud to uniform weights."""
    try:
        lw, degenerate = normalize(raw), False
    except DegenerateCloudError:
        lw, degenerate = _uniform_log_weights(len(raw)), True
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
    if isinstance(obs_scale, float) and obs_scale == 1.0:
        # x / 1.0 and x - log(1.0) are x under IEEE arithmetic: skip both passes.
        raw = selected.log_weights + log_kernel(config.kernel, y_sim - y)
    else:
        kernel = log_kernel(config.kernel, (y_sim - y) / obs_scale)
        # One expression on purpose: splitting off ``raw -= np.log(obs_scale)``
        # changes array lifetimes and took apf_shifted from 105 to 380 minor
        # page faults per unit.
        raw = selected.log_weights + kernel - np.log(obs_scale)
    if lp is not None:
        raw -= lp
    return _reweighted(new_states, raw, cloud.t + 1, resampled)


def abc_smc_step(cloud: ParticleCloud, y: float, model, config: SmcConfig, rng):
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
    if not math.isfinite(eps_t):
        # Pseudo-observations that overflow leave no finite tolerance.
        raise FloatingPointError(f"ABC-SMC tolerance is {eps_t} at step {cloud.t + 1}")
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


def _run(step, ys, model, config: _CloudConfig, rng) -> FilterOutput:
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
    cloud = ParticleCloud(states=states, log_weights=_uniform_log_weights(n), t=0)
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


def abc_smc_run(ys, model, config: SmcConfig, rng) -> FilterOutput:
    """Run the adaptive-tolerance ABC-SMC baseline over a full record."""
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
        return h + self.sigma_y * rng.standard_normal(np.shape(h))

    def observation_scale(self, h):
        """The observation noise scale does not depend on the state: the float
        1.0 for any ``h``, from which the APF step skips the division and the
        log-scale pass (x / 1.0 and x - log(1.0) are x)."""
        return 1.0

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
