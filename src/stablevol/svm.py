"""Stochastic volatility with alpha-stable observation noise.

State (log-volatility) and observation equations:

    h_t = mu + phi h_{t-1} + sigma_h w_t,      w_t ~ N(0, 1)
    y_t = exp(h_t / 2) v_t,                    v_t ~ SD(alpha, beta, sigma_v)

with |phi| < 1 and h_0 drawn from the stationary law
N(mu / (1 - phi), sigma_h^2 / (1 - phi^2)).  The state equation lives in
``AR1State``, which the linear-Gaussian benchmark model shares; its
constructor rejects every parameter outside that stationary domain.  The
centred stable noise v_t is drawn by ``stable.sample`` (see ``stable`` for its
characteristic function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable import StableParams, sample as stable_sample

__all__ = ["AR1State", "SvmParams", "Trajectory", "simulate"]


@dataclass(frozen=True)
class AR1State:
    """Stationary Gaussian AR(1) state h_t = mu + phi h_{t-1} + sigma_h w_t.

    Requires a finite mu, |phi| < 1 and 0 < sigma_h < inf, so the stationary
    law of h_0 always exists, and a finite stationary mean and variance, so
    that law can be represented in floating point.
    """

    mu: float
    phi: float
    sigma_h: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not abs(self.phi) < 1.0:
            raise ValueError(f"|phi| must be < 1 for stationarity, got {self.phi}")
        if not 0.0 < self.sigma_h < math.inf:
            raise ValueError(f"sigma_h must lie in (0, inf), got {self.sigma_h}")
        self._require_finite("stationary mean", lambda: self.stationary_mean)
        self._require_finite("stationary variance", lambda: self.stationary_var)

    @staticmethod
    def _require_finite(name, compute) -> None:
        """Raise ``ValueError`` unless ``compute()`` returns a finite value without overflow."""
        try:
            value = compute()
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")

    @property
    def stationary_mean(self) -> float:
        return self.mu / (1.0 - self.phi)

    @property
    def stationary_var(self) -> float:
        return self.sigma_h**2 / (1.0 - self.phi**2)

    def initial_sample(self, rng, size=None):
        """Draw h_0 from the stationary law of the AR(1) state."""
        return self.stationary_mean + math.sqrt(self.stationary_var) * rng.standard_normal(size)

    def transition_mean(self, h):
        """E[h_t | h_{t-1} = h] = mu + phi h."""
        return self.mu + self.phi * h

    def transition_sample(self, h, rng):
        """Draw h_t | h_{t-1} = h."""
        return self.transition_mean(h) + self.sigma_h * rng.standard_normal(np.shape(h))


@dataclass(frozen=True)
class SvmParams(AR1State):
    """Parameters of the stable-noise stochastic volatility model."""

    obs_noise: StableParams

    def observe_sample(self, h, rng):
        """Draw y_t | h_t = h = exp(h/2) v with stable v."""
        size = np.shape(h)
        v = stable_sample(self.obs_noise, rng, size)
        # The scalar branch generates simulated data: numpy's exp differs from
        # math.exp in the last bit on some inputs, so it would change datasets,
        # which the golden digest's simulate/* groups pin.
        return self.observation_scale(h) * v if size else math.exp(h / 2.0) * v

    def observation_scale(self, h):
        """State-dependent factor multiplying the observation noise: exp(h/2).

        Constant scale (the stable gamma) lives inside ``obs_noise`` itself;
        this returns only the part that varies with the latent state.
        """
        return np.exp(np.asarray(h, dtype=float) / 2.0)


@dataclass
class Trajectory:
    """A simulated path: h has length T+1 (h_0 first), y has length T."""

    h: np.ndarray
    y: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.y)


def simulate(params, horizon: int, seed) -> Trajectory:
    """Simulate a trajectory of the given horizon, deterministically per seed.

    ``params`` is any state-space model with ``initial_sample``,
    ``transition_sample`` and ``observe_sample``.  Raises ``OverflowError``
    if any observation is not finite.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    h = np.empty(horizon + 1)
    y = np.empty(horizon)
    h[0] = params.initial_sample(rng)
    for t in range(1, horizon + 1):
        h[t] = params.transition_sample(h[t - 1], rng)
        try:
            y[t - 1] = params.observe_sample(h[t], rng)
        except OverflowError as exc:
            raise OverflowError(f"exp(h_t / 2) overflows at step {t}: h_t = {h[t]:.6g}") from exc
    overflowed = np.count_nonzero(~np.isfinite(y))
    if overflowed:
        raise OverflowError(f"{overflowed} of {horizon} simulated observations overflow")
    return Trajectory(h=h, y=y)
