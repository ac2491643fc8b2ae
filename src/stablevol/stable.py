"""Alpha-stable distributions: parameters and exact sampling.

Parameterization (the "1-parameterization").  A variate X ~ SD(alpha, beta, gamma,
delta) has characteristic function

    E exp(itX) = exp{ -(gamma|t|)^alpha [1 - i beta tan(pi alpha/2) sign(t)]
                      + i delta t }                                  (alpha != 1)
    E exp(itX) = exp{ -gamma|t| [1 + i beta (2/pi) sign(t) log|t|]
                      + i delta t }                                  (alpha == 1)

with stability index alpha in (0, 2], skewness beta in [-1, 1], scale gamma in
(0, inf) and location delta.  alpha = 2 is Normal(delta, 2 gamma^2); alpha = 1,
beta = 0 is Cauchy(delta, gamma); alpha = 1/2, beta = 1 is Levy(delta, gamma).

Sampling uses the Chambers-Mallows-Stuck (CMS) transformation of a uniform and an
exponential variate.  The density has no closed form and the filters never
evaluate it; the tests check the sampler against a reference density and CDF
obtained by inverting the characteristic function (``tests/_inversion.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StableParams", "transform", "sample"]

# Parameters within this distance of alpha = 1 are routed to the alpha = 1
# branch of every formula (the 1-parameterization is discontinuous there).
ALPHA_ONE_BAND = 1e-8


@dataclass(frozen=True)
class StableParams:
    """Parameter tuple (alpha, beta, gamma, delta) of a stable law."""

    alpha: float
    beta: float
    gamma: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must lie in (0, inf), got {self.gamma}")
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")

    @property
    def is_alpha_one(self) -> bool:
        return abs(self.alpha - 1.0) < ALPHA_ONE_BAND


def _cms(params: StableParams, u, w):
    """CMS transformation of U ~ Uniform(-pi/2, pi/2), W ~ Expo(1)."""
    alpha, beta = params.alpha, params.beta
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if params.is_alpha_one:
        bu = np.pi / 2.0 + beta * u
        return (2.0 / np.pi) * (
            bu * np.tan(u) - beta * np.log((np.pi / 2.0) * w * np.cos(u) / bu)
        )
    theta0 = math.atan(beta * math.tan(np.pi * alpha / 2.0)) / alpha
    angle = alpha * (theta0 + u)
    num = np.sin(angle)
    den = (math.cos(alpha * theta0) * np.cos(u)) ** (1.0 / alpha)
    tail = (np.cos(angle - u) / w) ** ((1.0 - alpha) / alpha)
    return num / den * tail


def transform(x, params: StableParams):
    """Map a standard SD(alpha, beta, 1, 0) variate to SD(alpha, beta, gamma, delta)."""
    g, d = params.gamma, params.delta
    x = np.asarray(x, dtype=float)
    if params.is_alpha_one:
        shift = d + params.beta * (2.0 / np.pi) * g * math.log(g)
        return g * x + shift
    return g * x + d


def sample(params: StableParams, rng, size=None):
    """Draw variates from SD(alpha, beta, gamma, delta) by the CMS method.

    ``rng`` must provide ``uniform`` and ``standard_exponential``
    (``numpy.random.Generator`` does).  Returns an array of the requested
    shape, and a numpy scalar or 0-d array for ``size=None`` or ``size=()``.
    """
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.standard_exponential(size)
    return transform(_cms(params, u, w), params)
