"""Shared reference machinery for the test suite.

Frozen constants below were each computed from an implementation independent
of the library code (closed forms, exact rational recursion, or adaptive
quadrature of a defining integral representation) and recorded here before
being asserted against.  The CDF interpolant turns the slow-but-accurate
quadrature CDF into a fast vectorized callable so 1e5-sample KS tests stay
cheap: quadrature values on a tangent-spaced grid, monotone cubic
interpolation in the compactified coordinate, and the power-law tail formula
outside the grid (absolute error there is a few 1e-5 at worst, far below the
KS resolution of ~5e-3 at n = 1e5).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import stats
from scipy.interpolate import PchipInterpolator

from stablevol.stable import StableParams

from _inversion import _cdf_tail, _tail_switch_radius, cdf_numeric

# --- frozen hand-derived values -------------------------------------------

# Direct evaluation of the stable-sampler formula at alpha=0.5, beta=1,
# U=0.3, W=1.2 (pivot angle arctan(beta tan(pi alpha/2)) / alpha).
CMS_ALPHA_HALF_VALUE = 1.1829059416793375

# Location correction of the alpha=1 output transform at gamma=e: (2/pi) e.
TRANSFORM_ALPHA_ONE_E_SCALE = 1.7305119588645301

# Student t with 2 degrees of freedom: log f(0) = log(1/(2 sqrt 2)) and
# log f(1) = log((1/(2 sqrt 2)) 1.5^{-3/2}).
LOG_T2_AT_ZERO = -1.039720770839918
LOG_T2_AT_ONE = -1.6479184330021646

# Non-central t (dof=2, noncentrality 1.5) log density at 2, from adaptive
# quadrature of the chi-square mixture representation (est. error ~3e-9).
LOG_NCT_DOF2_NC15_AT_2 = -1.4713814406558208

# Three-step Kalman recursion by hand (exact rationals) for mu=0, phi=1/2,
# sigma_h=1, sigma_y=1, stationary prior N(0, 4/3), observations (1, -1, 2).
KALMAN3_MEANS = (4.0 / 7.0, -2.0 / 5.0, 31.0 / 32.0)
KALMAN3_VARS = (4.0 / 7.0, 8.0 / 15.0, 17.0 / 32.0)

# Stable density at x=1 for (alpha=1.75, beta=0.1, gamma=1, delta=0), from
# adaptive quadrature of the inversion integral with an independent rule
# (est. error ~4e-9).
PDF_175_01_AT_1 = 0.20725058561652046

# Solution c of the asymptotic Kolmogorov tail equation
# 2 sum_k (-1)^{k-1} exp(-2 k^2 c^2) = 0.01.
KS_COEFF_ONE_PERCENT = 1.6276236115189504


def ks_critical(n: int) -> float:
    """One-sample KS critical value at the 1% level (asymptotic)."""
    return KS_COEFF_ONE_PERCENT / math.sqrt(n)


class StableCdfInterpolant:
    """Fast vectorized stand-in for ``cdf_numeric`` built from a fixed grid.

    Quadrature CDF values are taken on ``x = delta + gamma tan(u)`` for
    uniformly spaced u, interpolated monotonically in u; points beyond the
    grid use the one-term power-law tail.
    """

    def __init__(self, params: StableParams, n_grid: int = 301):
        std = StableParams(params.alpha, params.beta, 1.0, 0.0)
        radius = min(
            _tail_switch_radius(std), max(60.0, 10.0 ** (2.5 / params.alpha))
        )
        u_max = math.atan(radius)
        self.params = params
        self.u = np.linspace(-u_max, u_max, n_grid)
        xs = params.delta + params.gamma * np.tan(self.u)
        values = np.array([cdf_numeric(params, float(x)) for x in xs])
        self.lo, self.hi = float(xs[0]), float(xs[-1])
        self._interp = PchipInterpolator(self.u, values)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape)
        inside = (x >= self.lo) & (x <= self.hi)
        z = (x[inside] - self.params.delta) / self.params.gamma
        out[inside] = self._interp(np.arctan(z))
        for i in np.flatnonzero(~inside):
            out.flat[i] = _cdf_tail(self.params, float(x.flat[i]))
        return np.clip(out, 0.0, 1.0)


@functools.lru_cache(maxsize=None)
def cached_cdf_interpolant(
    alpha: float, beta: float, gamma: float = 1.0, delta: float = 0.0, n_grid: int = 301
) -> StableCdfInterpolant:
    """Session-cached interpolants (grid construction is the slow part)."""
    return StableCdfInterpolant(StableParams(alpha, beta, gamma, delta), n_grid)


def ks_vs_stable_cdf(draws: np.ndarray, oracle: StableCdfInterpolant) -> float:
    """KS statistic of a sample against the interpolated quadrature CDF."""
    return float(stats.kstest(draws, oracle).statistic)


class ScriptedRng:
    """Stand-in rng handing out pre-chosen uniform/exponential draws.

    Lets tests pin the exact (U, W) pair fed to the stable sampler.
    """

    def __init__(self, uniform_values, exponential_values):
        self._uniform = list(uniform_values)
        self._exponential = list(exponential_values)

    def uniform(self, low, high, size=None):
        val = self._uniform.pop(0)
        if not (low <= val <= high):
            raise AssertionError(f"scripted uniform {val} outside [{low}, {high}]")
        return val if size is None else np.full(size, val)

    def standard_exponential(self, size=None):
        val = self._exponential.pop(0)
        return val if size is None else np.full(size, val)
