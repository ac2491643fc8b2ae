"""Shared reference machinery for the test suite.

Frozen constants below were each computed from an implementation independent
of the library code (closed forms, exact rational recursion, or adaptive
quadrature of a defining integral representation) and recorded here before
being asserted against.  The stable law has no closed-form density, so the
reference CDF of every KS check on the sampler is scipy's ``levy_stable``,
whose default ``S1`` parameterization is the package's.  The CDF interpolant
makes it a fast vectorized callable so 1e5-sample KS tests stay cheap: scipy's
values on a tangent-spaced grid, monotone cubic interpolation in the
compactified coordinate, and the one-term power-law tail outside the grid,
where scipy's CDF can read 0 (at alpha 1.2, beta 0.3 it does at x = -450).
The tail meets scipy's values at the grid edges to under 1e-5, far below the
KS resolution of ~5e-3 at n = 1e5.

The shared models live here too, each spelled out once: the paper's reference
model (``REFERENCE_CONFIG``, ``svm_model``), the linear-Gaussian check model
(``LG``) and the Gaussian-kernel ABC-APF config (``gauss_config``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import stats
from scipy.interpolate import PchipInterpolator

from stablevol.filters import FilterConfig, LinearGaussianParams
from stablevol.kernels import KernelSpec
from stablevol.proposals import ProposalSpec
from stablevol.stable import StableParams
from stablevol.svm import SvmParams

# --- shared models ----------------------------------------------------------

# The paper's reference model as the CLI's model-config JSON.  Written out by
# hand, so the tests check ``experiment.reference_model()`` against it.
REFERENCE_CONFIG = dict(mu=-0.2, phi=0.95, sigma_h=0.6, alpha=1.75, beta=0.1, sigma_v=0.8)

# The linear-Gaussian model every check against the Kalman filter runs on.
LG = LinearGaussianParams(0.0, 0.9, 0.5, 0.5)


def svm_model(**overrides) -> SvmParams:
    """The reference model with any of its six config numbers overridden."""
    p = {**REFERENCE_CONFIG, **overrides}
    noise = StableParams(p["alpha"], p["beta"], p["sigma_v"])
    return SvmParams(p["mu"], p["phi"], p["sigma_h"], noise)


def gauss_config(eps=0.25, n=500, proposal="shifted_t", **kw) -> FilterConfig:
    """An ABC-APF config with a Gaussian kernel of bandwidth ``eps``."""
    return FilterConfig(n, KernelSpec("gaussian", eps), ProposalSpec(proposal), **kw)


# --- frozen hand-derived values -------------------------------------------

# Direct evaluation of the stable-sampler formula at alpha=0.5, beta=1,
# U=0.3, W=1.2 (pivot angle arctan(beta tan(pi alpha/2)) / alpha).
CMS_ALPHA_HALF_VALUE = 1.1829059416793375

# The alpha=1 branch of the same formula at beta=0.3, U=0.4, W=0.9, in 40-digit
# arithmetic: (2/pi) [b tan U - beta log((pi/2) W cos U / b)], b = pi/2 + beta U.
CMS_ALPHA_ONE_VALUE = 0.5049789980477782

# Location term of the alpha=1 draw at beta=1, gamma=e: (2/pi) e log e = (2/pi) e.
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

# Stable density at x=1 for (alpha=1.75, beta=0.1, gamma=1), from
# adaptive quadrature of the inversion integral with an independent rule
# (est. error ~4e-9).
PDF_175_01_AT_1 = 0.20725058561652046

# Solution c of the asymptotic Kolmogorov tail equation
# 2 sum_k (-1)^{k-1} exp(-2 k^2 c^2) = 0.01.
KS_COEFF_ONE_PERCENT = 1.6276236115189504


def ks_critical(n: int) -> float:
    """One-sample KS critical value at the 1% level (asymptotic)."""
    return KS_COEFF_ONE_PERCENT / math.sqrt(n)


def char_fn(params: StableParams, t):
    """Characteristic function psi(t) of the 1-parameterization, shaped like t.

    Returns what numpy returns: a complex array, and a numpy complex scalar or
    0-d array for scalar t.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    t = np.asarray(t, dtype=float)
    at, sgn = np.abs(t), np.sign(t)
    if params.is_alpha_one:
        # |t| log|t| -> 0 as t -> 0, so the log reads 0 at the origin.
        skew = -b * (2.0 / np.pi) * sgn * np.log(np.where(at > 0.0, at, 1.0))
        scale = g * at
    else:
        skew = b * math.tan(np.pi * a / 2.0) * sgn
        scale = (g * at) ** a
    return np.exp(-scale * (1.0 - 1j * skew))


def _cdf_tail(params: StableParams, x: np.ndarray) -> np.ndarray:
    """One-term power-law tail of the CDF away from 0: the mass beyond
    x is C_alpha (1 +- beta) |x / gamma|^(-alpha), with
    C_alpha = Gamma(alpha) sin(pi alpha / 2) / pi."""
    a = params.alpha
    c = math.gamma(a) * math.sin(np.pi * a / 2.0) / np.pi
    z = x / params.gamma
    side = np.where(z > 0.0, 1.0 + params.beta, 1.0 - params.beta)
    mass = np.minimum(1.0, c * side * np.abs(z) ** -a)
    return np.where(z > 0.0, 1.0 - mass, mass)


class StableCdfInterpolant:
    """Fast vectorized stable CDF built from a fixed grid.

    scipy's ``levy_stable`` CDF values are taken on ``x = gamma tan(u)``
    for uniformly spaced u out to a standardized radius max(60, 10^(2.5/alpha))
    and interpolated monotonically in u; points beyond the grid use the
    one-term power-law tail.
    """

    def __init__(self, params: StableParams, n_grid: int = 301):
        u_max = math.atan(max(60.0, 10.0 ** (2.5 / params.alpha)))
        self.params = params
        u = np.linspace(-u_max, u_max, n_grid)
        xs = params.gamma * np.tan(u)
        values = stats.levy_stable.cdf(xs, params.alpha, params.beta, scale=params.gamma)
        self.lo, self.hi = float(xs[0]), float(xs[-1])
        self._interp = PchipInterpolator(u, values)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape)
        inside = (x >= self.lo) & (x <= self.hi)
        z = x[inside] / self.params.gamma
        out[inside] = self._interp(np.arctan(z))
        out[~inside] = _cdf_tail(self.params, x[~inside])
        return np.clip(out, 0.0, 1.0)


def cached_cdf_interpolant(
    alpha: float, beta: float, gamma: float = 1.0, n_grid: int = 301
) -> StableCdfInterpolant:
    """Session-cached interpolants (grid construction is the slow part), one
    per law and grid size however the call spells its arguments."""
    return _interpolant(StableParams(alpha, beta, gamma), n_grid)


@functools.lru_cache(maxsize=None)
def _interpolant(params: StableParams, n_grid: int) -> StableCdfInterpolant:
    return StableCdfInterpolant(params, n_grid)


def ks_vs_stable_cdf(draws: np.ndarray, oracle: StableCdfInterpolant) -> float:
    """KS statistic of a sample against the interpolated reference CDF."""
    return float(stats.kstest(draws, oracle).statistic)

