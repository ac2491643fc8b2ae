"""Alpha-stable distributions: exact sampling and brute-force density/CDF evaluation.

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
exponential variate.  Densities and CDFs are obtained by direct numerical
inversion of the characteristic function; they are deliberately brute-force
reference implementations meant for validation, not for hot loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableParams",
    "QuadratureError",
    "char_fn",
    "transform",
    "sample",
    "pdf_numeric",
    "cdf_numeric",
]

# Parameters within this distance of alpha = 1 are routed to the alpha = 1
# branch of every formula (the 1-parameterization is discontinuous there).
ALPHA_ONE_BAND = 1e-8

# Truncation point of the inversion integrals: past t_max the integrand
# envelope exp(-(gamma t)^alpha) is below 1e-12.
_LOG_TRUNC = 12.0 * math.log(10.0)

# Absolute accuracy of every inversion value (density and CDF alike).
_TOL = 1e-8

# Composite Gauss-Legendre rule used on every quadrature panel.
_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


class QuadratureError(RuntimeError):
    """Raised when an inversion integral fails to converge within budget."""


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


def _log_char_fn(params: StableParams, t: np.ndarray) -> np.ndarray:
    """log of the characteristic function, vectorized over real t."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    at = np.abs(t)
    sgn = np.sign(t)
    if params.is_alpha_one:
        # |t| log|t| -> 0 as t -> 0, so mask the log at the origin.
        with np.errstate(divide="ignore"):
            logt = np.where(at > 0.0, np.log(np.where(at > 0.0, at, 1.0)), 0.0)
        real = -g * at
        imag = -g * at * b * (2.0 / np.pi) * sgn * logt + d * t
    else:
        real = -((g * at) ** a)
        imag = -real * b * math.tan(np.pi * a / 2.0) * sgn + d * t
    return real + 1j * imag


def char_fn(params: StableParams, t):
    """Characteristic function psi(t), shaped like t.

    Returns what numpy returns: a complex array, and a numpy complex scalar or
    0-d array for scalar t.
    """
    return np.exp(_log_char_fn(params, np.asarray(t, dtype=float)))


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


# ---------------------------------------------------------------------------
# Characteristic-function inversion (reference densities and CDFs)
# ---------------------------------------------------------------------------


def _t_max(params: StableParams) -> float:
    """Upper truncation point of the inversion integrals."""
    return _LOG_TRUNC ** (1.0 / params.alpha) / params.gamma


def _panel_edges(params: StableParams, x: float) -> np.ndarray:
    """Initial panel edges on [~0, t_max].

    Geometrically graded panels near the origin absorb the |t|^alpha kink
    (alpha < 1) and the 1/t factor of the CDF integrand.  They hand over to a
    uniform grid of >= 2 panels per e^{-ixt} period (the adaptive doubling
    checks every value to tolerance) where the geometric gaps would outgrow
    the period, so large |x - delta| never leaves whole periods in one panel.
    """
    tmax = _t_max(params)
    geo = tmax * 2.0 ** np.arange(-60.0, -5.0)  # 2^-60 t_max ... 2^-6 t_max
    freq = abs(x - params.delta)
    width = np.pi / freq if freq > 0.0 else np.inf
    # Consecutive geometric edges differ by a factor 2, so the gap above edge
    # e equals e itself; keep edges only while that gap stays below `width`.
    keep = geo[: max(1, int(np.searchsorted(geo, width, side="right")))]
    start = keep[-1]
    n_uniform = int(max(32, math.ceil((tmax - start) / width)))
    if n_uniform * _GL_ORDER > 1e7:
        raise QuadratureError(
            f"oscillation budget exceeded for x={x} (needs {n_uniform} panels)"
        )
    uni = np.linspace(start, tmax, n_uniform + 1)
    return np.concatenate([keep[:-1], uni])


def _composite_gl(f, edges: np.ndarray) -> float:
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wt = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return float(np.dot(f(t), wt))


def _split(edges: np.ndarray) -> np.ndarray:
    mid = 0.5 * (edges[1:] + edges[:-1])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mid
    return out


def _adaptive_panels(f, edges: np.ndarray) -> float:
    """Halve all panels until two successive estimates agree to pi * _TOL
    (both inversions divide the integral by pi)."""
    prev = _composite_gl(f, edges)
    for _ in range(9):
        edges = _split(edges)
        if (len(edges) - 1) * _GL_ORDER > 4e7:
            raise QuadratureError("quadrature node budget exceeded")
        cur = _composite_gl(f, edges)
        if abs(cur - prev) <= _TOL * np.pi:
            return cur
        prev = cur
    raise QuadratureError(f"quadrature failed to converge to {_TOL}")


def pdf_numeric(params: StableParams, x: float) -> float:
    """Density at x by inverting the characteristic function.

    Uses f(x) = (1/pi) Int_0^inf Re[psi(t) e^{-ixt}] dt (conjugate symmetry
    halves the integration range) with adaptive panel quadrature; far tails
    (alpha < 2) use the first-order power-law expansion, as in
    :func:`cdf_numeric`.  Raises :class:`QuadratureError` if the panel budget
    is exhausted before the successive-refinement estimates agree to 1e-8.
    """
    x = float(x)

    if _in_far_tail(params, x):
        return _pdf_tail(params, x)

    def integrand(t):
        return np.real(np.exp(_log_char_fn(params, t) - 1j * x * t))

    val = _adaptive_panels(integrand, _panel_edges(params, x)) / np.pi
    return max(val, 0.0)


def _tail_constant(alpha: float) -> float:
    """C_alpha = Gamma(alpha) sin(pi alpha / 2) / pi of the power-law tail."""
    return math.gamma(alpha) * math.sin(np.pi * alpha / 2.0) / np.pi


def _tail_switch_radius(params: StableParams) -> float:
    """Standardized |x - delta|/gamma beyond which the one-term tail expansion
    is accurate to well under 1e-6 in the CDF (error ~ x^{-2 alpha}); the
    density's relative error there is below 5e-3 for alpha 0.8 to 1.75."""
    return max(50.0, 10.0 ** (3.2 / params.alpha))


def _in_far_tail(params: StableParams, x: float) -> bool:
    """Whether x lies past the switch to the power-law tail (alpha < 2 only)."""
    z = (x - params.delta) / params.gamma
    return params.alpha < 2.0 - 1e-12 and abs(z) > _tail_switch_radius(params)


def _cdf_tail(params: StableParams, x: float) -> float:
    z = (x - params.delta) / params.gamma
    c = _tail_constant(params.alpha)
    if z > 0:
        return 1.0 - min(1.0, c * (1.0 + params.beta) * z ** (-params.alpha))
    return min(1.0, c * (1.0 - params.beta) * (-z) ** (-params.alpha))


def _pdf_tail(params: StableParams, x: float) -> float:
    """Derivative of :func:`_cdf_tail`:
    alpha C_alpha (1 +- beta) gamma^alpha |x - delta|^(-alpha - 1)."""
    side = 1.0 + params.beta if x > params.delta else 1.0 - params.beta
    c = params.alpha * _tail_constant(params.alpha) * side * params.gamma**params.alpha
    return c * abs(x - params.delta) ** (-params.alpha - 1.0)


def _cdf_stub(params: StableParams, x: float, a0: float) -> float:
    """Analytic value of the CDF integrand's integral over the skipped [0, a0]
    sliver, where Im[e^{-ixt} psi(t)]/t ~ (delta - x) + (singular skew term)."""
    base = (params.delta - x) * a0
    if params.beta == 0.0:
        return base
    if params.is_alpha_one:
        return base + params.gamma * params.beta * (2.0 / np.pi) * a0 * (
            1.0 - math.log(a0)
        )
    c = params.beta * math.tan(np.pi * params.alpha / 2.0) * params.gamma**params.alpha
    return base + c * a0**params.alpha / params.alpha


def cdf_numeric(params: StableParams, x: float) -> float:
    """CDF at x, consistent with :func:`pdf_numeric`.

    Bulk values come from the inversion integral
    F(x) = 1/2 - (1/pi) Int_0^inf Im[e^{-ixt} psi(t)] / t dt
    (the t -> 0 singularity is integrable; graded panels resolve it and a tiny
    analytic stub covers [0, 2^-60 t_max]); far tails (alpha < 2) use the
    first-order power-law expansion.  The result is clipped to [0, 1].
    """
    x = float(x)

    if _in_far_tail(params, x):
        return _cdf_tail(params, x)

    def integrand(t):
        return np.imag(np.exp(_log_char_fn(params, t) - 1j * x * t)) / t

    edges = _panel_edges(params, x)
    val = _adaptive_panels(integrand, edges)
    val += _cdf_stub(params, x, float(edges[0]))
    return float(np.clip(0.5 - val / np.pi, 0.0, 1.0))
