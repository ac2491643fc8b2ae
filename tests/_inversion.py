"""Reference density and CDF of a stable law, by inverting its characteristic function.

The filters only sample the stable noise (``stablevol.stable.sample``); the
tests need the law itself to check those draws against.  ``pdf_numeric`` and
``cdf_numeric`` are brute-force reference implementations: adaptive
Gauss-Legendre panels over the inversion integrals, with the one-term
power-law expansion in the far tails.  They are accurate to 1e-8 and slow.

Measured failure region: with beta != 0 and alpha just off the alpha = 1 band
of ``StableParams.is_alpha_one`` (1e-8 < |alpha - 1| up to 5.6e-6 at |beta|
0.05, 1e-5 at 0.1, 3.2e-5 at 0.5 and 5.6e-5 at 1, on both sides of 1), the
tan(pi alpha / 2) skew term makes the integrand oscillate faster than nine
panel halvings resolve, and both functions raise :class:`QuadratureError` at
every x tried (-3, -0.5, 0, 1).  At |alpha - 1| >= 1e-4 none raised.  Code
that tabulates the law must not rely on this inversion there.
"""

from __future__ import annotations

import math

import numpy as np

from stablevol.stable import StableParams

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
