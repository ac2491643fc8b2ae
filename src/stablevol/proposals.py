"""First-stage proposal densities p_hat(y | xi) for the auxiliary filter.

All three families are built on the Student t with ``DOF`` = 2 degrees of
freedom (heavy tails and no variance):

* ``central_t``     log f_t(y)          -- ignores the state summary xi
* ``shifted_t``     log f_t(y - xi)     -- recenters the t at xi
* ``noncentral_t``  log f_nct(y; DOF, lambda=xi) -- genuine non-central t

The non-central density is evaluated from its infinite series, grouped into
the even/odd (two confluent-hypergeometric) sub-series so that each partial
sum has positive terms, truncated when the next terms fall below a relative
1e-12.  The rare regime where the two sub-series cancel catastrophically
(y * xi < 0 with large |xi|) falls back to log-space Gauss-Legendre
quadrature of the defining scale-mixture integral

    f(x; nu, lam) = Int_0^inf s phi(s x - lam) f_S(s) ds,
    f_S(s) = 2 (nu/2)^{nu/2} / Gamma(nu/2) s^{nu-1} e^{-nu s^2 / 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DOF", "ProposalSpec", "SeriesConvergenceError", "log_phat"]

_KINDS = ("central_t", "shifted_t", "noncentral_t")

# Degrees of freedom of every proposal's Student t.
DOF = 2.0

_MAX_TERMS = 1200
_REL_TRUNC = 1e-12
# Past this series argument the accumulators overflow float64; quadrature wins.
_Z_OVERFLOW = 600.0
# Relative size of the even/odd cancellation below which the series has lost
# too many digits and the quadrature fallback is used instead.
_CANCEL_FLOOR = 1e-8

_QUAD_NODES, _QUAD_WEIGHTS = np.polynomial.legendre.leggauss(96)


class SeriesConvergenceError(RuntimeError):
    """Raised when the non-central t series fails to converge."""


@dataclass(frozen=True)
class ProposalSpec:
    """Proposal family; every family uses ``DOF`` degrees of freedom."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    @property
    def is_state_independent(self) -> bool:
        return self.kind == "central_t"


def _t_logpdf(x, dof: float):
    """log density of the central Student t."""
    x_arr = np.asarray(x, dtype=float)
    const = (
        math.lgamma((dof + 1.0) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * np.pi)
    )
    return const - 0.5 * (dof + 1.0) * np.log1p(x_arr * x_arr / dof)


def _nct_logpdf_quad(x: float, dof: float, nc: float) -> float:
    """Non-central t log density by quadrature of the scale-mixture integral."""
    s2 = dof + x * x
    xl = x * nc
    mode = (xl + math.sqrt(xl * xl + 4.0 * dof * s2)) / (2.0 * s2)
    width = 1.0 / math.sqrt(dof / mode**2 + s2)
    lo = max(mode - 12.0 * width, 0.0)
    hi = mode + 12.0 * width
    s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _QUAD_NODES
    logw = np.log(0.5 * (hi - lo) * _QUAD_WEIGHTS)
    const = (
        math.log(2.0)
        + 0.5 * dof * math.log(dof / 2.0)
        - 0.5 * math.log(2.0 * np.pi)
        - math.lgamma(dof / 2.0)
        - 0.5 * nc * nc
    )
    expo = dof * np.log(s) - 0.5 * s * s * s2 + s * xl + logw
    m = np.max(expo)
    return const + m + math.log(float(np.sum(np.exp(expo - m))))


def _nct_logpdf_scalar(x: float, dof: float, nc: float) -> float:
    """Non-central t log density at one point via the even/odd series."""
    s = math.hypot(x, math.sqrt(dof))  # sqrt(dof + x^2), overflow-safe
    q = math.sqrt(2.0) * nc * (x / s)
    z = 0.25 * q * q
    a1 = (dof + 1.0) / 2.0
    a2 = (dof + 2.0) / 2.0
    if z > _Z_OVERFLOW:
        return _nct_logpdf_quad(x, dof, nc)
    even = math.gamma(a1)
    odd = math.gamma(a2) * q
    even_sum = even
    odd_sum = odd
    for k in range(_MAX_TERMS):
        even *= (a1 + k) * z / ((0.5 + k) * (k + 1.0))
        odd *= (a2 + k) * z / ((1.5 + k) * (k + 1.0))
        even_sum += even
        odd_sum += odd
        if even + abs(odd) <= _REL_TRUNC * (even_sum + abs(odd_sum)):
            break
    else:
        raise SeriesConvergenceError(
            f"non-central t series did not converge in {_MAX_TERMS} terms"
        )

    bracket = even_sum + odd_sum
    if not math.isfinite(bracket) or bracket <= _CANCEL_FLOOR * even_sum:
        return _nct_logpdf_quad(x, dof, nc)
    return (
        0.5 * dof * math.log(dof / 2.0)
        - 0.5 * math.log(2.0 * np.pi)
        - math.lgamma(dof / 2.0)
        - 0.5 * nc * nc
        + a1 * math.log(2.0)
        - (dof + 1.0) * math.log(s)
        + math.log(bracket)
    )


def _nct_logpdf(x, dof: float, nc):
    """Non-central t log density, broadcasting x against the non-centrality.

    Evaluated point by point: the series length adapts to each argument, and
    each evaluation carries the full truncation/fallback control flow.  This
    keeps the non-central proposal markedly more expensive per particle than
    the closed-form central/shifted t densities, which is the realistic cost
    profile for this family.
    """
    x_arr, nc_arr = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(nc, dtype=float)
    )
    out = np.empty(x_arr.shape)
    flat_x = x_arr.ravel()
    flat_nc = nc_arr.ravel()
    flat_out = out.ravel()
    for i in range(flat_x.size):
        flat_out[i] = _nct_logpdf_scalar(float(flat_x[i]), dof, float(flat_nc[i]))
    return out


def log_phat(spec: ProposalSpec, y, xi):
    """log p_hat(y | xi) under the given proposal family.

    ``y`` is the recorded observation, ``xi`` the per-particle state summary
    (the transition mean); ``xi`` may be an array, in which case the result
    broadcasts against it.  Returns what numpy returns: a numpy scalar or 0-d
    array when both arguments are scalars.
    """
    xi = np.asarray(xi, dtype=float)
    if spec.kind == "central_t":
        return _t_logpdf(y, DOF) + 0.0 * xi
    if spec.kind == "shifted_t":
        return _t_logpdf(y - xi, DOF)
    return _nct_logpdf(y, DOF, xi)
