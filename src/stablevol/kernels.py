"""ABC comparison kernels, evaluated in log space.

A kernel K_eps weights the discrepancy u = y_sim - y_obs between a simulated
pseudo-observation and the recorded one.  Everything is returned as a log
density; impossible discrepancies map to -inf, which propagates through the
weight arithmetic without NaNs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "log_kernel"]

_KINDS = ("gaussian", "uniform")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth (finite and > 0, stored as a float)."""

    kind: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        eps = _as_float("epsilon", self.epsilon)
        if not 0.0 < eps < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {eps}")
        object.__setattr__(self, "epsilon", eps)


def _as_float(name: str, value) -> float:
    """A config number stored as a float, so an int and the equal float build
    one config (one label, one set of seeds); rejects a bool or a non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # An int beyond the float range; the caller's range check rejects it.
        return math.inf if value > 0 else -math.inf


def log_kernel(spec: KernelSpec, u):
    """log K_eps(u) for a scalar or array discrepancy u.

    gaussian: log N(u; 0, eps^2).  uniform: log(1/(2 eps)) on |u| <= eps,
    -inf outside.  Returns what numpy returns: an array shaped like u, and a
    numpy scalar or 0-d array for scalar u.
    """
    eps = spec.epsilon
    u_arr = np.asarray(u, dtype=float)
    if spec.kind == "gaussian":
        z = u_arr / eps
        return -0.5 * math.log(2.0 * np.pi) - math.log(eps) - 0.5 * z * z
    return np.where(np.abs(u_arr) <= eps, -math.log(2.0 * eps), -np.inf)
