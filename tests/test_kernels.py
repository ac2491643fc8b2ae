"""Tests for the ABC comparison kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from stablevol.kernels import KernelSpec, log_kernel


# (kind, bandwidth, u, log K(u), tolerance), each value derived by hand.
_KERNEL_VALUES = [
    ("gaussian", 0.25, 0.0, -math.log(0.25 * math.sqrt(2.0 * math.pi)), 1e-12),
    ("gaussian", 1.0, 1.0, -0.5 * math.log(2.0 * math.pi) - 0.5, 1e-12),
    ("uniform", 0.5, 0.6, -math.inf, 0.0),
    ("uniform", 0.5, -0.6, -math.inf, 0.0),
    *(("uniform", 0.5, u, -math.log(2.0 * 0.5), 1e-15) for u in (-0.5, -0.2, 0.0, 0.3, 0.5)),
]


@pytest.mark.parametrize(
    "kind, eps, u, expected, tol",
    _KERNEL_VALUES,
    ids=[f"{k}-{e}-{u}" for k, e, u, *_ in _KERNEL_VALUES],
)
def test_kernel_pinned_values(kind, eps, u, expected, tol):
    assert log_kernel(KernelSpec(kind, eps), u) == pytest.approx(expected, abs=tol)


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("eps", [0.25, 1.0, 1.5])
def test_kernel_integrates_to_one(kind, eps):
    spec = KernelSpec(kind, eps)

    def dens(u):
        val = log_kernel(spec, u)
        return 0.0 if val == -math.inf else math.exp(val)

    lo, hi = (-eps, eps) if kind == "uniform" else (-40.0 * eps, 40.0 * eps)
    mass, _ = quad(dens, lo, hi, epsabs=1e-10, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)


@given(
    kind=st.sampled_from(["gaussian", "uniform"]),
    eps=st.floats(0.05, 5.0),
    u=st.floats(-20.0, 20.0),
)
def test_kernel_symmetry(kind, eps, u):
    spec = KernelSpec(kind, eps)
    assert log_kernel(spec, u) == log_kernel(spec, -u)


def test_gaussian_strictly_decreasing_in_magnitude():
    spec = KernelSpec("gaussian", 0.7)
    mags = np.linspace(0.0, 30.0, 121)
    vals = log_kernel(spec, mags)
    assert np.all(np.diff(vals) < 0.0)


def test_vectorized_evaluation_matches_scalars():
    spec = KernelSpec("gaussian", 0.3)
    us = np.array([-1.0, 0.0, 0.25, 2.0])
    vec = log_kernel(spec, us)
    assert vec.shape == us.shape
    for u, v in zip(us, vec):
        assert v == log_kernel(spec, float(u))


def test_log_zero_sentinel_survives_weight_arithmetic():
    spec = KernelSpec("uniform", 0.1)
    vals = log_kernel(spec, np.array([0.0, 5.0])) + np.log(np.array([0.5, 0.5]))
    assert not np.any(np.isnan(vals))
    assert vals[1] == -math.inf


def test_rejects_bad_kind_and_bandwidth():
    with pytest.raises(ValueError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", -0.5)
    # A bool or a non-number is not a bandwidth; an int past the float range
    # is infinite.
    for bad in (math.inf, math.nan, None, True, "0.25", 10**400):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec("gaussian", bad)


def test_bandwidth_is_stored_as_a_float():
    spec = KernelSpec("gaussian", 1)
    assert type(spec.epsilon) is float and str(spec.epsilon) == "1.0"
