"""Likelihood-free particle filtering for stable-noise stochastic volatility.

The package estimates latent log-volatility in models whose returns carry
alpha-stable noise (no closed-form likelihood) by an ABC auxiliary particle
filter, and ships an exact stable sampler, an adaptive ABC-SMC baseline, a
Kalman benchmark, and a paired simulation-study harness.  Each public name
lives in one of the modules imported below; import it from there.
"""

from . import experiment, filters, kernels, proposals, stable, svm

__version__ = "0.1.0"
