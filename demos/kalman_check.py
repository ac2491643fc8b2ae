"""Validate the likelihood-free filter against an exact Kalman filter.

On a linear-Gaussian state-space model the filtering distribution is available
in closed form, so the ABC auxiliary particle filter can be checked against
ground truth. With a Gaussian kernel of bandwidth eps the ABC likelihood is
exactly N(y; x, sigma_y^2 + eps^2), so the ABC-APF targets the Kalman filter
with sigma_y inflated to sqrt(sigma_y^2 + eps^2). Each eps gets two gaps:

- to the plain Kalman filter: the ABC bias plus the Monte Carlo error;
- to the exact ABC target: the Monte Carlo error alone.

Run:  python3 demos/kalman_check.py
"""

import math

import numpy as np

from stablevol.filters import (
    FilterConfig,
    LinearGaussianParams,
    abc_apf_run,
    kalman_run,
)
from stablevol.kernels import KernelSpec
from stablevol.proposals import ProposalSpec


def main() -> None:
    lg = LinearGaussianParams(mu=0.0, phi=0.9, sigma_h=0.5, sigma_y=0.5)
    _x, y = lg.simulate(200, seed=21)
    kalman_means, kalman_vars = kalman_run(lg, y)
    print(f"linear-Gaussian model {lg}, T={len(y)}")
    print(f"steady-state Kalman sd: {np.sqrt(kalman_vars[-1]):.3f}")
    print()
    print("mean |ABC-APF - Kalman| as the kernel bandwidth shrinks (N=3000):")
    print("  eps    to plain   to exact ABC target")
    for eps in (1.0, 0.5, 0.25, 0.1, 0.05):
        config = FilterConfig(
            n_particles=3000,
            kernel=KernelSpec("gaussian", eps),
            proposal=ProposalSpec("shifted_t"),
        )
        output = abc_apf_run(y, lg, config, rng=5150)
        target = LinearGaussianParams(lg.mu, lg.phi, lg.sigma_h, math.sqrt(lg.sigma_y**2 + eps**2))
        target_means, _ = kalman_run(target, y)
        plain_gap = float(np.mean(np.abs(output.filtered_mean - kalman_means)))
        target_gap = float(np.mean(np.abs(output.filtered_mean - target_means)))
        print(f"  {eps:<5}  {plain_gap:.4f}     {target_gap:.4f}")
    print()
    print(
        "The gap to the exact target is the Monte Carlo error; it grows as eps\n"
        "shrinks toward 0. The gap to the plain filter adds the ABC bias, which\n"
        "falls to zero with eps, so at small eps the two gaps meet."
    )


if __name__ == "__main__":
    main()
