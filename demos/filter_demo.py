"""Track latent log-volatility with the two likelihood-free filters.

Neither filter evaluates the stable observation density (it has no closed
form).  Both simulate a pseudo-observation per particle and weigh it against
the real observation: the auxiliary filter (ABC-APF) smooths the discrepancy
through a Gaussian kernel whose bandwidth follows each particle's volatility
scale, after pre-selecting particles with a lookahead tilt; the plain ABC-SMC
keeps the particles whose discrepancy falls below an adaptive percentile.

Run:  python3 demos/filter_demo.py
"""

import numpy as np

from stablevol.experiment import reference_model, run_metrics
from stablevol.filters import FilterConfig, SmcConfig, abc_apf_run, abc_smc_run
from stablevol.kernels import KernelSpec
from stablevol.proposals import ProposalSpec
from stablevol.svm import simulate


def main() -> None:
    model = reference_model()
    traj = simulate(model, horizon=200, seed=314)
    print(f"simulated T={traj.horizon} path from {model}")

    apf_config = FilterConfig(
        n_particles=2000,
        kernel=KernelSpec("gaussian", 0.25),
        proposal=ProposalSpec("shifted_t"),
    )
    apf = abc_apf_run(traj.y, model, apf_config, rng=99)

    # A uniform kernel whose tolerance is the step's 25th distance percentile.
    smc_config = SmcConfig(n_particles=2000, smc_percentile=0.25)
    smc = abc_smc_run(traj.y, model, smc_config, rng=99)

    print()
    print("== filter accuracy vs the true latent path ==")
    for name, output in [("ABC-APF", apf), ("ABC-SMC", smc)]:
        m = run_metrics(output, traj.h)
        print(f"{name}:  RMSE {m.rmse:.3f}   AE {m.ae:.3f}   "
              f"median ESS {np.median(output.ess_trace):.0f}/2000   "
              f"resamples {output.resample_count}   {m.elapsed:.2f} s")

    print()
    print("== a few time points (truth vs filtered means) ==")
    print(" t    h_true   APF     SMC")
    for t in (10, 50, 100, 150, 200):
        print(f"{t:3d}   {traj.h[t]:+.2f}   {apf.filtered_mean[t - 1]:+.2f}   "
              f"{smc.filtered_mean[t - 1]:+.2f}")


if __name__ == "__main__":
    main()
