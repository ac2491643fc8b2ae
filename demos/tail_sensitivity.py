"""How filtering error responds to the tail index of the observation noise.

The stability index alpha controls how heavy the observation-noise tails are:
alpha=2 is Gaussian, and smaller alpha puts ever more mass in the tails.
Heavier tails make individual observations less informative about the latent
state, so the filter's error should grow as alpha falls.  The demo sweeps the
five-model ladder at reduced scale and prints the trend.

Replicates run in one spawned process per core; the results do not depend
on the worker count.

Run:  python3 demos/tail_sensitivity.py
"""

import os

from stablevol.experiment import (
    GridCell,
    StudySpec,
    run_study,
    sensitivity_models,
)
from stablevol.filters import FilterConfig
from stablevol.kernels import KernelSpec
from stablevol.proposals import ProposalSpec


def main() -> None:
    cell = GridCell(
        algo="abc-apf",
        config=FilterConfig(
            n_particles=500,
            kernel=KernelSpec("gaussian", 0.25),
            proposal=ProposalSpec("shifted_t"),
        ),
    )
    print("shifted-t ABC-APF, N=500, T=200, 10 paired replicates per model")
    print()
    print(f"{'observation noise':24s} {'mean RMSE':>10s} {'mean AE':>8s}")
    for label, model in sensitivity_models(sigma_h=1.0, sigma_v=1.0):
        spec = StudySpec(
            model=model,
            horizon=200,
            cells=(cell,),
            replicates=10,
            base_seed=1337,
        )
        agg = run_study(spec, max_workers=os.cpu_count()).aggregate(0)["mean"]
        print(f"{label:24s} {agg.rmse:>10.3f} {agg.ae:>8.3f}")
    print()
    print("Error should rise as alpha falls: heavier observation-noise tails "
          "carry less information per observation.")


if __name__ == "__main__":
    main()
