"""Run a miniature version of the benchmark error study.

The full study compares three proposal families and four kernel bandwidths
for the auxiliary filter, plus the ABC-SMC baseline at three survival
percentiles, over 100 paired replicates (see the `stablevol experiment` CLI
command).  This demo shrinks the horizon, particle count and replicate count
so the whole grid runs in well under a minute, and prints the same kind of
summary table.

Replicates run in one spawned process per core; the results do not depend
on the worker count, but each run's seconds then include any contention.

Run:  python3 demos/error_study.py
"""

import os

from stablevol.experiment import (
    StudySpec,
    benchmark_cells,
    reference_model,
    run_study,
)


def main() -> None:
    spec = StudySpec(
        model=reference_model(),
        horizon=100,
        cells=benchmark_cells(n_particles=300),
        replicates=5,
        base_seed=2024,
    )
    print(f"running {len(spec.cells)} grid cells x {spec.replicates} replicates "
          f"at T={spec.horizon}, N=300 ...")
    result = run_study(spec, max_workers=os.cpu_count())

    print()
    print(f"{'algo':8s} {'proposal':13s} {'bandwidth':>9s} "
          f"{'mean RMSE':>10s} {'mean AE':>8s} {'s/run':>6s}")
    for i, cell in enumerate(spec.cells):
        agg = result.aggregate(i)["mean"]
        print(f"{cell.algo:8s} {cell.proposal_name:13s} {cell.bandwidth:>9} "
              f"{agg.rmse:>10.3f} {agg.ae:>8.3f} {agg.elapsed:>6.2f}")

    print()
    print("Patterns to look for (sharper at full scale): tighter bandwidths "
          "give lower error for the auxiliary filter; the non-central-t "
          "proposal costs an order of magnitude more CPU without an accuracy "
          "payoff; the ABC-SMC baseline trails the auxiliary filter.")


if __name__ == "__main__":
    main()
