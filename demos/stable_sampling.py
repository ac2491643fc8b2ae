"""Draw alpha-stable variates and check them against reference distributions.

The sampler turns one uniform and one exponential draw into a stable variate.
Two parameter corners have closed-form laws (alpha=2 is Normal, alpha=1 with
beta=0 is Cauchy), so we can verify those with a Kolmogorov-Smirnov test; a
heavy-tailed asymmetric case is summarized by its quantiles instead, since its
density has no closed form.

Run:  python3 demos/stable_sampling.py
"""

import numpy as np
import scipy.stats

from stablevol.stable import StableParams, sample


def main() -> None:
    n = 50_000
    rng = np.random.default_rng(42)

    print("== closed-form corners ==")
    normal_draws = sample(StableParams(2.0, 0.0, 1.0, 0.0), rng, n)
    ks = scipy.stats.kstest(normal_draws, scipy.stats.norm(scale=np.sqrt(2)).cdf)
    print(f"alpha=2.0 vs Normal(0, 2):     KS D={ks.statistic:.4f}  p={ks.pvalue:.3f}")

    cauchy_draws = sample(StableParams(1.0, 0.0, 1.0, 0.0), rng, n)
    ks = scipy.stats.kstest(cauchy_draws, scipy.stats.cauchy.cdf)
    print(f"alpha=1.0 vs standard Cauchy:  KS D={ks.statistic:.4f}  p={ks.pvalue:.3f}")

    print()
    print("== heavy-tailed asymmetric case (alpha=1.75, beta=0.1) ==")
    params = StableParams(1.75, 0.1, 1.0, 0.0)
    draws = sample(params, rng, n)
    qs = np.percentile(draws, [1, 25, 50, 75, 99])
    # scipy's default parameterization, S1, is the one stablevol samples from.
    law = scipy.stats.levy_stable(params.alpha, params.beta)
    print(f"sample quantiles (1/25/50/75/99%): {np.round(qs, 3)}")
    print(f"numeric CDF at those points:       {np.round(law.cdf(qs), 3)}")
    print(f"numeric density at 0:              {law.pdf(0.0):.4f}")
    tail = float(np.mean(np.abs(draws) > 10.0))
    print(f"P(|X| > 10) empirically:           {tail:.4f}  "
          "(a Gaussian of matching scale would give ~0)")


if __name__ == "__main__":
    main()
