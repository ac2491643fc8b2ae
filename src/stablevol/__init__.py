"""Likelihood-free particle filtering for stable-noise stochastic volatility.

The package estimates latent log-volatility in models whose returns carry
alpha-stable noise (no closed-form likelihood) by an ABC auxiliary particle
filter, and ships the exact sampling / brute-force density machinery, an
adaptive ABC-SMC baseline, a Kalman benchmark, and a paired simulation-study
harness.
"""

from .stable import (
    StableParams,
    QuadratureError,
    char_fn,
    transform,
    sample,
    pdf_numeric,
    cdf_numeric,
)
from .svm import SvmParams, Trajectory, simulate
from .kernels import KernelSpec, log_kernel
from .proposals import ProposalSpec, SeriesConvergenceError, log_phat
from .filters import (
    DegenerateCloudError,
    ParticleCloud,
    FilterConfig,
    StepDiagnostics,
    FilterOutput,
    LinearGaussianParams,
    normalize,
    ess,
    resample,
    resolve_epsilon,
    abc_apf_step,
    abc_apf_run,
    abc_smc_step,
    abc_smc_run,
    kalman_run,
)
from .experiment import (
    rmse,
    abs_error,
    derive,
    run_metrics,
    RunMetrics,
    GridCell,
    StudySpec,
    StudyResult,
    run_study,
    reference_model,
    benchmark_cells,
    sensitivity_models,
    load_model_config,
    write_data_csv,
    read_data_csv,
    write_filtered_csv,
    write_summary_csv,
    write_boxplot_csv,
)

__version__ = "0.1.0"
