"""Differentially private confidence intervals for stratified proportions.

Zero-concentrated DP interval mechanisms for population proportions under
stratified random sampling, a deterministic finite-population simulation
harness, and closed-form variance/width comparison tools.
"""

from .analysis import (
    ReciprocalMomentSeries,
    WidthRatioReport,
    budget_ratio_private_vs_public,
    budget_ratio_stratum_vs_population,
    extrinsic_variance,
    ratio_estimator_k2_moments,
    reciprocal_normal_moments,
    theoretical_width_ratio,
    width_ratio_lower_bound,
    width_ratio_report,
)
from .core import (
    AlgorithmTag,
    CiResult,
    ClipFlags,
    InfeasibleError,
    PrivacyBudget,
    StratumCounts,
    StratumDesign,
    ValidationError,
    build_design,
    normal_cdf,
    normal_quantile,
)
from .dp_ci import (
    CV_NORMAL_APPROX_THRESHOLD,
    PrivateStratumRelease,
    RatioApproximationWarning,
    denominator_cv,
    difference_ci,
    population_noise_public_sizes,
    release,
    stratum_noise_private_sizes,
    stratum_noise_public_sizes,
)
from .estimators import (
    exact_stratum_variance,
    non_private_ci,
    sample_proportions,
    wald_interval,
)
from .mechanisms import MechanismOutput, SensitivityReport, gaussian_mechanism, sensitivities
from .randomness import RandomStream, derive_stream
from .simharness import (
    AlgorithmSummary,
    ExperimentConfig,
    ExperimentSummary,
    Population,
    Uniform,
    draw_sample,
    generate_population,
    qq_data,
    rho_sweep,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSummary",
    "AlgorithmTag",
    "CV_NORMAL_APPROX_THRESHOLD",
    "CiResult",
    "ClipFlags",
    "ExperimentConfig",
    "ExperimentSummary",
    "InfeasibleError",
    "MechanismOutput",
    "Population",
    "PrivacyBudget",
    "PrivateStratumRelease",
    "RandomStream",
    "RatioApproximationWarning",
    "ReciprocalMomentSeries",
    "SensitivityReport",
    "StratumCounts",
    "StratumDesign",
    "Uniform",
    "ValidationError",
    "WidthRatioReport",
    "budget_ratio_private_vs_public",
    "budget_ratio_stratum_vs_population",
    "build_design",
    "denominator_cv",
    "derive_stream",
    "difference_ci",
    "draw_sample",
    "exact_stratum_variance",
    "extrinsic_variance",
    "gaussian_mechanism",
    "generate_population",
    "non_private_ci",
    "normal_cdf",
    "normal_quantile",
    "population_noise_public_sizes",
    "qq_data",
    "ratio_estimator_k2_moments",
    "reciprocal_normal_moments",
    "release",
    "rho_sweep",
    "run_experiment",
    "sample_proportions",
    "sensitivities",
    "stratum_noise_private_sizes",
    "stratum_noise_public_sizes",
    "theoretical_width_ratio",
    "wald_interval",
    "width_ratio_lower_bound",
    "width_ratio_report",
]
