"""Estimation for multidimensional panels with low-rank interactive effects.

The package is organized around the estimation pipeline:

``tensor_ops``
    flattening / mode-product / HOSVD primitives with a frozen linearization
    convention, and the linear-algebra core shared by every estimator (one
    thin SVD, one normal-equation solve, one regressor list, one residual,
    one multilinear projector);
``factor``
    alternating least squares for slopes plus a low-rank component, proxy
    extraction from preliminary residuals;
``kernel_fe``
    kernel-weighted within transforms built from those proxies, and the
    pooled-OLS estimators on the transformed data;
``inference``
    the orthogonalization-corrected estimator, sandwich variances
    (homoskedastic / heteroskedastic / multidimensional HAC), confidence
    reports, and cross-fitting;
``dgp`` / ``montecarlo`` / ``panel_io`` / ``cli``
    simulation designs, the Monte-Carlo harness, CSV panel ingestion, and the
    command-line front end.
"""

from .dgp import DgpConfig, DgpDraw, draw
from .errors import (
    DegenerateWeightsError,
    EstimationError,
    PanelFormatError,
    RankError,
    TensorShapeError,
)
from .factor import (
    FactorFit,
    defactored_regressors,
    fit_factor_model,
    residual_proxies,
)
from .inference import (
    CorrectedFit,
    CrossfitPlan,
    EstimateReport,
    Orthogonalization,
    build_report,
    corrected_estimate,
    corrected_estimate_split,
    crossfit_split,
    normal_quantile,
    orthogonalize,
    pooled_ols,
    var_hac,
    var_heteroskedastic,
    var_homoskedastic,
)
from .kernel_fe import (
    KernelFeFit,
    WeightSet,
    iterative_kernel_fe,
    kernel_eval,
    kernel_fe_estimate,
    kernel_weights,
    standard_within,
    weighted_within,
    within_projections,
)
from .montecarlo import (
    EstimatorSpec,
    McRow,
    McSummary,
    RoundRecord,
    estimate_panel,
    run_monte_carlo,
    run_round,
    summarize,
)
from .panel_io import PanelFrame, load_panel_csv, write_panel_csv
from .tensor_ops import (
    MultilinearRank,
    TruncatedSvd,
    cp_compose,
    flatten,
    hosvd_truncate,
    mode_bases,
    mode_product,
    multilinear_rank,
    project,
    truncated_svd,
    unflatten,
)

__version__ = "0.1.0"

__all__ = [
    "DgpConfig",
    "DgpDraw",
    "draw",
    "DegenerateWeightsError",
    "EstimationError",
    "PanelFormatError",
    "RankError",
    "TensorShapeError",
    "FactorFit",
    "defactored_regressors",
    "fit_factor_model",
    "residual_proxies",
    "CorrectedFit",
    "CrossfitPlan",
    "EstimateReport",
    "Orthogonalization",
    "build_report",
    "corrected_estimate",
    "corrected_estimate_split",
    "crossfit_split",
    "normal_quantile",
    "orthogonalize",
    "pooled_ols",
    "var_hac",
    "var_heteroskedastic",
    "var_homoskedastic",
    "KernelFeFit",
    "WeightSet",
    "iterative_kernel_fe",
    "kernel_eval",
    "kernel_fe_estimate",
    "kernel_weights",
    "standard_within",
    "weighted_within",
    "within_projections",
    "EstimatorSpec",
    "McRow",
    "McSummary",
    "RoundRecord",
    "estimate_panel",
    "run_monte_carlo",
    "run_round",
    "summarize",
    "PanelFrame",
    "load_panel_csv",
    "write_panel_csv",
    "MultilinearRank",
    "TruncatedSvd",
    "cp_compose",
    "flatten",
    "hosvd_truncate",
    "mode_bases",
    "mode_product",
    "multilinear_rank",
    "project",
    "truncated_svd",
    "unflatten",
    "__version__",
]
