"""Portmanteau diagnostics for linear and nonlinear dependence in residuals.

The central statistic is the block log-determinant test: the residual and
squared-residual autocorrelations and their cross-correlations up to lag m are
assembled into one 2(m+1)-dimensional correlation matrix, and
-(n/(m+1)) log-determinant of that matrix is compared against a gamma null
with mean 2m+5-(p+q). The classical one-kind portmanteau statistics are
implemented alongside for comparison, together with the model simulators,
fitting routines and the Monte Carlo harness used to calibrate them.
``reference`` holds the validation-only oracles the tests check them against.
"""

from . import corrmat, diagnostics, reference
from .corrmat import CrossCorrMatrix, build_block, build_toeplitz, logdet_pd
from .diagnostics import (
    ALL_STATISTICS,
    TestReport,
    box_pierce,
    cm_gamma_params,
    cm_statistic,
    cm_test,
    evaluate_statistics,
    gamma_from_moments,
    li_mak,
    ljung_box,
    monti,
    pena_d,
    pena_dtilde,
    weighted_m,
    weighted_q,
)
from .fitting import (
    FitResult,
    fit_ar,
    fit_ar_block,
    fit_ar_garch,
    fit_ar_garch_block,
    fit_arma_css,
    fit_garch_block,
    fit_garch_qmle,
    select_ar_order_aic,
    select_ar_order_aic_block,
)
from .models import (
    Arma,
    ArmaGarch,
    Bilinear,
    Garch,
    Innovation,
    ModelSpec,
    Sqar,
    Star,
    Tar,
    simulate,
    spec_from_dict,
    spec_to_dict,
)
from .montecarlo import (
    Experiment,
    FitterSpec,
    McTable,
    experiment_from_dict,
    experiment_to_dict,
    fit_series,
    rejection_frequency,
    replicate_seed,
    run_experiment,
)
from .reference import (
    PacfSequence,
    QmMatrix,
    build_qm,
    cm_decomposition,
    cm_moment_sums,
    combo_eigenvalues,
    cross_correlation,
    garch_standardized_sq_acf,
    pacf,
    residual_pacf,
    schur_logdet,
    standardize_correlation,
)
from .residuals import (
    CorrSequence,
    LagCorrelations,
    ResidualSeries,
    correlogram,
    cross_corr_sequence,
    durbin_levinson,
    make_residual_series,
    residual_series_block,
)

# Two oracles keep the submodule paths they had before reference.py existed.
# They are bound here, not imported by corrmat and diagnostics, because
# reference.py imports those modules and no production module imports it.
corrmat.weighted_cross_sum = reference.weighted_cross_sum
diagnostics._inverse_poly_coeffs = reference._inverse_poly_coeffs

__version__ = "0.1.0"

__all__ = [
    "ALL_STATISTICS",
    "Arma",
    "ArmaGarch",
    "Bilinear",
    "CorrSequence",
    "CrossCorrMatrix",
    "Experiment",
    "FitResult",
    "FitterSpec",
    "Garch",
    "Innovation",
    "LagCorrelations",
    "McTable",
    "ModelSpec",
    "PacfSequence",
    "QmMatrix",
    "ResidualSeries",
    "Sqar",
    "Star",
    "Tar",
    "TestReport",
    "box_pierce",
    "build_block",
    "build_qm",
    "build_toeplitz",
    "cm_decomposition",
    "cm_gamma_params",
    "cm_moment_sums",
    "cm_statistic",
    "cm_test",
    "combo_eigenvalues",
    "correlogram",
    "cross_corr_sequence",
    "cross_correlation",
    "durbin_levinson",
    "evaluate_statistics",
    "experiment_from_dict",
    "experiment_to_dict",
    "fit_ar",
    "fit_ar_block",
    "fit_ar_garch",
    "fit_ar_garch_block",
    "fit_arma_css",
    "fit_garch_block",
    "fit_garch_qmle",
    "fit_series",
    "gamma_from_moments",
    "garch_standardized_sq_acf",
    "li_mak",
    "ljung_box",
    "logdet_pd",
    "make_residual_series",
    "monti",
    "pacf",
    "pena_d",
    "pena_dtilde",
    "rejection_frequency",
    "replicate_seed",
    "residual_pacf",
    "residual_series_block",
    "run_experiment",
    "schur_logdet",
    "select_ar_order_aic",
    "select_ar_order_aic_block",
    "simulate",
    "spec_from_dict",
    "spec_to_dict",
    "standardize_correlation",
    "weighted_m",
    "weighted_q",
]
