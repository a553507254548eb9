"""Forecasting toolkit for stationary Gaussian pairwise Markov models.

Exact filtering and k-step forecasting of a hidden standardized series from
an observed one, theoretical mean-square-error comparison against the
hidden-Markov special case, Monte Carlo validation, and a fit/evaluate
pipeline for real univariate series.
"""

from ._backend import backend_name
from .error_analysis import (
    MseCurve,
    forecast_coefficients,
    forecaster_mse,
    mse_sweep,
    observation_covariance,
    theoretical_mse_hmm_under_pmm,
    theoretical_mse_pmm,
)
from .filtering import (
    CoefficientVector,
    FilterState,
    batch_filter_means,
    filter_coefficients,
    filter_init,
    filter_step,
    run_filter,
)
from .forecasting import ForecastResult, forecast, forecast_mean, forecast_variance
from .model import (
    InvalidModelError,
    PmmError,
    PmmParams,
    PowerCoeffs,
    TransitionModel,
    ValidationReport,
    gamma_from_params,
    hmm_params,
    is_hmm,
    load_params,
    markov_form,
    matrix_power_coeffs,
    save_params,
    validate,
)
from .oracle import build_joint, conditional, oracle_filter, oracle_forecast
from .pipeline import (
    DetrendModel,
    FittedModel,
    StandardizationParams,
    detrend,
    estimate_params,
    evaluate,
    fit_detrend,
    read_series_csv,
)
from .presets import get_preset
from .simulate import Trajectory, monte_carlo_mse, sample

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "CoefficientVector",
    "MseCurve",
    "filter_coefficients",
    "forecast_coefficients",
    "forecaster_mse",
    "mse_sweep",
    "observation_covariance",
    "theoretical_mse_hmm_under_pmm",
    "theoretical_mse_pmm",
    "FilterState",
    "batch_filter_means",
    "filter_init",
    "filter_step",
    "run_filter",
    "ForecastResult",
    "forecast",
    "forecast_mean",
    "forecast_variance",
    "InvalidModelError",
    "PmmError",
    "PmmParams",
    "PowerCoeffs",
    "TransitionModel",
    "ValidationReport",
    "gamma_from_params",
    "hmm_params",
    "is_hmm",
    "load_params",
    "markov_form",
    "matrix_power_coeffs",
    "save_params",
    "validate",
    "build_joint",
    "conditional",
    "oracle_filter",
    "oracle_forecast",
    "DetrendModel",
    "FittedModel",
    "StandardizationParams",
    "detrend",
    "estimate_params",
    "evaluate",
    "fit_detrend",
    "read_series_csv",
    "get_preset",
    "Trajectory",
    "monte_carlo_mse",
    "sample",
]
