"""Forecasting toolkit for stationary Gaussian pairwise Markov models.

Exact filtering and k-step forecasting of a hidden standardized series from
an observed one, theoretical mean-square-error comparison against the
hidden-Markov special case, Monte Carlo validation, and a fit/evaluate
pipeline for real univariate series.  The names below are the package
surface; helpers such as the oracle, the detrending steps and the
validation report stay importable from their submodules.
"""

from ._backend import backend_name
from .error_analysis import (
    forecaster_mse,
    mse_sweep,
    theoretical_mse_hmm_under_pmm,
    theoretical_mse_pmm,
)
from .filtering import (
    FilterState,
    filter_coefficients,
    filter_init,
    filter_step,
    run_filter,
)
from .forecasting import ForecastResult, forecast, forecast_path
from .model import (
    InvalidModelError,
    PmmError,
    PmmParams,
    TransitionModel,
    hmm_params,
    load_params,
    markov_form,
    validate,
)
from .pipeline import FittedModel, estimate_params
from .presets import get_preset
from .simulate import monte_carlo_mse, sample

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "forecaster_mse",
    "mse_sweep",
    "theoretical_mse_pmm",
    "theoretical_mse_hmm_under_pmm",
    "FilterState",
    "filter_coefficients",
    "filter_init",
    "filter_step",
    "run_filter",
    "ForecastResult",
    "forecast",
    "forecast_path",
    "PmmError",
    "InvalidModelError",
    "PmmParams",
    "TransitionModel",
    "hmm_params",
    "load_params",
    "markov_form",
    "validate",
    "FittedModel",
    "estimate_params",
    "get_preset",
    "monte_carlo_mse",
    "sample",
]
