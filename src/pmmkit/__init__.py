"""Forecasting toolkit for stationary Gaussian pairwise Markov models.

Exact filtering and k-step forecasting of a hidden standardized series from
an observed one, theoretical mean-square-error comparison against the
hidden-Markov special case, Monte Carlo validation, and a fit/evaluate
pipeline for real univariate series.  The names below are the package
surface; helpers such as the oracle, the detrending steps and the
validation report stay importable from their submodules.

The import is lazy: a name loads its submodule on first access, so that
``pmmkit.cli`` can pin numpy's thread pool before numpy loads.  The model
and its files, the presets, the forecasting map and the exact MSE are Python
floats and load no numpy; the filtering, pipeline, simulation and oracle do.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names it exports here.
_EXPORTS = {
    "_backend": ["backend_name"],
    "error_analysis": [
        "forecaster_mse", "mse_sweep", "theoretical_mse_pmm",
        "theoretical_mse_hmm_under_pmm",
    ],
    "filtering": [
        "FilterState", "filter_coefficients", "filter_init", "filter_step", "run_filter",
    ],
    "forecasting": ["ForecastResult", "forecast", "forecast_path"],
    "model": [
        "PmmError", "InvalidModelError", "PmmParams", "TransitionModel", "FittedModel",
        "hmm_params", "load_params", "markov_form", "validate",
    ],
    "pipeline": ["estimate_params"],
    "presets": ["get_preset"],
    "simulate": ["monte_carlo_mse", "sample"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
