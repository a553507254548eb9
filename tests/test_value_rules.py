"""One rule per value type, run wherever the value is used.

``model.check_transition``, ``forecasting.check_state``,
``model.check_standardization`` and ``model.check_detrend`` (with
``model.check_periods``) each rule on one named tuple.  A value built by
hand, or by ``_make`` and ``_replace``, is refused by the first function
that takes it, with a ValueError (InvalidModelError for a Markov form)
naming the argument, rather than giving a silent wrong answer.  Every
model that the admissibility gate ``markov_form`` builds passes its rule.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmmkit import (
    FilterState, FittedModel, InvalidModelError, TransitionModel, filter_coefficients,
    filter_init, filter_step, forecast, forecast_path, hmm_params, markov_form, run_filter,
    validate,
)
from pmmkit.error_analysis import observation_covariance
from pmmkit.filtering import batch_filter_means, filter_variance_sequence
from pmmkit.forecasting import check_state
from pmmkit.model import (
    DetrendModel, StandardizationParams, check_detrend, check_periods, check_standardization,
    check_transition,
)
from pmmkit.pipeline import detrend, evaluate, evaluate_grid, seasonal_values
from pmmkit.presets import PRESET_NAMES, get_preset
from helpers import FIG2_PARAMS, random_valid_params
from reference_decimal import PRESSURE_PARAMS, REAL_EXAMPLES, SOIL_PARAMS

FIG2_MODEL = markov_form(FIG2_PARAMS)
STATE = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
DETREND = DetrendModel((0.1, 0.2, -0.3, 0.05, 0.4), (24.0, 8772.0), 1.0)
IDENTITY = ((1.0, 0.0), (0.0, 1.0))

# Hand-built Markov forms, each with the message that refuses it.
BAD_MODELS = {
    # Noise of variance -1: forecast gave a predictive variance of -1.3125.
    "negative_noise_bad_marginal": (
        TransitionModel(A=((0.5, 0), (0.5, 0.5)), Q=((-1, 0), (0, 1)), marginal=((1, 2), (2, 1))),
        r"m\.marginal must be \(\(1, b\), \(b, 1\)\) with \|b\| < 1, got \(\(1\.0, 2\.0\), ",
    ),
    "negative_noise": (
        TransitionModel(A=((0.5, 0), (0.5, 0.5)), Q=((-1, 0), (0, 1)),
                        marginal=((1, 0.5), (0.5, 1))),
        r"m\.Q must be symmetric with smallest eigenvalue > 1e-14, got ",
    ),
    # Spectral radius 2: the filter mean grew to 3.1e14 over 50 observations.
    "explosive": (
        TransitionModel(A=((2, 0), (0, 0.5)), Q=IDENTITY, marginal=IDENTITY),
        r"m\.A must have spectral radius < 1 - 1e-09, got 2$",
    ),
    "asymmetric_noise": (
        FIG2_MODEL._replace(Q=((1.0, 0.25), (0.0, 1.0))),
        r"m\.Q must be symmetric with smallest eigenvalue > 1e-14, got ",
    ),
    "marginal_off_the_model": (
        FIG2_MODEL._replace(marginal=((1.0, FIG2_MODEL.b + 0.01), (FIG2_MODEL.b + 0.01, 1.0))),
        r"m is not stationary: A marginal A\^T \+ Q is [\d.e-]+ off marginal$",
    ),
    "nan_entry": (
        FIG2_MODEL._replace(A=((float("nan"), 0.0), (0.0, 0.5))),
        r"m\.A must be a 2x2 matrix of finite numbers, got \(\(nan, ",
    ),
    "bool_entry": (
        FIG2_MODEL._replace(marginal=((True, 0.0), (0.0, 1.0))),
        r"m\.marginal must be a 2x2 matrix of finite numbers, got \(\(True, ",
    ),
    "not_2x2": (
        TransitionModel._make((((0.5, 0.0, 0.0), (0.0, 0.5)), IDENTITY, IDENTITY)),
        r"m\.A must be a 2x2 matrix of finite numbers, got ",
    ),
}

# Every function that takes a Markov form, called with the model ``m``.
MODEL_ENTRY_POINTS = {
    "filter_init": lambda m: filter_init(m, 0.3),
    "filter_step": lambda m: filter_step(STATE, m, 0.3),
    "run_filter": lambda m: run_filter(m, np.ones(50)),
    "filter_coefficients": lambda m: filter_coefficients(m, 5),
    "filter_variance_sequence": lambda m: filter_variance_sequence(m, 5),
    "batch_filter_means": lambda m: batch_filter_means(m, np.ones((2, 5))),
    "forecast": lambda m: forecast(STATE, m, 1),
    "forecast_path": lambda m: forecast_path(STATE, m, 3),
    "observation_covariance": lambda m: observation_covariance(m, 0.5, 4),
}


@pytest.mark.parametrize("entry", MODEL_ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD_MODELS)
def test_every_model_entry_point_refuses_a_hand_built_model(entry, case):
    model, message = BAD_MODELS[case]
    with pytest.raises(InvalidModelError, match=f"^{message}"):
        MODEL_ENTRY_POINTS[entry](model)


# Hand-built filter states passed to forecast, each with its message.
BAD_STATES = {
    # forecast gave a predictive variance of -3.31.
    "negative_variance": (FilterState(1, 0.0, -5.0, 0.0), "s.variance must be >= 0, got -5.0"),
    "nan_variance": (FilterState(1, 0.0, float("nan"), 0.0),
                     "s.variance must be a finite number, got nan"),
    "inf_mean": (FilterState(1, float("inf"), 0.5, 0.0),
                 "s.mean must be a finite number, got inf"),
    "string_last_y": (FilterState(1, 0.0, 0.5, "0.3"),
                      "s.last_y must be a finite number, got '0.3'"),
    "zero_n": (FilterState(0, 0.0, 0.5, 0.0), "s.n must be >= 1, got 0"),
    "float_n": (FilterState(2.0, 0.0, 0.5, 0.0), "s.n must be an integer, got 2.0"),
}
STATE_ENTRY_POINTS = {
    "filter_step": lambda s: filter_step(s, FIG2_MODEL, 0.3),
    "forecast": lambda s: forecast(s, FIG2_MODEL, 1),
    "forecast_path": lambda s: forecast_path(s, FIG2_MODEL, 3),
}


@pytest.mark.parametrize("entry", STATE_ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD_STATES)
def test_every_state_entry_point_refuses_a_bad_state(entry, case):
    state, message = BAD_STATES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        STATE_ENTRY_POINTS[entry](state)


# Hand-built moments in evaluate_grid's model, each with its message.
BAD_MOMENTS = {
    # evaluate_grid gave (inf, inf).
    "zero_std": (StandardizationParams(0.0, 0.0), "std must be > 0, got 0.0"),
    "negative_std": (StandardizationParams(0.0, -1.0), "std must be > 0, got -1.0"),
    "nan_mean": (StandardizationParams(float("nan"), 1.0),
                 "mean must be a finite number, got nan"),
    "string_std": (StandardizationParams(0.0, "1"), "std must be a finite number, got '1'"),
}


@pytest.mark.parametrize("key", ["x_standardize", "y_standardize"])
@pytest.mark.parametrize("case", BAD_MOMENTS)
def test_evaluate_refuses_bad_moments(key, case):
    moments, message = BAD_MOMENTS[case]
    model = FittedModel(FIG2_PARAMS)._replace(**{key: moments})
    series = np.random.default_rng(3).standard_normal(40)
    for call in (lambda: evaluate_grid(model, series, series, [2], [1]),
                 lambda: evaluate(model, series, series, 2, 1)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'model.{key}.{message}')}$"):
            call()


# Hand-built seasonal fits, each with its message.
BAD_DETRENDS = {
    # detrend gave NaNs.
    "nan_theta": (DETREND._replace(theta=(0.1, float("nan"), 0.0, 0.0, 0.0)),
                  "d.theta must be 5 finite numbers, got (0.1, nan, 0.0, 0.0, 0.0)"),
    "short_theta": (DETREND._replace(theta=(0.1,) * 4),
                    "d.theta must be 5 finite numbers, got (0.1, 0.1, 0.1, 0.1)"),
    "unit_period": (DETREND._replace(periods=(1.0, 24.0)),
                    "d.periods must be finite and exceed 1 sample, got [1.0, 24.0]"),
    "inf_period": (DETREND._replace(periods=(24.0, float("inf"))),
                   "d.periods must be 2 finite numbers, got (24.0, inf)"),
    "nan_sigma": (DETREND._replace(sigma=float("nan")),
                  "d.sigma must be a finite number, got nan"),
}


@pytest.mark.parametrize("case", BAD_DETRENDS)
def test_detrend_and_seasonal_values_refuse_a_bad_fit(case):
    fit, message = BAD_DETRENDS[case]
    for call in (lambda: detrend(np.ones(10), fit), lambda: seasonal_values(fit, 0, 10)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


# Not two real numbers: check_periods("24") gave (2.0, 4.0), a third
# period was dropped, and [24.0] raised IndexError.
NOT_TWO_REALS = {
    "str": "24", "three": (24.0, 48.0, 96.0), "one": [24.0], "bool": (True, 24.0),
    "str_entry": (24.0, "48"), "scalar": 24.0, "none": None, "2-d": np.array([[24.0, 48.0]]),
}


@pytest.mark.parametrize("case", NOT_TWO_REALS)
def test_check_periods_takes_exactly_two_real_numbers(case):
    periods = NOT_TWO_REALS[case]
    message = f"periods must be two real numbers, got {periods!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_periods(periods, "periods")


def test_check_periods_keeps_its_range_rule():
    assert check_periods((24, np.float64(8772.0)), "periods") == (24.0, 8772.0)
    for periods in ((24.0, float("inf")), (float("nan"), 24.0), (24.0, 1.0), (24.0, 10**400)):
        with pytest.raises(ValueError, match="^periods must be finite and exceed 1 sample, got "):
            check_periods(periods, "periods")


def test_rules_return_floats_and_keep_valid_values():
    assert check_transition(FIG2_MODEL, "m") == FIG2_MODEL
    hand = TransitionModel(*map(np.array, FIG2_MODEL))
    got = check_transition(hand, "m")
    assert got == FIG2_MODEL and all(type(v) is float for rows in got for row in rows for v in row)
    assert check_state(FilterState(np.int64(3), 1, 0, np.float64(0.5)), "s") == (3, 1.0, 0.0, 0.5)
    assert type(check_state(STATE, "s").mean) is float
    assert check_standardization(StandardizationParams(1, 2), "x") == (1.0, 2.0)
    got = check_detrend(DetrendModel([1, 0, 0, 0, 0], np.array([24, 48]), 2), "d")
    assert got == DetrendModel((1.0, 0.0, 0.0, 0.0, 0.0), (24.0, 48.0), 2.0)
    assert type(got.theta) is tuple


def _edge_family(p):
    """``p`` scaled toward the gate: by the largest admissible factor s,
    found by bisection, then by s (1 - eta)."""
    lo, hi = 1.0, 1.0 / max(map(abs, p))  # admissible, and not: a covariance of 1
    assert validate(p).ok and not validate(p.scaled(hi)).ok
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if validate(p.scaled(mid)).ok else (lo, mid)
    return [p.scaled(lo * (1.0 - eta)) for eta in (0.0, 1e-3, 1e-5, 1e-7, 1e-9)]


def _random_draws(rng, count):
    return [random_valid_params(rng) for _ in range(count)]


ADMITTED = {
    "presets": lambda: [p for name in PRESET_NAMES for p in get_preset(name)[1:3]],
    "restrictions": lambda: [hmm_params(p.a, p.b) for name in PRESET_NAMES
                             for p in get_preset(name)[1:3]],
    "real_examples": lambda: list(REAL_EXAMPLES.values()),
    "random_draws": lambda: _random_draws(np.random.default_rng(41), 2000),
    "edge_pressure": lambda: _edge_family(PRESSURE_PARAMS),
    "edge_soil": lambda: _edge_family(SOIL_PARAMS),
}


@pytest.mark.parametrize("family", ADMITTED)
def test_every_gate_output_passes_the_rule(family):
    for p in ADMITTED[family]():
        m = markov_form(p)
        assert check_transition(m, "m") == m, p


def test_the_rule_loads_no_numpy():
    # A hand-built model of spectral radius 2 reaches forecast, on the
    # theory path, which is refused by the rule without loading numpy.
    code = """
import sys
from pmmkit.forecasting import FilterState, forecast
from pmmkit.model import InvalidModelError, TransitionModel
m = TransitionModel(((2.0, 0.0), (0.0, 0.5)), ((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0)))
try:
    forecast(FilterState(1, 0.0, 1.0, 0.0), m, 1)
except InvalidModelError as exc:
    print(exc)
print("numpy" in sys.modules)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, check=True)
    assert out.stdout.splitlines() == [
        "m.A must have spectral radius < 1 - 1e-09, got 2", "False"]
