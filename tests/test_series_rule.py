"""One series rule, ``forecasting.check_series``, for every array of
observations the library takes: a series is real, 1-d, finite and of a
stated length, and a bad one raises one ValueError shape naming the argument,
rather than a NaN result or an error from deep inside numpy."""

import re
from decimal import Decimal

import numpy as np
import pytest

from pmmkit import estimate_params, markov_form, run_filter
from pmmkit.forecasting import check_series
from pmmkit.oracle import oracle_forecast
from pmmkit.pipeline import (
    DetrendModel, FittedModel, detrend, evaluate_grid, fit_detrend,
)
from pmmkit.simulate import empirical_covariances
from helpers import FIG2_PARAMS

MODEL = markov_form(FIG2_PARAMS)
DETREND = DetrendModel((0.1, 0.2, -0.3, 0.05, 0.4), (24.0, 8772.0), 1.0)
FITTED = FittedModel(FIG2_PARAMS)

# Entry point -> (call, length of a valid series, {argument: least length}),
# a least length of None meaning the length of the first argument.
ENTRY_POINTS = {
    "run_filter": (lambda ys: run_filter(MODEL, ys), 40, {"ys": 1}),
    "fit_detrend": (fit_detrend, 40, {"y": 6}),
    "detrend": (lambda y: detrend(y, DETREND), 40, {"y": 0}),
    "estimate_params": (estimate_params, 40, {"x": 30, "y": None}),
    "evaluate_grid": (
        lambda x_test, y_test: evaluate_grid(FITTED, x_test, y_test, [5], [1]),
        40, {"x_test": 6, "y_test": None},
    ),
    "empirical_covariances": (empirical_covariances, 40, {"x": 2, "y": None}),
    "oracle_forecast": (lambda ys: oracle_forecast(FIG2_PARAMS, ys, 2), 10, {"ys": 1}),
    # The oracle's filter: its forecast at k = 0.
    "oracle_filter": (lambda ys: oracle_forecast(FIG2_PARAMS, ys, 0), 10, {"ys": 1}),
}
# How a message names an argument, where that is more than its name.
LABELS = {"x_test": "x_test (longest window n=5, k=1)"}
ARGUMENTS = [(entry, arg) for entry, (_, _, args) in ENTRY_POINTS.items() for arg in args]
PAIRS = [entry for entry, (_, _, args) in ENTRY_POINTS.items() if len(args) == 2]


def _valid(entry) -> dict:
    """Integer-valued series, so that a float32 or int copy is exact."""
    _, length, args = ENTRY_POINTS[entry]
    rng = np.random.default_rng(7)
    return {arg: rng.integers(-3, 4, length).astype(float) for arg in args}


def _raises(entry, series, message):
    call = ENTRY_POINTS[entry][0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(**series)


def _ids(cases):
    return ["-".join(map(str, case)) for case in cases]


class TestCheckSeries:
    def test_returns_a_float_array(self):
        x = check_series([1, 2, 3], "x", 1)
        assert x.dtype == np.float64 and x.tolist() == [1.0, 2.0, 3.0]

    def test_names_the_first_non_finite_index(self):
        with pytest.raises(ValueError, match=r"^x must be finite, got inf at index 1$"):
            check_series([0.0, np.inf, np.nan], "x", 0)

    def test_length_bounds_are_inclusive(self):
        assert check_series(np.zeros(3), "x", 3, 3).size == 3
        with pytest.raises(ValueError, match="^length of x must be >= 4, got 3$"):
            check_series(np.zeros(3), "x", 4)
        with pytest.raises(ValueError, match="^length of x must be <= 2, got 3$"):
            check_series(np.zeros(3), "x", 0, 2)


    def test_real_kinds_accepted(self):
        for values in ([True, False], np.array([1, 2], dtype=np.uint8), [2**63, 1]):
            x = check_series(values, "x", 1)
            assert x.dtype == np.float64 and x.tolist() == np.asarray(values, float).tolist()

    # Each was parsed, cut to its real part or left to numpy's own error.
    @pytest.mark.parametrize("values, dtype", [
        (np.array([1 + 2j, 0.5]), "complex128"),
        ([1 + 2j, 0.5], "complex128"),
        (np.array(["0.1", "0.2"]), "<U3"),
        (["a", "b"], "<U1"),
        ([[1.0], [2.0, 3.0]], "object"),
        ([1.0, [2.0]], "object"),
        ([None, 1.0], "object"),
        ([Decimal("0.1"), Decimal("0.2")], "object"),
        ([2**70, 1], "object"),
        (np.array([1, 2], dtype="datetime64[D]"), "datetime64[D]"),
    ], ids=["complex-array", "complex-list", "str-array", "str-list", "ragged",
            "ragged-scalar-first", "none", "decimal", "past-int64", "datetime"])
    def test_not_real_named(self, values, dtype):
        with pytest.raises(ValueError, match=f"^x must be a series of real numbers, "
                                             f"got dtype {re.escape(dtype)}$"):
            check_series(values, "x", 0)


@pytest.mark.parametrize("entry, arg", ARGUMENTS, ids=_ids(ARGUMENTS))
@pytest.mark.parametrize("form", ["complex", "ragged"])
def test_not_real_named(entry, arg, form):
    series = _valid(entry)
    values = series[arg]
    series[arg] = values + 0j if form == "complex" else [values[:1], values]
    dtype = "complex128" if form == "complex" else "object"
    _raises(entry, series,
            f"{LABELS.get(arg, arg)} must be a series of real numbers, got dtype {dtype}")


NON_FINITE = [(entry, arg, value, where) for entry, arg in ARGUMENTS
              for value in (np.nan, np.inf, -np.inf) for where in (0, -1)]


@pytest.mark.parametrize("entry, arg, value, where", NON_FINITE, ids=_ids(NON_FINITE))
def test_non_finite_value_named(entry, arg, value, where):
    series = _valid(entry)
    series[arg][where] = value
    index = where % series[arg].size
    _raises(entry, series, f"{LABELS.get(arg, arg)} must be finite, got {value} at index {index}")


@pytest.mark.parametrize("entry, arg", ARGUMENTS, ids=_ids(ARGUMENTS))
@pytest.mark.parametrize("shape", ["2-d", "scalar"])
def test_not_one_dimensional_named(entry, arg, shape):
    series = _valid(entry)
    values = series[arg]
    series[arg] = np.stack([values, values]) if shape == "2-d" else values[0]
    shown = (2, values.size) if shape == "2-d" else ()
    _raises(entry, series, f"{LABELS.get(arg, arg)} must be a 1-d series, got shape {shown}")


TOO_SHORT = [(entry, arg) for entry, arg in ARGUMENTS if ENTRY_POINTS[entry][2][arg]]


@pytest.mark.parametrize("entry, arg", TOO_SHORT, ids=_ids(TOO_SHORT))
def test_too_short_named(entry, arg):
    low = ENTRY_POINTS[entry][2][arg]
    series = {name: values[: low - 1] for name, values in _valid(entry).items()}
    _raises(entry, series, f"length of {LABELS.get(arg, arg)} must be >= {low}, got {low - 1}")


@pytest.mark.parametrize("entry", PAIRS)
def test_unequal_lengths_named(entry):
    first, second = ENTRY_POINTS[entry][2]
    series = _valid(entry)
    size = series[first].size
    _raises(entry, {**series, second: series[second][:-1]},
            f"length of {second} must be >= {size}, got {size - 1}")
    _raises(entry, {**series, second: np.append(series[second], 0.0)},
            f"length of {second} must be <= {size}, got {size + 1}")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("form", ["list", "int64", "float32"])
def test_valid_forms_accepted(entry, form):
    call = ENTRY_POINTS[entry][0]
    series = _valid(entry)
    convert = {"list": list, "int64": lambda v: v.astype(np.int64),
               "float32": lambda v: v.astype(np.float32)}[form]
    with np.printoptions(floatmode="unique"):
        assert repr(call(**{a: convert(v) for a, v in series.items()})) == repr(call(**series))
