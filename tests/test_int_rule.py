"""One integer rule, ``forecasting.check_int``, for every count a user
gives: library arguments, grid values and integer flags are ints or numpy
integers in a stated range, never truncated floats or booleans, and a bad
one raises one ValueError shape naming the argument or the flag."""

import argparse
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pmmkit import (
    FittedModel,
    filter_coefficients,
    forecast,
    forecast_path,
    forecaster_mse,
    markov_form,
    monte_carlo_mse,
    run_filter,
    sample,
)
from pmmkit.cli import _Integer, _Window, build_parser, main
from pmmkit.error_analysis import observation_covariance
from pmmkit.forecasting import (
    MAX_INDEX,
    MAX_REPLICATE_STEPS,
    MAX_REPLICATES,
    MAX_SIMULATE_STEPS,
    check_int,
)
from pmmkit.model import save_params
from pmmkit.pipeline import DetrendModel, detrend
from helpers import FIG2_PARAMS

MODEL = markov_form(FIG2_PARAMS)
DETREND = DetrendModel((0.1, 0.2, -0.3, 0.05, 0.4), (24.0, 8772.0), 1.0)


class TestCheckInt:
    @pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7), np.int32(7)])
    def test_integers_pass_as_int(self, value):
        result = check_int(value, "x", 0)
        assert result == 7 and type(result) is int

    @pytest.mark.parametrize(
        "value, shown",
        [(2.7, "2.7"), (7.0, "7.0"), (np.float64(2.5), "2.5"), (True, "True"),
         (np.True_, "True"), (Fraction(7, 1), "7"), ("7", "7"), (None, "None")],
    )
    def test_non_integers_rejected(self, value, shown):
        with pytest.raises(ValueError, match=f"^x must be an integer, got {shown}$"):
            check_int(value, "x", 0)

    def test_bounds_are_inclusive(self):
        assert check_int(1, "x", 1, 10) == 1 and check_int(10, "x", 1, 10) == 10
        with pytest.raises(ValueError, match="^x must be >= 1, got 0$"):
            check_int(0, "x", 1, 10)
        with pytest.raises(ValueError, match="^x must be <= 10, got 11$"):
            check_int(11, "x", 1, 10)


class TestLibrary:
    @pytest.mark.parametrize(
        "n_values, k_values, message",
        [([2.7], [0], "n_values must be an integer, got 2.7"),
         ([True], [0], "n_values must be an integer, got True"),
         ([1], [0.9], "k_values must be an integer, got 0.9")],
    )
    def test_grid_values_not_truncated(self, n_values, k_values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            forecaster_mse(FIG2_PARAMS, FIG2_PARAMS, n_values, k_values)

    # Each entry point that takes a count, with the count's name.
    @pytest.mark.parametrize(
        "name, call",
        [
            ("n_steps", lambda v: sample(FIG2_PARAMS, v, 1)),
            ("seed", lambda v: sample(FIG2_PARAMS, 5, v)),
            ("reps", lambda v: monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 3, 1, v, 0)),
            ("seed", lambda v: monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 3, 1, 100, v)),
            ("n", lambda v: filter_coefficients(MODEL, v)),
            ("n", lambda v: observation_covariance(MODEL, FIG2_PARAMS.b, v)),
            ("k", lambda v: forecast(run_filter(MODEL, [0.5, 1.0]), MODEL, v)),
            ("k_max", lambda v: forecast_path(run_filter(MODEL, [0.5, 1.0]), MODEL, v)),
            ("start_index", lambda v: detrend(np.zeros(5), DETREND, v)),
        ],
        ids=["sample", "sample-seed", "monte_carlo_mse", "monte_carlo_mse-seed",
             "filter_coefficients", "observation_covariance", "forecast",
             "forecast_path", "detrend"],
    )
    @pytest.mark.parametrize("value", [150.5, 5.9, True])
    def test_counts_named(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            call(value)

    def test_simulation_bounds_before_any_draw(self):
        with pytest.raises(ValueError, match=f"^n_steps must be <= {MAX_SIMULATE_STEPS}, "):
            sample(FIG2_PARAMS, MAX_SIMULATE_STEPS + 1, 1)
        with pytest.raises(ValueError, match=f"^reps must be <= {MAX_REPLICATES}, "):
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 3, 1, MAX_REPLICATES + 1, 0)

    def test_seasonal_index_exact_up_to_two_to_the_53(self):
        # At 10^17 neighbouring indices are one float, so every row would
        # get the same seasonal value.
        assert np.diff(np.arange(10**17 + 1, 10**17 + 6, dtype=float)).max() == 0.0
        y = np.zeros(10)
        assert detrend(y, DETREND, start_index=MAX_INDEX - 10).shape == (10,)
        for start in (MAX_INDEX - 9, 10**17):
            with pytest.raises(
                ValueError,
                match=f"^start_index \\+ rows must be <= {MAX_INDEX}, got {start + 10}$",
            ):
                detrend(y, DETREND, start_index=start)


def _integer_flags():
    """(subcommand, flag) -> action of every flag read by the integer rule."""
    [subparsers] = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        (command, action.option_strings[0]): action
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if isinstance(action, _Integer)
    }


FLAGS = _integer_flags()


def _bad_texts(action) -> list[str]:
    texts = ["1_0", "٣", "2.5", str(action.low - 1)]
    if action.high is not None:
        texts.append(str(action.high + 1))
    if isinstance(action, _Window):
        # Either end, and an end that does not pass the start.
        return [f"{t}:5" for t in texts] + [f"0:{t}" for t in texts[:3]] + ["3:3"]
    return texts


def _valid_calls(d):
    """A call of every subcommand with integer flags that succeeds on its
    own; the inputs are written into ``d``, outputs go to ``d / "out"``."""
    params, series, model = d / "p.json", d / "s.csv", d / "m.json"
    save_params(FIG2_PARAMS, params)
    assert main(["simulate", "--params", str(params), "--n", "60", "--output", str(series)]) == 0
    assert main(["fit", "--input", str(series), "--output", str(model)]) == 0
    out = d / "out"
    out.mkdir()
    calls = {
        "simulate": ["--params", params, "--n", 10, "--output", out / "t.csv"],
        "fit": ["--input", series, "--output", out / "m.json"],
        "forecast": ["--model", model, "--input", series, "--n", 5, "--k", 2,
                     "--output", out / "f.csv"],
        "evaluate": ["--model", model, "--input", series, "--n-grid", "2",
                     "--k-grid", "1", "--output", out / "e.csv"],
        "monte-carlo": ["--params", params, "--n", 2, "--k", 1, "--reps", 100],
    }
    return out, {command: [command, *map(str, argv)] for command, argv in calls.items()}


@pytest.mark.parametrize("command, flag", list(FLAGS), ids=[f"{c}{f}" for c, f in FLAGS])
def test_every_integer_flag(tmp_path, capsys, command, flag):
    out, calls = _valid_calls(tmp_path)
    argv = calls[command]
    assert main(argv) == 0
    for path in out.iterdir():
        path.unlink()
    capsys.readouterr()
    for text in _bad_texts(FLAGS[command, flag]):
        assert main([*argv, f"{flag}={text}"]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{flag} "), (text, err)
        assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag, text, message",
    [
        ("simulate", "--n", "1_0", "--n must be an integer, got '1_0'"),
        ("monte-carlo", "--seed", "٣", "--seed must be an integer, got '٣'"),
        ("fit", "--window", "0:1_00", "--window needs start:end row indices, got '0:1_00'"),
        ("forecast", "--start-index", "100000000000000000",
         f"--start-index must be <= {MAX_INDEX}, got 100000000000000000"),
        ("simulate", "--n", str(MAX_SIMULATE_STEPS + 1),
         f"--n must be <= {MAX_SIMULATE_STEPS}, got {MAX_SIMULATE_STEPS + 1}"),
        ("monte-carlo", "--reps", "100000000",
         f"--reps must be <= {MAX_REPLICATES}, got 100000000"),
    ],
)
def test_flag_messages(tmp_path, capsys, command, flag, text, message):
    out, calls = _valid_calls(tmp_path)
    capsys.readouterr()
    assert main([*calls[command], flag, text]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert list(out.iterdir()) == []


def test_monte_carlo_replicate_steps_name_the_flags(tmp_path, capsys):
    # Each flag in its range, but 2 * 10^13 replicate-steps together.
    _, calls = _valid_calls(tmp_path)
    capsys.readouterr()
    argv = [*calls["monte-carlo"], "--reps", "10000000", "--n", "1000000", "--k", "1000000"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "replicate-steps of --reps (10000000) times --n + --k (2000000) "
                   f"must be <= {MAX_REPLICATE_STEPS}, got 20000000000000",
    }


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_start_index_past_two_to_the_53_rows(tmp_path, capsys, command):
    """A start index the flag admits, but whose last row is past 2^53."""
    out, calls = _valid_calls(tmp_path)
    FittedModel(FIG2_PARAMS, detrend=DETREND).save(tmp_path / "m.json")
    argv = calls[command]
    assert main([*argv, "--start-index", str(MAX_INDEX - 60)]) == 0
    for path in out.iterdir():
        path.unlink()
    capsys.readouterr()
    assert main([*argv, "--start-index", str(MAX_INDEX - 59)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": f"start_index + rows must be <= {MAX_INDEX}, got {MAX_INDEX + 1}",
    }
    assert list(out.iterdir()) == []


def test_grid_ends_bounded_before_expanding(tmp_path, capsys):
    out = tmp_path / "c.csv"
    argv = ["theoretical-mse", "--preset", "fig2", "--n-grid", "2000000:2999999",
            "--output", str(out)]
    build_parser()  # the parser's own allocations are not the grid's
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert json.loads(capsys.readouterr().err)["message"] == (
        "--n-grid must be <= 1000000, got 2000000"
    )
    assert peak < 1_000_000
    assert not out.exists()
