"""One (n, k) grid rule, ``forecasting.check_grid``, for every entry point
that takes a grid: the same bad request fails the same way in the library
and on the command line, naming the grid, before any work."""

import json

import numpy as np
import pytest

from pmmkit import forecaster_mse, hmm_params, monte_carlo_mse, mse_sweep
from pmmkit.cli import main
from pmmkit.forecasting import MAX_GRID_POINTS, check_grid
from pmmkit.model import save_params
from pmmkit.pipeline import FittedModel, evaluate_grid
from helpers import FIG2_PARAMS

HMM = hmm_params(FIG2_PARAMS.a, FIG2_PARAMS.b)
TOO_BIG = MAX_GRID_POINTS + 1

# (id, n grid, k grid, the grid the error names: "n", "k" or "both").
ONE_POINT = [
    ("n=0", [0], [1], "n"),
    ("k=-1", [5], [-1], "k"),
    ("n-above", [TOO_BIG], [1], "n"),
    ("k-above", [5], [TOO_BIG], "k"),
]
CASES = [
    ("empty", [], [1], "n"),
    ("repeat", [5, 5], [1], "n"),
    *ONE_POINT,
    ("points", range(1, 1002), range(1000), "both"),
]


def _ids(cases):
    return [case[0] for case in cases]


def _assert_names(message: str, grid: str, n_name: str, k_name: str) -> None:
    if grid == "both":
        assert message == (
            f"(n, k) points of {n_name} (1001 values) by {k_name} (1000 values) "
            f"must be <= {MAX_GRID_POINTS}, got 1001000"
        )
    else:
        assert message.startswith(f"{n_name if grid == 'n' else k_name} ")


def _text(values) -> str:
    values = list(values)
    if len(values) > 2 and values == list(range(values[0], values[-1] + 1)):
        return f"{values[0]}:{values[-1]}"
    return ",".join(map(str, values))


@pytest.fixture
def fitted():
    return FittedModel(FIG2_PARAMS)


class TestLibrary:
    @pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
    @pytest.mark.parametrize("function", ["forecaster_mse", "mse_sweep", "evaluate_grid"])
    def test_grid_functions(self, fitted, function, case):
        _, n_values, k_values, grid = case
        y = np.linspace(-1.0, 1.0, 60)
        call = {
            "forecaster_mse": lambda: forecaster_mse(FIG2_PARAMS, HMM, n_values, k_values),
            "mse_sweep": lambda: mse_sweep(FIG2_PARAMS, HMM, n_values, k_values),
            "evaluate_grid": lambda: evaluate_grid(fitted, y, y, n_values, k_values),
        }[function]
        with pytest.raises(ValueError) as info:
            call()
        _assert_names(str(info.value), grid, "n_values", "k_values")

    @pytest.mark.parametrize("case", ONE_POINT, ids=_ids(ONE_POINT))
    def test_monte_carlo_mse(self, case):
        _, [n], [k], grid = case
        with pytest.raises(ValueError) as info:
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, n, k, 100, 0)
        _assert_names(str(info.value), grid, "n", "k")

    def test_ints_in_the_order_given(self):
        n_values, k_values = check_grid((3, np.int64(1)), [np.uint8(2), 0])
        assert (n_values, k_values) == ([3, 1], [2, 0])
        assert {type(v) for v in n_values + k_values} == {int}

    def test_bounds_are_inclusive(self):
        assert check_grid([MAX_GRID_POINTS], [MAX_GRID_POINTS, 0]) == (
            [MAX_GRID_POINTS], [MAX_GRID_POINTS, 0]
        )
        n_values, k_values = check_grid(range(1, 1001), range(1000))
        assert len(n_values) * len(k_values) == MAX_GRID_POINTS


class TestCommandLine:
    @pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
    @pytest.mark.parametrize("command", ["theoretical-mse", "evaluate"])
    def test_grid_commands(self, tmp_path, capsys, fitted, command, case):
        _, n_values, k_values, grid = case
        out = tmp_path / "out.csv"
        if command == "evaluate":
            fitted.save(tmp_path / "m.json")
            (tmp_path / "s.csv").write_text("x,y\n" + "0.5,1.5\n" * 60)
            argv = ["evaluate", "--model", tmp_path / "m.json", "--input", tmp_path / "s.csv"]
        else:
            argv = ["theoretical-mse", "--preset", "fig2"]
        grids = [f"--n-grid={_text(n_values)}", f"--k-grid={_text(k_values)}"]
        # The same command on a good grid succeeds, so only the grid fails it.
        assert main([*map(str, argv), "--n-grid=5", "--k-grid=1", "--output", str(out)]) == 0
        out.unlink()
        capsys.readouterr()
        assert main([*map(str, argv), *grids, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        _assert_names(err["message"], grid, "--n-grid", "--k-grid")
        assert not out.exists()

    @pytest.mark.parametrize("case", ONE_POINT, ids=_ids(ONE_POINT))
    def test_monte_carlo(self, tmp_path, capsys, case):
        _, [n], [k], grid = case
        save_params(FIG2_PARAMS, tmp_path / "p.json")
        argv = ["monte-carlo", "--params", str(tmp_path / "p.json"), "--reps", "100"]
        assert main([*argv, "--n=2", "--k=1"]) == 0
        capsys.readouterr()
        assert main([*argv, f"--n={n}", f"--k={k}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        _assert_names(err["message"], grid, "--n", "--k")
