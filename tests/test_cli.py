import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pmmkit
import pmmkit.io
from pmmkit import (
    FittedModel,
    PmmParams,
    get_preset,
    hmm_params,
    sample,
    validate,
)
from pmmkit.cli import MAX_GRID_POINTS, _parse_grid, main
from pmmkit.model import is_hmm, save_params
from pmmkit.pipeline import DEFAULT_PERIODS, DetrendModel, evaluate
from helpers import (
    FIG2_PARAMS,
    PRESSURE_PARAMS,
    quadratic_form_mse,
    rowwise_trajectory_to_csv,
)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def fig2_params_file(tmp_path):
    path = tmp_path / "params.json"
    save_params(FIG2_PARAMS, path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_deterministic_csv(self, tmp_path, fig2_params_file, capsys):
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        for out in (out1, out2):
            code = run_cli(
                "simulate", "--params", fig2_params_file, "--n", 500,
                "--seed", 42, "--output", out,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t,x,y" and len(lines) == 501
        capsys.readouterr()

    def test_summary_reports_empirical_covariances(
        self, tmp_path, fig2_params_file, capsys
    ):
        out = tmp_path / "t.csv"
        run_cli(
            "simulate", "--params", fig2_params_file, "--n", 50_000,
            "--seed", 1, "--output", out,
        )
        summary = json.loads(capsys.readouterr().out)
        est = summary["empirical_covariances"]
        assert est["a"] == pytest.approx(0.9, abs=0.05)
        assert summary["rng"] == "numpy-pcg64"

    def test_output_equals_rowwise_writer(self, tmp_path, fig2_params_file):
        out = tmp_path / "t.csv"
        proc = _python(
            ["-m", "pmmkit.cli", "simulate", "--params", str(fig2_params_file),
             "--n", "20000", "--seed", "5", "--output", str(out)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        want = io.StringIO()
        rowwise_trajectory_to_csv(sample(FIG2_PARAMS, 20_000, seed=5), want)
        assert out.read_bytes() == want.getvalue().encode("ascii")

    def test_memory_error_is_one_json_line(
        self, tmp_path, fig2_params_file, capsys, monkeypatch
    ):
        # --n is bounded below what numpy fails to allocate, so the draw
        # asks for 2^57 floats (1 EiB), more than a 47-bit address space
        # holds: numpy's own MemoryError subclass, raised at once.
        monkeypatch.setattr(pmmkit.simulate, "sample", lambda *args: np.empty(2**57))
        out = tmp_path / "t.csv"
        argv = ["simulate", "--params", fig2_params_file, "--n", 10, "--output", out]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "MemoryError"
        assert "1.00 EiB" in err["message"]
        assert list(tmp_path.iterdir()) == [fig2_params_file]

    def test_negative_seed_names_it(self, tmp_path, fig2_params_file, capsys):
        out = tmp_path / "t.csv"
        code = run_cli(
            "simulate", "--params", fig2_params_file, "--n", 10,
            "--seed", -3, "--output", out,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert err["message"] == "--seed must be >= 0, got -3"
        assert list(tmp_path.iterdir()) == [fig2_params_file]

    def test_missing_key_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": 0.9, "c": 0.0, "d": 0.0, "e": 0.0}))
        code = run_cli(
            "simulate", "--params", bad, "--n", 10, "--seed", 0,
            "--output", tmp_path / "t.csv",
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "missing b" in err["message"]

    # Every subcommand that builds a model from the a = 1 document.
    @pytest.mark.parametrize(
        "command",
        [
            "simulate",
            "forecast",
            "evaluate",
            "monte-carlo-true",
            "monte-carlo-forecaster",
            "theoretical-mse",
        ],
    )
    def test_invalid_params_fail_with_json_error(
        self, tmp_path, fig2_params_file, capsys, command
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": 1.0, "b": 0, "c": 0, "d": 0, "e": 0}))
        hmm_file = tmp_path / "hmm.json"
        save_params(hmm_params(0.9, -0.2), hmm_file)
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(8), np.linspace(-1.0, 1.0, 8))
        out = tmp_path / "out.csv"
        argv = {
            "simulate": [
                "simulate", "--params", bad, "--n", 10, "--seed", 0, "--output", out,
            ],
            "forecast": [
                "forecast", "--model", bad, "--input", data, "--n", 4, "--k", 2,
                "--output", out,
            ],
            "evaluate": [
                "evaluate", "--model", bad, "--input", data,
                "--n-grid", 2, "--k-grid", 1, "--output", out,
            ],
            "monte-carlo-true": [
                "monte-carlo", "--params", bad, "--n", 3, "--k", 1, "--reps", 100,
            ],
            "monte-carlo-forecaster": [
                "monte-carlo", "--params", fig2_params_file,
                "--forecaster-params", bad, "--n", 3, "--k", 1, "--reps", 100,
            ],
            "theoretical-mse": [
                "theoretical-mse", "--params", bad, "--hmm-params", hmm_file,
                "--n-grid", 4, "--k-grid", 0, "--output", out,
            ],
        }[command]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidModelError"
        assert "gamma_pd=False" in err["message"]
        assert not out.exists()


class TestTheoreticalMse:
    def test_fig2_preset_ratio(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert run_cli("theoretical-mse", "--preset", "fig2", "--output", out) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "model,sweep,index,mse"
        pmm = {}
        hmm = {}
        for row in rows[1:]:
            model, sweep, index, mse = row.split(",")
            assert sweep == "n"
            (pmm if model == "PMM" else hmm)[int(index)] = float(mse)
        ratios = [hmm[n] / pmm[n] for n in sorted(pmm)]
        assert max(ratios) >= 5.0

    def test_fig3_preset_curve_labels(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert run_cli(
            "theoretical-mse", "--preset", "fig3", "--k-grid", "1:10",
            "--output", out,
        ) == 0
        labels = {row.split(",")[0] for row in out.read_text().strip().splitlines()[1:]}
        assert labels == {
            "PMM(n=1)", "HMM(n=1)", "PMM(n=5)", "HMM(n=5)", "PMM(n=10)", "HMM(n=10)",
        }

    def test_explicit_params_single_point(self, tmp_path, fig2_params_file, capsys):
        hmm_file = tmp_path / "hmm.json"
        hmm_file.write_text(
            json.dumps({"a": 0.9, "b": -0.2, "c": 0.036, "d": -0.18, "e": -0.18})
        )
        out = tmp_path / "point.csv"
        code = run_cli(
            "theoretical-mse", "--params", fig2_params_file,
            "--hmm-params", hmm_file, "--n-grid", "4", "--k-grid", "0",
            "--output", out,
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 3  # header + one point per curve

    def test_missing_inputs_rejected(self, tmp_path, capsys):
        code = run_cli("theoretical-mse", "--output", tmp_path / "c.csv")
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    def test_non_hmm_forecaster_rejected(self, tmp_path, fig2_params_file, capsys):
        code = run_cli(
            "theoretical-mse", "--params", fig2_params_file,
            "--hmm-params", fig2_params_file, "--n-grid", "1:5",
            "--output", tmp_path / "c.csv",
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidModelError"
        assert not (tmp_path / "c.csv").exists()


def write_series_csv(path, x, y):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(x, y):
            fh.write(f"{xv},{yv}\n")


class TestFit:
    def test_round_trip_from_simulation(self, tmp_path, capsys):
        t = sample(FIG2_PARAMS, 50_000, seed=2)
        data = tmp_path / "data.csv"
        write_series_csv(data, t.x, t.y)
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--input", data, "--output", model_path) == 0
        fitted = FittedModel.load(model_path)
        np.testing.assert_allclose(
            fitted.params, FIG2_PARAMS, atol=0.03
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["repaired"] is False

    def test_constant_column_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_series_csv(data, np.ones(100), np.arange(100.0))
        code = run_cli("fit", "--input", data, "--output", tmp_path / "m.json")
        assert code == 1
        assert "zero-variance" in json.loads(capsys.readouterr().err)["message"]

    def test_detrend_records_theta(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 2000
        i = np.arange(1, n + 1)
        t = sample(FIG2_PARAMS, n, seed=4)
        y = t.y + 3.0 * np.cos(2 * np.pi * i / 24)
        data = tmp_path / "data.csv"
        write_series_csv(data, t.x, y)
        model_path = tmp_path / "model.json"
        code = run_cli(
            "fit", "--input", data, "--output", model_path,
            "--detrend", "--periods", "24,8772",
        )
        assert code == 0
        fitted = FittedModel.load(model_path)
        assert fitted.detrend is not None
        assert fitted.detrend.theta[1] == pytest.approx(3.0, abs=0.1)

    def test_window_selection(self, tmp_path, capsys):
        t = sample(FIG2_PARAMS, 2000, seed=5)
        data = tmp_path / "data.csv"
        write_series_csv(data, t.x, t.y)
        model_path = tmp_path / "model.json"
        code = run_cli(
            "fit", "--input", data, "--output", model_path, "--window", "0:1000",
        )
        assert code == 0
        assert FittedModel.load(model_path).fit_window == (0, 1000)

    @pytest.mark.parametrize("window", [None, "0:10", "1990:2000"])
    def test_too_few_rows_named_before_the_seasonal_fit(self, tmp_path, capsys, window):
        # Below pipeline.MIN_FIT_ROWS; a 5-row file would fail fit_detrend's
        # 6-row minimum if the seasonal fit ran first.
        data = GOLDEN / "series.csv"
        if window is None:
            data = tmp_path / "short.csv"
            write_series_csv(data, [0.1, -0.2, 0.3, 0.5, -0.4], [1.0, 0.2, -0.7, 0.4, 0.0])
        argv = ["fit", "--input", data, "--output", tmp_path / "m.json", "--detrend"]
        if window is not None:
            argv += ["--window", window]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        what = f"rows of {data}" if window is None else f"rows of --window {window}"
        rows = 5 if window is None else 10
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": f"{what} must be >= 30, got {rows}",
        }
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "window, periods, message",
        [(None, "x", "--periods needs two comma-separated numbers, got 'x'"),
         ("0:10", "x", "--periods needs two comma-separated numbers, got 'x'"),
         (None, "24,inf", "--periods must be finite and exceed 1 sample, got (24.0, inf)"),
         ("0:10", "24,0.5", "--periods must be finite and exceed 1 sample, got (24.0, 0.5)")],
        ids=["missing_input", "short_window", "missing_input_infinite_period",
             "short_window_sub_sample_period"],
    )
    def test_periods_checked_before_the_input(self, tmp_path, capsys, window, periods, message):
        # Read first, a missing file or a window below the fitting minimum
        # would be reported in place of the malformed flag.
        data = tmp_path / "missing.csv" if window is None else GOLDEN / "series.csv"
        argv = ["fit", "--input", data, "--output", tmp_path / "m.json",
                "--detrend", "--periods", periods]
        if window is not None:
            argv += ["--window", window]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}
        assert not (tmp_path / "m.json").exists()

    def test_one_seasonal_design_per_fit(self, tmp_path, capsys, monkeypatch):
        # The residual comes from the design the seasonal fit was solved on.
        from pmmkit import pipeline

        calls = []

        def counted(*args):
            calls.append(args)
            return design_matrix(*args)

        design_matrix = pipeline._design_matrix
        monkeypatch.setattr(pipeline, "_design_matrix", counted)
        assert run_cli(
            "fit", "--input", GOLDEN / "series.csv", "--detrend", "--window", "200:1800",
            "--output", tmp_path / "model.json",
        ) == 0
        assert len(calls) == 1
        assert (tmp_path / "model.json").read_bytes() == (GOLDEN / "model.json").read_bytes()

    def test_window_of_thirty_rows_fits(self, tmp_path, capsys):
        assert run_cli(
            "fit", "--input", GOLDEN / "series.csv", "--output", tmp_path / "m.json",
            "--window", "0:30",
        ) == 0
        assert FittedModel.load(tmp_path / "m.json").fit_window == (0, 30)


class TestForecast:
    def test_oracle_agreement_on_tiny_input(self, tmp_path, fig2_params_file, capsys):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.3, -1.1, 0.7])
        code = run_cli(
            "forecast", "--model", fig2_params_file, "--input", data,
            "--n", 3, "--k", 2,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        fc = payload["forecasts"][0]
        assert fc["mean"] == pytest.approx(0.047934136586871838, abs=1e-9)
        assert fc["variance"] == pytest.approx(0.46789136023225519, abs=1e-9)

    def test_huge_horizon_relaxes(self, tmp_path, fig2_params_file, capsys):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(4), [0.5, 0.1, -0.4, 1.0])
        code = run_cli(
            "forecast", "--model", fig2_params_file, "--input", data,
            "--n", 4, "--k", 600,
        )
        assert code == 0
        fc = json.loads(capsys.readouterr().out)["forecasts"][0]
        assert abs(fc["mean"]) < 1e-6
        assert fc["variance"] == pytest.approx(1.0, abs=1e-6)

    def test_missing_model_file(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        write_series_csv(data, [0], [0.5])
        code = run_cli(
            "forecast", "--model", tmp_path / "absent.json", "--input", data,
            "--n", 1, "--k", 1,
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] in (
            "FileNotFoundError",
            "OSError",
        )

    def test_horizon_path_csv(self, tmp_path, fig2_params_file, capsys):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.3, -1.1, 0.7])
        out = tmp_path / "fc.csv"
        code = run_cli(
            "forecast", "--model", fig2_params_file, "--input", data,
            "--n", 3, "--k", 5, "--horizon-path", "--output", out,
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "k,mean,variance,mean_original,variance_original"
        assert len(rows) == 6

    def test_n_exceeding_data_rejected(self, tmp_path, fig2_params_file, capsys):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.1, 0.2, 0.3])
        code = run_cli(
            "forecast", "--model", fig2_params_file, "--input", data,
            "--n", 10, "--k", 1,
        )
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["forecast"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_rejected(self, tmp_path, fig2_params_file, capsys, command, n):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.1, 0.2, 0.3])
        code = run_cli(
            command, "--model", fig2_params_file, "--input", data,
            "--n", n, "--k", 1,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"

    def test_infinite_observation_is_a_json_error(
        self, tmp_path, fig2_params_file, capsys
    ):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.1, float("inf"), 0.3])
        code = run_cli(
            "forecast", "--model", fig2_params_file, "--input", data,
            "--n", 3, "--k", 1,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


class TestEvaluate:
    def test_synthetic_table_orderings(self, tmp_path, capsys):
        # simulate in the long-memory regime of the pressure experiment so
        # every cell keeps a wide HMM-vs-PMM gap
        t = sample(PRESSURE_PARAMS, 60_000, seed=6)
        fit_data = tmp_path / "fit.csv"
        write_series_csv(fit_data, t.x[:30_000], t.y[:30_000])
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--input", fit_data, "--output", model_path) == 0
        test_data = tmp_path / "test.csv"
        write_series_csv(test_data, t.x[30_000:], t.y[30_000:])
        table = tmp_path / "table.csv"
        # Table-I-like layout: 3 chain sizes x 3 horizons
        code = run_cli(
            "evaluate", "--model", model_path, "--input", test_data,
            "--n-grid", "5,20,50", "--k-grid", "10,24,48", "--output", table,
        )
        assert code == 0
        rows = table.read_text().strip().splitlines()
        assert rows[0] == "n,k,mse_hmm,mse_pmm"
        assert len(rows) == 10
        for row in rows[1:]:
            n, k, mse_h, mse_p = row.split(",")
            assert float(mse_p) <= float(mse_h)
        capsys.readouterr()

    def test_table_bit_identical_to_per_cell_evaluate(self, tmp_path, capsys):
        t = sample(FIG2_PARAMS, 6_000, seed=8)
        fit_data = tmp_path / "fit.csv"
        write_series_csv(fit_data, t.x[:3_000], t.y[:3_000])
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--input", fit_data, "--output", model_path) == 0
        test_data = tmp_path / "test.csv"
        write_series_csv(test_data, t.x[3_000:], t.y[3_000:])
        table = tmp_path / "table.csv"
        code = run_cli(
            "evaluate", "--model", model_path, "--input", test_data,
            "--n-grid", "5,20,50", "--k-grid", "1,24,48", "--output", table,
        )
        assert code == 0
        capsys.readouterr()
        fitted = FittedModel.load(model_path)
        x, y = t.x[3_000:], t.y[3_000:]
        want = ["n,k,mse_hmm,mse_pmm"]
        for n in (5, 20, 50):
            for k in (1, 24, 48):
                mse_h, mse_p = evaluate(fitted, x, y, n, k)
                want.append(f"{n},{k},{mse_h:.12e},{mse_p:.12e}")
        assert table.read_text().splitlines() == want

    def test_bare_parameter_file_is_an_identity_model(self, tmp_path, capsys):
        FittedModel(FIG2_PARAMS).save(tmp_path / "identity.json")
        tables = []
        for model in (GOLDEN / "true.json", tmp_path / "identity.json"):
            table = tmp_path / f"{model.stem}.csv"
            code = run_cli(
                "evaluate", "--model", model, "--input", GOLDEN / "series.csv",
                "--n-grid", "5,20", "--k-grid", "1,24", "--output", table,
            )
            assert code == 0
            tables.append(table.read_bytes())
        capsys.readouterr()
        assert tables[0] == tables[1]

    def test_empty_grid_rejected(self, tmp_path, capsys):
        t = sample(FIG2_PARAMS, 1000, seed=7)
        data = tmp_path / "d.csv"
        write_series_csv(data, t.x, t.y)
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--input", data, "--output", model_path) == 0
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--model", model_path, "--input", data,
            "--n-grid", " ", "--k-grid", "1", "--output", tmp_path / "t.csv",
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


# A bad row at data row 2 of every file; each subcommand reads the y column.
MALFORMED_INPUTS = {
    "short_row": ("t,x,y\n1,1.0,2.0\n2,3.0\n3,1.0,2.0\n", "column y at data row 2"),
    "empty_field": ("t,x,y\n1,1.0,2.0\n2,3.0,\n", "'' to float in column y at data row 2"),
    "non_numeric_field": (
        "t,x,y\n1,1.0,2.0\n2,3.0,abc\n", "'abc' to float in column y at data row 2"
    ),
    "hash_field": ("t,x,y\n1,1.0,2.0\n2,3.0,#\n", "'#' to float in column y at data row 2"),
    "nan": ("t,x,y\n1,1.0,2.0\n2,3.0,nan\n", "column y at data row 2"),
    "inf": ("t,x,y\n1,1.0,2.0\n2,3.0,inf\n", "column y at data row 2"),
    "minus_inf": ("t,x,y\n1,1.0,2.0\n2,3.0,-inf\n", "column y at data row 2"),
    "header_only": ("t,x,y\n", "no data rows"),
    "empty_file": ("", "missing CSV header"),
    "repeated_column": ("t,x,y,Y\n1,1.0,2.0,3.0\n", "column y is named more than once"),
}


MISSING = object()
# Edits of a valid fitted-model document that loading must reject, as
# (key path, new value or MISSING, text the message must contain); the
# empty path puts the value in the document's place, or for None wraps the
# whole document in a list.
MALFORMED_MODELS = {
    "list_document": ((), None, "must be a JSON object"),
    # A document without a params key is a bare parameter document.
    "missing_params": (("params",), MISSING, "invalid parameters: missing a, b, c, d, e"),
    "empty_document": ((), {}, "invalid parameters: missing a, b, c, d, e"),
    "detrend_only": ((), {"detrend": None}, "invalid parameters: missing a, b, c, d, e"),
    "missing_mean": (("x_standardize", "mean"), MISSING, "x_standardize.mean"),
    "nan_mean": (("y_standardize", "mean"), float("nan"), "y_standardize.mean"),
    "string_std": (("y_standardize", "std"), "abc", "y_standardize.std"),
    "zero_std": (("y_standardize", "std"), 0, "y_standardize.std must be > 0"),
    "negative_std": (("x_standardize", "std"), -1.0, "x_standardize.std must be > 0"),
    "short_theta": (("detrend", "theta"), [1.0] * 4, "detrend.theta"),
    "string_theta": (("detrend", "theta"), [1.0] * 4 + ["x"], "detrend.theta"),
    "unit_period": (("detrend", "periods"), [1.0, 8772.0], "detrend.periods"),
    "scalar_fit_window": (("fit_window",), 5, "fit_window"),
    # The rule of fit --window: 0 <= start < end.
    "backwards_fit_window": (("fit_window",), [5, 2], "fit_window end must be >= 6, got 2"),
    "empty_fit_window": (("fit_window",), [3, 3], "fit_window end must be >= 4, got 3"),
    "empty_detrend": (("detrend",), {}, "detrend.periods"),
    "zero_detrend": (("detrend",), 0, "detrend must be an object or null"),
    "false_detrend": (("detrend",), False, "detrend must be an object or null"),
    "string_repaired": (("repaired",), "no", "repaired must be true or false"),
    "integer_repaired": (("repaired",), 0, "repaired must be true or false"),
}


def _model_doc(path, value):
    """A valid detrended fitted-model document with one edit applied."""
    doc = FittedModel(
        params=FIG2_PARAMS,
        detrend=DetrendModel(theta=(0.0,) * 5, periods=(24.0, 8772.0), sigma=1.0),
    ).to_json_dict()
    if not path:
        return [doc] if value is None else value
    *outer, key = path
    section = doc
    for name in outer:
        section = section[name]
    if value is MISSING:
        del section[key]
    else:
        section[key] = value
    return doc


def _model_argv(command, model, data, out):
    return {
        "forecast": [
            "forecast", "--model", model, "--input", data,
            "--n", 4, "--k", 1, "--output", out,
        ],
        "evaluate": [
            "evaluate", "--model", model, "--input", data,
            "--n-grid", 2, "--k-grid", 1, "--output", out,
        ],
    }[command]


# Every flag that reads a model file, in the argv of a call that is valid
# but for MODEL, the file under test; PARAMS fills any other model flag.
MODEL_FILE_FLAGS = {
    "simulate --params": ["simulate", "--params", "MODEL", "--n", 5, "--output", "OUT"],
    "theoretical-mse --params": [
        "theoretical-mse", "--params", "MODEL", "--hmm-params", "PARAMS", "--output", "OUT",
    ],
    "theoretical-mse --hmm-params": [
        "theoretical-mse", "--params", "PARAMS", "--hmm-params", "MODEL", "--output", "OUT",
    ],
    "monte-carlo --params": ["monte-carlo", "--params", "MODEL", "--n", 2, "--k", 1],
    "monte-carlo --forecaster-params": [
        "monte-carlo", "--params", "PARAMS", "--forecaster-params", "MODEL", "--n", 2, "--k", 1,
    ],
    "forecast --model": _model_argv("forecast", "MODEL", "DATA", "OUT"),
    "evaluate --model": _model_argv("evaluate", "MODEL", "DATA", "OUT"),
}
# Fitted-model documents that every one of those flags refuses, with the
# one message each gets.
BAD_MODEL_FILES = {
    "bad_section": (
        _model_doc(("detrend",), 5), "fitted model: detrend must be an object or null, got 5",
    ),
    "params_only": (
        {"params": FIG2_PARAMS._asdict()},
        "fitted model: x_standardize must be an object with mean and std",
    ),
}


class TestByteOrderMark:
    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.
    @pytest.mark.parametrize("command", ["fit", "forecast", "evaluate"])
    def test_outputs_equal_those_of_the_plain_file(self, tmp_path, capsys, command):
        t = sample(FIG2_PARAMS, 400, seed=5)
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_series_csv(plain, t.x, t.y)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        model = tmp_path / "model.json"
        assert run_cli("fit", "--input", plain, "--output", model) == 0
        out = tmp_path / "out"
        outputs = []
        for data in (plain, bom):
            argv = (
                ["fit", "--input", data, "--output", out]
                if command == "fit"
                else _model_argv(command, model, data, out)
            )
            capsys.readouterr()
            assert run_cli(*argv) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    # As Windows Notepad saves UTF-8: a parameter file or a fitted model.
    @pytest.mark.parametrize("command", ["theoretical-mse", "monte-carlo", "forecast", "evaluate"])
    def test_json_inputs_equal_those_of_the_plain_file(self, tmp_path, capsys, command):
        t = sample(FIG2_PARAMS, 400, seed=5)
        data, hmm = tmp_path / "s.csv", tmp_path / "hmm.json"
        write_series_csv(data, t.x, t.y)
        save_params(hmm_params(0.9, -0.2), hmm)
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        if command in ("forecast", "evaluate"):
            assert run_cli("fit", "--input", data, "--output", plain) == 0
        else:
            save_params(FIG2_PARAMS, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        out = tmp_path / "out"
        outputs = []
        for doc in (plain, bom):
            argv = {
                "theoretical-mse": [
                    "theoretical-mse", "--params", doc, "--hmm-params", hmm,
                    "--n-grid", "1:5", "--k-grid", "0:2", "--output", out,
                ],
                "monte-carlo": ["monte-carlo", "--params", doc, "--n", 3, "--k", 1, "--reps", 200],
            }.get(command) or _model_argv(command, doc, data, out)
            out.unlink(missing_ok=True)
            capsys.readouterr()
            assert run_cli(*argv) == 0
            outputs.append((out.exists() and out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


class TestMalformedInput:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        FittedModel(FIG2_PARAMS).save(path)
        return path

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    @pytest.mark.parametrize("command", ["fit", "forecast", "evaluate"])
    def test_json_error_names_file(self, tmp_path, model_file, capsys, command, case, bom):
        text, detail = MALFORMED_INPUTS[case]
        data = tmp_path / "bad.csv"
        data.write_text(bom + text, encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "fit": ["fit", "--input", data, "--output", out],
            "forecast": [
                "forecast", "--model", model_file, "--input", data,
                "--n", 1, "--k", 1, "--output", out,
            ],
            "evaluate": [
                "evaluate", "--model", model_file, "--input", data,
                "--n-grid", 1, "--k-grid", 1, "--output", out,
            ],
        }[command]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{data}: ")
        assert detail in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    def test_model_json_error_names_key(self, tmp_path, capsys, command, case):
        path, value, detail = MALFORMED_MODELS[case]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_doc(path, value)))
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(8), np.linspace(-1.0, 1.0, 8))
        out = tmp_path / "out.csv"
        assert run_cli(*_model_argv(command, model, data, out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert detail in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_FILES))
    @pytest.mark.parametrize("flag", MODEL_FILE_FLAGS)
    def test_every_model_flag_refuses_alike(self, tmp_path, fig2_params_file, capsys, flag, case):
        doc, message = BAD_MODEL_FILES[case]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        data, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        write_series_csv(data, np.zeros(8), np.linspace(-1.0, 1.0, 8))
        places = {"MODEL": model, "PARAMS": fig2_params_file, "DATA": data, "OUT": out}
        assert run_cli(*(places.get(a, a) for a in MODEL_FILE_FLAGS[flag])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}
        assert not out.exists()

    # Flag values rejected by name, as (subcommand, flag, bad text); each is
    # appended to an otherwise valid call, and argparse keeps the last value.
    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("simulate", "--n", "1"),
            ("fit", "--window", "5"),
            ("fit", "--window", "0:x"),
            ("evaluate", "--n-grid", "1,x"),
            ("evaluate", "--k-grid", "2:"),
            ("theoretical-mse", "--n-grid", "1,x"),
            ("theoretical-mse", "--k-grid", "0:1.5"),
            ("forecast", "--start-index", "-5"),
            ("evaluate", "--start-index", "-5"),
        ],
    )
    def test_bad_flag_value_names_flag(
        self, tmp_path, model_file, capsys, command, flag, text
    ):
        t = sample(FIG2_PARAMS, 40, seed=9)
        data = tmp_path / "obs.csv"
        write_series_csv(data, t.x, t.y)
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", "--params", model_file, "--n", 10, "--output", out],
            "fit": ["fit", "--input", data, "--output", out],
            "theoretical-mse": ["theoretical-mse", "--preset", "fig2", "--output", out],
        }.get(command) or _model_argv(command, model_file, data, out)
        assert run_cli(*argv) == 0
        out.unlink()
        capsys.readouterr()
        assert run_cli(*argv, flag, text) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert flag in err["message"] and text in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    def test_model_unknown_keys_ignored(self, tmp_path, capsys, command):
        doc = _model_doc(("y_standardize", "note"), "extra")
        doc["comment"] = "extra"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(8), np.linspace(-1.0, 1.0, 8))
        out = tmp_path / "out.csv"
        assert run_cli(*_model_argv(command, model, data, out)) == 0
        capsys.readouterr()
        assert out.exists()


TRUNCATED = object()
# Parameter and fitted-model files the JSON boundary rejects, as (file
# kind, key path, new value or TRUNCATED, text the message must contain).
# Each edits a valid document; TRUNCATED cuts its text in half instead,
# and the message must then start with the file's path.
BAD_JSON_FILES = {
    "params_string_number": ("params", ("a",), "0.9", "not a finite number: a"),
    "params_boolean": ("params", ("b",), False, "not a finite number: b"),
    "params_401_digits": ("params", ("c",), 10**400, "not a finite number: c"),
    "params_nan": ("params", ("d",), float("nan"), "not a finite number: d"),
    "params_truncated": ("params", (), TRUNCATED, None),
    "model_string_number": ("model", ("y_standardize", "std"), "1.0", "y_standardize.std"),
    "model_boolean": ("model", ("x_standardize", "mean"), True, "x_standardize.mean"),
    "model_401_digits": ("model", ("detrend", "sigma"), 10**400, "detrend.sigma"),
    "model_nan": ("model", ("params", "e"), float("nan"), "not a finite number: e"),
    "model_truncated": ("model", (), TRUNCATED, None),
    "model_boolean_fit_window": ("model", ("fit_window",), [True, False], "fit_window"),
}


class TestJsonBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_JSON_FILES))
    def test_one_json_error_line(self, tmp_path, capsys, case):
        kind, path, value, detail = BAD_JSON_FILES[case]
        if kind == "params":
            doc = FIG2_PARAMS._asdict()
            if value is not TRUNCATED:
                doc[path[0]] = value
        elif value is TRUNCATED:
            doc = _model_doc(("repaired",), False)
        else:
            doc = _model_doc(path, value)
        text = json.dumps(doc, indent=2)
        bad = tmp_path / f"{kind}.json"
        bad.write_text(text[: len(text) // 2] if value is TRUNCATED else text)
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(8), np.linspace(-1.0, 1.0, 8))
        out = tmp_path / "out.csv"
        argv = {
            "params": ["monte-carlo", "--params", bad, "--n", 2, "--k", 1, "--reps", 100],
            "model": _model_argv("forecast", bad, data, out),
        }[kind]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        if detail is None:
            assert err["message"].startswith(f"{bad}: ")
        else:
            assert detail in err["message"]
        assert not out.exists()


class TestUsageErrors:
    """argparse's own errors, and flags that conflict, keep the JSON error
    contract: exit 1, one {error, message} line on stderr naming the flag
    (a conflict names both) and no file written."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "--input", "s.csv"], "--output"),
            (["simulate", "--params", "p.json", "--n", "abc", "--output", "t.csv"], "--n"),
            (["fit", "--input", "s.csv", "--output", "m.json", "--window", "-1:0"],
             "--window"),
            (["forecast", "--model", "m.json", "--input", "s.csv", "--n", "3", "--k", "1",
              "--bogus"], "--bogus"),
            ([], "simulate"),
            (["forecast", "--input", "s.csv", "--n", "3", "--k", "1"],
             "the following arguments are required: --model"),
            (["forecast", "--model", "m.json", "--params", "p.json", "--input", "s.csv",
              "--n", "3", "--k", "1", "--output", "f.csv"],
             "unrecognized arguments: --params p.json"),
            (["theoretical-mse", "--preset", "fig2", "--params", "t.json",
              "--hmm-params", "h.json", "--output", "c.csv"],
             "--params: not allowed with argument --preset"),
            (["theoretical-mse", "--preset", "fig2", "--hmm-params", "h.json",
              "--output", "c.csv"],
             "--hmm-params: not allowed with argument --preset"),
            (["fit", "--input", "s.csv", "--output", "m.json", "--periods", "24,8772"],
             "--periods: not allowed without argument --detrend"),
            (["oracle", "--params", "p.json", "--input", "s.csv", "--n", "3"],
             "invalid choice: 'oracle'"),
        ],
    )
    def test_json_error_names_flag(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "message"} and err["error"] == "ValueError"
        assert flag in err["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["fit", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "pmmkit" in capsys.readouterr().out


class TestGridBound:
    # Each ran for more than 15 s, or for ever, before the bound on points.
    @pytest.mark.parametrize(
        "argv, names, points",
        [
            (["theoretical-mse", "--preset", "fig3", "--n-grid", "1:100000",
              "--k-grid", "1:100000"],
             "--n-grid (100000 values) by --k-grid (100000 values)", 10**10),
            (["theoretical-mse", "--preset", "fig3", "--n-grid", "1:20000"],
             "--n-grid (20000 values) by the fig3 preset's k grid (100 values)", 2_000_000),
            (["evaluate", "--model", "model.json", "--input", "s.csv", "--n-grid",
              "1:100000", "--k-grid", "1:100000"],
             "--n-grid (100000 values) by --k-grid (100000 values)", 10**10),
        ],
        ids=["theory", "theory-preset-k", "evaluate"],
    )
    def test_grid_of_too_many_points_fails_at_once(self, tmp_path, argv, names, points):
        FittedModel(FIG2_PARAMS).save(tmp_path / "model.json")
        (tmp_path / "s.csv").write_text("x,y\n" + "0.5,1.5\n" * 150_000)
        out = _python(["-m", "pmmkit.cli", *argv, "--output", "t.csv"], tmp_path, timeout=10)
        assert out.returncode == 1 and out.stdout == ""
        assert json.loads(out.stderr)["message"] == (
            f"(n, k) points of {names} must be <= {MAX_GRID_POINTS}, got {points}"
        )
        assert not (tmp_path / "t.csv").exists()

    # An empty part; a backwards range, which was dropped; 1_0, which int()
    # read as 10; and non-ASCII digits, which int() read as their values.
    @pytest.mark.parametrize(
        "text",
        ["1,,2", "1,", ",1", " ,3:4", "1,10:5", "5:3", "1_0", "1:1_0", "\u0661", "1,\uff12:4"],
    )
    def test_malformed_grid_rejected(self, tmp_path, capsys, text):
        out = tmp_path / "t.csv"
        argv = ["theoretical-mse", "--preset", "fig3", "--n-grid", text, "--output", out]
        assert run_cli(*argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"--n-grid needs comma-separated integers or a:b ranges, got {text!r}",
        }
        assert not out.exists()

    # The point bound caps the grid, not the work: each cell scores every
    # window of the series.
    def test_evaluate_work_bound(self, tmp_path, capsys, monkeypatch):
        FittedModel(FIG2_PARAMS).save(tmp_path / "m.json")
        write_series_csv(tmp_path / "s.csv", np.zeros(60), np.linspace(-1.0, 1.0, 60))
        out = tmp_path / "table.csv"
        argv = ["evaluate", "--model", tmp_path / "m.json", "--input", tmp_path / "s.csv",
                "--n-grid", "5,20", "--k-grid", "1,3", "--output", out]
        # Filter means 5*56 + 20*41, errors 55 + 53 + 40 + 38 windows.
        work = 5 * 56 + 20 * 41 + 55 + 53 + 40 + 38
        monkeypatch.setattr(pmmkit.pipeline, "MAX_EVALUATE_WORK", work)
        assert run_cli(*argv) == 0
        out.unlink()
        capsys.readouterr()
        monkeypatch.setattr(pmmkit.pipeline, "MAX_EVALUATE_WORK", work - 1)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": "steps of --n-grid (2 values) by --k-grid (2 values) on 60 rows "
                       f"must be <= {work - 1}, got {work}",
        }
        assert not out.exists()

    def test_work_bound_admits_the_benchmark_grid(self):
        names = ("n_values", "k_values")
        pmmkit.pipeline._require_work([5, 20, 50], [1, 24, 48], 150_000, names)
        with pytest.raises(
            ValueError, match="on 150000 rows must be <= 2000000000, got 3021297340$"
        ):
            pmmkit.pipeline._require_work(range(1, 21), range(1, 1001), 150_000, names)

    def test_huge_grid_fails_before_expanding(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["theoretical-mse", "--preset", "fig4", "--n-grid", "1:1000000000"]
        assert run_cli(*argv, "--output", out) == 1
        err = json.loads(capsys.readouterr().err)
        assert "--n-grid" in err["message"] and str(MAX_GRID_POINTS) in err["message"]
        assert not out.exists()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                _parse_grid("--k-grid", "0:5,1:1000000000", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize(
        "text",
        [f"1:{MAX_GRID_POINTS},5", f"1:{MAX_GRID_POINTS // 2},0:{MAX_GRID_POINTS // 2}"],
    )
    def test_bound_counts_every_part(self, text):
        with pytest.raises(ValueError) as info:
            _parse_grid("--n-grid", text, 1)
        assert str(info.value) == (
            f"points of --n-grid {text!r} must be <= {MAX_GRID_POINTS}, got 1000001"
        )

    # One past the bound on each single horizon or window length; a valid
    # call otherwise, so only the named flag can fail it.
    @pytest.mark.parametrize(
        "command, flag",
        [("forecast", "--k"), ("monte-carlo", "--n"), ("monte-carlo", "--k"),
         ("theoretical-mse", "--n-grid"), ("theoretical-mse", "--k-grid")],
    )
    def test_horizon_above_bound_names_flag(
        self, tmp_path, fig2_params_file, capsys, command, flag
    ):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(8), np.linspace(-1.0, 1.0, 8))
        out = tmp_path / "out.csv"
        argv = {
            "forecast": [
                "forecast", "--model", fig2_params_file, "--input", data,
                "--n", 4, "--k", 1, "--output", out,
            ],
            "monte-carlo": [
                "monte-carlo", "--params", fig2_params_file,
                "--n", 2, "--k", 1, "--reps", 100,
            ],
            "theoretical-mse": [
                "theoretical-mse", "--preset", "fig2", "--output", out,
            ],
        }[command]
        assert run_cli(*argv) == 0
        out.unlink(missing_ok=True)
        capsys.readouterr()
        too_long = MAX_GRID_POINTS + 1
        assert run_cli(*argv, flag, too_long) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert err["message"] == f"{flag} must be <= {MAX_GRID_POINTS}, got {too_long}"
        assert not out.exists()

    # A repeated value would write its curves or table rows twice.
    @pytest.mark.parametrize(
        "flag, text, value", [("--n-grid", "5,5", 5), ("--k-grid", "1:3,2", 2)]
    )
    def test_repeated_value_rejected(self, tmp_path, capsys, flag, text, value):
        out = tmp_path / "t.csv"
        argv = ["theoretical-mse", "--preset", "fig3", flag, text, "--output", out]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": f"{flag} repeats the value {value}",
        }
        assert not out.exists()

    def test_evaluate_rejects_repeated_value(self, tmp_path, capsys):
        FittedModel(FIG2_PARAMS).save(tmp_path / "m.json")
        write_series_csv(tmp_path / "s.csv", np.zeros(60), np.linspace(-1.0, 1.0, 60))
        out = tmp_path / "table.csv"
        argv = ["evaluate", "--model", tmp_path / "m.json", "--input", tmp_path / "s.csv",
                "--k-grid", "1", "--output", out]
        assert run_cli(*argv, "--n-grid", "5,6") == 0
        out.unlink()
        capsys.readouterr()
        assert run_cli(*argv, "--n-grid", "5,5") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "--n-grid repeats the value 5"
        assert not out.exists()

    def test_four_hundred_point_sweep_runs(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["theoretical-mse", "--preset", "fig4", "--n-grid", "1:400"]
        assert run_cli(*argv, "--output", out) == 0
        assert json.loads(capsys.readouterr().out)["points_per_curve"] == 400


class TestMonteCarlo:
    def test_true_forecaster_calibrates(self, tmp_path, fig2_params_file, capsys):
        code = run_cli(
            "monte-carlo", "--params", fig2_params_file,
            "--n", 5, "--k", 2, "--reps", 20_000, "--seed", 12,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["mse"] - payload["theoretical_mse"]) < 3 * payload["stderr"]

    def test_hmm_forecaster_reports_theory(self, tmp_path, fig2_params_file, capsys):
        hmm_file = tmp_path / "hmm.json"
        hmm_file.write_text(
            json.dumps({"a": 0.9, "b": -0.2, "c": 0.036, "d": -0.18, "e": -0.18})
        )
        code = run_cli(
            "monte-carlo", "--params", fig2_params_file,
            "--forecaster-params", hmm_file,
            "--n", 5, "--k", 2, "--reps", 20_000, "--seed", 13,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theoretical_mse"] is not None
        assert abs(payload["mse"] - payload["theoretical_mse"]) < 3 * payload["stderr"]

    def test_negative_seed_names_it(self, tmp_path, fig2_params_file, capsys):
        code = run_cli(
            "monte-carlo", "--params", fig2_params_file,
            "--n", 5, "--k", 2, "--reps", 100, "--seed", -1,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert err["message"] == "--seed must be >= 0, got -1"
        assert list(tmp_path.iterdir()) == [fig2_params_file]

    def test_memory_error_in_a_worker_is_one_json_line(
        self, tmp_path, fig2_params_file, capsys, monkeypatch
    ):
        # Two threads; block 1 of 2 runs on the second and fails there
        # with numpy's own MemoryError subclass.
        failed_on = []
        rng = pmmkit.simulate._rng

        def failing_rng(seed, *spawn_key):
            if spawn_key == (1,):
                failed_on.append(threading.current_thread())
                np.empty(2**57)
            return rng(seed, *spawn_key)

        monkeypatch.setattr(pmmkit.simulate, "_rng", failing_rng)
        monkeypatch.setattr(pmmkit.simulate, "_cpu_count", lambda: 2)
        code = run_cli(
            "monte-carlo", "--params", fig2_params_file,
            "--n", 50, "--k", 5, "--reps", 2000, "--seed", 15,
        )
        assert code == 1
        assert failed_on and failed_on[0] is not threading.current_thread()
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "MemoryError"
        assert "1.00 EiB" in err["message"]

    def test_general_forecaster_reports_exact_theory(self, tmp_path, capsys):
        true = get_preset("fig4").true_params
        other = PmmParams(true.a, true.b, true.c, true.d + 0.1, true.e)
        assert validate(other).ok and not is_hmm(other) and other != true
        true_file, other_file = tmp_path / "true.json", tmp_path / "other.json"
        save_params(true, true_file)
        save_params(other, other_file)
        code = run_cli(
            "monte-carlo", "--params", true_file, "--forecaster-params", other_file,
            "--n", 5, "--k", 2, "--reps", 20_000, "--seed", 14,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        want = quadratic_form_mse(true, other, 5, 2)
        assert abs(payload["theoretical_mse"] - want) <= 1e-10 * want
        assert abs(payload["mse"] - want) <= 5 * payload["stderr"]


THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _python(argv, cwd, timeout=None, **env):
    """A fresh interpreter that imports this pmmkit, run in ``cwd`` for at
    most ``timeout`` seconds.  The thread variables are dropped, so that
    only those in ``env`` are set."""
    src = str(Path(pmmkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(base, PYTHONPATH=path, **env),
        cwd=cwd,
        timeout=timeout,
    )


def test_host_root_logger_left_alone(tmp_path):
    # A host that imported logging but configured nothing keeps its root
    # logger as it was: pmmkit configures nothing.
    probe = (
        "import logging, sys\n"
        "from pmmkit.cli import main\n"
        "root = logging.getLogger()\n"
        "before = (list(root.handlers), root.level)\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(before == (list(root.handlers), root.level), before)\n"
    )
    argv = ["theoretical-mse", "--preset", "fig2", "--output", "t.csv"]
    out = _python(["-c", probe, *argv], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "True ([], 30)"


@pytest.mark.parametrize(
    "periods, detail",
    [("nan,24", "finite"), ("24,inf", "finite"), ("abc,24", "--periods"),
     ("24", "--periods")],
)
def test_bad_periods_one_json_line(tmp_path, periods, detail):
    # A child process: LAPACK writes its complaints about a nan design to
    # file descriptor 2, out of reach of redirect_stderr.
    t = sample(FIG2_PARAMS, 200, seed=11)
    write_series_csv(tmp_path / "s.csv", t.x, t.y)
    out = _python(
        ["-m", "pmmkit.cli", "fit", "--input", "s.csv", "--output", "m.json",
         "--detrend", "--periods", periods],
        tmp_path,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    [line] = out.stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValueError" and detail in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


@pytest.mark.parametrize("periods", ["2_4,8772", "\uff12\uff14,8772", "24,8_772", "24,8772,"])
def test_periods_by_the_csv_number_rule(tmp_path, capsys, periods):
    # float() reads "2_4" and full-width digits as 24; a CSV field may not.
    t = sample(FIG2_PARAMS, 200, seed=11)
    write_series_csv(tmp_path / "s.csv", t.x, t.y)
    out = tmp_path / "m.json"
    argv = ["fit", "--input", tmp_path / "s.csv", "--output", out, "--detrend"]
    assert run_cli(*argv, "--periods", "24,8772") == 0
    out.unlink()
    capsys.readouterr()
    assert run_cli(*argv, "--periods", periods) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": f"--periods needs two comma-separated numbers, got {periods!r}",
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "column, flags", [("x", []), ("y", []), ("y", ["--detrend"])],
)
def test_fit_rejects_series_past_float_range(tmp_path, column, flags):
    # A child process, so that a numpy RuntimeWarning would show on stderr.
    t = sample(FIG2_PARAMS, 200, seed=12)
    series = {"x": t.x, "y": t.y}
    series[column] = 1e200 * series[column]  # squared deviations overflow
    write_series_csv(tmp_path / "s.csv", series["x"], series["y"])
    out = _python(
        ["-m", "pmmkit.cli", "fit", "--input", "s.csv", "--output", "m.json", *flags],
        tmp_path,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    [line] = out.stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValueError"
    assert error["message"].startswith(f"series {column}: ")
    assert "not finite" in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "pmmkit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "pmmkit" in out.stdout


def test_import_leaves_scipy_out(tmp_path):
    out = _python(
        ["-c", "import pmmkit.cli, sys; print('scipy' in sys.modules)"], tmp_path
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_package_import_leaves_numpy_out(tmp_path):
    out = _python(["-c", "import pmmkit, sys; print('numpy' in sys.modules)"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_periods_help_names_the_pipeline_default(capsys):
    # The help spells the default out, so that building the parser loads no
    # numpy; it must follow pipeline.DEFAULT_PERIODS.
    with pytest.raises(SystemExit):
        main(["fit", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {DEFAULT_PERIODS[0]:g},{DEFAULT_PERIODS[1]:g})" in text


# pmmkit.cli.main on the arguments, in an interpreter where numpy cannot
# be imported.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from pmmkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_theory_and_version_run_without_numpy(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps(FIG2_PARAMS._asdict()))
    (tmp_path / "h.json").write_text(json.dumps(hmm_params(0.9, -0.2)._asdict()))
    calls = [["--version"]] + [
        ["theoretical-mse", "--preset", fig, "--output", f"{fig}.csv"]
        for fig in ("fig2", "fig3", "fig4", "fig5")
    ] + [
        ["theoretical-mse", "--params", "../p.json", "--hmm-params", "../h.json",
         "--n-grid", "1:40,500", "--k-grid", "0:3", "--output", "own.csv"],
    ]
    for label, prefix in (("blocked", ["-c", WITHOUT_NUMPY]), ("plain", ["-m", "pmmkit.cli"])):
        (tmp_path / label).mkdir()
        for argv in calls:
            out = _python([*prefix, *argv], tmp_path / label)
            assert out.returncode == 0, out.stderr
            (tmp_path / label / f"{argv[-1]}.stdout").write_text(out.stdout)
    blocked, plain = (sorted((tmp_path / label).iterdir()) for label in ("blocked", "plain"))
    assert [p.name for p in blocked] == [p.name for p in plain]
    assert len(blocked) == 2 * len(calls) - 1
    for ours, theirs in zip(blocked, plain):
        assert ours.read_bytes() == theirs.read_bytes(), ours.name
    assert (tmp_path / "blocked" / "--version.stdout").read_text() == "pmmkit 0.1.0\n"
    # A subcommand that needs numpy says so in the one JSON error line.
    out = _python(["-c", WITHOUT_NUMPY, "simulate", "--params", "../p.json", "--n", "5",
                   "--output", "t.csv"], tmp_path / "blocked")
    assert out.returncode == 1
    error = json.loads(out.stderr)
    assert error["error"] == "ModuleNotFoundError" and "numpy" in error["message"]


# pmmkit.cli.main on the arguments, then, as the last line of standard
# output, the modules the run added to those loaded before pmmkit.
ADDED_MODULES = """
import sys
before = set(sys.modules)
try:
    from pmmkit.cli import main
    code = main(sys.argv[1:])
finally:
    print(*sorted(set(sys.modules) - before))
sys.exit(code)
"""
# numpy, and the stdlib modules whose import dominates a numpy-free run's
# start-up; dataclasses loads inspect.
LEAN_PATH_EXCLUDES = {"numpy", "dataclasses", "inspect", "logging", "csv"}
# What the real-data commands never run: the simulation, kernel, theory and
# oracle modules, and the dataclasses of the first two.
REAL_DATA_EXCLUDES = {
    "pmmkit.simulate", "pmmkit._kernels_py", "pmmkit.error_analysis", "pmmkit.oracle",
    "pmmkit._backend", "dataclasses",
}


def test_theory_and_version_load_a_lean_import_set(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps(FIG2_PARAMS._asdict()))
    (tmp_path / "h.json").write_text(json.dumps(hmm_params(0.9, -0.2)._asdict()))
    model, series = str(GOLDEN / "model.json"), str(GOLDEN / "series.csv")
    calls = [
        (["--version"], LEAN_PATH_EXCLUDES),
        (["theoretical-mse", "--preset", "fig3", "--output", "fig3.csv"], LEAN_PATH_EXCLUDES),
        (["theoretical-mse", "--params", "p.json", "--hmm-params", "h.json",
          "--n-grid", "1:40", "--k-grid", "0:3", "--output", "own.csv"], LEAN_PATH_EXCLUDES),
        # A fitted model, read whole by FittedModel.load.
        (["theoretical-mse", "--params", model, "--hmm-params", str(GOLDEN / "hmm.json"),
          "--output", "golden.csv"], LEAN_PATH_EXCLUDES),
        (["fit", "--input", series, "--detrend", "--window", "200:1800", "--output", "m.json"],
         REAL_DATA_EXCLUDES),
        (["forecast", "--model", model, "--input", series, "--n", "50", "--k", "24",
          "--horizon-path", "--output", "forecast.csv"], REAL_DATA_EXCLUDES),
        (["evaluate", "--model", model, "--input", series, "--n-grid", "5,20",
          "--k-grid", "1,6", "--start-index", "12", "--output", "table.csv"],
         REAL_DATA_EXCLUDES),
        (["simulate", "--params", "p.json", "--n", "100", "--output", "s.csv"],
         {"pmmkit.error_analysis", "pmmkit._kernels_py"}),
        (["monte-carlo", "--params", "p.json", "--n", "10", "--k", "5", "--reps", "200"],
         {"pmmkit._kernels_py"}),
    ]
    for argv, excludes in calls:
        out = _python(["-c", ADDED_MODULES, *argv], tmp_path)
        assert out.returncode == 0, out.stderr
        added = set(out.stdout.splitlines()[-1].split())
        assert "pmmkit.cli" in added
        assert not added & excludes, (argv, added & excludes)
    # PMM_LOG is not read: the run loads no logging and writes nothing to stderr.
    out = _python(["-c", ADDED_MODULES, *calls[1][0]], tmp_path, PMM_LOG="info")
    assert out.returncode == 0, out.stderr
    assert "logging" not in out.stdout.splitlines()[-1].split()
    assert out.stderr == ""


def test_no_value_type_reaches_write_json(tmp_path, fig2_params_file, monkeypatch, capsys):
    # A named tuple would be written silently as a JSON array; summaries and
    # documents go through _asdict() and summary() instead.
    hmm_file = tmp_path / "h.json"
    save_params(hmm_params(0.9, -0.2), hmm_file)
    docs = []

    def checked(fh, doc):
        docs.append(doc)
        pmmkit.io.write_json(fh, doc)

    for module in (pmmkit.cli, pmmkit.model):
        monkeypatch.setattr(module, "write_json", checked)
    p, d = fig2_params_file, tmp_path
    calls = [
        ["simulate", "--params", p, "--n", 400, "--output", d / "s.csv"],
        ["fit", "--input", d / "s.csv", "--output", d / "m.json"],
        ["forecast", "--model", d / "m.json", "--input", d / "s.csv", "--n", 50, "--k", 2,
         "--horizon-path", "--output", d / "f.csv"],
        ["evaluate", "--model", d / "m.json", "--input", d / "s.csv", "--n-grid", "5",
         "--k-grid", "1,2", "--output", d / "table.csv"],
        ["theoretical-mse", "--preset", "fig3", "--output", d / "c.csv"],
        ["theoretical-mse", "--params", p, "--hmm-params", hmm_file, "--output", d / "o.csv"],
        ["monte-carlo", "--params", p, "--n", 3, "--k", 1, "--reps", 100],
    ]
    for argv in calls:
        assert run_cli(*argv) == 0, capsys.readouterr().err
    # One summary per call, and the fitted model.
    assert len(docs) == len(calls) + 1

    def walk(doc):
        assert not isinstance(doc, tuple), doc
        if isinstance(doc, dict):
            doc = list(doc.values())
        if isinstance(doc, list):
            for item in doc:
                walk(item)

    for doc in docs:
        walk(doc)


def test_lazy_names_are_the_submodule_objects():
    for name in pmmkit.__all__[1:]:
        obj = getattr(pmmkit, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(pmmkit.__all__) <= set(dir(pmmkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        pmmkit.no_such_name


# Imports the CLI in the way each label names, which loads no numpy, then
# imports numpy and prints the thread variables and, where /proc exists,
# the number of threads.
PIN_PROBE = """
import json, os, runpy, sys
how = sys.argv[1]
if how == "numpy-first":
    import numpy
    before = dict(os.environ)
    import pmmkit.cli
    assert dict(os.environ) == before
elif how == "run-module":
    sys.argv = ["pmmkit", "--version"]
    try:
        runpy.run_module("pmmkit.cli", run_name="__main__")
    except SystemExit:
        pass
    print()
else:
    from pmmkit.cli import main
assert how == "numpy-first" or "numpy" not in sys.modules
import numpy
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps({"env": {k: os.environ.get(k) for k in %r}, "threads": threads}))
""" % (THREAD_ENV,)


class TestThreadPin:
    @pytest.mark.parametrize("how", ["run-module", "import-main"])
    def test_unset_variables_pinned_to_one(self, tmp_path, how):
        out = _python(["-c", PIN_PROBE, how], tmp_path)
        assert out.returncode == 0, out.stderr
        probe = json.loads(out.stdout.splitlines()[-1])
        assert probe["env"] == dict.fromkeys(THREAD_ENV, "1")
        assert probe["threads"] in (None, 1)

    def test_user_choice_kept(self, tmp_path):
        out = _python(["-c", PIN_PROBE, "import-main"], tmp_path, OMP_NUM_THREADS="2")
        assert out.returncode == 0, out.stderr
        probe = json.loads(out.stdout.splitlines()[-1])
        assert probe["env"] == dict.fromkeys(THREAD_ENV) | {"OMP_NUM_THREADS": "2"}

    def test_import_after_numpy_changes_nothing(self, tmp_path):
        out = _python(["-c", PIN_PROBE, "numpy-first"], tmp_path)
        assert out.returncode == 0, out.stderr
        probe = json.loads(out.stdout.splitlines()[-1])
        assert probe["env"] == dict.fromkeys(THREAD_ENV)

    def test_output_matches_one_openblas_thread(self, tmp_path, fig2_params_file):
        # 2e4 rows are enough for a threaded BLAS to change the last digits.
        runs = {}
        for label, env in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            work = tmp_path / label
            work.mkdir()
            calls = [
                ["simulate", "--params", fig2_params_file, "--n", "20000",
                 "--seed", "3", "--output", "t.csv"],
                ["fit", "--input", "t.csv", "--output", "m.json"],
                ["forecast", "--model", "m.json", "--input", "t.csv",
                 "--n", "20000", "--k", "3", "--output", "f.csv"],
            ]
            stdout = []
            for argv in calls:
                out = _python(["-m", "pmmkit.cli", *map(str, argv)], work, **env)
                assert out.returncode == 0, out.stderr
                stdout.append(out.stdout)
            files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
            runs[label] = (stdout, files)
        assert runs["default"] == runs["one"]
