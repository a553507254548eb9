import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmmkit
from pmmkit import (
    FittedModel,
    PmmParams,
    get_preset,
    hmm_params,
    sample,
    validate,
)
from pmmkit.cli import main
from pmmkit.model import is_hmm, save_params
from pmmkit.pipeline import DetrendModel, StandardizationParams, evaluate
from helpers import FIG2_PARAMS, PRESSURE_PARAMS, quadratic_form_mse, scalar_mse_pmm


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
        assert "seed=-3" in err["message"]
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
            "oracle",
        ],
    )
    def test_invalid_params_fail_with_json_error(
        self, tmp_path, fig2_params_file, capsys, command
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": 1.0, "b": 0, "c": 0, "d": 0, "e": 0}))
        ident = {"mean": 0.0, "std": 1.0}
        bad_model = tmp_path / "model.json"
        bad_model.write_text(
            json.dumps(
                {
                    "params": {"a": 1.0, "b": 0, "c": 0, "d": 0, "e": 0},
                    "x_standardize": ident,
                    "y_standardize": ident,
                }
            )
        )
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
                "forecast", "--params", bad, "--input", data, "--n", 4, "--k", 2,
                "--output", out,
            ],
            "evaluate": [
                "evaluate", "--model", bad_model, "--input", data,
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
            "oracle": ["oracle", "--params", bad, "--input", data, "--n", 4],
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
            fitted.params.astuple(), FIG2_PARAMS.astuple(), atol=0.03
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


class TestForecast:
    def test_oracle_agreement_on_tiny_input(self, tmp_path, fig2_params_file, capsys):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.3, -1.1, 0.7])
        code = run_cli(
            "forecast", "--params", fig2_params_file, "--input", data,
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
            "forecast", "--params", fig2_params_file, "--input", data,
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
            "forecast", "--params", fig2_params_file, "--input", data,
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
            "forecast", "--params", fig2_params_file, "--input", data,
            "--n", 10, "--k", 1,
        )
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["forecast", "oracle"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_rejected(self, tmp_path, fig2_params_file, capsys, command, n):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.1, 0.2, 0.3])
        code = run_cli(
            command, "--params", fig2_params_file, "--input", data,
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
            "forecast", "--params", fig2_params_file, "--input", data,
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
        hmm = FittedModel(
            params=hmm_params(fitted.params.a, fitted.params.b),
            x_standardize=fitted.x_standardize,
            y_standardize=fitted.y_standardize,
        )
        x, y = t.x[3_000:], t.y[3_000:]
        want = ["n,k,mse_hmm,mse_pmm"]
        for n in (5, 20, 50):
            for k in (1, 24, 48):
                mse_h, mse_p = evaluate(hmm, x, y, n, k), evaluate(fitted, x, y, n, k)
                want.append(f"{n},{k},{mse_h:.12e},{mse_p:.12e}")
        assert table.read_text().splitlines() == want

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
}


MISSING = object()
# Edits of a valid fitted-model document that loading must reject, as
# (key path, new value or MISSING, text the message must contain); the
# empty path wraps the whole document in a list.
MALFORMED_MODELS = {
    "list_document": ((), None, "must be a JSON object"),
    "missing_params": (("params",), MISSING, "parameters must be an object"),
    "missing_mean": (("x_standardize", "mean"), MISSING, "x_standardize.mean"),
    "nan_mean": (("y_standardize", "mean"), float("nan"), "y_standardize.mean"),
    "string_std": (("y_standardize", "std"), "abc", "y_standardize.std"),
    "zero_std": (("y_standardize", "std"), 0, "y_standardize.std must be > 0"),
    "negative_std": (("x_standardize", "std"), -1.0, "x_standardize.std must be > 0"),
    "short_theta": (("detrend", "theta"), [1.0] * 4, "detrend.theta"),
    "string_theta": (("detrend", "theta"), [1.0] * 4 + ["x"], "detrend.theta"),
    "unit_period": (("detrend", "periods"), [1.0, 8772.0], "detrend.periods"),
    "scalar_fit_window": (("fit_window",), 5, "fit_window"),
}


def _model_doc(path, value):
    """A valid detrended fitted-model document with one edit applied."""
    doc = FittedModel(
        params=FIG2_PARAMS,
        x_standardize=StandardizationParams(0.0, 1.0),
        y_standardize=StandardizationParams(0.0, 1.0),
        detrend=DetrendModel(theta=np.zeros(5), periods=(24.0, 8772.0), sigma=1.0),
    ).to_json_dict()
    if not path:
        return [doc]
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


class TestMalformedInput:
    @pytest.fixture
    def model_file(self, tmp_path):
        ident = StandardizationParams(0.0, 1.0)
        path = tmp_path / "model.json"
        FittedModel(params=FIG2_PARAMS, x_standardize=ident, y_standardize=ident).save(
            path
        )
        return path

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    @pytest.mark.parametrize("command", ["fit", "forecast", "evaluate"])
    def test_json_error_names_file(self, tmp_path, model_file, capsys, command, case):
        text, detail = MALFORMED_INPUTS[case]
        data = tmp_path / "bad.csv"
        data.write_text(text)
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
        assert "seed=-1" in err["message"]
        assert list(tmp_path.iterdir()) == [fig2_params_file]

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


class TestOracleSubcommand:
    def test_recursive_and_oracle_agree(self, tmp_path, fig2_params_file, capsys):
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(3), [0.3, -1.1, 0.7])
        code = run_cli(
            "oracle", "--params", fig2_params_file, "--input", data,
            "--n", 3, "--k", 2,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["mean"] == pytest.approx(
            payload["recursive"]["mean"], abs=1e-9
        )
        assert payload["oracle"]["variance"] == pytest.approx(
            payload["theoretical_mse"], abs=1e-9
        )

    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    def test_theoretical_mse_matches_scalar_reference(self, tmp_path, capsys, preset):
        p = get_preset(preset).true_params
        params = tmp_path / "params.json"
        save_params(p, params)
        data = tmp_path / "obs.csv"
        write_series_csv(data, np.zeros(12), sample(p, 12, seed=3).y)
        # The oracle conditions the joint law, so n + k stays within its cap.
        for n in (1, 5, 11):
            for k in (0, 1, 5):
                code = run_cli(
                    "oracle", "--params", params, "--input", data,
                    "--n", n, "--k", k,
                )
                assert code == 0
                got = json.loads(capsys.readouterr().out)["theoretical_mse"]
                want = scalar_mse_pmm(p, n, k)
                assert abs(got - want) <= 1e-12 * want


def _python(argv, cwd, **env):
    """A fresh interpreter that imports this pmmkit, run in ``cwd``."""
    src = str(Path(pmmkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        cwd=cwd,
    )


class TestLogLevel:
    ARGV = [
        "-m", "pmmkit.cli", "theoretical-mse", "--preset", "fig2", "--output", "t.csv",
    ]

    def test_unknown_level_is_a_json_error(self, tmp_path):
        out = _python(self.ARGV, tmp_path, PMM_LOG="verbose")
        assert out.returncode == 1
        assert out.stdout == ""
        [line] = out.stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "ValueError"
        assert "PMM_LOG" in error["message"] and "verbose" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_level_name_is_case_insensitive(self, tmp_path):
        out = _python(self.ARGV, tmp_path, PMM_LOG="info")
        assert out.returncode == 0, out.stderr
        assert "wrote t.csv" in out.stderr
        assert (tmp_path / "t.csv").is_file()


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
