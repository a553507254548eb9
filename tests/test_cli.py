import json
import subprocess
import sys

import numpy as np
import pytest

from pmmkit import FittedModel, sample, save_params
from pmmkit.cli import main
from helpers import FIG2_PARAMS, PRESSURE_PARAMS


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

    def test_invalid_params_fail_with_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": 1.0, "b": 0, "c": 0, "d": 0, "e": 0}))
        code = run_cli(
            "simulate", "--params", bad, "--n", 10, "--seed", 0,
            "--output", tmp_path / "t.csv",
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PmmError"
        assert not (tmp_path / "t.csv").exists()


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


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "pmmkit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "pmmkit" in out.stdout
