"""End-to-end acceptance suite.

One test per criterion, each at its stated tolerance; the conftest hook
prints an ACCEPTANCE pass/fail line per test.  Reference MSE values from
the original pressure/soil experiments appear as fixture comments only:
those absolute numbers depend on a dataset that is not shipped, so the
substitute checks assert the orderings on synthetic data instead.
"""

import time

import numpy as np
import pytest

from pmmkit import (
    estimate_params,
    forecast,
    hmm_params,
    markov_form,
    monte_carlo_mse,
    run_filter,
    sample,
    theoretical_mse_hmm_under_pmm,
    theoretical_mse_pmm,
)
from pmmkit.cli import main as cli_main
from pmmkit.error_analysis import filter_coefficients, mse_sweep, observation_covariance
from pmmkit.filtering import filter_init, filter_step
from pmmkit.oracle import oracle_forecast
from pmmkit.pipeline import (
    StandardizationParams,
    _window_errors,
    detrend,
    fit_detrend,
)
from pmmkit.presets import get_preset
from test_error_analysis import direct_hmm_mse
from helpers import (
    PRESSURE_PARAMS,
    random_hmm,
    random_valid_params,
    scalar_hmm_kalman,
)

pytestmark = pytest.mark.acceptance

FIG2 = get_preset("fig2")
FIG4 = get_preset("fig4")


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        p = random_valid_params(rng)
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 13 - n))
        ys = rng.standard_normal(n)
        m = markov_form(p)
        state = run_filter(m, ys)
        o_mean, o_var = oracle_forecast(p, ys, 0)
        assert abs(state.mean - o_mean) < 1e-9
        assert abs(state.variance - o_var) < 1e-9
        f_mean, f_var = oracle_forecast(p, ys, k)
        result = forecast(state, m, k)
        assert abs(result.mean - f_mean) < 1e-9
        assert abs(result.variance - f_var) < 1e-9
    assert time.perf_counter() - started < 10.0


def test_criterion_02_hmm_degeneracy():
    rng = np.random.default_rng(102)
    for _ in range(100):
        a, b = rng.uniform(-0.95, 0.95, size=2)
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, 8))
        ys = rng.standard_normal(n)
        m = markov_form(hmm_params(a, b))
        state = run_filter(m, ys)
        ref_m, ref_v, ref_fm, ref_fv = scalar_hmm_kalman(a, b, ys, k)
        assert abs(state.mean - ref_m) < 1e-12
        assert abs(state.variance - ref_v) < 1e-12
        result = forecast(state, m, k)
        assert abs(result.mean - ref_fm) < 1e-12
        assert abs(result.variance - ref_fv) < 1e-12


def _filtering_ratio_curves(preset):
    curves = mse_sweep(
        preset.true_params, preset.hmm_reference, preset.n_values, [0]
    )
    pmm = np.array([v for _, v in curves[0].points])
    hmm = np.array([v for _, v in curves[1].points])
    return pmm, hmm


def test_criterion_03_filtering_gap_reaches_five():
    started = time.perf_counter()
    pmm, hmm = _filtering_ratio_curves(FIG2)
    assert pmm.size == 100
    assert np.max(hmm / pmm) >= 5.0
    # monotone-converging at figure resolution: the misspecified curve
    # creeps back up to its limit by ~1e-7 per step after n ~ 40, which is
    # invisible on any plot; both curves must otherwise decrease and both
    # tails must be flat
    assert np.all(np.diff(pmm) <= 1e-9)
    assert np.all(np.diff(hmm) <= 1e-6)
    assert np.ptp(pmm[-20:]) < 1e-5
    assert np.ptp(hmm[-20:]) < 1e-5
    assert time.perf_counter() - started < 5.0


def test_criterion_04_filtering_gap_reaches_ten():
    started = time.perf_counter()
    pmm, hmm = _filtering_ratio_curves(FIG4)
    assert pmm.size == 200
    assert np.max(hmm / pmm) >= 10.0
    assert time.perf_counter() - started < 5.0


def test_criterion_05_prediction_gain_at_single_observation():
    preset = get_preset("fig3")
    gains = []
    for k in preset.k_values:
        mse_p = theoretical_mse_pmm(preset.true_params, 1, k)
        mse_h = theoretical_mse_hmm_under_pmm(
            preset.true_params, preset.hmm_reference, 1, k
        )
        gains.append((mse_h - mse_p) / mse_h)
    assert 0.03 <= max(gains) <= 0.25


def test_criterion_06_monte_carlo_calibration():
    started = time.perf_counter()
    reps = 100_000
    for seed_offset, (n, k) in enumerate(((5, 1), (10, 5), (20, 10))):
        theory_pmm = theoretical_mse_pmm(FIG2.true_params, n, k)
        mse, se = monte_carlo_mse(
            FIG2.true_params, FIG2.true_params, n, k, reps, seed=600 + seed_offset
        )
        assert abs(mse - theory_pmm) < 3 * se
        theory_hmm = theoretical_mse_hmm_under_pmm(
            FIG2.true_params, FIG2.hmm_reference, n, k
        )
        mse, se = monte_carlo_mse(
            FIG2.true_params, FIG2.hmm_reference, n, k, reps, seed=700 + seed_offset
        )
        assert abs(mse - theory_hmm) < 3 * se
    assert time.perf_counter() - started < 60.0


def test_criterion_07_pythagoras_identity():
    rng = np.random.default_rng(107)
    for _ in range(100):
        p_true = random_valid_params(rng)
        p_hmm = random_hmm(rng)
        n = int(rng.integers(1, 12))
        k = int(rng.integers(0, 13 - n))
        decomposed = theoretical_mse_hmm_under_pmm(p_true, p_hmm, n, k)
        assert abs(decomposed - direct_hmm_mse(p_true, p_hmm, n, k)) < 1e-9


def test_criterion_08_pipeline_round_trip():
    truth = FIG2.true_params
    train = sample(truth, 100_000, seed=800)
    fitted = estimate_params(train.x, train.y)
    np.testing.assert_allclose(
        fitted.params, truth, atol=0.03
    )
    test_set = sample(truth, 30_000, seed=801)
    grid = ([5, 20, 50], [10, 24, 48])
    for n, k, err_h, err_p in _window_errors(fitted, test_set.x, test_set.y, *grid):
        diff = err_h - err_p
        stderr = diff.std(ddof=1) / np.sqrt(diff.size)
        assert diff.mean() >= -3 * stderr, (n, k)


def test_criterion_09_synthetic_table_and_pipeline(tmp_path, capsys):
    # Reference cells from the original experiments (dataset not shipped):
    #   pressure, n=50, k=48: HMM 1.15, PMM 0.64
    #   soil,     n=50, k=72: HMM 1.05, PMM 0.60
    # Substitute check: the evaluate table on synthetic data simulated in
    # the same regime (the fitted pressure-experiment parameters, where the
    # theoretical gap is +0.15..+0.56 in every cell) must order
    # PMM <= HMM in every cell, and the whole pipeline must run end to end
    # on a schema-conforming user CSV.
    truth = PRESSURE_PARAMS
    t = sample(truth, 60_000, seed=900)
    season = 2.5 * np.cos(2 * np.pi * np.arange(1, 60_001) / 24)
    fit_csv = tmp_path / "train.csv"
    with open(fit_csv, "w") as fh:
        fh.write("timestamp,x,y\n")
        for i in range(30_000):
            fh.write(f"row{i},{t.x[i]},{t.y[i] + season[i]}\n")
    test_csv = tmp_path / "test.csv"
    with open(test_csv, "w") as fh:
        fh.write("timestamp,x,y\n")
        for i in range(30_000, 60_000):
            fh.write(f"row{i},{t.x[i]},{t.y[i] + season[i]}\n")
    model_path = tmp_path / "model.json"
    assert cli_main(
        [
            "fit", "--input", str(fit_csv), "--output", str(model_path),
            "--detrend", "--periods", "24,8772",
        ]
    ) == 0
    table_path = tmp_path / "table.csv"
    assert cli_main(
        [
            "evaluate", "--model", str(model_path), "--input", str(test_csv),
            "--start-index", "30000",
            "--n-grid", "5,20,50", "--k-grid", "10,24,48",
            "--output", str(table_path),
        ]
    ) == 0
    rows = table_path.read_text().strip().splitlines()
    assert rows[0] == "n,k,mse_hmm,mse_pmm"
    assert len(rows) == 10
    for row in rows[1:]:
        _, _, mse_h, mse_p = row.split(",")
        assert float(mse_p) <= float(mse_h)
    assert cli_main(
        [
            "forecast", "--model", str(model_path), "--input", str(test_csv),
            "--start-index", "30000", "--n", "50", "--k", "24",
        ]
    ) == 0
    capsys.readouterr()


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(110)
    cases = 0

    # stationarity fixed point (150)
    for _ in range(150):
        m = markov_form(random_valid_params(rng))
        A, marginal = np.array(m.A), np.array(m.marginal)
        np.testing.assert_allclose(A @ marginal @ A.T + m.Q, marginal, atol=1e-10)
        cases += 1

    # lag-one observation covariance equals c (150)
    for _ in range(150):
        p = random_valid_params(rng)
        m = markov_form(p)
        cov = observation_covariance(m, m.b, 2)
        assert abs(cov[0, 1] - p.c) < 1e-12
        cases += 1

    # detrend residuals orthogonal to the design (50 series)
    from pmmkit.pipeline import _design_matrix

    for _ in range(50):
        y = rng.standard_normal(400) + rng.uniform(-2, 2) * np.sin(
            2 * np.pi * np.arange(1, 401) / 24
        )
        d = fit_detrend(y, periods=(24, 8772))
        residual = detrend(y, d)
        design = _design_matrix(0, 400, d.periods)
        for col in design.T:
            assert abs(col @ residual) <= 1e-8 * np.linalg.norm(
                col
            ) * np.linalg.norm(residual)
        cases += 1

    # standardization moments (100 windows)
    for _ in range(100):
        values = rng.standard_normal(200) * rng.uniform(0.5, 4) + rng.uniform(-5, 5)
        stats = StandardizationParams(
            float(values.mean()), float(values.std(ddof=1))
        )
        standardized = stats.apply(values)
        assert abs(standardized.mean()) <= 1e-10
        assert abs(standardized.var(ddof=1) - 1.0) <= 1e-10
        cases += 1

    # coefficient/filter duality on every prefix (100 models)
    for _ in range(100):
        p = random_valid_params(rng)
        m = markov_form(p)
        ys = rng.standard_normal(8)
        state = filter_init(m, ys[0])
        for t in range(1, 9):
            if t > 1:
                state = filter_step(state, m, ys[t - 1])
            coeffs = filter_coefficients(m, t)
            assert abs(coeffs @ ys[:t] - state.mean) < 1e-10
        cases += 1

    assert cases >= 500
