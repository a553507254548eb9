import numpy as np
import pytest

from pmmkit import (
    FittedModel,
    detrend,
    estimate_params,
    evaluate,
    fit_detrend,
    hmm_params,
    read_series_csv,
    sample,
    theoretical_mse_pmm,
    validate,
)
from pmmkit.io import read_columns
from pmmkit.pipeline import (
    StandardizationParams,
    evaluate_errors,
    evaluate_grid,
    seasonal_values,
)
from helpers import FIG2_PARAMS, dictreader_columns


def harmonic(i, period):
    return 2.0 * np.pi * i / period


class TestFitDetrend:
    def test_constant_series(self):
        d = fit_detrend(np.full(300, 4.5))
        assert d.theta[0] == pytest.approx(4.5, abs=1e-10)
        np.testing.assert_allclose(d.theta[1:], np.zeros(4), atol=1e-10)

    def test_pure_cosine_recovery(self):
        i = np.arange(1, 481)
        y = 2.0 * np.cos(harmonic(i, 24))
        d = fit_detrend(y, periods=(24, 8772))
        assert d.theta[1] == pytest.approx(2.0, abs=1e-8)
        assert np.max(np.abs(np.delete(d.theta, 1))) < 1e-8

    def test_noisy_slow_harmonic_recovery(self):
        rng = np.random.default_rng(71)
        i = np.arange(1, 17545)
        y = rng.standard_normal(17544) + 0.7 * np.sin(harmonic(i, 8772))
        d = fit_detrend(y, periods=(24, 8772))
        # coefficient standard error ~ sqrt(2/N) for unit noise
        assert d.theta[4] == pytest.approx(0.7, abs=3.2 * np.sqrt(2 / 17544))

    def test_sigma_recorded(self):
        y = np.sin(harmonic(np.arange(1, 200), 24)) + 3.0
        d = fit_detrend(y)
        assert d.sigma == pytest.approx(np.var(y, ddof=1))

    def test_aliasing_period_rejected(self):
        y = np.arange(120, dtype=float)
        with pytest.raises(ValueError):
            fit_detrend(y, periods=(2.0, 8772.0))  # sin column identically 0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_detrend(np.ones(5))

    def test_sub_sample_period_rejected(self):
        with pytest.raises(ValueError):
            fit_detrend(np.ones(100), periods=(0.5, 8772.0))


class TestDetrend:
    def test_constant_to_zero(self):
        y = np.full(200, -1.2)
        d = fit_detrend(y)
        np.testing.assert_allclose(detrend(y, d), np.zeros(200), atol=1e-10)

    def test_pure_harmonic_to_zero(self):
        i = np.arange(1, 301)
        y = 0.5 * np.sin(harmonic(i, 24)) - 1.5 * np.cos(harmonic(i, 8772))
        d = fit_detrend(y)
        np.testing.assert_allclose(detrend(y, d), np.zeros(300), atol=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(72)
        y = rng.standard_normal(400) + np.cos(harmonic(np.arange(1, 401), 24))
        d = fit_detrend(y)
        restored = detrend(y, d) + seasonal_values(d, 0, 400)
        np.testing.assert_allclose(restored, y, atol=1e-12)

    def test_slice_phase_anchoring(self):
        rng = np.random.default_rng(73)
        y = rng.standard_normal(500) + np.cos(harmonic(np.arange(1, 501), 24))
        d = fit_detrend(y)
        whole = detrend(y, d)
        part = detrend(y[100:200], d, start_index=100)
        np.testing.assert_allclose(part, whole[100:200], atol=1e-12)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(74)
        for _ in range(5):
            y = rng.standard_normal(1000) + 0.3 * np.sin(
                harmonic(np.arange(1, 1001), 24)
            )
            d = fit_detrend(y)
            residual = detrend(y, d)
            from pmmkit.pipeline import _design_matrix

            design = _design_matrix(0, 1000, d.periods)
            for col in design.T:
                inner = abs(col @ residual)
                assert inner <= 1e-8 * np.linalg.norm(col) * np.linalg.norm(residual)


class TestEstimate:
    def test_recovers_hmm_within_sampling_error(self):
        t = sample(hmm_params(0.9, -0.2), 100_000, seed=75)
        fitted = estimate_params(t.x, t.y)
        np.testing.assert_allclose(
            fitted.params.astuple(), (0.9, -0.2, 0.036, -0.18, -0.18), atol=0.02
        )
        assert not fitted.repaired

    def test_simulate_estimate_round_trip(self):
        t = sample(FIG2_PARAMS, 100_000, seed=76)
        fitted = estimate_params(t.x, t.y)
        np.testing.assert_allclose(
            fitted.params.astuple(), FIG2_PARAMS.astuple(), atol=0.03
        )
        re_sim = sample(fitted.params, 100_000, seed=77)
        refit = estimate_params(re_sim.x, re_sim.y)
        np.testing.assert_allclose(
            refit.params.astuple(), FIG2_PARAMS.astuple(), atol=0.03
        )

    def test_standardized_window_moments(self):
        t = sample(FIG2_PARAMS, 5000, seed=78)
        fitted = estimate_params(t.x, t.y)
        xs = fitted.x_standardize.apply(t.x)
        assert abs(xs.mean()) <= 1e-10
        assert xs.var(ddof=1) == pytest.approx(1.0, abs=1e-10)

    def test_inadmissible_estimate_is_repaired(self):
        # A perfectly alternating pair gives |lag-1 covariance| > 1.
        x = np.tile([1.0, -1.0], 200)
        fitted = estimate_params(x, x.copy())
        assert fitted.repaired
        assert validate(fitted.params).ok

    def test_near_unit_root_input_stays_usable(self):
        # Random-walk-like data with a nearly deterministic channel pushes
        # the estimate toward the admissibility boundary; the fitted model
        # must still validate and drive an evaluation.
        rng = np.random.default_rng(85)
        x = np.cumsum(rng.standard_normal(4000))
        y = x + 0.05 * rng.standard_normal(4000)
        fitted = estimate_params(x, y)
        assert validate(fitted.params).ok
        assert np.isfinite(evaluate(fitted, x[2000:], y[2000:], 20, 5))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            estimate_params(np.ones(100), np.arange(100.0))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            estimate_params(np.ones(10), np.ones(10))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_params(np.ones(50), np.ones(51))


class TestEvaluate:
    def test_true_forecaster_matches_theory(self):
        t = sample(FIG2_PARAMS, 30_000, seed=79)
        ident = StandardizationParams(0.0, 1.0)
        model = FittedModel(
            params=FIG2_PARAMS, x_standardize=ident, y_standardize=ident
        )
        n, k = 5, 2
        mse = evaluate(model, t.x, t.y, n, k)
        theory = theoretical_mse_pmm(FIG2_PARAMS, n, k)
        errors = evaluate_errors(model, t.x, t.y, n, k)
        # overlapping windows correlate; allow a generous multiple of the
        # naive standard error
        naive_se = errors.std(ddof=1) / np.sqrt(errors.size)
        assert abs(mse - theory) < 8 * naive_se

    def test_pmm_beats_hmm_restriction_on_pmm_data(self):
        t = sample(FIG2_PARAMS, 20_000, seed=80)
        ident = StandardizationParams(0.0, 1.0)
        pmm = FittedModel(params=FIG2_PARAMS, x_standardize=ident, y_standardize=ident)
        hmm = FittedModel(
            params=hmm_params(0.9, -0.2), x_standardize=ident, y_standardize=ident
        )
        for n, k in ((5, 1), (10, 3)):
            err_p = evaluate_errors(pmm, t.x, t.y, n, k)
            err_h = evaluate_errors(hmm, t.x, t.y, n, k)
            diff = err_h - err_p
            assert diff.mean() >= -3 * diff.std(ddof=1) / np.sqrt(diff.size)

    def test_window_count(self):
        ident = StandardizationParams(0.0, 1.0)
        model = FittedModel(params=FIG2_PARAMS, x_standardize=ident, y_standardize=ident)
        x = np.zeros(20)
        y = np.zeros(20)
        assert evaluate_errors(model, x, y, 5, 2).size == 14

    def test_grid_bit_identical_to_per_cell_evaluate(self):
        t = sample(FIG2_PARAMS, 5_000, seed=82)
        model = FittedModel(
            params=FIG2_PARAMS,
            x_standardize=StandardizationParams(0.1, 1.3),
            y_standardize=StandardizationParams(-0.2, 0.9),
        )
        grid = evaluate_grid(model, t.x, t.y, [5, 20, 50, 5], [1, 24, 48])
        assert list(grid) == [(n, k) for n in (5, 20, 50) for k in (1, 24, 48)]
        for (n, k), mse in grid.items():
            assert mse == evaluate(model, t.x, t.y, n, k)

    def test_insufficient_data_rejected(self):
        ident = StandardizationParams(0.0, 1.0)
        model = FittedModel(params=FIG2_PARAMS, x_standardize=ident, y_standardize=ident)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros(6), np.zeros(6), 5, 2)


class TestSerialization:
    def test_round_trip_with_detrend(self, tmp_path):
        rng = np.random.default_rng(81)
        y = rng.standard_normal(300) + np.sin(harmonic(np.arange(1, 301), 24))
        d = fit_detrend(y)
        t = sample(FIG2_PARAMS, 300, seed=82)
        fitted = estimate_params(t.x, t.y, detrend_model=d, fit_window=(0, 300))
        path = tmp_path / "model.json"
        fitted.save(path)
        loaded = FittedModel.load(path)
        assert loaded.params == fitted.params
        np.testing.assert_allclose(loaded.detrend.theta, d.theta, atol=0)
        assert loaded.detrend.periods == d.periods
        assert loaded.fit_window == (0, 300)
        assert loaded.x_standardize == fitted.x_standardize

    def test_round_trip_without_detrend(self, tmp_path):
        t = sample(FIG2_PARAMS, 100, seed=83)
        fitted = estimate_params(t.x, t.y)
        path = tmp_path / "model.json"
        fitted.save(path)
        loaded = FittedModel.load(path)
        assert loaded.detrend is None
        assert loaded.params == fitted.params


def _seeded_rows(seed: int, count: int):
    rng = np.random.default_rng(seed)
    x = 5.0 + 2.0 * rng.standard_normal(count)
    y = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 9, size=count)
    return [(i + 1, f"{xv:.17g}", f"{yv:.17g}") for i, (xv, yv) in enumerate(zip(x, y))]


def _csv_text(header: str, rows, fmt: str = "{0},{1},{2}", newline: str = "\n") -> str:
    lines = [header] + [fmt.format(*row) for row in rows]
    return newline.join(lines) + newline


# Each case writes the same seeded values in one of the formats the reader
# accepts; the row-by-row DictReader reader is the reference.
READER_INPUTS = {
    "evaluate_sized": lambda rows: _csv_text("t,x,y", rows),
    "crlf": lambda rows: _csv_text("t,x,y", rows[:500], newline="\r\n"),
    "header_case_and_spaces": lambda rows: _csv_text(" T , X ,Y ", rows[:500]),
    "quoted_numbers": lambda rows: _csv_text(
        '"t","x","y"', rows[:500], fmt='{0},"{1}","{2}"'
    ),
    "blank_lines": lambda rows: _csv_text("t,x,y", rows[:500], fmt="\n{0},{1},{2}\n"),
    "extra_and_timestamp_columns": lambda rows: _csv_text(
        "timestamp,y,note,x,t", rows[:500],
        fmt="2021-01-01T00:00+{0}h,{2},a note,{1},{0}",
    ),
}

# (file text, what the error message must contain besides the path).
REJECTED_INPUTS = {
    "short_row": ("t,x,y\n1,1.0,2.0\n2,3.0\n3,1.0,2.0\n", "column y at data row 2"),
    "empty_field": ("t,x,y\n1,1.0,2.0\n2,3.0,\n", "'' to float in column y at data row 2"),
    "non_numeric_field": (
        "t,x,y\n1,1.0,2.0\n2,3.0,abc\n", "'abc' to float in column y at data row 2"
    ),
    "hash_field": ("t,x,y\n1,1.0,2.0\n2,#,2.0\n", "'#' to float in column x at data row 2"),
    "non_numeric_after_blank_line": (
        "t,x,y\n1,1.0,2.0\n\n\n2,3.0,abc\n", "'abc' to float in column y at data row 2"
    ),
    "short_row_after_blank_line": (
        "t,x,y\n\n1,1.0,2.0\n\n2,3.0\n", "column y at data row 2"
    ),
    "nan": ("t,x,y\n1,1.0,2.0\n2,3.0,nan\n", "column y at data row 2"),
    "inf": ("t,x,y\n1,1.0,2.0\n2,inf,2.0\n", "column x at data row 2"),
    "minus_inf": ("t,x,y\n1,1.0,2.0\n\n2,3.0,-inf\n", "column y at data row 2"),
    "header_only": ("t,x,y\n", "no data rows"),
    "blank_lines_only": ("t,x,y\n\n\n", "no data rows"),
    "empty_file": ("", "missing CSV header"),
    "missing_column": ("t,x,z\n1,1.0,2.0\n", "need column(s) y"),
}


class TestCsvReader:
    def test_reads_with_timestamp_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "timestamp,x,y\n2021-01-01T00:00,1.5,-0.5\n2021-01-01T01:00,2.5,0.5\n"
        )
        x, y = read_series_csv(path)
        np.testing.assert_array_equal(x, [1.5, 2.5])
        np.testing.assert_array_equal(y, [-0.5, 0.5])

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,z\n1,2\n")
        with pytest.raises(ValueError):
            read_series_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError):
            read_series_csv(path)

    @pytest.mark.parametrize("case", sorted(READER_INPUTS))
    def test_bit_identical_to_dictreader(self, tmp_path, case):
        path = tmp_path / "data.csv"
        path.write_bytes(READER_INPUTS[case](_seeded_rows(91, 3_000)).encode())
        want_x, want_y = dictreader_columns(path, ("x", "y"))
        x, y = read_series_csv(path)
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y)
        (y_only,) = read_columns(path, ("y",))
        assert np.array_equal(y_only, dictreader_columns(path, ("y",))[0])
        assert x.flags.c_contiguous and y.flags.c_contiguous

    @pytest.mark.parametrize("case", sorted(REJECTED_INPUTS))
    def test_rejected_with_path_named(self, tmp_path, case):
        text, detail = REJECTED_INPUTS[case]
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert detail in message
