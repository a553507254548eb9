import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmmkit import (
    FittedModel,
    estimate_params,
    hmm_params,
    sample,
    theoretical_mse_pmm,
    validate,
)
from pmmkit import pipeline
from pmmkit.forecasting import MAX_INDEX
from pmmkit.io import COMPRESSED_SUFFIXES, read_columns
from pmmkit.model import save_params
from pmmkit.pipeline import (
    REPAIR_TOL,
    StandardizationParams,
    detrend,
    _window_errors,
    evaluate,
    evaluate_grid,
    fit_detrend,
    read_series_csv,
    seasonal_values,
)
from helpers import (
    FIG2_PARAMS,
    FIG4_PARAMS,
    dictreader_columns,
    single_window_errors,
    stacked_design_matrix,
)


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

    @pytest.mark.parametrize(
        "periods", [(np.nan, 24.0), (24.0, np.inf), (np.inf, np.inf), (-np.inf, 24.0)]
    )
    def test_non_finite_period_rejected(self, periods):
        with pytest.raises(ValueError, match="finite"):
            fit_detrend(np.arange(100, dtype=float), periods=periods)


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


class TestDesignMatrix:
    @pytest.mark.parametrize("periods", [(24.0, 8772.0), (365.25, 7.5)])
    @pytest.mark.parametrize("start", [0, 150_000, 10**9, MAX_INDEX - 300_000])
    def test_bit_identical_to_stacked_columns(self, start, periods):
        design = pipeline._design_matrix(start, 300_000, periods)
        assert np.array_equal(design, stacked_design_matrix(start, 300_000, periods))
        assert design.flags.c_contiguous


class TestEstimate:
    def test_recovers_hmm_within_sampling_error(self):
        t = sample(hmm_params(0.9, -0.2), 100_000, seed=75)
        fitted = estimate_params(t.x, t.y)
        np.testing.assert_allclose(
            fitted.params, (0.9, -0.2, 0.036, -0.18, -0.18), atol=0.02
        )
        assert not fitted.repaired

    def test_simulate_estimate_round_trip(self):
        t = sample(FIG2_PARAMS, 100_000, seed=76)
        fitted = estimate_params(t.x, t.y)
        np.testing.assert_allclose(
            fitted.params, FIG2_PARAMS, atol=0.03
        )
        re_sim = sample(fitted.params, 100_000, seed=77)
        refit = estimate_params(re_sim.x, re_sim.y)
        np.testing.assert_allclose(
            refit.params, FIG2_PARAMS, atol=0.03
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

    def test_repair_takes_the_largest_admissible_factor(self, monkeypatch):
        # Admissible below a factor of about 0.6236 only, so the bisection
        # shrinks its upper end too (the alternating pair above never does).
        raw = FIG2_PARAMS._replace(e=1.2)
        monkeypatch.setattr(pipeline, "empirical_covariances", lambda x, y: raw)
        rng = np.random.default_rng(86)
        fitted = estimate_params(rng.standard_normal(100), rng.standard_normal(100))
        assert fitted.repaired
        assert validate(fitted.params).ok
        factor = fitted.params.e / raw.e
        assert factor == pytest.approx(0.6236, abs=5e-5)
        assert fitted.params == pytest.approx(raw.scaled(factor), rel=1e-15)
        assert not validate(raw.scaled(factor + 2 * REPAIR_TOL)).ok

    def test_near_unit_root_input_stays_usable(self):
        # Random-walk-like data with a nearly deterministic channel pushes
        # the estimate toward the admissibility boundary; the fitted model
        # must still validate and drive an evaluation.
        rng = np.random.default_rng(85)
        x = np.cumsum(rng.standard_normal(4000))
        y = x + 0.05 * rng.standard_normal(4000)
        fitted = estimate_params(x, y)
        assert validate(fitted.params).ok
        assert np.isfinite(evaluate(fitted, x[2000:], y[2000:], 20, 5)).all()

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
        model = FittedModel(FIG2_PARAMS)
        n, k = 5, 2
        _, mse = evaluate(model, t.x, t.y, n, k)
        theory = theoretical_mse_pmm(FIG2_PARAMS, n, k)
        [(_, _, _, errors)] = _window_errors(model, t.x, t.y, [n], [k])
        # overlapping windows correlate; allow a generous multiple of the
        # naive standard error
        naive_se = errors.std(ddof=1) / np.sqrt(errors.size)
        assert abs(mse - theory) < 8 * naive_se

    def test_pmm_beats_hmm_restriction_on_pmm_data(self):
        t = sample(FIG2_PARAMS, 20_000, seed=80)
        # The restriction of FIG2_PARAMS is hmm_params(0.9, -0.2).
        pmm = FittedModel(FIG2_PARAMS)
        for n, k in ((5, 1), (10, 3)):
            [(_, _, err_h, err_p)] = _window_errors(pmm, t.x, t.y, [n], [k])
            diff = err_h - err_p
            assert diff.mean() >= -3 * diff.std(ddof=1) / np.sqrt(diff.size)

    def test_window_count(self):
        model = FittedModel(FIG2_PARAMS)
        x = np.zeros(20)
        y = np.zeros(20)
        [(_, _, err_h, err_p)] = _window_errors(model, x, y, [5], [2])
        assert err_h.size == err_p.size == 14

    def test_grid_bit_identical_to_per_cell_evaluate(self):
        t = sample(FIG2_PARAMS, 5_000, seed=82)
        model = FittedModel(
            params=FIG2_PARAMS,
            x_standardize=StandardizationParams(0.1, 1.3),
            y_standardize=StandardizationParams(-0.2, 0.9),
        )
        # Each cell's one-point grid against the shared grid.
        grid = evaluate_grid(model, t.x, t.y, [5, 20, 50], [0, 1, 24, 48])
        assert list(grid) == [(n, k) for n in (5, 20, 50) for k in (0, 1, 24, 48)]
        for (n, k), mse in grid.items():
            assert mse == evaluate(model, t.x, t.y, n, k)

    def test_grid_checked_once_per_axis(self):
        # The smallest n and k and the longest window stand for every cell:
        # O(|n| + |k|) checks, not one per cell.
        class Counted(list):
            passes = 0

            def __iter__(self):
                Counted.passes += 1
                return super().__iter__()

        model = FittedModel(FIG2_PARAMS)
        n_values, k_values = Counted(range(1, 201)), Counted(range(201))
        with pytest.raises(
            ValueError,
            match=r"^length of x_test \(longest window n=200, k=200\) must be >= 400, got 300$",
        ):
            evaluate_grid(model, np.zeros(300), np.zeros(300), n_values, k_values)
        assert Counted.passes <= 4

    def test_insufficient_data_rejected(self):
        model = FittedModel(FIG2_PARAMS)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros(6), np.zeros(6), 5, 2)

    def test_work_bound_applies_to_library_calls(self, monkeypatch):
        model = FittedModel(FIG2_PARAMS)
        y = np.linspace(-1.0, 1.0, 60)
        # Filter means 5 * 56, errors 55 + 53 windows.
        work = 5 * 56 + 55 + 53
        monkeypatch.setattr(pipeline, "MAX_EVALUATE_WORK", work)
        assert len(evaluate_grid(model, y, y, [5], [1, 3])) == 2
        monkeypatch.setattr(pipeline, "MAX_EVALUATE_WORK", work - 1)
        with pytest.raises(
            ValueError,
            match=f"^steps of n_values \\(1 values\\) by k_values \\(2 values\\) on 60 rows "
                  f"must be <= {work - 1}, got {work}$",
        ):
            evaluate_grid(model, y, y, [5], [1, 3])

    def test_work_bound_value(self):
        assert pipeline.MAX_EVALUATE_WORK == 2 * 10**9


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_detrended(tmp_path):
    model = FittedModel.load(GOLDEN / "model.json")
    x, y = read_series_csv(GOLDEN / "series.csv")
    return model, x[12:], detrend(y[12:], model.detrend, start_index=12)


def _seeded_scaled(tmp_path):
    model = FittedModel(
        params=FIG4_PARAMS,
        x_standardize=StandardizationParams(0.3, 1.7),
        y_standardize=StandardizationParams(-0.2, 0.8),
    )
    t = sample(FIG4_PARAMS, 3_000, seed=87)
    return model, 0.3 + 1.7 * t.x, -0.2 + 0.8 * t.y


def _bare_parameter_file(tmp_path):
    save_params(FIG2_PARAMS, tmp_path / "params.json")
    return (FittedModel.load(tmp_path / "params.json"), *read_series_csv(GOLDEN / "series.csv"))


class TestOnePass:
    """Both forecasters in one pass against two one-forecaster passes of the
    path it replaced (``helpers.single_window_errors``), bit for bit."""

    @pytest.mark.parametrize(
        "case", [_golden_detrended, _seeded_scaled, _bare_parameter_file],
        ids=["golden-detrended", "seeded-scaled", "bare-parameter-file"],
    )
    def test_equals_two_single_forecaster_passes(self, tmp_path, case):
        model, x, y = case(tmp_path)
        p = model.params
        restriction = model._replace(params=hmm_params(p.a, p.b))
        grid = ([1, 5, 20, 50], [0, 1, 6, 24])
        pairs = zip(
            single_window_errors(restriction, x, y, *grid),
            single_window_errors(model, x, y, *grid),
        )
        table = evaluate_grid(model, x, y, *grid)
        assert list(table) == [(n, k) for n in grid[0] for k in grid[1]]
        for (n, k, e_hmm, e_pmm), (want_h, want_p) in zip(
            _window_errors(model, x, y, *grid), pairs, strict=True
        ):
            assert (n, k) == want_h[:2] == want_p[:2]
            assert np.array_equal(e_hmm, want_h[2]) and np.array_equal(e_pmm, want_p[2])
            assert table[n, k] == (float(want_h[2].mean()), float(want_p[2].mean()))


class TestSerialization:
    def test_round_trip_with_detrend(self, tmp_path):
        rng = np.random.default_rng(81)
        y = rng.standard_normal(300) + np.sin(harmonic(np.arange(1, 301), 24))
        d = fit_detrend(y)
        t = sample(FIG2_PARAMS, 300, seed=82)
        fitted = estimate_params(t.x, t.y)._replace(detrend=d, fit_window=(0, 300))
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

    def test_bare_parameter_file_is_an_identity_model(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(FIG2_PARAMS, path)
        loaded = FittedModel.load(path)
        assert loaded == FittedModel(FIG2_PARAMS)
        assert loaded.x_standardize == loaded.y_standardize == StandardizationParams(0.0, 1.0)
        assert (loaded.detrend, loaded.fit_window, loaded.repaired) == (None, None, False)

    # Series of any scale: past about 1e154 the squared deviations overflow
    # and estimation must refuse the series rather than save an infinity.
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        pairs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=30, max_size=60),
        x_exp=st.integers(-300, 300),
        y_exp=st.integers(-300, 300),
        detrended=st.booleans(),
    )
    def test_every_estimate_survives_save_and_load(
        self, tmp_path_factory, pairs, x_exp, y_exp, detrended
    ):
        x = 10.0**x_exp * np.array([v for v, _ in pairs])
        y = 10.0**y_exp * np.array([v for _, v in pairs])
        try:
            d = fit_detrend(y, (5.0, 12.0)) if detrended else None
            fitted = estimate_params(x, y if d is None else detrend(y, d))._replace(
                detrend=d, fit_window=(0, x.size)
            )
        except ValueError as exc:
            assert "not finite" in str(exc) or "zero-variance" in str(exc)
            return
        path = tmp_path_factory.mktemp("model") / "model.json"
        fitted.save(path)
        loaded = FittedModel.load(path)
        assert loaded.params == fitted.params
        assert loaded.x_standardize == fitted.x_standardize
        assert loaded.y_standardize == fitted.y_standardize
        assert (loaded.fit_window, loaded.repaired) == (fitted.fit_window, fitted.repaired)
        if d is None:
            assert loaded.detrend is None
        else:
            assert np.array_equal(loaded.detrend.theta, d.theta)
            assert (loaded.detrend.periods, loaded.detrend.sigma) == (d.periods, d.sigma)


def _seeded_rows(seed: int, count: int):
    rng = np.random.default_rng(seed)
    x = 5.0 + 2.0 * rng.standard_normal(count)
    y = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 9, size=count)
    return [(i + 1, f"{xv:.17g}", f"{yv:.17g}") for i, (xv, yv) in enumerate(zip(x, y))]


def _csv_text(header: str, rows, fmt: str = "{0},{1},{2}", newline: str = "\n") -> str:
    lines = [header] + [fmt.format(*row) for row in rows]
    return newline.join(lines) + newline


# Each case writes seeded values in one of the formats the reader accepts;
# the row-by-row DictReader reader is the reference.
READER_INPUTS = {
    "evaluate_sized": lambda rows: _csv_text("t,x,y", rows),
    # Many of np.loadtxt's read blocks, in a spreadsheet's export format.
    "many_blocks_bom_crlf_quoted": lambda rows: "\ufeff" + _csv_text(
        '"t","x","y"', _seeded_rows(92, 100_000), fmt='{0},"{1}","{2}"', newline="\r\n"
    ),
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
    "repeated_column": ("t,x,y,Y\n1,1.0,2.0,3.0\n", "column y is named more than once"),
    "repeated_column_spaced": (
        "t, X ,y,x\n1,1.0,2.0,3.0\n", "column x is named more than once"
    ),
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

    def test_repeated_unread_column_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,T,x,y\n1,a,1.5,-0.5\n")
        x, y = read_series_csv(path)
        np.testing.assert_array_equal(x, [1.5])
        np.testing.assert_array_equal(y, [-0.5])

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

    def test_file_replaced_before_the_body_is_parsed(self, tmp_path, monkeypatch):
        # The header is read through a handle and the body parsed from the
        # path: a file renamed onto the path in between is refused.
        path, other = tmp_path / "data.csv", tmp_path / "other.csv"
        path.write_text("t,x,y\n1,1.0,2.0\n")
        other.write_text("t,x,y\n1,3.0,4.0\n")
        loadtxt = np.loadtxt

        def replaced_first(*args, **kwargs):
            os.replace(other, path)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", replaced_first)
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        assert str(info.value) == f"{path}: the file was replaced while it was read"

    @pytest.mark.parametrize("suffix", COMPRESSED_SUFFIXES)
    def test_compressed_suffix_refused(self, tmp_path, suffix):
        # np.loadtxt would decompress the body by the name's suffix.
        path = tmp_path / f"data.csv{suffix}"
        path.write_text("t,x,y\n1,1.0,2.0\n")
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        assert str(info.value) == f"{path}: compressed input is not read; decompress it first"

    def test_relative_name_with_a_scheme_is_a_path(self, tmp_path, monkeypatch):
        # np.loadtxt takes a name of the form scheme://host for a URL.
        (tmp_path / "a:").mkdir()
        (tmp_path / "a:" / "data.csv").write_text("t,x,y\n1,1.5,-0.5\n2,2.5,0.5\n")
        monkeypatch.chdir(tmp_path)
        x, y = read_series_csv("a://data.csv")
        np.testing.assert_array_equal(x, [1.5, 2.5])
        np.testing.assert_array_equal(y, [-0.5, 0.5])

    def test_dot_dot_after_a_symlink_follows_the_link(self, tmp_path, monkeypatch):
        # link/../data.csv is real/data.csv to the OS, not ./data.csv as
        # os.path.normpath would have it; header and rows come from one file.
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        (tmp_path / "real" / "data.csv").write_text("t,x,y\n1,1.5,-0.5\n2,2.5,0.5\n")
        (tmp_path / "data.csv").write_text("t,x,y\n1,9.0,9.0\n")
        monkeypatch.chdir(tmp_path)
        x, y = read_series_csv("link/../data.csv")
        np.testing.assert_array_equal(x, [1.5, 2.5])
        np.testing.assert_array_equal(y, [-0.5, 0.5])

    def test_file_removed_before_the_body_is_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text("t,x,y\n1,1.0,2.0\n")
        loadtxt = np.loadtxt

        def removed_first(*args, **kwargs):
            path.unlink()
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", removed_first)
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        assert str(info.value) == f"{path}: the file was replaced while it was read"

    def test_compressed_suffixes_are_the_ones_numpy_opens_by(self):
        from numpy.lib import _datasource

        assert set(COMPRESSED_SUFFIXES) == set(_datasource._file_openers.keys()) - {None}

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
