import io
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from pmmkit import (
    InvalidModelError,
    filter_coefficients,
    forecaster_mse,
    get_preset,
    hmm_params,
    markov_form,
    mse_sweep,
    run_filter,
    theoretical_mse_hmm_under_pmm,
    theoretical_mse_pmm,
)
from pmmkit import error_analysis
from pmmkit.error_analysis import curves_to_csv, observation_covariance
from pmmkit.filtering import filter_init, filter_step
from pmmkit.forecasting import horizon_terms
from pmmkit.riccati import _riccati_step
from pmmkit.oracle import build_joint
from pmmkit.simulate import monte_carlo_mse
from helpers import (
    FIG2_PARAMS,
    FOUND_PARAMS,
    cycle_entry_and_period,
    forecast_coefficients,
    loop_forecaster_mse,
    quadratic_form_mse,
    random_hmm,
    random_valid_params,
    scalar_hmm_filter_coefficients,
    scalar_mse_grid,
    scalar_mse_pmm,
)
import reference_decimal
from reference_decimal import BOUND, CASES, error_in_eps, worst_mse_error

FIG2_MODEL = markov_form(FIG2_PARAMS)
HMM_BASE = hmm_params(0.9, -0.2)


def direct_hmm_mse(p_true, p_hmm, n, k):
    """E[(X_{n+k} - sum w_i Y_i)^2] straight from the joint covariance."""
    joint = build_joint(p_true, n, k)
    m_hmm = markov_form(p_hmm)
    if k == 0:
        w = filter_coefficients(m_hmm, n)
    else:
        w = forecast_coefficients(m_hmm, n, k)
    target = joint.x_index(n + k)
    given = [joint.y_index(t) for t in range(1, n + 1)]
    sigma_yy = joint.matrix[np.ix_(given, given)]
    sigma_yx = joint.matrix[given, target]
    return 1.0 - 2.0 * w @ sigma_yx + w @ sigma_yy @ w


class TestFilterCoefficients:
    def test_single_observation(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            m = markov_form(random_valid_params(rng))
            np.testing.assert_array_equal(filter_coefficients(m, 1), [m.b])

    def test_weights_are_read_only(self):
        weights = filter_coefficients(FIG2_MODEL, 4)
        assert weights.shape == (4,)
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_reproduces_filter_mean(self):
        rng = np.random.default_rng(52)
        ys = rng.standard_normal(5)
        coeffs = filter_coefficients(FIG2_MODEL, 5)
        state = run_filter(FIG2_MODEL, ys)
        assert coeffs @ ys == pytest.approx(state.mean, abs=1e-10)

    def test_prefix_duality_with_filter_steps(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            p = random_valid_params(rng)
            m = markov_form(p)
            ys = rng.standard_normal(10)
            state = filter_init(m, ys[0])
            for t in range(1, 11):
                if t > 1:
                    state = filter_step(state, m, ys[t - 1])
                coeffs = filter_coefficients(m, t)
                assert coeffs @ ys[:t] == pytest.approx(state.mean, abs=1e-10)

    def test_hmm_matches_textbook_scalar_coefficients(self):
        weights = filter_coefficients(markov_form(HMM_BASE), 4)
        reference = scalar_hmm_filter_coefficients(0.9, -0.2, 4)
        np.testing.assert_allclose(weights, reference, atol=1e-12)

    @pytest.mark.parametrize("name", CASES)
    def test_within_bound_of_decimal_reference(self, name):
        # Each weight within the bound, in eps of max|w|, for every n <= 200.
        bound, p, p_hmm, *_ = CASES[name]
        for p_fc in (p, p_hmm):
            m, worst = markov_form(p_fc), []
            for n, want in enumerate(reference_decimal.filter_weights(p_fc, 200), start=1):
                scale = max(map(abs, want))
                got = filter_coefficients(m, n).tolist()
                worst.append((max(error_in_eps(g, w, scale) for g, w in zip(got, want)), n))
            print(name, max(worst))
            assert max(worst)[0] <= bound


class TestForecastCoefficients:
    """The k-step weights that quadratic_form_mse and direct_hmm_mse use."""

    def test_memory_loss_at_long_horizon(self):
        coeffs = forecast_coefficients(FIG2_MODEL, 6, 400)
        np.testing.assert_allclose(coeffs, np.zeros(6), atol=1e-12)

    def test_hmm_last_weight_uncorrected(self):
        m = markov_form(HMM_BASE)
        base = filter_coefficients(m, 5)
        xx = np.linalg.matrix_power(m.A, 3)[0, 0]
        np.testing.assert_allclose(
            forecast_coefficients(m, 5, 3), xx * base, atol=1e-14
        )

    def test_reproduces_forecast_mean(self):
        rng = np.random.default_rng(54)
        ys = rng.standard_normal(3)
        coeffs = forecast_coefficients(FIG2_MODEL, 3, 2)
        state = run_filter(FIG2_MODEL, ys)
        xx, xy = np.linalg.matrix_power(FIG2_MODEL.A, 2)[0]
        expected = xx * state.mean + xy * state.last_y
        assert coeffs @ ys == pytest.approx(expected, abs=1e-10)


class TestObservationCovariance:
    def test_single_observation(self):
        np.testing.assert_array_equal(
            observation_covariance(FIG2_MODEL, FIG2_MODEL.b, 1), [[1.0]]
        )

    def test_lag_one_equals_c(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            p = random_valid_params(rng)
            m = markov_form(p)
            cov = observation_covariance(m, m.b, 3)
            assert cov[0, 1] == pytest.approx(p.c, abs=1e-12)

    def test_hmm_lag_one(self):
        m = markov_form(HMM_BASE)
        cov = observation_covariance(m, m.b, 2)
        assert cov[0, 1] == pytest.approx(0.9 * 0.04, abs=1e-14)

    def test_matches_oracle_joint_block(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            p = random_valid_params(rng)
            n = int(rng.integers(1, 10))
            joint = build_joint(p, n, 0)
            given = [joint.y_index(t) for t in range(1, n + 1)]
            m = markov_form(p)
            np.testing.assert_allclose(
                observation_covariance(m, m.b, n),
                joint.matrix[np.ix_(given, given)],
                atol=1e-12,
            )


class TestTheoreticalMse:
    def test_filtering_base_case(self):
        assert theoretical_mse_pmm(FIG2_PARAMS, 1, 0) == pytest.approx(
            1 - 0.2**2, abs=1e-14
        )

    def test_long_horizon_limit(self):
        assert theoretical_mse_pmm(FIG2_PARAMS, 5, 600) == pytest.approx(1.0, abs=1e-6)

    def test_matches_oracle_variance_over_n(self):
        for n in range(1, 13):
            joint = build_joint(FIG2_PARAMS, n, 0)
            given = [joint.y_index(t) for t in range(1, n + 1)]
            target = joint.x_index(n)
            sigma_gg = joint.matrix[np.ix_(given, given)]
            sigma_gt = joint.matrix[given, target]
            var = 1.0 - sigma_gt @ np.linalg.solve(sigma_gg, sigma_gt)
            assert theoretical_mse_pmm(FIG2_PARAMS, n, 0) == pytest.approx(
                var, abs=1e-9
            )

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
    def test_matches_scalar_reference_on_preset_grid(self, preset):
        p = get_preset(preset).true_params
        n_values, k_values = [*range(1, 401), 20_000], [0, 1, 5, 48, 600]
        want = scalar_mse_grid(p, n_values, k_values)
        got = forecaster_mse(p, p, n_values, k_values)
        assert sorted(got) == sorted(want)
        for key, mse in got.items():
            assert abs(mse - want[key]) <= 1e-12 * want[key]
        # theoretical_mse_pmm is one point of that grid.
        singles = [(n, k) for n in (1, 2, 37, 400) for k in k_values]
        for n, k in singles + [(20_000, 0)]:
            assert theoretical_mse_pmm(p, n, k) == got[(n, k)]

    def test_identical_forecasters_coincide(self):
        for n, k in ((1, 0), (4, 0), (3, 2), (6, 5)):
            assert theoretical_mse_hmm_under_pmm(
                HMM_BASE, HMM_BASE, n, k
            ) == pytest.approx(scalar_mse_pmm(HMM_BASE, n, k), abs=1e-12)

    def test_non_hmm_forecaster_rejected(self):
        with pytest.raises(InvalidModelError):
            theoretical_mse_hmm_under_pmm(FIG2_PARAMS, FIG2_PARAMS, 3, 0)

    def test_pythagoras_positivity(self):
        rng = np.random.default_rng(57)
        for _ in range(25):
            p_true = random_valid_params(rng)
            p_hmm = random_hmm(rng)
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, 4))
            gap = theoretical_mse_hmm_under_pmm(
                p_true, p_hmm, n, k
            ) - theoretical_mse_pmm(p_true, n, k)
            assert gap >= -1e-12

    def test_pythagoras_identity_against_direct_oracle(self):
        rng = np.random.default_rng(58)
        for _ in range(25):
            p_true = random_valid_params(rng)
            p_hmm = random_hmm(rng)
            n = int(rng.integers(1, 10))
            k = int(rng.integers(0, 13 - n))
            decomposed = theoretical_mse_hmm_under_pmm(p_true, p_hmm, n, k)
            direct = direct_hmm_mse(p_true, p_hmm, n, k)
            assert decomposed == pytest.approx(direct, abs=1e-9)


class TestForecasterMse:
    @pytest.mark.parametrize(
        "preset, n_grid",
        [("fig2", None), ("fig3", None), ("fig4", None), ("fig5", None),
         ("fig4", range(1, 401))],
    )
    def test_sweep_matches_quadratic_form_and_variance_recursion(self, preset, n_grid):
        fig = get_preset(preset)
        n_values = list(n_grid or fig.n_values)
        k_values = list(fig.k_values)
        rows = mse_sweep(fig.true_params, fig.hmm_reference, n_values, k_values)
        for model, sweep, index, mse in rows:
            label, _, fixed_n = model.partition("(n=")
            if sweep == "n":
                n, k = index, k_values[0]
            else:
                n, k = int(fixed_n[:-1]) if fixed_n else n_values[0], index
            if label == "PMM":
                want = scalar_mse_pmm(fig.true_params, n, k)
            else:
                want = quadratic_form_mse(fig.true_params, fig.hmm_reference, n, k)
            assert abs(mse - want) <= 1e-12 * want
        assert len(rows) == 2 * len(n_values) * len(k_values)

    def test_general_forecaster_matches_quadratic_form(self):
        rng = np.random.default_rng(59)
        n_values, k_values = range(1, 31), [0, 1, 3, 7]
        for _ in range(40):
            p_true = random_valid_params(rng)
            p_fc = random_valid_params(rng)
            got = forecaster_mse(p_true, p_fc, n_values, k_values)
            optimal = forecaster_mse(p_true, p_true, n_values, k_values)
            for n in n_values:
                for k in k_values:
                    want = quadratic_form_mse(p_true, p_fc, n, k)
                    assert abs(got[(n, k)] - want) <= 1e-12 * want
                    want = scalar_mse_pmm(p_true, n, k)
                    assert abs(optimal[(n, k)] - want) <= 1e-12 * want

    def test_grid_points_equal_single_points(self):
        rng = np.random.default_rng(60)
        p_true, p_fc = random_valid_params(rng), random_valid_params(rng)
        grid = forecaster_mse(p_true, p_fc, [9, 2, 30], [4, 0])
        assert sorted(grid) == [(n, k) for n in (2, 9, 30) for k in (0, 4)]
        for (n, k), mse in grid.items():
            assert mse == forecaster_mse(p_true, p_fc, [n], [k])[(n, k)]

    def test_long_chain_in_constant_memory(self):
        fig = get_preset("fig4")
        tracemalloc.start()
        try:
            hmm = forecaster_mse(fig.true_params, fig.hmm_reference, [20_000], [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An n x n float matrix at n = 20000 would take 3.2 GB.
        assert peak < 1_000_000
        pmm = forecaster_mse(fig.true_params, fig.true_params, [20_000], [0])
        # fig4's error has settled to the last digit long before n = 1000.
        want = quadratic_form_mse(fig.true_params, fig.hmm_reference, 1000, 0)
        assert abs(hmm[(20_000, 0)] - want) <= 1e-12 * want
        want = scalar_mse_pmm(fig.true_params, 20_000, 0)
        assert abs(pmm[(20_000, 0)] - want) <= 1e-12 * want

    # The presets' fixed points fall between steps 95 and 216, so this grid
    # has points on both sides of each.
    FIXED_POINT_N = [1, 2, 50, 300, 5000]
    FIXED_POINT_K = [0, 1, 7]

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("which", ["true", "hmm"])
    def test_cycle_exit_equals_full_loop_on_presets(self, preset, which):
        fig = get_preset(preset)
        p_fc = fig.true_params if which == "true" else fig.hmm_reference
        args = (fig.true_params, p_fc, self.FIXED_POINT_N, self.FIXED_POINT_K)
        assert forecaster_mse(*args) == loop_forecaster_mse(*args)

    def test_cycle_exit_equals_full_loop_on_random_pairs(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            args = (
                random_valid_params(rng),
                random_valid_params(rng),
                self.FIXED_POINT_N,
                self.FIXED_POINT_K,
            )
            assert forecaster_mse(*args) == loop_forecaster_mse(*args)

    def test_cycle_exit_equals_full_loop_at_every_n_of_cycling_pairs(self):
        # Pairs whose state never settles to a fixed point but cycles with a
        # period above 1: every n up to 5000 takes its value from the cycle.
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 12:
            p_true = random_valid_params(rng)
            # The truth and its restriction as forecasters, in turn.
            p_fc = hmm_params(p_true.a, p_true.b) if checked % 2 else p_true
            if cycle_entry_and_period(p_true, p_fc)[1] > 1:
                args = (p_true, p_fc, range(1, 5001), [0, 2])
                assert forecaster_mse(*args) == loop_forecaster_mse(*args)
                checked += 1

    @pytest.mark.parametrize("which", ["true", "hmm"])
    def test_cycle_exit_bounds_the_steps(self, monkeypatch, which):
        # Brent's method takes fewer than 2 max(mu, lambda) + 2 lambda steps,
        # so fewer than 4 (mu + lambda), however large n is.
        p_fc = FOUND_PARAMS if which == "true" else hmm_params(FOUND_PARAMS.a, FOUND_PARAMS.b)
        entry, period = cycle_entry_and_period(FOUND_PARAMS, p_fc)
        assert period > 1
        drawn = []

        def counted_step(m, variance):
            drawn.append(variance)
            return _riccati_step(m, variance)

        monkeypatch.setattr(error_analysis, "_riccati_step", counted_step)
        mse = forecaster_mse(FOUND_PARAMS, p_fc, [10**6], [0, 3])
        assert len(drawn) < 4 * (entry + period)
        monkeypatch.undo()
        # The cycle serves n = 10^6 with the state a full loop would reach.
        n = entry + (10**6 - entry) % period
        want = loop_forecaster_mse(FOUND_PARAMS, p_fc, [n], [0, 3])
        assert [mse[(10**6, k)] for k in (0, 3)] == [want[(n, k)] for k in (0, 3)]

    def test_pass_stops_at_fixed_point(self, monkeypatch):
        drawn = []

        def counted_step(m, variance):
            drawn.append(variance)
            return _riccati_step(m, variance)

        monkeypatch.setattr(error_analysis, "_riccati_step", counted_step)
        fig = get_preset("fig4")
        for p_fc in (fig.true_params, fig.hmm_reference):
            drawn.clear()
            args = (fig.true_params, p_fc, [20_000], [0])
            mse = forecaster_mse(*args)
            # fig4 settles by step 216; the full pass would draw 19 999.
            assert len(drawn) < 1000
            assert mse == loop_forecaster_mse(*args)

    def test_four_entry_pass_matches_seven_entry_pass(self):
        # The 4-entry state against the decimal pass that steps all of S.
        rng = np.random.default_rng(5)
        n_values, k_values = [*range(1, 301), 1000, 5000], [0, 1, 2, 5, 20]
        for i in range(300):
            p_true = random_valid_params(rng)
            # The truth, its restriction and a second random model, in turn.
            if i % 3 == 2:
                p_fc = random_valid_params(rng)
            else:
                p_fc = hmm_params(p_true.a, p_true.b) if i % 3 else p_true
            args = (p_true, p_fc, n_values, k_values)
            want = reference_decimal.forecaster_mse(*args)
            for key, mse in forecaster_mse(*args).items():
                assert abs(Decimal(mse) - want[key]) <= Decimal(1e-14) * want[key], (i, key)

    @pytest.mark.parametrize(
        "n_values, k_values", [([0, 3], [0]), ([3], [-1]), ([], [0])]
    )
    def test_bad_grid_rejected(self, n_values, k_values):
        with pytest.raises(ValueError):
            forecaster_mse(FIG2_PARAMS, HMM_BASE, n_values, k_values)


class TestDecimalReference:
    """The float ``forecaster_mse`` within each case's bound, in eps
    relative, of ``reference_decimal``, which steps all of the augmented
    covariance S to every n at 60 digits.  Each test prints its worst point."""

    @pytest.mark.parametrize("name", CASES)
    def test_cases(self, name):
        bound, *worst = reference_decimal.report()[name]
        print(name, worst)
        assert max(worst)[0] <= bound

    def test_random_triples(self):
        # The truth, its restriction and a second random model, in turn.
        rng = np.random.default_rng(5)
        worst = []
        for _ in range(60):
            p_true = random_valid_params(rng)
            for p_fc in (p_true, hmm_params(p_true.a, p_true.b), random_valid_params(rng)):
                error = worst_mse_error(p_true, p_fc, [1, 2, 9, 60, 400], [0, 1, 5, 20])
                worst.append((*error, p_true, p_fc))
        print(max(worst))
        assert max(worst)[0] <= BOUND

    @pytest.mark.parametrize("which", ["true", "hmm"])
    @pytest.mark.parametrize("name", ["fig2", "fig4", "pressure", "soil"])
    def test_cycle_serves_n_10000(self, name, which):
        # Each orbit ends on a fixed point by step 1924, so n = 10,000 takes
        # the cycle's state, against the reference stepped all the way.
        bound, p, p_hmm, *_ = CASES[name]
        p_fc = p if which == "true" else p_hmm
        assert sum(cycle_entry_and_period(p, p_fc)) < 10_000
        error, key = worst_mse_error(p, p_fc, [10_000], [0, 1, 20])
        print(name, which, error, key)
        assert error <= bound

    def test_reference_loads_no_numpy(self):
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        code = "import sys, reference_decimal; sys.exit('numpy' in sys.modules)"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestMonteCarloAgreement:
    @pytest.mark.slow
    def test_both_forecasters_calibrate(self):
        n, k, reps = 5, 2, 40_000
        mse_p, se_p = monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, n, k, reps, seed=581)
        mse_h, se_h = monte_carlo_mse(FIG2_PARAMS, HMM_BASE, n, k, reps, seed=582)
        assert abs(mse_p - theoretical_mse_pmm(FIG2_PARAMS, n, k)) < 3 * se_p
        assert abs(
            mse_h - theoretical_mse_hmm_under_pmm(FIG2_PARAMS, HMM_BASE, n, k)
        ) < 3 * se_h


class TestSweep:
    def test_filtering_sweep_layout(self):
        rows = mse_sweep(FIG2_PARAMS, HMM_BASE, range(1, 21), [0])
        assert [row[:3] for row in rows] == [
            (label, "n", n) for label in ("PMM", "HMM") for n in range(1, 21)
        ]
        for (*_, pmm), (*_, hmm) in zip(rows[:20], rows[20:]):
            assert pmm <= hmm + 1e-12

    def test_horizon_sweep_per_n(self):
        rows = mse_sweep(FIG2_PARAMS, HMM_BASE, [1, 5, 10], range(1, 8))
        assert [row[:3] for row in rows] == [
            (f"{label}(n={n})", "k", k)
            for n in (1, 5, 10) for label in ("PMM", "HMM") for k in range(1, 8)
        ]
        # One label string per curve, which its rows share.
        assert len({id(row[0]) for row in rows}) == 6

    @pytest.mark.parametrize("hmm_truth", [False, True])
    def test_one_horizon_pass_per_distinct_model(self, monkeypatch, hmm_truth):
        p_true = HMM_BASE if hmm_truth else FIG2_PARAMS
        passes = []

        def spy(m, k_values):
            passes.append(m)
            return horizon_terms(m, k_values)

        monkeypatch.setattr(error_analysis, "horizon_terms", spy)
        n_values, k_values = [1, 5, 10], range(0, 30)
        rows = mse_sweep(p_true, HMM_BASE, n_values, k_values)
        assert len(passes) == (1 if hmm_truth else 2)
        # The values of one forecaster_mse call per forecaster, bit for bit.
        want = {label: forecaster_mse(p_true, p_fc, n_values, k_values)
                for label, p_fc in (("PMM", p_true), ("HMM", HMM_BASE))}
        assert rows == [
            (f"{label}(n={n})", "k", k, want[label][(n, k)])
            for n in n_values for label in ("PMM", "HMM") for k in k_values
        ]

    # One rule for both: a repeated value would give a row or a key twice.
    @pytest.mark.parametrize("function", [mse_sweep, forecaster_mse])
    @pytest.mark.parametrize(
        "n_values, k_values, name, value",
        [([5, 5], [1, 2], "n_values", 5), ([5, 6], [1, 1], "k_values", 1)],
    )
    def test_repeated_value_rejected(self, function, n_values, k_values, name, value):
        fig3 = get_preset("fig3")
        with pytest.raises(ValueError, match=f"^{name} repeats the value {value}$"):
            function(fig3.true_params, fig3.hmm_reference, n_values, k_values)

    def test_single_point_grid(self):
        rows = mse_sweep(FIG2_PARAMS, HMM_BASE, [4], [0])
        assert [row[:3] for row in rows] == [("PMM", "n", 4), ("HMM", "n", 4)]

    def test_csv_format(self):
        rows = mse_sweep(FIG2_PARAMS, HMM_BASE, [1, 2], [0])
        buf = io.StringIO()
        curves_to_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "model,sweep,index,mse"
        assert len(lines) == 5
        model, sweep, index, mse = lines[1].split(",")
        assert (model, sweep, index) == ("PMM", "n", "1")
        assert float(mse) == pytest.approx(1 - 0.04, abs=1e-12)


class TestFlatPass:
    """``forecaster_mse`` and ``mse_sweep`` over grids in any order: keys in
    increasing n and, for each n, in the given k order; the sweep's rows in
    the given n order; and every value within BOUND eps of
    ``reference_decimal``."""

    GRIDS = [
        ([9, 2, 30, 5], [4, 0, 7]),  # unsorted
        ([50, 20, 3, 1], [6, 3, 1]),  # descending
        ([40, 7, 1, 300], [2]),  # unsorted n sweep
        ([400, 90, 1], [0]),  # descending n sweep
        ([12], [5, 0, 9, 1]),  # one n
        ([3, 1, 8, 200], [0]),  # one k
        ([4], [0]),
        (range(1, 31), range(0, 25)),  # dense
        (range(30, 0, -1), range(24, -1, -1)),  # dense, descending
    ]

    @staticmethod
    def assert_near(p_true, p_hmm, n_values, k_values):
        keys = [(n, k) for n in sorted(n_values) for k in k_values]
        mse = {}
        for label, p_fc in (("PMM", p_true), ("HMM", p_hmm)):
            mse[label] = got = forecaster_mse(p_true, p_fc, n_values, k_values)
            assert list(got) == keys
            want = reference_decimal.forecaster_mse(p_true, p_fc, n_values, k_values)
            assert max(error_in_eps(got[key], want[key]) for key in keys) <= BOUND
        # The sweep's rows hold the same values, bit for bit.
        if len(k_values) > 1:
            fixed = len(n_values) > 1
            want = [(f"{label}(n={n})" if fixed else label, "k", k, mse[label][(n, k)])
                    for n in n_values for label in ("PMM", "HMM") for k in k_values]
        else:
            [k] = k_values
            want = [(label, "n", n, mse[label][(n, k)])
                    for label in ("PMM", "HMM") for n in n_values]
        assert mse_sweep(p_true, p_hmm, n_values, k_values) == want

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("n_values, k_values", GRIDS)
    def test_matches_reference_on_presets(self, preset, n_values, k_values):
        fig = get_preset(preset)
        self.assert_near(fig.true_params, fig.hmm_reference, n_values, k_values)

    def test_matches_reference_on_random_grids(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            p_true = FOUND_PARAMS if rng.random() < 0.25 else random_valid_params(rng)
            n_values = rng.permutation(rng.choice(np.arange(1, 500), rng.integers(1, 12), False))
            k_values = rng.permutation(rng.choice(np.arange(0, 60), rng.integers(1, 12), False))
            self.assert_near(p_true, random_hmm(rng), n_values.tolist(), k_values.tolist())

    # fig2 at 5*10^4 points, Python 3.11: the per-k weights and (n, k) dicts
    # peaked at 46.2 MB and 19.7 MB, the flat lists at 27.4 MB and 9.7 MB,
    # and the rows in CSV order at 23.2 MB and 11.2 MB; a label string built
    # per row rather than per curve takes the second to 17.0 MB.
    @pytest.mark.parametrize(
        "n_values, k_values, bound",
        [(range(100, 101), range(1, 50_001), 35e6), (range(1, 224), range(1, 225), 14e6)],
    )
    def test_sweep_peak(self, n_values, k_values, bound):
        fig = get_preset("fig2")
        tracemalloc.start()
        try:
            rows = mse_sweep(fig.true_params, fig.hmm_reference, n_values, k_values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 2 * len(n_values) * len(k_values)
        assert peak < bound
