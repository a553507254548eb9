import numpy as np
import pytest

from pmmkit import (
    PmmParams,
    filter_init,
    forecast,
    forecast_mean,
    forecast_variance,
    hmm_params,
    markov_form,
    matrix_power_coeffs,
    oracle_forecast,
    run_filter,
)
from pmmkit.filtering import filter_variance_sequence
from pmmkit.forecasting import forecast_path, variance_at_horizon
from helpers import FIG2_PARAMS, random_valid_params

FIG2_MODEL = markov_form(FIG2_PARAMS)


class TestMean:
    def test_long_horizon_relaxes_to_zero(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert abs(forecast_mean(s, FIG2_MODEL, 500)) < 1e-6

    def test_hmm_mean_is_geometric(self):
        a, b = 0.8, -0.4
        m = markov_form(hmm_params(a, b))
        s = run_filter(m, [0.5, 1.2, -0.3])
        for k in range(1, 11):
            assert forecast_mean(s, m, k) == pytest.approx(a**k * s.mean, rel=1e-12)

    def test_pinned_fig2_value(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast_mean(s, FIG2_MODEL, 2) == pytest.approx(
            0.047934136586871838, abs=1e-12
        )

    def test_horizon_must_be_positive(self):
        s = filter_init(FIG2_PARAMS, 0.2)
        with pytest.raises(ValueError):
            forecast_mean(s, FIG2_MODEL, 0)


class TestVariance:
    def test_long_horizon_relaxes_to_unit(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast_variance(s, FIG2_MODEL, 500) == pytest.approx(1.0, abs=1e-6)

    def test_memoryless_model_one_step(self):
        p = hmm_params(0.0, 0.4)
        m = markov_form(p)
        s = filter_init(p, 1.1)
        assert forecast_variance(s, m, 1) == pytest.approx(1.0, abs=1e-14)

    def test_pinned_fig2_value(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast_variance(s, FIG2_MODEL, 2) == pytest.approx(
            0.46789136023225519, abs=1e-12
        )


class TestBundle:
    def test_hmm_one_step_hand_value(self):
        p = hmm_params(0.9, -0.2)
        m = markov_form(p)
        s = filter_init(p, 1.0)
        result = forecast(s, m, 1)
        assert result.mean == pytest.approx(-0.18, abs=1e-12)
        assert result.variance == pytest.approx(0.9676, abs=1e-12)

    def test_unobserved_hidden_chain(self):
        # b = c = d = e = 0: Y tells nothing about X, so the forecast is the
        # stationary law.
        p = PmmParams(0.5, 0.0, 0.0, 0.0, 0.0)
        m = markov_form(p)
        s = run_filter(m, [0.4, -0.9])
        result = forecast(s, m, 1)
        assert result.mean == 0.0
        assert result.variance == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    def test_random_models(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = random_valid_params(rng)
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, 13 - n))
            ys = rng.standard_normal(n)
            m = markov_form(p)
            s = run_filter(m, ys)
            mean, var = oracle_forecast(p, ys, k)
            assert forecast_mean(s, m, k) == pytest.approx(mean, abs=1e-9)
            assert forecast_variance(s, m, k) == pytest.approx(var, abs=1e-9)


class TestVarianceProfile:
    def test_nondecreasing_under_hmm(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            m = markov_form(hmm_params(a, b))
            p_n = float(filter_variance_sequence(m, 5)[-1])
            profile = [variance_at_horizon(p_n, m, k) for k in range(0, 30)]
            assert np.all(np.diff(profile) >= -1e-12)

    def test_general_model_nonnegative_and_converging(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_valid_params(rng, max_spectral_radius=0.98)
            m = markov_form(p)
            p_n = float(filter_variance_sequence(m, 4)[-1])
            # variance_at_horizon(p_n, m, k) for k = 0..399, in one pass.
            cov = np.array([[p_n, 0.0], [0.0, 0.0]])
            profile = np.empty(400)
            for k in range(400):
                profile[k] = cov[0, 0]
                cov = m.A @ cov @ m.A.T + m.Q
            assert np.all(profile >= 0.0)
            assert np.all(profile <= 1.0 + 1e-9)
            assert profile[-1] == pytest.approx(1.0, abs=1e-3)

    def test_one_step_prediction_can_beat_filtering(self):
        # Pairwise-only effect: X_{n+1} leans on the exactly-known Y_n, so
        # its predictive variance can drop below the filter variance of X_n.
        # (Under the hidden-Markov constraints this never happens, see
        # test_nondecreasing_under_hmm.)
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast_variance(s, FIG2_MODEL, 1) < s.variance

    def test_composition_identity(self):
        # The j+k horizon equals composing the j and k power coefficients.
        rng = np.random.default_rng(34)
        for _ in range(20):
            p = random_valid_params(rng)
            m = markov_form(p)
            s = run_filter(m, rng.standard_normal(4))
            j, k = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            pj = matrix_power_coeffs(m, j)
            pk = matrix_power_coeffs(m, k)
            composed_xx = pj.xx * pk.xx + pj.xy * pk.yx
            composed_xy = pj.xx * pk.xy + pj.xy * pk.yy
            direct = forecast_mean(s, m, j + k)
            assert direct == pytest.approx(
                composed_xx * s.mean + composed_xy * s.last_y, abs=1e-12
            )


class TestPath:
    def test_matches_per_horizon_forecast(self):
        rng = np.random.default_rng(61)
        for p in (FIG2_PARAMS, random_valid_params(rng)):
            m = markov_form(p)
            state = run_filter(m, rng.standard_normal(30))
            path = forecast_path(state, m, 200)
            assert [r.horizon for r in path] == list(range(1, 201))
            want = [forecast(state, m, k) for k in range(1, 201)]
            np.testing.assert_allclose(
                [r.mean for r in path], [r.mean for r in want], rtol=1e-13, atol=0
            )
            np.testing.assert_allclose(
                [r.variance for r in path], [r.variance for r in want], rtol=1e-13, atol=0
            )

    def test_horizon_must_be_positive(self):
        state = run_filter(FIG2_MODEL, [0.5])
        with pytest.raises(ValueError):
            forecast_path(state, FIG2_MODEL, 0)
