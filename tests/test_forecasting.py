import numpy as np
import pytest

from pmmkit import (
    PmmParams,
    filter_init,
    forecast,
    forecast_path,
    hmm_params,
    markov_form,
    run_filter,
)
from pmmkit.forecasting import FLOOR, horizon_terms
from pmmkit.oracle import oracle_forecast
from helpers import (
    FIG2_PARAMS,
    FIG4_PARAMS,
    random_valid_params,
    reference_forecast,
)
import reference_decimal
from reference_decimal import BOUND, CASES, error_in_eps

FIG2_MODEL = markov_form(FIG2_PARAMS)


class TestMean:
    def test_long_horizon_relaxes_to_zero(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert abs(forecast(s, FIG2_MODEL, 500).mean) < 1e-6

    def test_hmm_mean_is_geometric(self):
        a, b = 0.8, -0.4
        m = markov_form(hmm_params(a, b))
        s = run_filter(m, [0.5, 1.2, -0.3])
        for k in range(1, 11):
            assert forecast(s, m, k).mean == pytest.approx(a**k * s.mean, rel=1e-12)

    def test_pinned_fig2_value(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast(s, FIG2_MODEL, 2).mean == pytest.approx(
            0.047934136586871838, abs=1e-12
        )

    def test_horizon_must_be_positive(self):
        s = filter_init(FIG2_MODEL, 0.2)
        with pytest.raises(ValueError):
            forecast(s, FIG2_MODEL, 0)


class TestVariance:
    def test_long_horizon_relaxes_to_unit(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast(s, FIG2_MODEL, 500).variance == pytest.approx(1.0, abs=1e-6)

    def test_memoryless_model_one_step(self):
        p = hmm_params(0.0, 0.4)
        m = markov_form(p)
        s = filter_init(m, 1.1)
        assert forecast(s, m, 1).variance == pytest.approx(1.0, abs=1e-14)

    def test_pinned_fig2_value(self):
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast(s, FIG2_MODEL, 2).variance == pytest.approx(
            0.46789136023225519, abs=1e-12
        )


class TestBundle:
    def test_hmm_one_step_hand_value(self):
        p = hmm_params(0.9, -0.2)
        m = markov_form(p)
        s = filter_init(m, 1.0)
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
            result = forecast(s, m, k)
            assert result.mean == pytest.approx(mean, abs=1e-9)
            assert result.variance == pytest.approx(var, abs=1e-9)


class TestVarianceProfile:
    def test_nondecreasing_under_hmm(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            m = markov_form(hmm_params(a, b))
            s = run_filter(m, np.zeros(5))
            profile = [s.variance] + [r.variance for r in forecast_path(s, m, 29)]
            assert np.all(np.diff(profile) >= -1e-12)

    def test_general_model_nonnegative_and_converging(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_valid_params(rng, max_spectral_radius=0.98)
            m = markov_form(p)
            s = run_filter(m, np.zeros(4))
            profile = np.array(
                [s.variance] + [r.variance for r in forecast_path(s, m, 399)]
            )
            assert np.all(profile >= 0.0)
            assert np.all(profile <= 1.0 + 1e-9)
            assert profile[-1] == pytest.approx(1.0, abs=1e-3)

    def test_one_step_prediction_can_beat_filtering(self):
        # Pairwise-only effect: X_{n+1} leans on the exactly-known Y_n, so
        # its predictive variance can drop below the filter variance of X_n.
        # (Under the hidden-Markov constraints this never happens, see
        # test_nondecreasing_under_hmm.)
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert forecast(s, FIG2_MODEL, 1).variance < s.variance

    def test_composition_identity(self):
        # The j+k horizon equals composing the j and k power coefficients.
        rng = np.random.default_rng(34)
        for _ in range(20):
            p = random_valid_params(rng)
            m = markov_form(p)
            s = run_filter(m, rng.standard_normal(4))
            j, k = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            composed_xx, composed_xy = (
                np.linalg.matrix_power(m.A, j) @ np.linalg.matrix_power(m.A, k)
            )[0]
            direct = forecast(s, m, j + k).mean
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
            want = np.array([reference_forecast(state, m, k) for k in range(1, 201)])
            np.testing.assert_allclose(
                [r.mean for r in path], want[:, 0], rtol=1e-13, atol=0
            )
            np.testing.assert_allclose(
                [r.variance for r in path], want[:, 1], rtol=1e-13, atol=0
            )
            for k in (1, 2, 17, 200):
                assert forecast(state, m, k) == path[k - 1]

    def test_horizon_must_be_positive(self):
        state = run_filter(FIG2_MODEL, [0.5])
        with pytest.raises(ValueError):
            forecast_path(state, FIG2_MODEL, 0)


HORIZONS = (0, 1, 2, 17, 200)


def _models(seed):
    rng = np.random.default_rng(seed)
    return [markov_form(FIG2_PARAMS), markov_form(FIG4_PARAMS)] + [
        markov_form(random_valid_params(rng)) for _ in range(10)
    ]


class TestHorizonTerms:
    """The k-step map against np.linalg.matrix_power and an explicit noise
    sum."""

    def test_matches_matrix_power_and_noise_sum(self):
        for m in _models(91):
            terms = horizon_terms(m, HORIZONS)
            assert list(terms) == sorted(HORIZONS)
            for k in HORIZONS:
                powers = [np.linalg.matrix_power(m.A, j) for j in range(k + 1)]
                noise = sum((p @ m.Q @ p.T)[0, 0] for p in powers[:-1])
                xx, xy, got_noise = terms[k]
                np.testing.assert_allclose([xx, xy], powers[k][0], rtol=1e-12, atol=1e-15)
                assert got_noise == pytest.approx(noise, rel=1e-12, abs=1e-15)

    def test_noise_is_the_stationary_remainder(self):
        # Stationarity: sum_{j<k} A^j Q A^j^T = M - A^k M A^k^T.
        for m in _models(92):
            for k, (xx, xy, noise) in horizon_terms(m, HORIZONS).items():
                row = np.array([xx, xy])
                assert noise == pytest.approx(1.0 - row @ m.marginal @ row, abs=1e-12)

    def test_zeroth_horizon_is_identity(self):
        assert horizon_terms(FIG2_MODEL, [0]) == {0: (1.0, 0.0, 0.0)}

    def test_first_horizon_is_a_and_q(self):
        m = FIG2_MODEL
        assert horizon_terms(m, [1]) == {1: (m.A[0][0], m.A[0][1], m.Q[0][0])}

    def test_hmm_closed_form(self):
        # Under the hidden-Markov constraints X_{n+k} = a^k X_n + noise of
        # variance 1 - a^{2k}, and Y_n carries no extra information.
        a, b = 0.7, 0.3
        terms = horizon_terms(markov_form(hmm_params(a, b)), [1, 2, 5, 17])
        for k, (xx, xy, noise) in terms.items():
            assert xx == pytest.approx(a**k, rel=1e-13)
            assert xy == pytest.approx(0.0, abs=1e-15)
            assert noise == pytest.approx(1.0 - a ** (2 * k), rel=1e-13)

    def test_composition(self):
        # Row 0 of A^{j+k} is row 0 of A^j times A^k, and each step adds
        # r Q r^T to the noise, with r row 0 of the current power.
        rng = np.random.default_rng(93)
        for m in _models(94):
            j, k = (int(v) for v in rng.integers(0, 11, size=2))
            terms = horizon_terms(m, range(j + k + 1))
            row_j = np.array(terms[j][:2])
            np.testing.assert_allclose(
                row_j @ np.linalg.matrix_power(m.A, k), terms[j + k][:2], atol=1e-12
            )
            for i in range(j + k):
                row = np.array(terms[i][:2])
                assert terms[i + 1][2] == pytest.approx(
                    terms[i][2] + row @ m.Q @ row, abs=1e-14
                )

    def test_no_row_entry_below_floor(self):
        # fig2's row of A^k turns subnormal at k = 6,723; an entry below
        # FLOOR is exactly 0.0, and by k = 10^5 both are.
        terms = horizon_terms(FIG2_MODEL, range(10**5 + 1))
        rows = np.abs([(xx, xy) for xx, xy, _ in terms.values()])
        assert not np.any((rows > 0) & (rows < FLOOR))
        assert np.all(rows[-1] == 0)

    def test_repeated_and_unsorted_horizons(self):
        assert horizon_terms(FIG2_MODEL, [5, 2, 5]) == horizon_terms(FIG2_MODEL, [2, 5])

    @pytest.mark.parametrize("k_values", [[-1], [3, -2], []])
    def test_negative_or_empty_rejected(self, k_values):
        with pytest.raises(ValueError):
            horizon_terms(FIG2_MODEL, k_values)


class TestAgainstDecimalReference:
    """The row recurrence against ``reference_decimal`` for k <= 100: each
    row of A^k within the bound, in eps of its largest magnitude, and the
    noise within it relative."""

    K_MAX = 100

    def worst(self, p) -> tuple[float, float]:
        """The worst row and noise errors of ``horizon_terms``, in eps."""
        got = horizon_terms(markov_form(p), range(self.K_MAX + 1))
        want = reference_decimal.horizon_terms(reference_decimal.transition(p), self.K_MAX)
        rows = max(
            error_in_eps(g, w, max(abs(xx), abs(xy)))
            for k, (xx, xy, _) in enumerate(want) for g, w in zip(got[k][:2], (xx, xy))
        )
        noise = max(error_in_eps(got[k][2], w[2]) for k, w in enumerate(want) if k)
        return rows, noise

    @pytest.mark.parametrize("name", CASES)
    def test_cases(self, name):
        bound, *models, _, _ = CASES[name]
        for p in models:
            worst = self.worst(p)
            print(name, worst)
            assert max(worst) <= bound

    def test_random_models(self):
        # A random model's row of A^k can cancel to far below |A|^k, so its
        # rows are held to matrix_power in TestHorizonTerms; its noise is a
        # sum of squares, relative to which the bound holds.
        rng = np.random.default_rng(96)
        noise = max(self.worst(random_valid_params(rng))[1] for _ in range(200))
        print(noise)
        assert noise <= BOUND
