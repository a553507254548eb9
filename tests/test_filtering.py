import numpy as np
import pytest

from pmmkit import (
    InvalidModelError,
    PmmParams,
    TransitionModel,
    filter_init,
    filter_step,
    hmm_params,
    markov_form,
    run_filter,
)
from pmmkit import filtering
from pmmkit.filtering import (
    _variance_and_gains,
    _weights,
    batch_filter_means,
    filter_coefficients,
    filter_variance_sequence,
)
from pmmkit.forecasting import FLOOR
from pmmkit.model import _transition
from pmmkit.oracle import oracle_forecast
from pmmkit.presets import PRESET_NAMES, get_preset
from pmmkit.riccati import _riccati_step
from helpers import (
    FIG2_PARAMS,
    FOUND_PARAMS,
    filter_entry_and_period,
    loop_variance_and_gains,
    random_valid_params,
    scalar_hmm_kalman,
    unfloored_weights,
)

FIG2_MODEL = markov_form(FIG2_PARAMS)


class TestInit:
    def test_bivariate_conditioning(self):
        s = filter_init(markov_form(hmm_params(0.9, -0.2)), 1.0)
        assert s.mean == pytest.approx(-0.2, abs=1e-15)
        assert s.variance == pytest.approx(0.96, abs=1e-15)
        assert s.n == 1 and s.last_y == 1.0

    def test_independence(self):
        s = filter_init(markov_form(PmmParams(0.3, 0.0, 0.1, 0.0, 0.0)), 2.7)
        assert s.mean == 0.0 and s.variance == 1.0

    def test_pressure_scale_b(self):
        s = filter_init(markov_form(PmmParams(0.9, -0.6, 0.5, -0.5, -0.5)), 0.5)
        assert s.mean == pytest.approx(-0.3, abs=1e-15)
        assert s.variance == pytest.approx(0.64, abs=1e-15)


class TestStep:
    def test_memoryless_pairs(self):
        # a = 0 kills the transition entirely: each pair is independent of
        # the past, so the update reduces to conditioning within the pair.
        m = markov_form(hmm_params(0.0, 0.5))
        s = filter_init(m, -1.3)
        s2 = filter_step(s, m, 0.8)
        assert s2.mean == pytest.approx(0.4, abs=1e-14)
        assert s2.variance == pytest.approx(0.75, abs=1e-14)

    def test_decoupled_channels(self):
        # b = c = d = e = 0: observations carry no information about X.
        p = PmmParams(0.5, 0.0, 0.0, 0.0, 0.0)
        m = markov_form(p)
        s = filter_init(m, 0.9)
        for y in (0.3, -0.2, 1.5):
            s = filter_step(s, m, y)
        assert s.mean == 0.0
        assert s.variance == pytest.approx(1.0, abs=1e-12)

    def test_pinned_fig2_sequence(self):
        # Frozen from joint-covariance conditioning (Schur complement),
        # cross-checked against the recursion.
        s = run_filter(FIG2_MODEL, [0.3, -1.1, 0.7])
        assert s.mean == pytest.approx(0.38564690816650632, abs=1e-12)
        assert s.variance == pytest.approx(0.42716920112595463, abs=1e-12)

    def test_degenerate_channel_raises(self):
        p = PmmParams(0.0, 0.0, 1.0 - 1e-15, 0.0, 0.0)
        with pytest.raises(InvalidModelError, match="gamma_pd=False"):
            markov_form(p)
        # The filter's own guard, on a model that bypasses the gate.
        A, Q = _transition(p)
        m = TransitionModel(A=A, Q=Q, marginal=np.eye(2))
        s = filter_init(m, 0.1)
        with pytest.raises(InvalidModelError):
            filter_step(s, m, 0.2)
        for n in (2, 5000):
            with pytest.raises(InvalidModelError):
                filter_variance_sequence(m, n)


class TestOracleEquivalence:
    def test_random_models_and_sequences(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            p = random_valid_params(rng)
            n = int(rng.integers(1, 13))
            ys = rng.standard_normal(n)
            state = run_filter(markov_form(p), ys)
            mean, var = oracle_forecast(p, ys, 0)
            assert state.mean == pytest.approx(mean, abs=1e-9)
            assert state.variance == pytest.approx(var, abs=1e-9)


class TestVarianceProperties:
    def test_variance_is_observation_independent(self):
        rng = np.random.default_rng(22)
        m = markov_form(FIG2_PARAMS)
        s1 = filter_init(m, 5.0)
        s2 = filter_init(m, -0.1)
        for _ in range(30):
            s1 = filter_step(s1, m, float(rng.standard_normal()))
            s2 = filter_step(s2, m, float(rng.standard_normal()))
            assert s1.variance == s2.variance

    def test_variance_sequence_matches_steps(self):
        rng = np.random.default_rng(23)
        p = random_valid_params(rng)
        m = markov_form(p)
        ys = rng.standard_normal(20)
        seq = filter_variance_sequence(m, 20)
        s = filter_init(m, ys[0])
        assert seq[0] == s.variance
        for t in range(1, 20):
            s = filter_step(s, m, ys[t])
            assert seq[t] == pytest.approx(s.variance, abs=1e-14)

    def test_bounds_and_convergence(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            p = random_valid_params(rng, max_spectral_radius=0.98)
            seq = filter_variance_sequence(markov_form(p), 3000)
            assert np.all(seq >= 0.0) and np.all(seq <= 1.0)
            assert np.max(np.abs(np.diff(seq[-100:]))) < 1e-7


def _fixed_point_models():
    models = []
    for name in PRESET_NAMES:
        preset = get_preset(name)
        models += [preset.true_params, preset.hmm_reference]
    rng = np.random.default_rng(27)
    models += [random_valid_params(rng) for _ in range(20)]
    return [markov_form(p) for p in models]


class TestRiccatiFixedPoint:
    @pytest.mark.parametrize("n", [1, 2, 150, 5000])
    def test_bit_identical_to_plain_loop(self, n):
        for m in _fixed_point_models():
            variances, gains = _variance_and_gains(m, n)
            want_variances, want_gains = loop_variance_and_gains(m, n)
            assert np.array_equal(variances, want_variances)
            assert np.array_equal(gains, want_gains)

    def test_presets_reach_the_fixed_point(self):
        # The early exit is exercised: each preset's variance repeats
        # exactly well before n = 5000.
        for m in _fixed_point_models()[: 2 * len(PRESET_NAMES)]:
            variances = filter_variance_sequence(m, 5000)
            assert np.count_nonzero(np.diff(variances)) < 1000


def _cycling_models():
    # FOUND_PARAMS, its restriction, and random models whose (G, P) never
    # reaches a fixed point but cycles with a period above 1.
    models = [markov_form(p) for p in (FOUND_PARAMS, hmm_params(FOUND_PARAMS.a, FOUND_PARAMS.b))]
    rng = np.random.default_rng(5)
    while len(models) < 6:
        m = markov_form(random_valid_params(rng))
        if filter_entry_and_period(m)[1] > 1:
            models.append(m)
    return models


class TestRiccatiCycle:
    def test_bit_identical_to_plain_loop_at_every_n(self):
        for m in _cycling_models():
            want_variances, want_gains = loop_variance_and_gains(m, 5000)
            for n in range(1, 5001):
                variances, gains = _variance_and_gains(m, n)
                assert np.array_equal(variances, want_variances[:n])
                assert np.array_equal(gains, want_gains[: n - 1])

    @pytest.mark.parametrize("restricted", [False, True])
    def test_cycle_exit_bounds_the_steps(self, monkeypatch, restricted):
        p = hmm_params(FOUND_PARAMS.a, FOUND_PARAMS.b) if restricted else FOUND_PARAMS
        m = markov_form(p)
        entry, period = filter_entry_and_period(m)
        assert period > 1
        drawn = []

        def counted_step(m, variance):
            drawn.append(variance)
            return _riccati_step(m, variance)

        monkeypatch.setattr(filtering, "_riccati_step", counted_step)
        variances, gains = _variance_and_gains(m, 10**6)
        # No exit comes before step mu + lambda, and Brent's method takes
        # fewer than 4 (mu + lambda) steps however large n is.
        assert entry + period - 1 <= len(drawn) < 4 * (entry + period)
        monkeypatch.undo()
        # The cycle serves n = 10^6 with the values a full loop would reach.
        n = entry + (10**6 - entry) % period
        want_variances, want_gains = loop_variance_and_gains(m, n)
        assert (variances[-1], gains[-1]) == (want_variances[-1], want_gains[-1])


class TestCycleFill:
    @pytest.mark.parametrize("period", range(1, 9))
    def test_equals_the_cycle_resized(self, monkeypatch, period):
        # A made-up recursion: two variances after the first, then a cycle
        # of `period` of them; each step's gain is minus its variance.
        start = 1.0 - FIG2_MODEL.b ** 2
        path = [start, 0.5, 0.4, *(0.1 + 0.01 * j for j in range(period))]
        after = dict(zip(path, path[1:] + [path[3]]))
        monkeypatch.setattr(filtering, "_riccati_step", lambda m, p: (-after[p], after[p]))
        for n in (1, 3, 4, 11, 4097, 10**5):
            want = np.concatenate([path[:3], np.resize(path[3:], max(n - 3, 0))])[:n]
            variances, gains = _variance_and_gains(FIG2_MODEL, n)
            assert np.array_equal(variances, want)
            assert np.array_equal(gains, -want[1:])


class TestWeightFloor:
    # The suffix products fall below FLOOR after a few thousand
    # observations; n = 4097 ends one past the first block of products.
    # The floor is the one np.abs(w) < FLOOR spells, byte for byte, so a
    # -0.0 weight becomes 0.0.
    @pytest.mark.parametrize("n", [1, 2, 50, 4097, 50_000, 10**6])
    def test_bit_for_bit_with_the_unfloored_weights(self, n):
        ys = np.random.default_rng(n).standard_normal(n)
        for m in _fixed_point_models()[: 2 * len(PRESET_NAMES)] + _cycling_models():
            gains = _variance_and_gains(m, n)[1]
            want = unfloored_weights(m, gains)
            got, floored = _weights(m, gains), np.where(np.abs(want) < FLOOR, 0.0, want)
            assert np.array_equal(got, floored) and got.tobytes() == floored.tobytes()
            assert run_filter(m, ys).mean == float(want @ ys)

    def test_no_weight_below_the_floor(self):
        for m in _fixed_point_models()[: 2 * len(PRESET_NAMES)] + _cycling_models():
            magnitudes = np.abs(filter_coefficients(m, 50_000))
            assert not np.any((magnitudes > 0.0) & (magnitudes < FLOOR))


class TestHmmReduction:
    def test_matches_textbook_scalar_kalman(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            ys = rng.standard_normal(int(rng.integers(1, 15)))
            state = run_filter(markov_form(hmm_params(a, b)), ys)
            ref_mean, ref_var, _, _ = scalar_hmm_kalman(a, b, ys)
            assert state.mean == pytest.approx(ref_mean, abs=1e-12)
            assert state.variance == pytest.approx(ref_var, abs=1e-12)


class TestBatch:
    def test_rows_match_sequential_filter(self):
        rng = np.random.default_rng(26)
        p = random_valid_params(rng)
        m = markov_form(p)
        obs = rng.standard_normal((40, 9))
        means = batch_filter_means(m, obs)
        for row, mean in zip(obs, means):
            assert mean == pytest.approx(run_filter(m, row).mean, abs=1e-12)

    def test_single_column(self):
        m = markov_form(FIG2_PARAMS)
        obs = np.array([[0.5], [-2.0]])
        np.testing.assert_allclose(batch_filter_means(m, obs), m.b * obs[:, 0])

    def test_gain_sequence_length(self):
        assert _variance_and_gains(FIG2_MODEL, 5)[1].shape == (4,)
        assert _variance_and_gains(FIG2_MODEL, 1)[1].shape == (0,)
