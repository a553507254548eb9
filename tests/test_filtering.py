import numpy as np
import pytest

from pmmkit import (
    InvalidModelError,
    PmmParams,
    TransitionModel,
    batch_filter_means,
    filter_init,
    filter_step,
    hmm_params,
    markov_form,
    oracle_filter,
    run_filter,
)
from pmmkit.filtering import (
    _variance_and_gains,
    filter_gain_sequence,
    filter_variance_sequence,
)
from pmmkit.model import _transition
from pmmkit.presets import PRESET_NAMES, get_preset
from helpers import (
    FIG2_PARAMS,
    loop_variance_and_gains,
    random_valid_params,
    scalar_hmm_kalman,
)

FIG2_MODEL = markov_form(FIG2_PARAMS)


class TestInit:
    def test_bivariate_conditioning(self):
        s = filter_init(hmm_params(0.9, -0.2), 1.0)
        assert s.mean == pytest.approx(-0.2, abs=1e-15)
        assert s.variance == pytest.approx(0.96, abs=1e-15)
        assert s.n == 1 and s.last_y == 1.0

    def test_independence(self):
        s = filter_init(PmmParams(0.3, 0.0, 0.1, 0.0, 0.0), 2.7)
        assert s.mean == 0.0 and s.variance == 1.0

    def test_pressure_scale_b(self):
        s = filter_init(PmmParams(0.9, -0.6, 0.5, -0.5, -0.5), 0.5)
        assert s.mean == pytest.approx(-0.3, abs=1e-15)
        assert s.variance == pytest.approx(0.64, abs=1e-15)


class TestStep:
    def test_memoryless_pairs(self):
        # a = 0 kills the transition entirely: each pair is independent of
        # the past, so the update reduces to conditioning within the pair.
        m = markov_form(hmm_params(0.0, 0.5))
        s = filter_init(hmm_params(0.0, 0.5), -1.3)
        s2 = filter_step(s, m, 0.8)
        assert s2.mean == pytest.approx(0.4, abs=1e-14)
        assert s2.variance == pytest.approx(0.75, abs=1e-14)

    def test_decoupled_channels(self):
        # b = c = d = e = 0: observations carry no information about X.
        p = PmmParams(0.5, 0.0, 0.0, 0.0, 0.0)
        m = markov_form(p)
        s = filter_init(p, 0.9)
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
        s = filter_init(p, 0.1)
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
            mean, var = oracle_filter(p, ys)
            assert state.mean == pytest.approx(mean, abs=1e-9)
            assert state.variance == pytest.approx(var, abs=1e-9)


class TestVarianceProperties:
    def test_variance_is_observation_independent(self):
        rng = np.random.default_rng(22)
        m = markov_form(FIG2_PARAMS)
        s1 = filter_init(FIG2_PARAMS, 5.0)
        s2 = filter_init(FIG2_PARAMS, -0.1)
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
        s = filter_init(p, ys[0])
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
        assert filter_gain_sequence(FIG2_MODEL, 5).shape == (4,)
        assert filter_gain_sequence(FIG2_MODEL, 1).shape == (0,)
