import json

import numpy as np
import pytest

from pmmkit import (
    InvalidModelError,
    PmmParams,
    gamma_from_params,
    hmm_params,
    is_hmm,
    load_params,
    markov_form,
    matrix_power_coeffs,
    save_params,
    validate,
)
from helpers import FIG2_PARAMS, FIG4_PARAMS, PRESSURE_PARAMS, random_valid_params


class TestGamma:
    def test_independent_case_is_identity(self):
        np.testing.assert_array_equal(
            gamma_from_params(PmmParams(0, 0, 0, 0, 0)), np.eye(4)
        )

    def test_hmm_base_entries(self):
        g = gamma_from_params(hmm_params(0.9, -0.2))
        assert g[0, 2] == 0.9
        assert g[0, 1] == -0.2
        assert g[1, 3] == pytest.approx(0.036, abs=1e-15)

    def test_perturbed_cross_covariance_entry(self):
        g = gamma_from_params(FIG2_PARAMS)
        assert g[2, 1] == -0.58

    def test_stationary_block_structure(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_valid_params(rng)
            g = gamma_from_params(p)
            np.testing.assert_allclose(g, g.T, atol=0)
            np.testing.assert_array_equal(np.diag(g), np.ones(4))
            assert g[0, 1] == g[2, 3] == p.b
            assert g[0, 2] == p.a


class TestHmmParams:
    def test_base_values(self):
        p = hmm_params(0.9, -0.2)
        assert p.astuple() == pytest.approx((0.9, -0.2, 0.036, -0.18, -0.18))

    def test_zero_persistence(self):
        assert hmm_params(0, 0.5).astuple() == (0, 0.5, 0, 0, 0)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidModelError):
            hmm_params(0.5, 1.0)
        with pytest.raises(InvalidModelError):
            hmm_params(-1.0, 0.2)


class TestIsHmm:
    def test_exact_hmm(self):
        assert is_hmm(hmm_params(0.9, -0.2), tol=0)

    def test_perturbed_model_is_not(self):
        assert not is_hmm(FIG2_PARAMS, tol=1e-6)

    def test_fitted_pressure_model_is_not(self):
        # a*b^2 = 0.359 vs c = 0.986
        assert not is_hmm(PRESSURE_PARAMS, tol=1e-3)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_hmm(FIG2_PARAMS, tol=-1.0)


class TestMarkovForm:
    def test_hmm_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            m = markov_form(hmm_params(a, b))
            np.testing.assert_allclose(m.A, [[a, 0], [a * b, 0]], atol=1e-12)
            np.testing.assert_allclose(
                m.Q,
                [
                    [1 - a * a, b * (1 - a * a)],
                    [b * (1 - a * a), 1 - a * a * b * b],
                ],
                atol=1e-12,
            )

    def test_independent_case(self):
        m = markov_form(PmmParams(0, 0, 0, 0, 0))
        np.testing.assert_array_equal(m.A, np.zeros((2, 2)))
        np.testing.assert_array_equal(m.Q, np.eye(2))

    def test_pinned_fig2_values(self):
        # Direct evaluation with the exact 2x2 inverse; cross-checked by the
        # stationarity fixed point below.
        m = markov_form(FIG2_PARAMS)
        np.testing.assert_allclose(
            m.A, [[49 / 60, -5 / 12], [-0.18, 0.0]], atol=1e-12
        )
        np.testing.assert_allclose(
            m.Q, [[7 / 300, -0.038], [-0.038, 0.9676]], atol=1e-12
        )

    def test_singular_marginal_rejected(self):
        with pytest.raises(InvalidModelError):
            markov_form(PmmParams(0.5, 1.0, 0.1, 0.1, 0.1))

    def test_non_psd_noise_rejected(self):
        with pytest.raises(InvalidModelError):
            markov_form(PmmParams(0.9, 0.0, 0.9, 0.9, 0.9))

    def test_stationarity_fixed_point(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = markov_form(random_valid_params(rng))
            np.testing.assert_allclose(
                m.A @ m.marginal @ m.A.T + m.Q, m.marginal, atol=1e-10
            )

    def test_one_step_covariances_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_valid_params(rng)
            m = markov_form(p)
            cross = m.A @ m.marginal  # Cov[Z_{n+1}, Z_n]
            np.testing.assert_allclose(
                cross, [[p.a, p.e], [p.d, p.c]], atol=1e-12
            )


class TestMatrixPowerCoeffs:
    def test_zeroth_power_is_identity(self):
        m = markov_form(FIG2_PARAMS)
        assert matrix_power_coeffs(m, 0)[1:] == (1, 0, 0, 1)

    def test_first_power_is_a(self):
        m = markov_form(FIG2_PARAMS)
        pc = matrix_power_coeffs(m, 1)
        np.testing.assert_allclose(
            [pc.xx, pc.xy, pc.yx, pc.yy], m.A.ravel(), atol=0
        )

    def test_hmm_square(self):
        a, b = 0.7, 0.3
        pc = matrix_power_coeffs(markov_form(hmm_params(a, b)), 2)
        np.testing.assert_allclose(
            [pc.xx, pc.xy, pc.yx, pc.yy], [a**2, 0, a**2 * b, 0], atol=1e-14
        )

    def test_fifth_power_matches_naive_product(self):
        m = markov_form(FIG2_PARAMS)
        naive = m.A @ m.A @ m.A @ m.A @ m.A
        pc = matrix_power_coeffs(m, 5)
        np.testing.assert_allclose(
            [[pc.xx, pc.xy], [pc.yx, pc.yy]], naive, atol=1e-14
        )

    def test_power_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = markov_form(random_valid_params(rng))
            j, k = rng.integers(0, 11, size=2)
            pj = matrix_power_coeffs(m, int(j))
            pk = matrix_power_coeffs(m, int(k))
            pjk = matrix_power_coeffs(m, int(j + k))
            left = np.array([[pj.xx, pj.xy], [pj.yx, pj.yy]]) @ np.array(
                [[pk.xx, pk.xy], [pk.yx, pk.yy]]
            )
            np.testing.assert_allclose(
                left, [[pjk.xx, pjk.xy], [pjk.yx, pjk.yy]], atol=1e-12
            )

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            matrix_power_coeffs(markov_form(FIG2_PARAMS), -1)


class TestValidate:
    def test_valid_hmm(self):
        report = validate(hmm_params(0.9, -0.2))
        assert report.ok and report.is_hmm

    def test_duplicate_variable_degeneracy(self):
        report = validate(PmmParams(1.0, 0, 0, 0, 0))
        assert not report.gamma_pd
        assert not report.ok

    def test_fig4_params_admissible(self):
        report = validate(FIG4_PARAMS)
        assert report.ok and not report.is_hmm

    def test_hmm_noise_matches_classic_form(self):
        # Expanding the Markov-form noise under the HMM constraints must
        # reproduce the classic-representation noise covariance.
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            m = markov_form(hmm_params(a, b))
            classic = np.array(
                [
                    [1 - a * a, b * (1 - a * a)],
                    [b * (1 - a * a), 1 - a * a * b * b],
                ]
            )
            np.testing.assert_allclose(m.Q, classic, atol=1e-12)

    def test_singular_marginal_reported(self):
        report = validate(PmmParams(0.2, 1.0, 0.2, 0.2, 0.2))
        assert not report.ok
        assert report.spectral_radius == float("inf")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(FIG2_PARAMS, path)
        assert load_params(path) == FIG2_PARAMS
        doc = json.loads(path.read_text())
        assert set(doc) == {"a", "b", "c", "d", "e"}

    def test_load_accepts_nested_model_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"params": FIG2_PARAMS.to_dict(), "repaired": False}))
        assert load_params(path) == FIG2_PARAMS

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"a": 0.9, "c": 0.0, "d": 0.0, "e": 0.0}, ["missing b"]),
            ({"a": 0.9, "b": "x", "c": None, "d": 0.0, "e": 0.0}, ["b, c"]),
            ({"a": float("nan"), "b": 0.1, "d": 0.0, "e": 0.0}, ["missing c", ": a"]),
            ([0.9, 0.1, 0.0, 0.0, 0.0], ["keys a..e"]),
        ],
    )
    def test_bad_document_names_the_keys(self, doc, named):
        with pytest.raises(ValueError) as info:
            PmmParams.from_dict(doc)
        for text in named:
            assert text in str(info.value)
