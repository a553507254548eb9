import numpy as np
import pytest

from pmmkit import InvalidModelError, PmmParams, markov_form
from pmmkit.model import gamma_from_params
from pmmkit.oracle import JointCovariance, build_joint, conditional
from pmmkit.error_analysis import filter_coefficients, theoretical_mse_pmm
from helpers import FIG2_PARAMS, random_valid_params


class TestBuildJoint:
    def test_single_pair_is_marginal(self):
        j = build_joint(FIG2_PARAMS, 1, 0)
        np.testing.assert_allclose(
            j.matrix, [[1.0, FIG2_PARAMS.b], [FIG2_PARAMS.b, 1.0]], atol=0
        )

    def test_two_pairs_permute_to_gamma(self):
        j = build_joint(FIG2_PARAMS, 2, 0)
        # stacked order (X1, X2, Y1, Y2) -> (X1, Y1, X2, Y2)
        perm = [0, 2, 1, 3]
        np.testing.assert_allclose(
            j.matrix[np.ix_(perm, perm)], gamma_from_params(FIG2_PARAMS), atol=1e-14
        )

    def test_independent_params_give_identity(self):
        j = build_joint(PmmParams(0, 0, 0, 0, 0), 3, 2)
        np.testing.assert_array_equal(j.matrix, np.eye(8))

    def test_consecutive_pair_blocks_match_gamma(self):
        rng = np.random.default_rng(41)
        p = random_valid_params(rng)
        j = build_joint(p, 4, 1)
        g = gamma_from_params(p)
        for t in range(1, 4):
            idx = [j.x_index(t), j.y_index(t), j.x_index(t + 1), j.y_index(t + 1)]
            np.testing.assert_allclose(j.matrix[np.ix_(idx, idx)], g, atol=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            build_joint(FIG2_PARAMS, 12, 5)
        build_joint(FIG2_PARAMS, 12, 5, cap=17)


class TestConditional:
    def test_pair_conditioning(self):
        j = build_joint(FIG2_PARAMS, 1, 0)
        w, var = conditional(j, j.x_index(1), [j.y_index(1)])
        assert w == pytest.approx([FIG2_PARAMS.b])
        assert var == pytest.approx(1 - FIG2_PARAMS.b**2, abs=1e-14)

    def test_independent_target(self):
        j = build_joint(PmmParams(0, 0, 0, 0, 0), 3, 1)
        w, var = conditional(j, j.x_index(4), [j.y_index(t) for t in (1, 2, 3)])
        np.testing.assert_array_equal(w, np.zeros(3))
        assert var == 1.0

    def test_non_positive_definite_block_rejected(self):
        j = JointCovariance(1, 1, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InvalidModelError):
            conditional(j, 0, [0, 1])

    def test_two_solver_cross_check(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = random_valid_params(rng)
            n, k = int(rng.integers(1, 9)), int(rng.integers(0, 4))
            j = build_joint(p, n, k)
            target = j.x_index(n + k)
            given = [j.y_index(t) for t in range(1, n + 1)]
            w, var = conditional(j, target, given)
            sigma_gg = j.matrix[np.ix_(given, given)]
            sigma_gt = j.matrix[given, target]
            w_ref = np.linalg.solve(sigma_gg, sigma_gt)
            np.testing.assert_allclose(w, w_ref, atol=1e-10)
            var_ref = j.matrix[target, target] - sigma_gt @ w_ref
            assert var == pytest.approx(var_ref, abs=1e-10)


class TestAgainstRecursions:
    def test_conditional_weights_match_filter_coefficients(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            p = random_valid_params(rng)
            n = int(rng.integers(1, 13))
            j = build_joint(p, n, 0)
            w, _ = conditional(
                j, j.x_index(n), [j.y_index(t) for t in range(1, n + 1)]
            )
            coeffs = filter_coefficients(markov_form(p), n)
            np.testing.assert_allclose(w, coeffs, atol=1e-9)

    def test_conditional_variance_matches_theoretical_mse(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            p = random_valid_params(rng)
            n = int(rng.integers(1, 10))
            k = int(rng.integers(0, 13 - n))
            j = build_joint(p, n, k)
            _, var = conditional(
                j, j.x_index(n + k), [j.y_index(t) for t in range(1, n + 1)]
            )
            assert theoretical_mse_pmm(p, n, k) == pytest.approx(var, abs=1e-9)
