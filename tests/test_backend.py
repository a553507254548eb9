"""The numpy kernels and the coefficient-vector filter against the
step-by-step recursions they replaced (in helpers and reference_decimal)."""

import numpy as np
import pytest

from pmmkit import (
    backend_name,
    filter_coefficients,
    filter_init,
    filter_step,
    get_preset,
    markov_form,
    run_filter,
    sample,
)
from pmmkit._kernels_py import simulate_block, simulate_pairs
from pmmkit.pipeline import FittedModel, StandardizationParams, _window_errors
from pmmkit.simulate import BLOCK_STEPS, SCAN_BLOCK, _chol2
from helpers import random_valid_params, sequential_simulate_pairs, time_major_simulate_pairs
from reference_decimal import filter_weights

PRESETS = ("fig2", "fig3", "fig4", "fig5")
A = (0.81, -0.41, -0.18, 0.02)
L = (0.15, -0.03, 0.98)


def test_backend_reported():
    assert backend_name() == "python"


# The steps after the first: one block short of full, full, one step into
# a second and two; eight blocks, the last of two steps; and 3,907 blocks,
# the last of 64.
SCAN_STEPS = [
    1, 2, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, SCAN_BLOCK + 2, 7 * SCAN_BLOCK + 3,
    10**6 + 1,
]


@pytest.mark.parametrize("preset", ["fig2", "fig4", "fig5"])
@pytest.mark.parametrize("n_steps", SCAN_STEPS)
def test_sample_matches_sequential_loop(preset, n_steps):
    p = get_preset(preset).true_params
    m = markov_form(p)
    # The draws sample makes: the first pair, then one noise pair per step.
    rng = np.random.default_rng(31)
    e0 = rng.standard_normal(2)
    eps = rng.standard_normal((n_steps - 1, 2))
    x0, y0 = np.linalg.cholesky(m.marginal) @ e0
    (l11, _), (l21, l22) = np.linalg.cholesky(m.Q)
    x_ref, y_ref = sequential_simulate_pairs(
        *np.ravel(m.A), l11, l21, l22, x0, y0, eps
    )
    traj = sample(p, n_steps, seed=31)
    np.testing.assert_allclose(traj.x, x_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.y, y_ref, rtol=0, atol=1e-12)
    # Bit for bit, the padded time-major scan that the in-place one
    # replaced, on the Cholesky factors sample takes.
    l11, l21, l22 = _chol2(m.marginal)
    x0, y0 = l11 * e0[0], l21 * e0[0] + l22 * e0[1]
    want = time_major_simulate_pairs(*np.ravel(m.A), *_chol2(m.Q), x0, y0, eps)
    assert np.array_equal(traj.x, want[0]) and np.array_equal(traj.y, want[1])


@pytest.mark.parametrize("n_steps", SCAN_STEPS)
def test_simulate_pairs_bit_identical_to_time_major_scan(n_steps):
    rng = np.random.default_rng(31)
    x0, y0 = rng.standard_normal(2)
    eps = rng.standard_normal((n_steps - 1, 2))
    want = time_major_simulate_pairs(*A, *L, x0, y0, eps)
    got = simulate_pairs(*A, *L, x0, y0, eps)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_simulate_block_rows_bit_identical_to_sequential_loop():
    # Two Monte Carlo blocks of 13 steps and a partial one.
    reps = 2 * (BLOCK_STEPS // 13) + 3
    rng = np.random.default_rng(62)
    x0 = rng.standard_normal(reps)
    y0 = rng.standard_normal(reps)
    eps = rng.standard_normal((reps, 12, 2))
    x, y = simulate_block(*A, *L, x0, y0, eps)
    assert x.shape == y.shape == (reps, 13)
    for i in range(reps):
        x_ref, y_ref = sequential_simulate_pairs(*A, *L, x0[i], y0[i], eps[i])
        np.testing.assert_array_equal(x[i], x_ref)
        np.testing.assert_array_equal(y[i], y_ref)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("which", ["true", "hmm"])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 400])
def test_linear_filter_coefficients_match_quadratic_loop(preset, which, n):
    pr = get_preset(preset)
    p = pr.true_params if which == "true" else pr.hmm_reference
    # The O(n^2) recursion at 60 digits, rounded once.
    want = [float(w) for w in filter_weights(p, n)[-1]]
    np.testing.assert_allclose(filter_coefficients(markov_form(p), n), want, rtol=1e-13, atol=0)


def fold_filter_step(p, ys):
    m = markov_form(p)
    state = filter_init(m, ys[0])
    for y in ys[1:]:
        state = filter_step(state, m, float(y))
    return state


def test_run_filter_equals_fold_of_filter_step():
    rng = np.random.default_rng(65)
    for n in (1, 2, 3, 40, 700):
        p = random_valid_params(rng)
        ys = rng.standard_normal(n)
        state = fold_filter_step(p, ys)
        result = run_filter(markov_form(p), ys)
        assert result.n == state.n and result.last_y == state.last_y
        assert result.mean == pytest.approx(state.mean, abs=1e-12)
        assert result.variance == pytest.approx(state.variance, abs=1e-12)


@pytest.mark.parametrize("n, k", [(1, 0), (4, 2), (30, 5)])
def test_window_errors_equal_per_window_filter(n, k):
    p = get_preset("fig4").true_params
    model = FittedModel(
        params=p,
        x_standardize=StandardizationParams(0.3, 1.7),
        y_standardize=StandardizationParams(-0.2, 0.8),
    )
    traj = sample(p, 400, seed=67)
    x_test, y_test = 0.3 + 1.7 * traj.x, -0.2 + 0.8 * traj.y
    [(_, _, _, errors)] = _window_errors(model, x_test, y_test, [n], [k])
    m = markov_form(p)
    a_k = np.linalg.matrix_power(m.A, k)
    x_std, y_std = (x_test - 0.3) / 1.7, (y_test + 0.2) / 0.8
    assert errors.size == x_test.size - n - k + 1
    for i, err in enumerate(errors):
        state = fold_filter_step(p, y_std[i : i + n])
        prediction = a_k[0, 0] * state.mean + a_k[0, 1] * state.last_y
        assert err == pytest.approx((x_std[i + n - 1 + k] - prediction) ** 2, abs=1e-12)
