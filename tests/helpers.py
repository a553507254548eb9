"""Shared test utilities: each reference, and the claim it gates.

- random_valid_params, random_hmm: random admissible models, the inputs of many tests.
- scalar_hmm_kalman, scalar_hmm_filter_coefficients: the hidden-Markov filter is a scalar Kalman.
- sequential_simulate_pairs: ``simulate._scan`` equals one Python step per time point.
- time_major_simulate_pairs: ``simulate._scan`` equals its time-major parent, bit for bit.
- dictreader_columns: ``io.read_columns`` equals a ``csv.DictReader`` read, bit for bit.
- loop_variance_and_gains: the filter's cycle exit equals a Riccati step per t, bit for bit.
- reference_forecast: ``forecast_path`` equals each horizon rebuilt from scratch.
- scalar_mse_grid, scalar_mse_pmm: the optimal MSE equals the scalar variance recursion.
- forecast_coefficients: the k-step weights that the quadratic form and the oracle read.
- quadratic_form_mse: any forecaster's MSE equals the Pythagoras split over n x n covariances.
- loop_forecaster_mse: ``forecaster_mse``'s cycle exit equals its step to every n, bit for bit.
- cycle_entry_and_period, filter_entry_and_period: the (mu, lambda) that bound a cycle exit.
- simulated_errors: Monte Carlo's error weights are the errors of simulated, filtered draws.
- whole_batch_monte_carlo_mse: ``monte_carlo_mse`` equals simulating and filtering each replicate.
- whole_batch_weighted_mse, block_stream_noise, pieces: no block or thread count moves a digit.
- single_stream_monte_carlo_mse: the per-block streams sample the one-stream parent's law.
- unfloored_*: FLOOR changes no filter mean or Monte Carlo digit.
- single_window_errors: ``evaluate``'s one pass equals two one-forecaster passes, bit for bit.
- stacked_design_matrix: ``pipeline._design_matrix`` equals its column-stacked parent, bit for bit.
- retaining_error_weights: ``simulate._error_weights`` equals its Python-loop parent.
- rowwise_*: the block writers print the bytes of one f-string per row.

The exact theory's reference, filter weights included, is ``reference_decimal``, at 60 digits.
"""

from __future__ import annotations

import csv
import math
from array import array

import numpy as np

from pmmkit import PmmParams, filter_coefficients, hmm_params, markov_form, validate
from pmmkit import _kernels_py as kernels
from pmmkit import simulate
from pmmkit.error_analysis import _augmented_recursion, observation_covariance
from pmmkit.filtering import _variance_and_gains, batch_filter_means, filter_variance_sequence
from pmmkit.forecasting import (
    FLOOR, MAX_INDEX, MAX_REPLICATE_STEPS, MAX_REPLICATES, _horizon_terms, check_grid, check_int,
)
from pmmkit.riccati import _riccati_step
from pmmkit.simulate import BLOCK_STEPS, SCAN_BLOCK, _chol2, _error_weights, _rng
from reference_decimal import FOUND_PARAMS, PRESSURE_PARAMS, SOIL_PARAMS  # noqa: F401


def random_valid_params(rng, max_spectral_radius: float = 0.999) -> PmmParams:
    """Rejection-sample an admissible parameter set."""
    while True:
        p = PmmParams(*rng.uniform(-0.95, 0.95, size=5))
        report = validate(p)
        if report.ok and report.spectral_radius <= max_spectral_radius:
            return p


def random_hmm(rng) -> PmmParams:
    return hmm_params(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))


def scalar_hmm_kalman(a: float, b: float, ys, k: int = 0):
    """Textbook scalar Kalman filter for the classic hidden-Markov form

        X_1 ~ N(0, 1),  X_{t+1} = a X_t + sqrt(1-a^2) U_{t+1},
        Y_t = b X_t + sqrt(1-b^2) V_t,

    written as plain predict/update on the scalar hidden chain, independent
    of the pairwise formulation.  Returns (filter_mean, filter_variance,
    forecast_mean, forecast_variance) with the forecast at horizon k.
    """
    obs_noise = 1.0 - b * b
    proc_noise = 1.0 - a * a
    prior_mean, prior_var = 0.0, 1.0
    mean = var = None
    for y in np.asarray(ys, dtype=float):
        innovation_var = b * b * prior_var + obs_noise
        gain = prior_var * b / innovation_var
        mean = prior_mean + gain * (y - b * prior_mean)
        var = (1.0 - gain * b) * prior_var
        prior_mean = a * mean
        prior_var = a * a * var + proc_noise
    f_mean, f_var = mean, var
    for _ in range(k):
        f_mean = a * f_mean
        f_var = a * a * f_var + proc_noise
    return mean, var, f_mean, f_var


def scalar_hmm_filter_coefficients(a: float, b: float, n: int) -> np.ndarray:
    """Observation weights of the scalar Kalman filter mean, by linearity:
    column i is the filter output on the i-th unit observation sequence."""
    weights = np.empty(n)
    for i in range(n):
        unit = np.zeros(n)
        unit[i] = 1.0
        weights[i] = scalar_hmm_kalman(a, b, unit)[0]
    return weights


def sequential_simulate_pairs(a1, a2, a3, a4, l11, l21, l22, x0, y0, eps):
    """One trajectory of Z_{t+1} = A Z_t + L w_{t+1}, one Python step per
    time point; ``eps`` has shape (steps-1, 2)."""
    steps = eps.shape[0] + 1
    x, y = np.empty(steps), np.empty(steps)
    x[0] = xs = float(x0)
    y[0] = ys = float(y0)
    for t, (u, v) in enumerate(zip(eps[:, 0].tolist(), eps[:, 1].tolist()), start=1):
        xs, ys = a1 * xs + a2 * ys + l11 * u, a3 * xs + a4 * ys + l21 * u + l22 * v
        x[t], y[t] = xs, ys
    return x, y


def time_major_simulate_pairs(a1, a2, a3, a4, l11, l21, l22, x0, y0, eps):
    """``_kernels_py.simulate_pairs`` before ``simulate._scan`` worked in
    place: the noise padded to whole blocks and copied time-major.

    ``eps`` has shape (steps-1, 2); returns x, y arrays of length steps.

    The steps after the first split into blocks of SCAN_BLOCK.  Inside a
    block the state i steps in is A^i s + r_i, where s is the state entering
    the block and r_i the response to the block's own noise from a zero
    start.  The responses of all blocks advance together, one step per
    iteration; a scalar loop then carries the entry states forward,
    s' = A^B s + r_B.
    """
    steps = eps.shape[0] + 1
    x, y = np.empty(steps), np.empty(steps)
    x[0], y[0] = x0, y0
    if steps == 1:
        return x, y
    width = min(SCAN_BLOCK, steps - 1)
    blocks = -(-(steps - 1) // width)
    noise_x, noise_y = np.zeros(blocks * width), np.zeros(blocks * width)
    noise_x[: steps - 1] = l11 * eps[:, 0]
    noise_y[: steps - 1] = l21 * eps[:, 0] + l22 * eps[:, 1]
    # Time-major (width, blocks): row i holds step i of every block.
    rx = np.ascontiguousarray(noise_x.reshape(blocks, width).T)
    ry = np.ascontiguousarray(noise_y.reshape(blocks, width).T)
    for i in range(1, width):
        rx[i] += a1 * rx[i - 1] + a2 * ry[i - 1]
        ry[i] += a3 * rx[i - 1] + a4 * ry[i - 1]
    # powers[i] = A^(i+1)
    powers = np.empty((width, 2, 2))
    powers[0] = ((a1, a2), (a3, a4))
    for i in range(1, width):
        powers[i] = powers[0] @ powers[i - 1]
    (p11, p12), (p21, p22) = powers[-1].tolist()
    sx, sy = np.empty(blocks), np.empty(blocks)
    xs, ys = float(x0), float(y0)
    for b, (ex, ey) in enumerate(zip(rx[-1].tolist(), ry[-1].tolist())):
        sx[b] = xs
        sy[b] = ys
        xs, ys = p11 * xs + p12 * ys + ex, p21 * xs + p22 * ys + ey
    x_blocks = powers[:, 0, :1] * sx + powers[:, 0, 1:] * sy + rx
    y_blocks = powers[:, 1, :1] * sx + powers[:, 1, 1:] * sy + ry
    x[1:] = x_blocks.T.ravel()[: steps - 1]
    y[1:] = y_blocks.T.ravel()[: steps - 1]
    return x, y


def dictreader_columns(path, names) -> tuple[np.ndarray, ...]:
    """Row-by-row ``csv.DictReader`` read of the named columns
    (case-insensitive, stripped header names), one ``float()`` per field."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        keys = {name.strip().lower(): name for name in reader.fieldnames}
        columns = [[] for _ in names]
        for row in reader:
            for column, name in zip(columns, names):
                column.append(float(row[keys[name]]))
    return tuple(np.asarray(column) for column in columns)


def loop_variance_and_gains(m, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Filter variances (t = 1..n) and gains (t = 2..n), one Riccati step
    per t with no early exit."""
    variances = np.empty(n)
    gains = np.empty(n - 1)
    p = variances[0] = 1.0 - m.b * m.b
    for t in range(1, n):
        gains[t - 1], p = _riccati_step(m, p)
        variances[t] = p
    return variances, gains


def reference_forecast(s, m, k: int) -> tuple[float, float]:
    """Predictive mean and variance at horizon k >= 1 from a filter state,
    each horizon rebuilt from scratch: the mean from the entries of A^k,
    the variance by k steps of S <- A S A^T + Q from diag(P, 0)."""
    if k < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {k}")
    A, Q = np.array(m.A), np.array(m.Q)
    power = np.eye(2)
    cov = np.array([[s.variance, 0.0], [0.0, 0.0]])
    for _ in range(k):
        power = A @ power
        cov = A @ cov @ A.T + Q
    return power[0, 0] * s.mean + power[0, 1] * s.last_y, float(cov[0, 0])


def scalar_mse_grid(p: PmmParams, n_values, k_values) -> dict:
    """MSE of the optimal forecaster, V[X_{n+k} | Y_1:n], for every (n, k)
    of the grid by the scalar recursions: the filter variance P_n, then k
    steps of S <- A S A^T + Q from diag(P_n, 0), run for all n at once."""
    m = markov_form(p)
    A, Q = np.array(m.A), np.array(m.Q)
    n_values = np.array(sorted(set(n_values)))
    cov = np.zeros((n_values.size, 2, 2))
    cov[:, 0, 0] = filter_variance_sequence(m, n_values[-1])[n_values - 1]
    out = {}
    for k in range(max(k_values) + 1):
        if k in k_values:
            out.update(((int(n), k), float(v)) for n, v in zip(n_values, cov[:, 0, 0]))
        cov = A @ cov @ A.T + Q
    return out


def scalar_mse_pmm(p: PmmParams, n: int, k: int) -> float:
    """One point of ``scalar_mse_grid``."""
    return scalar_mse_grid(p, [n], [k])[(n, k)]


def forecast_coefficients(m, n: int, k: int) -> np.ndarray:
    """Observation weights of the k-step forecast E[X_{n+k} | Y_1:n]: the
    filter weights scaled by [A^k]_00, plus [A^k]_01 on the last one."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    xx, xy = np.linalg.matrix_power(m.A, k)[0]
    w = xx * filter_coefficients(m, n)
    w[-1] += xy
    return w


def quadratic_form_mse(p_true: PmmParams, p_fc: PmmParams, n: int, k: int) -> float:
    """MSE of the forecaster built from ``p_fc`` on data from ``p_true`` by
    the Pythagoras split: the optimal MSE plus the quadratic form of the
    two coefficient vectors' difference in the n x n observation
    covariance.  O(n^2) memory."""
    m_true = markov_form(p_true)
    m_fc = markov_form(p_fc)
    if k == 0:
        delta = filter_coefficients(m_true, n) - filter_coefficients(m_fc, n)
    else:
        delta = forecast_coefficients(m_true, n, k) - forecast_coefficients(m_fc, n, k)
    sigma = observation_covariance(m_true, m_true.b, n)
    return scalar_mse_pmm(p_true, n, k) + float(delta @ sigma @ delta)


def loop_forecaster_mse(p_true: PmmParams, p_fc: PmmParams, n_values, k_values) -> dict:
    """``forecaster_mse`` with the production step taken once per t up to
    the largest n, and each point's sum written as in
    ``error_analysis._mse_grid``, operation for operation: no cycle exit."""
    n_values, k_values = sorted(set(n_values)), sorted(set(k_values))
    m, m_fc = markov_form(p_true), markov_form(p_fc)
    terms, fc_terms = _horizon_terms(m, k_values), _horizon_terms(m_fc, k_values)
    state, step = _augmented_recursion(m, m_fc)
    out = {}
    t = 1
    for n in n_values:
        for _ in range(n - t):
            state = step(state)
        t = n
        _, s13, s23, s33 = state
        for j, k in enumerate(k_values):
            xx, xy, noise = (column[j] for column in terms)
            v3, fc_xy, _ = (column[j] for column in fc_terms)
            v1, v2 = xx - v3, xy - fc_xy
            fixed = v1 * v1 + 2.0 * m.b * v1 * v2 + v2 * v2 + noise
            out[(n, k)] = fixed + v3 * (2.0 * (v1 * s13 + v2 * s23) + v3 * s33)
    return out


def cycle_entry_and_period(p_true: PmmParams, p_fc: PmmParams) -> tuple[int, int]:
    """(mu, lambda) of the exact-MSE pass over the state (P, s13, s23, s33)."""
    return entry_and_period(*_augmented_recursion(markov_form(p_true), markov_form(p_fc)))


def filter_entry_and_period(m) -> tuple[int, int]:
    """(mu, lambda) of the filter's pass over the state (G_t, P_t), from
    (None, P_1)."""
    return entry_and_period((None, 1.0 - m.b * m.b), lambda state: _riccati_step(m, state[1]))


def entry_and_period(state, step) -> tuple[int, int]:
    """(mu, lambda) of the orbit of ``state`` under ``step``: the state of
    step t >= mu equals that of step t + lambda, and mu is the first such
    step (t = 1 is the start).  Every state is kept in a dict, so the memory
    is O(mu + lambda)."""
    seen = {}
    t = 1
    while state not in seen:
        seen[state] = t
        state = step(state)
        t += 1
    return seen[state], t - seen[state]


def simulated_errors(
    p_true: PmmParams, p_fc: PmmParams, n: int, k: int, e0: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Forecast errors of replicates simulated from the draws ``e0`` (reps,
    2) and ``eps`` (reps, n + k - 1, 2) by ``simulate_block`` and filtered by
    ``batch_filter_means``: the path that ``monte_carlo_mse`` replaced."""
    m_true = markov_form(p_true)
    m_fc = markov_form(p_fc)
    l011, l021, l022 = _chol2(m_true.marginal)
    lq11, lq21, lq22 = _chol2(m_true.Q)
    x0 = l011 * e0[:, 0]
    y0 = l021 * e0[:, 0] + l022 * e0[:, 1]
    a1, a2 = m_true.A[0]
    a3, a4 = m_true.A[1]
    x, y = kernels.simulate_block(a1, a2, a3, a4, lq11, lq21, lq22, x0, y0, eps)
    means = batch_filter_means(m_fc, y[:, :n])
    power = np.eye(2)
    for _ in range(k):
        power = m_fc.A @ power
    predictions = power[0, 0] * means + power[0, 1] * y[:, n - 1]
    return x[:, n + k - 1] - predictions


def block_stream_noise(seed: int, n: int, k: int, reps: int) -> np.ndarray:
    """The normals of every replicate at once, shape (reps, 2 (n + k)), in
    the layout of ``monte_carlo_mse``: block j of max(1, BLOCK_STEPS //
    (n + k)) replicates draws its rows from SeedSequence(seed,
    spawn_key=(j,)), the first pair of each row first.  BLOCK_STEPS is read
    at call time, so that a test may set it."""
    chunk = max(1, simulate.BLOCK_STEPS // (n + k))
    return np.concatenate([
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        .standard_normal((min(chunk, reps - lo), 2 * (n + k)))
        for j, lo in enumerate(range(0, reps, chunk))
    ])


def pieces(width: int) -> list[slice]:
    """The column slices in which ``monte_carlo_mse`` takes a row of
    ``width`` normals: one, unless the row is longer than BLOCK_STEPS steps,
    then pieces of BLOCK_STEPS steps (BLOCK_STEPS read at call time)."""
    piece = 2 * simulate.BLOCK_STEPS
    return [slice(c, c + piece) for c in range(0, width, piece)]


def whole_batch_monte_carlo_mse(
    p_true: PmmParams, p_fc: PmmParams, n: int, k: int, reps: int, seed: int
) -> tuple[float, float]:
    """``monte_carlo_mse`` by simulating and filtering every replicate, with
    the noise of every replicate drawn at once from the streams of
    ``block_stream_noise``: O(reps * (n + k)) memory."""
    noise = block_stream_noise(seed, n, k, reps)
    e0 = noise[:, :2]
    eps = noise[:, 2:].reshape(reps, n + k - 1, 2)
    sq_errors = simulated_errors(p_true, p_fc, n, k, e0, eps) ** 2
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / math.sqrt(reps))


def whole_batch_weighted_mse(
    p_true: PmmParams, p_fc: PmmParams, n: int, k: int, reps: int, seed: int
) -> tuple[float, float]:
    """``monte_carlo_mse`` with the noise of every replicate drawn at once
    from the streams of ``block_stream_noise`` and weighted by one
    ``np.einsum`` per piece of the rows: the production arithmetic without
    the blocks or the threads, O(reps * (n + k)) memory.  Except that
    einsum sums a row of more than 8,192 normals in another order alone
    than in a batch, so a one-replicate block of such rows can differ in
    the last digit."""
    weights = _error_weights(markov_form(p_true), markov_form(p_fc), n, k).ravel()
    noise = block_stream_noise(seed, n, k, reps)
    errors = np.zeros(reps)
    for cols in pieces(weights.size):
        errors += np.einsum("ij,j->i", np.ascontiguousarray(noise[:, cols]), weights[cols])
    sq_errors = errors * errors
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / math.sqrt(reps))


def single_stream_monte_carlo_mse(
    p_true: PmmParams, forecaster_params: PmmParams, n: int, k: int, reps: int, seed: int,
    names=("reps", "n", "k"),
) -> tuple[float, float]:
    """``monte_carlo_mse`` as it was on one stream and one thread: the
    first pairs of all replicates up front, then each block's noise, from
    the one generator of ``seed``."""
    reps = check_int(reps, names[0], 100, MAX_REPLICATES)
    check_grid([n], [k], names[1:])
    what = f"replicate-steps of {names[0]} ({reps}) times {names[1]} + {names[2]} ({n + k})"
    check_int(reps * (n + k), what, 1, MAX_REPLICATE_STEPS)
    weights = _error_weights(markov_form(p_true), markov_form(forecaster_params), n, k)
    rng = _rng(seed)
    e0 = rng.standard_normal((reps, 2))
    errors = weights[0, 0] * e0[:, 0] + weights[0, 1] * e0[:, 1]
    del e0
    step_weights = weights[1:].ravel()
    chunk = max(1, BLOCK_STEPS // (n + k))
    for lo in range(0, reps, chunk):
        rows = min(chunk, reps - lo)
        noise = rng.standard_normal((rows, n + k - 1, 2)).reshape(rows, -1)
        errors[lo : lo + rows] += np.einsum("ij,j->i", noise, step_weights)
        del noise  # so that the next block's draw does not overlap this one
    sq_errors = errors * errors
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / math.sqrt(reps))


def unfloored_weights(m, gains: np.ndarray) -> np.ndarray:
    """``filtering._weights`` before ``forecasting.FLOOR``: the whole suffix
    product by one ``np.cumprod``, and no weight set to 0.0."""
    (a1, a2), (a3, a4) = m.A
    entry = np.concatenate(([m.b], gains))
    c = a1 - a3 * gains
    d = a2 - a4 * gains
    suffix = np.append(np.cumprod(c[::-1])[::-1][1:], 1.0)
    weights = np.empty(entry.size)
    weights[:-1] = (entry[:-1] * c + d) * suffix
    weights[-1] = entry[-1]
    return weights


def unfloored_error_weights(m_true, m_fc, n: int, k: int) -> np.ndarray:
    """``simulate._error_weights`` before ``forecasting.FLOOR``: no weight
    is set to 0.0, the filter weights are ``unfloored_weights``, and the
    forecaster's first row of A^k comes from the row recurrence of
    ``_horizon_terms`` without its floor."""
    (f1, f2), (f3, f4) = m_fc.A
    xx, xy = 1.0, 0.0
    for _ in range(k):
        xx, xy = xx * f1 + xy * f3, xx * f2 + xy * f4
    v = (xx * unfloored_weights(m_fc, _variance_and_gains(m_fc, n)[1])).tolist()
    v[-1] += xy
    l011, l021, l022 = _chol2(m_true.marginal)
    lq11, lq21, lq22 = _chol2(m_true.Q)
    (a1, a2), (a3, a4) = m_true.A
    # Z_t is numbered from t = 0 here, so Y_1:n are the y of t = 0..n-1.
    rows = []
    lam_x, lam_y = 1.0, 0.0
    for t in range(n + k - 1, 0, -1):
        if t < n:
            lam_y -= v[t]
        rows.append((lam_x * lq11 + lam_y * lq21, lam_y * lq22))
        lam_x, lam_y = lam_x * a1 + lam_y * a3, lam_x * a2 + lam_y * a4
    lam_y -= v[0]
    rows.append((lam_x * l011 + lam_y * l021, lam_y * l022))
    return np.array(rows[::-1])


def unfloored_monte_carlo_mse(
    p_true: PmmParams, p_fc: PmmParams, n: int, k: int, reps: int, seed: int
) -> tuple[float, float]:
    """``monte_carlo_mse`` weighted by ``unfloored_error_weights``, on the
    streams of ``block_stream_noise`` but one replicate at a time, so its
    memory is O(n + k) at any length: consecutive draws from a block's
    generator equal the block's one draw bit for bit."""
    weights = unfloored_error_weights(markov_form(p_true), markov_form(p_fc), n, k).ravel()
    chunk = max(1, simulate.BLOCK_STEPS // (n + k))
    errors = np.zeros(reps)
    for j, lo in enumerate(range(0, reps, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        for i in range(lo, min(lo + chunk, reps)):
            for cols in pieces(weights.size):
                noise = rng.standard_normal((1, weights[cols].size))
                errors[i : i + 1] += np.einsum("ij,j->i", noise, weights[cols])
    sq_errors = errors * errors
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / math.sqrt(reps))


def single_window_errors(model, x_test, y_test, n_values, k_values):
    """``pipeline._window_errors`` before it scored the hidden-Markov
    restriction in the same pass: one forecaster, ``model.params``, per
    call.

    Yield (n, k, squared errors of every sliding (n, k) window) over the
    grid and series ``evaluate_grid`` checked; each n's filter means are
    computed once, and every k's horizon coefficients come from one pass."""
    x_std = model.x_standardize.apply(x_test)
    y_std = model.y_standardize.apply(y_test)
    m = markov_form(model.params)
    terms = _horizon_terms(m, k_values)
    for n in n_values:
        means = np.correlate(y_std, filter_coefficients(m, n), "valid")
        for j, k in enumerate(k_values):
            count = x_test.size - n - k + 1
            xx, xy, _ = (column[j] for column in terms)
            predictions = xx * means[:count] + xy * y_std[n - 1 : n - 1 + count]
            targets = x_std[n - 1 + k : n - 1 + k + count]
            yield n, k, (targets - predictions) ** 2


def stacked_design_matrix(start_index: int, count: int, periods) -> np.ndarray:
    """``pipeline._design_matrix`` before it filled one array: five column
    arrays, each phase formed once per column, joined by ``np.column_stack``."""
    # The last row's 1-based index must be a float exactly; see MAX_INDEX.
    last = check_int(start_index, "start_index", 0) + count
    check_int(last, "start_index + rows", 0, MAX_INDEX)
    i = np.arange(start_index + 1, start_index + count + 1, dtype=float)
    p1, p2 = periods
    return np.column_stack(
        [
            np.ones(count),
            np.cos(2.0 * np.pi * i / p1),
            np.sin(2.0 * np.pi * i / p1),
            np.cos(2.0 * np.pi * i / p2),
            np.sin(2.0 * np.pi * i / p2),
        ]
    )


def retaining_error_weights(m_true, m_fc, n: int, k: int) -> np.ndarray:
    """``simulate._error_weights`` before it ran ``simulate._scan``, one
    Python step per time point, released its list of filter weights and its
    row buffer early and floored without ``np.abs``."""
    (xx,), (xy,), _ = _horizon_terms(m_fc, [k])
    v = (xx * filter_coefficients(m_fc, n)).tolist()
    v[-1] += xy
    l011, l021, l022 = _chol2(m_true.marginal)
    lq11, lq21, lq22 = _chol2(m_true.Q)
    (a1, a2), (a3, a4) = m_true.A
    # Z_t is numbered from t = 0 here, so Y_1:n are the y of t = 0..n-1.
    rows = array("d")  # the pairs, last row first: 16 bytes a row
    lam_x, lam_y = 1.0, 0.0
    for t in range(n + k - 1, 0, -1):
        if t < n:
            lam_y -= v[t]
        rows.append(lam_x * lq11 + lam_y * lq21)
        rows.append(lam_y * lq22)
        lam_x, lam_y = lam_x * a1 + lam_y * a3, lam_x * a2 + lam_y * a4
    lam_y -= v[0]
    rows.append(lam_x * l011 + lam_y * l021)
    rows.append(lam_y * l022)
    weights = np.frombuffer(rows, dtype=float).reshape(-1, 2)[::-1].copy()
    weights[np.abs(weights) < FLOOR] = 0.0
    return weights


def rowwise_trajectory_to_csv(traj, fh) -> None:
    """``trajectory_to_csv`` with one f-string per row."""
    fh.write("t,x,y\n")
    for t, (xv, yv) in enumerate(zip(traj.x, traj.y), start=1):
        fh.write(f"{t},{xv:.12e},{yv:.12e}\n")


def rowwise_table(fh, columns, rows) -> None:
    """The CLI's table writer before ``io.write_rows``: one line per row,
    ints and strs printed by ``str`` and everything else as ``.12e``."""
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(str(v) if isinstance(v, (int, str)) else f"{v:.12e}" for v in row) + "\n")


def rowwise_curves_to_csv(rows, fh) -> None:
    """``curves_to_csv`` with one f-string per row."""
    fh.write("model,sweep,index,mse\n")
    for model, sweep, index, mse in rows:
        fh.write(f"{model},{sweep},{index},{mse:.12e}\n")


# Reference parameter sets: fig2/fig4 perturb the cross covariances of the
# hidden-Markov base a=0.90, b=-0.20; the real examples live beside the
# 60-digit reference, which loads no numpy.
FIG2_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.18, -0.58)
FIG4_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.38, -0.58)
