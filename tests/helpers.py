"""Shared test utilities: random admissible models, an independent scalar
Kalman reference for the hidden-Markov special case, and the step-by-step
loops, the left-multiplication k-step map, the per-horizon forecast and
variance recursions, the forecast coefficients, the n x n quadratic form,
the row-by-row CSV reader and writers, the exact-MSE pass as one numpy
matrix product per step, the exact-MSE grid as per-k weights and an (n, k)
dict, and the simulate-and-filter Monte Carlo that the production paths
replaced, kept as references; the production exact-MSE
step, and the 7-entry one it replaced, run to every n without a cycle
exit; the blockless form of the production Monte Carlo; and the Monte
Carlo error weights before any was floored to 0.0."""

from __future__ import annotations

import csv
import math
from itertools import islice

import numpy as np

from pmmkit import PmmParams, filter_coefficients, hmm_params, markov_form, validate
from pmmkit import _kernels_py as kernels
from pmmkit.error_analysis import (
    MseCurve,
    _augmented_recursion,
    _horizons,
    _require_hmm,
    observation_covariance,
)
from pmmkit.filtering import batch_filter_means, filter_variance_sequence
from pmmkit.forecasting import check_grid, horizon_terms
from pmmkit.riccati import _riccati_step, orbit
from pmmkit.simulate import _chol2, _error_weights


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
    x = np.empty(steps)
    y = np.empty(steps)
    xs = float(x0)
    ys = float(y0)
    x[0] = xs
    y[0] = ys
    eu = eps[:, 0].tolist()
    ev = eps[:, 1].tolist()
    for t in range(1, steps):
        u = eu[t - 1]
        v = ev[t - 1]
        xn = a1 * xs + a2 * ys + l11 * u
        yn = a3 * xs + a4 * ys + l21 * u + l22 * v
        x[t] = xn
        y[t] = yn
        xs = xn
        ys = yn
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


def quadratic_filter_coefficients(m, n: int) -> np.ndarray:
    """Filter-mean weights by the O(n^2) recursion: each step scales all
    previous weights by (a1 - a3*G), adds (a2 - a4*G) to the weight of the
    previously-last observation, and appends the gain G."""
    a1, a2 = m.A[0]
    a3, a4 = m.A[1]
    gains = loop_variance_and_gains(m, n)[1]
    w = np.zeros(n)
    w[0] = m.b
    for t in range(2, n + 1):
        g = gains[t - 2]
        w[: t - 1] *= a1 - a3 * g
        w[t - 2] += a2 - a4 * g
        w[t - 1] = g
    return w


def left_multiplication_powers(m, k_max: int) -> list[tuple[np.ndarray, float]]:
    """(A^k, [sum_{j<k} A^j Q A^j^T]_00) for k = 0..k_max, one left
    multiplication A @ A^k per step and the noise summed from the full
    matrix product: the k-step map that ``horizon_terms`` replaced."""
    out = []
    power, noise = np.eye(2), 0.0
    for _ in range(k_max + 1):
        out.append((power, noise))
        noise += float((power @ m.Q @ power.T)[0, 0])
        power = m.A @ power
    return out


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


def _horizon_weights(m, m_fc, k_values) -> dict:
    """Per k: the error weights (v1, v2, v3) on (X_n, Y_n, e_n) and the
    noise after n, from the production k-step map, so that a pass over n
    is all that differs from ``forecaster_mse``."""
    fc_terms = horizon_terms(m_fc, k_values)
    horizon = {}
    for k, (xx, xy, noise) in horizon_terms(m, k_values).items():
        fc_xx, fc_xy, _ = fc_terms[k]
        horizon[k] = (xx - fc_xx, xy - fc_xy, fc_xx, noise)
    return horizon


def seven_entry_recursion(m, m_fc):
    """The exact-MSE pass's start and step over the state (P, s11, s12, s13,
    s22, s23, s33), S's (X, Y) block recomputed at every step: the step
    that ``error_analysis._augmented_recursion`` replaced."""
    (a1, a2), (a3, a4) = m.A
    (q11, q12), (_, q22) = m.Q
    (a1f, a2f), (a3f, a4f) = m_fc.A
    da1, da2, da3, da4 = a1 - a1f, a2 - a2f, a3 - a3f, a4 - a4f

    def step(state):
        variance, s11, s12, s13, s22, s23, s33 = state
        g, next_variance = _riccati_step(m_fc, variance)
        f1, f2, f3 = da1 - g * da3, da2 - g * da4, a1f - g * a3f
        x1, x2 = a1 * s11 + a2 * s12, a1 * s12 + a2 * s22
        y1, y2 = a3 * s11 + a4 * s12, a3 * s12 + a4 * s22
        e1 = f1 * s11 + f2 * s12 + f3 * s13
        e2 = f1 * s12 + f2 * s22 + f3 * s23
        e3 = f1 * s13 + f2 * s23 + f3 * s33
        hq1, hq2 = q11 - g * q12, q12 - g * q22
        return (
            next_variance,
            x1 * a1 + x2 * a2 + q11,
            x1 * a3 + x2 * a4 + q12,
            x1 * f1 + x2 * f2 + (a1 * s13 + a2 * s23) * f3 + hq1,
            y1 * a3 + y2 * a4 + q22,
            y1 * f1 + y2 * f2 + (a3 * s13 + a4 * s23) * f3 + hq2,
            e1 * f1 + e2 * f2 + e3 * f3 + hq1 - g * hq2,
        )

    b, b_fc = m.b, m_fc.b
    start = (
        1.0 - b_fc * b_fc,
        1.0, b, 1.0 - b_fc * b,
        1.0, b - b_fc,
        1.0 - 2.0 * b_fc * b + b_fc * b_fc,
    )
    return start, step


def _seven_entry_mse(m, state, v1, v2, v3, noise) -> float:
    _, s11, s12, s13, s22, s23, s33 = state
    w1 = v1 * s11 + v2 * s12 + v3 * s13
    w2 = v1 * s12 + v2 * s22 + v3 * s23
    w3 = v1 * s13 + v2 * s23 + v3 * s33
    return w1 * v1 + w2 * v2 + w3 * v3 + noise


def _four_entry_mse(m, state, v1, v2, v3, noise) -> float:
    # As in error_analysis._mse_grid at each point, operation for operation.
    _, s13, s23, s33 = state
    fixed = v1 * v1 + 2.0 * m.b * v1 * v2 + v2 * v2 + noise
    return fixed + v3 * (2.0 * (v1 * s13 + v2 * s23) + v3 * s33)


def _stepped_mse(recursion, mse, p_true, p_fc, n_values, k_values) -> dict:
    """``forecaster_mse`` with ``recursion``'s step taken once per t up to
    the largest n, and ``mse`` of each state and k's weights."""
    n_values = sorted({int(n) for n in n_values})
    k_values = sorted({int(k) for k in k_values})
    m = markov_form(p_true)
    m_fc = markov_form(p_fc)
    weights = _horizon_weights(m, m_fc, k_values)
    state, step = recursion(m, m_fc)
    out = {}
    t = 1
    for n in n_values:
        for _ in range(n - t):
            state = step(state)
        t = n
        for k, v in weights.items():
            out[(n, k)] = mse(m, state, *v)
    return out


def loop_forecaster_mse(p_true: PmmParams, p_fc: PmmParams, n_values, k_values) -> dict:
    """``forecaster_mse`` with the production step taken once per t up to
    the largest n: no cycle exit."""
    return _stepped_mse(_augmented_recursion, _four_entry_mse, p_true, p_fc, n_values, k_values)


def seven_entry_forecaster_mse(p_true: PmmParams, p_fc: PmmParams, n_values, k_values) -> dict:
    """``forecaster_mse`` over the 7-entry state and its full quadratic
    form, stepped to every n: the pass that the 4-entry one replaced."""
    return _stepped_mse(seven_entry_recursion, _seven_entry_mse, p_true, p_fc, n_values, k_values)


def _dict_mse_grid(model, forecaster, n_values, k_values) -> dict:
    """The exact-MSE grid as it was before the flat list: a 5-tuple of error
    weights per k, then one (n, k)-keyed dict in increasing n."""
    m, terms = model
    m_fc, fc_terms = forecaster
    weights = []
    for k in k_values:
        xx, xy, noise = terms[k]
        fc_xx, fc_xy, _ = fc_terms[k]
        v1, v2 = xx - fc_xx, xy - fc_xy
        weights.append((k, v1, v2, fc_xx, v1 * v1 + 2.0 * m.b * v1 * v2 + v2 * v2 + noise))
    out = {}
    states = orbit(*_augmented_recursion(m, m_fc))
    t, cycle = 0, []
    for n in sorted(n_values):
        for state, period in islice(states, n - t):
            t += 1
            if period:
                cycle.append(state)
        if t < n:
            state = cycle[(n - t - 1) % len(cycle)]
        _, s13, s23, s33 = state
        for k, v1, v2, v3, fixed in weights:
            out[(n, k)] = fixed + v3 * (2.0 * (v1 * s13 + v2 * s23) + v3 * s33)
    return out


def dict_forecaster_mse(p_true: PmmParams, p_fc: PmmParams, n_values, k_values) -> dict:
    """``forecaster_mse`` over the per-k weights and (n, k) dict."""
    n_values, k_values = check_grid(n_values, k_values)
    horizons = _horizons((p_true, p_fc), k_values)
    return _dict_mse_grid(horizons[p_true], horizons[p_fc], n_values, k_values)


def dict_mse_sweep(p_true: PmmParams, p_hmm: PmmParams, n_values, k_values) -> list:
    """``mse_sweep`` with every curve point looked up in an (n, k) dict."""
    n_values, k_values = check_grid(n_values, k_values)
    _require_hmm(p_hmm)
    horizons = _horizons((p_true, p_hmm), k_values)
    mse = {
        label: _dict_mse_grid(horizons[p_true], horizons[p], n_values, k_values)
        for label, p in (("PMM", p_true), ("HMM", p_hmm))
    }
    if len(k_values) > 1:
        fixed = len(n_values) > 1
        return [
            MseCurve(
                label,
                "k",
                tuple((k, mse[label][(n, k)]) for k in k_values),
                {"n": n} if fixed else {},
            )
            for n in n_values
            for label in ("PMM", "HMM")
        ]
    k = k_values[0]
    return [
        MseCurve(label, "n", tuple((n, mse[label][(n, k)]) for n in n_values), {})
        for label in ("PMM", "HMM")
    ]


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


def lift_forecaster_mse(p_true: PmmParams, p_fc: PmmParams, n_values, k_values) -> dict:
    """``forecaster_mse`` with each augmented-state covariance step taken
    as one numpy product [F H] diag(S, Q) [F H]^T, up to the largest n."""
    n_values = sorted({int(n) for n in n_values})
    k_values = sorted({int(k) for k in k_values})
    m = markov_form(p_true)
    m_fc = markov_form(p_fc)
    horizon = _horizon_weights(m, m_fc, k_values)
    A, A_fc = np.array(m.A), np.array(m_fc.A)
    b, b_fc = m.b, m_fc.b
    cov = np.array(
        [
            [1.0, b, 1.0 - b_fc * b],
            [b, 1.0, b - b_fc],
            [1.0 - b_fc * b, b - b_fc, 1.0 - 2.0 * b_fc * b + b_fc * b_fc],
        ]
    )
    (da1, da2), (da3, da4) = A - A_fc
    a1f, a3f = A_fc[:, 0]
    lift = np.zeros((3, 5))
    lift[:2, :2] = A
    lift[:2, 3:] = np.eye(2)
    blocks = np.zeros((5, 5))
    blocks[3:, 3:] = m.Q
    variance = 1.0 - b_fc * b_fc
    out = {}
    t = 1
    for n in n_values:
        for _ in range(n - t):
            g, variance = _riccati_step(m_fc, variance)
            lift[2] = (da1 - g * da3, da2 - g * da4, a1f - g * a3f, 1.0, -g)
            blocks[:3, :3] = cov
            cov = lift @ blocks @ lift.T
        t = n
        for k, (*v, noise) in horizon.items():
            v = np.array(v)
            out[(n, k)] = float(v @ cov @ v) + noise
    return out


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


def whole_batch_monte_carlo_mse(
    p_true: PmmParams, p_fc: PmmParams, n: int, k: int, reps: int, seed: int
) -> tuple[float, float]:
    """``monte_carlo_mse`` by simulating and filtering every replicate, with
    the noise of every replicate drawn at once: O(reps * (n + k)) memory."""
    rng = np.random.default_rng(seed)
    e0 = rng.standard_normal((reps, 2))
    eps = rng.standard_normal((reps, n + k - 1, 2))
    sq_errors = simulated_errors(p_true, p_fc, n, k, e0, eps) ** 2
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / math.sqrt(reps))


def whole_batch_weighted_mse(
    p_true: PmmParams, p_fc: PmmParams, n: int, k: int, reps: int, seed: int
) -> tuple[float, float]:
    """``monte_carlo_mse`` with the noise of every replicate drawn at once
    and weighted by one ``np.einsum``: the production arithmetic without
    the blocks, O(reps * (n + k)) memory."""
    weights = _error_weights(markov_form(p_true), markov_form(p_fc), n, k)
    rng = np.random.default_rng(seed)
    e0 = rng.standard_normal((reps, 2))
    eps = rng.standard_normal((reps, n + k - 1, 2)).reshape(reps, -1)
    errors = weights[0, 0] * e0[:, 0] + weights[0, 1] * e0[:, 1]
    errors += np.einsum("ij,j->i", eps, weights[1:].ravel())
    sq_errors = errors * errors
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / math.sqrt(reps))


def unfloored_error_weights(m_true, m_fc, n: int, k: int) -> np.ndarray:
    """``simulate._error_weights`` before ``forecasting.FLOOR``: no weight
    is set to 0.0, and the forecaster's first row of A^k comes from the row
    recurrence of ``horizon_terms`` without its floor."""
    (f1, f2), (f3, f4) = m_fc.A
    xx, xy = 1.0, 0.0
    for _ in range(k):
        xx, xy = xx * f1 + xy * f3, xx * f2 + xy * f4
    v = (xx * filter_coefficients(m_fc, n)).tolist()
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
    """``monte_carlo_mse`` weighted by ``unfloored_error_weights``, one
    replicate per block, so its memory is O(n + k) at any length."""
    weights = unfloored_error_weights(markov_form(p_true), markov_form(p_fc), n, k)
    rng = np.random.default_rng(seed)
    e0 = rng.standard_normal((reps, 2))
    errors = weights[0, 0] * e0[:, 0] + weights[0, 1] * e0[:, 1]
    step_weights = weights[1:].ravel()
    for i in range(reps):
        noise = rng.standard_normal((1, n + k - 1, 2)).reshape(1, -1)
        errors[i : i + 1] += np.einsum("ij,j->i", noise, step_weights)
    sq_errors = errors * errors
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / math.sqrt(reps))


def rowwise_trajectory_to_csv(traj, fh) -> None:
    """``trajectory_to_csv`` with one f-string per row."""
    fh.write("t,x,y\n")
    for t, (xv, yv) in enumerate(zip(traj.x, traj.y), start=1):
        fh.write(f"{t},{xv:.12e},{yv:.12e}\n")


def rowwise_table(fh, columns, rows) -> None:
    """The CLI's table writer before ``io.write_rows``: one line per row,
    ints printed by ``str`` and everything else as ``.12e``."""
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(str(v) if isinstance(v, int) else f"{v:.12e}" for v in row) + "\n")


def rowwise_curves_to_csv(curves, fh) -> None:
    """``curves_to_csv`` with one f-string per row."""
    fh.write("model,sweep,index,mse\n")
    for curve in curves:
        for index, mse in curve.points:
            fh.write(f"{curve.csv_label},{curve.sweep_variable},{index},{mse:.12e}\n")


# Reference parameter sets.  fig2/fig4 perturb the cross covariances of the
# hidden-Markov base a=0.90, b=-0.20; the last two are the fitted values
# reported for the pressure-by-temperature and soil-moisture-by-temperature
# experiments (kept as reference fixtures; the source dataset is not shipped).
FIG2_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.18, -0.58)
FIG4_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.38, -0.58)
PRESSURE_PARAMS = PmmParams(0.996, -0.6, 0.986, -0.599, -0.602)
# An admissible model whose exact-MSE pass never reaches a fixed point, with
# itself or with its hidden-Markov restriction as forecaster: it cycles.
FOUND_PARAMS = PmmParams(-0.6487, 0.7264, 0.0829, -0.4006, -0.1546)
SOIL_PARAMS = PmmParams(0.996, 0.543, 0.986, 0.545, 0.542)
