"""Shared test utilities: random admissible models, an independent scalar
Kalman reference for the hidden-Markov special case, and the step-by-step
loops, the n x n quadratic form and the row-by-row CSV reader that the
production paths replaced, kept as references."""

from __future__ import annotations

import csv

import numpy as np

from pmmkit import (
    PmmParams,
    filter_coefficients,
    forecast_coefficients,
    hmm_params,
    markov_form,
    observation_covariance,
    theoretical_mse_pmm,
    validate,
)
from pmmkit.filtering import filter_gain_sequence, riccati_steps


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
    variances[0] = 1.0 - m.b * m.b
    for t, (g, p) in zip(range(1, n), riccati_steps(m)):
        gains[t - 1] = g
        variances[t] = p
    return variances, gains


def quadratic_filter_coefficients(m, n: int) -> np.ndarray:
    """Filter-mean weights by the O(n^2) recursion: each step scales all
    previous weights by (a1 - a3*G), adds (a2 - a4*G) to the weight of the
    previously-last observation, and appends the gain G."""
    a1, a2 = m.A[0]
    a3, a4 = m.A[1]
    gains = filter_gain_sequence(m, n)
    w = np.zeros(n)
    w[0] = m.b
    for t in range(2, n + 1):
        g = gains[t - 2]
        w[: t - 1] *= a1 - a3 * g
        w[t - 2] += a2 - a4 * g
        w[t - 1] = g
    return w


def quadratic_form_mse(p_true: PmmParams, p_fc: PmmParams, n: int, k: int) -> float:
    """MSE of the forecaster built from ``p_fc`` on data from ``p_true`` by
    the Pythagoras split: the optimal MSE plus the quadratic form of the
    two coefficient vectors' difference in the n x n observation
    covariance.  O(n^2) memory."""
    m_true = markov_form(p_true)
    m_fc = markov_form(p_fc)
    if k == 0:
        w_true = filter_coefficients(m_true, n).weights
        w_fc = filter_coefficients(m_fc, n).weights
    else:
        w_true = forecast_coefficients(m_true, n, k).weights
        w_fc = forecast_coefficients(m_fc, n, k).weights
    delta = w_true - w_fc
    sigma = observation_covariance(m_true, m_true.b, n)
    return theoretical_mse_pmm(p_true, n, k) + float(delta @ sigma @ delta)


# Reference parameter sets.  fig2/fig4 perturb the cross covariances of the
# hidden-Markov base a=0.90, b=-0.20; the last two are the fitted values
# reported for the pressure-by-temperature and soil-moisture-by-temperature
# experiments (kept as reference fixtures; the source dataset is not shipped).
FIG2_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.18, -0.58)
FIG4_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.38, -0.58)
PRESSURE_PARAMS = PmmParams(0.996, -0.6, 0.986, -0.599, -0.602)
SOIL_PARAMS = PmmParams(0.996, 0.543, 0.986, 0.545, 0.542)
