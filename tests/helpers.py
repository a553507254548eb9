"""Shared test utilities: random admissible models, an independent scalar
Kalman reference for the hidden-Markov special case, and the step-by-step
loops that the vectorized kernels replaced, kept as references."""

from __future__ import annotations

import numpy as np

from pmmkit import PmmParams, hmm_params, validate
from pmmkit.filtering import filter_gain_sequence


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


# Reference parameter sets.  fig2/fig4 perturb the cross covariances of the
# hidden-Markov base a=0.90, b=-0.20; the last two are the fitted values
# reported for the pressure-by-temperature and soil-moisture-by-temperature
# experiments (kept as reference fixtures; the source dataset is not shipped).
FIG2_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.18, -0.58)
FIG4_PARAMS = PmmParams(0.9, -0.2, 0.036, -0.38, -0.58)
PRESSURE_PARAMS = PmmParams(0.996, -0.6, 0.986, -0.599, -0.602)
SOIL_PARAMS = PmmParams(0.996, 0.543, 0.986, 0.545, 0.542)
