"""Independent numeric references for the benchmark's correctness checks.

Nothing here calls the pmmkit code paths that the benchmark times: the
Markov form, the scalar filter recursion, the filter weights, the harmonic
detrend and the exact MSE of a linear forecaster are written again from the
model's definition.  The exact MSE uses the covariance of the augmented
state (X_t, Y_t, m_t), where m_t is the forecaster's filter mean driven by
the true model, so it needs neither the n x n observation covariance nor
the program's quadratic form.  ``oracle_mse`` conditions the brute-force
joint covariance of ``pmmkit.oracle.build_joint`` as a second, small-n
reference.

A parameter set is a tuple (a, b, c, d, e) throughout.
"""

from __future__ import annotations

import math

import numpy as np


def hmm_restriction(a: float, b: float) -> tuple:
    """The hidden-Markov special case c = a*b^2, d = e = a*b."""
    return (a, b, a * b * b, a * b, a * b)


def markov_form(p) -> tuple[np.ndarray, np.ndarray]:
    """(A, Q) of Z_{t+1} = A Z_t + W with Cov W = Q."""
    a, b, c, d, e = (float(v) for v in p)
    marginal = np.array([[1.0, b], [b, 1.0]])
    cross = np.array([[a, e], [d, c]])
    trans = np.linalg.solve(marginal, cross.T).T  # cross @ marginal^-1
    noise = marginal - trans @ cross.T
    return trans, 0.5 * (noise + noise.T)


def riccati(p, n: int) -> tuple[list[float], list[float]]:
    """Filter variances P_1..P_n and the gains used at steps 2..n."""
    trans, q = markov_form(p)
    a1, a3 = trans[0, 0], trans[1, 0]
    variance = 1.0 - float(p[1]) ** 2
    variances, gains = [variance], []
    for _ in range(n - 1):
        innovation = a3 * a3 * variance + q[1, 1]
        gain = (a1 * a3 * variance + q[0, 1]) / innovation
        variance = a1 * a1 * variance + q[0, 0] - gain * gain * innovation
        gains.append(gain)
        variances.append(variance)
    return variances, gains


def filter_mean(p, ys) -> tuple[float, float]:
    """E[X_n | Y_1:n] by the scalar recursion, and V[X_n | Y_1:n]."""
    (a1, a2), (a3, a4) = markov_form(p)[0]
    variances, gains = riccati(p, len(ys))
    ys = [float(v) for v in ys]
    mean = float(p[1]) * ys[0]
    for t in range(1, len(ys)):
        g = gains[t - 1]
        mean = a1 * mean + a2 * ys[t - 1] + g * (ys[t] - a3 * mean - a4 * ys[t - 1])
    return mean, variances[-1]


def filter_weights(p, n: int) -> np.ndarray:
    """w with E[X_n | Y_1:n] = sum_j w[j] * Y_{j+1}, from the mean recursion."""
    (a1, a2), (a3, a4) = markov_form(p)[0]
    _, gains = riccati(p, n)
    w = np.zeros(n)
    w[0] = float(p[1])
    for t in range(1, n):
        g = gains[t - 1]
        w[:t] *= a1 - a3 * g
        w[t - 1] += a2 - a4 * g
        w[t] = g
    return w


def predictive_variances(p, filter_variance: float, k_max: int) -> list[float]:
    """V[X_{n+k} | Y_1:n] for k = 1..k_max from the filter variance."""
    trans, noise = markov_form(p)
    cov = np.array([[filter_variance, 0.0], [0.0, 0.0]])
    out = []
    for _ in range(k_max):
        cov = trans @ cov @ trans.T + noise
        out.append(float(cov[0, 0]))
    return out


def forecaster_mse(p_true, p_fc, n_values, k_values) -> dict[tuple[int, int], float]:
    """Exact MSE of the linear forecaster built from ``p_fc`` on data from
    ``p_true``, for every (n, k) of the grid, in one pass over t.

    s_t = (X_t, Y_t, m_t) evolves as s_t = F_t s_{t-1} + G_t W_t, so its
    covariance follows S_t = F_t S_{t-1} F_t^T + G_t Q G_t^T.  The error of
    the forecast xx*m_n + xy*Y_n of X_{n+k} is v^T s_n plus fresh noise.
    """
    trans, noise = markov_form(p_true)
    fc_trans, _ = markov_form(p_fc)
    b, bf = float(p_true[1]), float(p_fc[1])
    n_max = max(n_values)
    _, gains = riccati(p_fc, n_max)
    cov = np.array(
        [[1.0, b, bf * b], [b, 1.0, bf], [bf * b, bf, bf * bf]]
    )
    horizon = {}
    power, fc_power, noise_k = np.eye(2), np.eye(2), 0.0
    for k in range(max(k_values) + 1):
        if k in k_values:
            v = np.array([power[0, 0], power[0, 1] - fc_power[0, 1], -fc_power[0, 0]])
            horizon[k] = (v, noise_k)
        noise_k += float((power @ noise @ power.T)[0, 0])
        power, fc_power = trans @ power, fc_trans @ fc_power
    wanted = set(n_values)
    out = {}
    for t in range(1, n_max + 1):
        if t in wanted:
            for k in k_values:
                v, noise_k = horizon[k]
                out[(t, k)] = float(v @ cov @ v) + noise_k
        if t == n_max:
            break
        g = gains[t - 1]
        phi_m = fc_trans[0, 0] - g * fc_trans[1, 0]
        phi_y = fc_trans[0, 1] - g * fc_trans[1, 1]
        step = np.array(
            [
                [trans[0, 0], trans[0, 1], 0.0],
                [trans[1, 0], trans[1, 1], 0.0],
                [g * trans[1, 0], phi_y + g * trans[1, 1], phi_m],
            ]
        )
        shock = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, g]])
        cov = step @ cov @ step.T + shock @ noise @ shock.T
    return out


def oracle_mse(p_true, p_fc, n: int, k: int) -> float:
    """The same MSE by conditioning the joint covariance of
    (X_1..X_{n+k}, Y_1..Y_n); only for small n + k."""
    from pmmkit.model import PmmParams
    from pmmkit.oracle import build_joint

    def joint(p):
        return build_joint(PmmParams(*p), n, k, cap=n + k).matrix

    g = joint(p_true)
    target = n + k - 1
    obs = slice(n + k, 2 * n + k)
    s_yy, s_yx = g[obs, obs], g[obs, target]
    if tuple(p_fc) == tuple(p_true):
        return float(g[target, target] - s_yx @ np.linalg.solve(s_yy, s_yx))
    gf = joint(p_fc)
    w = np.linalg.solve(gf[obs, obs], gf[obs, target])
    return float(g[target, target] - 2.0 * w @ s_yx + w @ s_yy @ w)


def harmonic_design(start_index: int, count: int, periods) -> np.ndarray:
    """Columns 1, cos, sin at each period, on 1-based sample indices."""
    i = np.arange(start_index + 1, start_index + count + 1, dtype=float)
    cols = [np.ones(count)]
    for period in periods:
        cols += [np.cos(2.0 * np.pi * i / period), np.sin(2.0 * np.pi * i / period)]
    return np.column_stack(cols)


def fit_harmonics(y: np.ndarray, periods) -> np.ndarray:
    """Least-squares harmonic coefficients by the normal equations."""
    design = harmonic_design(0, y.size, periods)
    return np.linalg.solve(design.T @ design, design.T @ y)


def lag_covariances(x: np.ndarray, y: np.ndarray) -> tuple:
    """(a, b, c, d, e) moment estimates with a 1/(N-1) denominator."""
    denom = x.size - 1
    return (
        float(np.dot(x[:-1], x[1:])) / denom,
        float(np.dot(x, y)) / denom,
        float(np.dot(y[:-1], y[1:])) / denom,
        float(np.dot(x[:-1], y[1:])) / denom,
        float(np.dot(x[1:], y[:-1])) / denom,
    )


def sample_pmm(p, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A stationary trajectory of the model, for generating inputs."""
    trans, noise = markov_form(p)
    b = float(p[1])
    start = np.linalg.cholesky(np.array([[1.0, b], [b, 1.0]])) @ rng.standard_normal(2)
    shocks = (rng.standard_normal((n - 1, 2)) @ np.linalg.cholesky(noise).T).tolist()
    (a1, a2), (a3, a4) = trans.tolist()
    x, y = float(start[0]), float(start[1])
    xs, ys = [x], [y]
    for u, v in shocks:
        x, y = a1 * x + a2 * y + u, a3 * x + a4 * y + v
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def relative_error(got, want) -> float:
    """Largest |got - want| / |want| over the elements."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    if not np.all(np.isfinite(got)):
        return math.inf
    scale = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0
