"""Brute-force ground truth by explicit Gaussian conditioning.

Assembles the full joint covariance of (X_1..X_{n+k}, Y_1..Y_n) from the
pair cross-covariances Cov[Z_{t+j}, Z_t] = A^j M and conditions by Schur
complement.  Only meant for small instances; the recursive modules are the
production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forecasting import check_grid, check_series
from .model import InvalidModelError, PmmParams, markov_form

__all__ = [
    "JointCovariance",
    "build_joint",
    "conditional",
    "oracle_filter",
    "oracle_forecast",
]

DEFAULT_CAP = 16


@dataclass(frozen=True)
class JointCovariance:
    """Joint covariance over the stacked order X_1..X_{n+k}, Y_1..Y_n."""

    n_observed: int
    horizon: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)

    def x_index(self, t: int) -> int:
        """Stacked index of X_t (t is 1-based)."""
        total = self.n_observed + self.horizon
        if not 1 <= t <= total:
            raise IndexError(f"X_{t} outside 1..{total}")
        return t - 1

    def y_index(self, t: int) -> int:
        """Stacked index of Y_t (t is 1-based)."""
        if not 1 <= t <= self.n_observed:
            raise IndexError(f"Y_{t} outside 1..{self.n_observed}")
        return self.n_observed + self.horizon + t - 1


def build_joint(p: PmmParams, n: int, k: int, cap: int = DEFAULT_CAP) -> JointCovariance:
    """Joint covariance of (X_1..X_{n+k}, Y_1..Y_n) under the model."""
    check_grid([n], [k], ("n", "k"))
    if n + k > cap:
        raise ValueError(f"n + k = {n + k} exceeds the oracle cap {cap}")
    m = markov_form(p)
    total = n + k
    # lags[j] = Cov[Z_{t+j}, Z_t] = A^j M
    A = np.array(m.A)
    lags = [np.array(m.marginal)]
    for _ in range(total - 1):
        lags.append(A @ lags[-1])
    # Cov[Z_s, Z_t] over the pairs, then X_1..X_{n+k}, Y_1..Y_n out of it.
    pairs = np.block(
        [[lags[s - t] if s >= t else lags[t - s].T for t in range(total)] for s in range(total)]
    )
    order = [2 * t for t in range(total)] + [2 * t + 1 for t in range(n)]
    return JointCovariance(n_observed=n, horizon=k, matrix=pairs[np.ix_(order, order)])


def conditional(
    joint: JointCovariance, target_index: int, given_indices
) -> tuple[np.ndarray, float]:
    """Weights w and variance of target | given: E = w @ given values."""
    given = np.asarray(given_indices, dtype=int)
    g = joint.matrix
    sigma_gg = g[np.ix_(given, given)]
    sigma_gt = g[given, target_index]
    try:
        lower = np.linalg.cholesky(sigma_gg)
    except np.linalg.LinAlgError as exc:
        raise InvalidModelError(f"conditioning block is singular: {exc}") from exc
    weights = np.linalg.solve(lower.T, np.linalg.solve(lower, sigma_gt))
    variance = float(g[target_index, target_index] - sigma_gt @ weights)
    return weights, variance


def oracle_filter(p: PmmParams, ys) -> tuple[float, float]:
    """Exact E[X_n | Y_1:n] and V[X_n | Y_1:n] by joint conditioning: the
    forecast at k = 0."""
    return oracle_forecast(p, ys, 0)


def oracle_forecast(p: PmmParams, ys, k: int) -> tuple[float, float]:
    """Exact E[X_{n+k} | Y_1:n] and its variance by joint conditioning."""
    ys = check_series(ys, "ys", 1)
    n = ys.size
    joint = build_joint(p, n, k)
    w, var = conditional(
        joint, joint.x_index(n + k), [joint.y_index(t) for t in range(1, n + 1)]
    )
    return float(w @ ys), var
