"""k-step-ahead predictive mean and variance of the hidden variable.

The mean follows from the tower property: conditioning X_{n+k} on the pair
(X_n, Y_n) is linear with the entries of A^k, and replacing X_n by its
filtered mean leaves Y_n untouched because Y_n is observed.  The variance
propagates the pair covariance S <- A S A^T + Q for k steps from
S_0 = [[P, 0], [0, 0]] (Y_n is known exactly given Y_1:n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import FilterState
from .model import TransitionModel, matrix_power_coeffs

__all__ = [
    "ForecastResult",
    "forecast_mean",
    "forecast_variance",
    "forecast",
    "forecast_path",
    "variance_at_horizon",
]


@dataclass(frozen=True)
class ForecastResult:
    """Predictive law of X at horizon k past the last observation."""

    horizon: int
    mean: float
    variance: float


def _require_horizon(k: int) -> None:
    if k < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {k}")


def forecast_mean(s: FilterState, m: TransitionModel, k: int) -> float:
    """E[X_{n+k} | Y_1:n] from the filtered state."""
    _require_horizon(k)
    pc = matrix_power_coeffs(m, k)
    return pc.xx * s.mean + pc.xy * s.last_y


def variance_at_horizon(filter_variance: float, m: TransitionModel, k: int) -> float:
    """Predictive variance of X_{n+k} given V[X_n | Y_1:n]; cost O(k)."""
    if k < 0:
        raise ValueError(f"horizon must be >= 0, got {k}")
    cov = np.array([[filter_variance, 0.0], [0.0, 0.0]])
    for _ in range(k):
        cov = m.A @ cov @ m.A.T + m.Q
    return float(cov[0, 0])


def forecast_variance(s: FilterState, m: TransitionModel, k: int) -> float:
    """V[X_{n+k} | Y_1:n] from the filtered state."""
    _require_horizon(k)
    return variance_at_horizon(s.variance, m, k)


def forecast(s: FilterState, m: TransitionModel, k: int) -> ForecastResult:
    """Predictive mean and variance bundled."""
    return ForecastResult(
        horizon=k,
        mean=forecast_mean(s, m, k),
        variance=forecast_variance(s, m, k),
    )


def forecast_path(
    s: FilterState, m: TransitionModel, k_max: int
) -> list[ForecastResult]:
    """``forecast(s, m, k)`` for k = 1..k_max in one O(k_max) pass: A^k and
    the predictive covariance are carried from each horizon to the next."""
    _require_horizon(k_max)
    power = np.eye(2)
    cov = np.array([[s.variance, 0.0], [0.0, 0.0]])
    path = []
    for k in range(1, k_max + 1):
        power = m.A @ power
        cov = m.A @ cov @ m.A.T + m.Q
        mean = power[0, 0] * s.mean + power[0, 1] * s.last_y
        path.append(
            ForecastResult(horizon=k, mean=float(mean), variance=float(cov[0, 0]))
        )
    return path
