"""k-step-ahead predictive law of the hidden variable.

Conditioning X_{n+k} on the pair (X_n, Y_n) is linear with the first row
of A^k, and replacing X_n by its filtered mean leaves Y_n untouched because
Y_n is observed, so the predictive mean is [A^k]_00 m_n + [A^k]_01 Y_n.  The
predictive variance follows the pair covariance S <- A S A^T + Q for k
steps from S_0 = [[P_n, 0], [0, 0]] (Y_n is known exactly given Y_1:n).
``forecast_path`` carries A^k and S from each horizon to the next, so every
horizon up to k costs one O(k) pass; ``forecast`` is its last entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import FilterState
from .model import TransitionModel

__all__ = ["ForecastResult", "forecast", "forecast_path"]


@dataclass(frozen=True)
class ForecastResult:
    """Predictive law of X at horizon k past the last observation."""

    horizon: int
    mean: float
    variance: float


def forecast_path(
    s: FilterState, m: TransitionModel, k_max: int
) -> list[ForecastResult]:
    """The predictive law at every horizon k = 1..k_max, in one O(k_max)
    pass."""
    if k_max < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {k_max}")
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


def forecast(s: FilterState, m: TransitionModel, k: int) -> ForecastResult:
    """Predictive mean and variance of X_{n+k} given Y_1:n."""
    return forecast_path(s, m, k)[-1]
