"""k-step-ahead predictive law of the hidden variable.

Conditioning X_{n+k} on the pair (X_n, Y_n) is linear with the first row
(xx, xy) of A^k, and replacing X_n by its filtered mean leaves Y_n untouched
because Y_n is observed, so the predictive mean is xx m_n + xy Y_n.  The
predictive variance is xx^2 P_n plus the variance
[sum_{j<k} A^j Q A^j^T]_00 of the noise that enters after step n.

``horizon_terms`` builds (xx, xy, noise) for every wanted k in one pass up
to the largest k.  It is the package's one k-step map: ``forecast`` and
``forecast_path`` apply it to a filter state, and ``forecaster_mse`` reads
the true model's horizons from it.  A forecaster scored on data it did not
generate needs only (xx, xy): ``_horizon_rows`` returns them from the same
powers of A, bit for bit, without the noise sum, for ``forecaster_mse``,
the sliding-window evaluation and the Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import FilterState
from .model import TransitionModel

__all__ = ["ForecastResult", "forecast", "forecast_path", "horizon_terms"]


@dataclass(frozen=True)
class ForecastResult:
    """Predictive law of X at horizon k past the last observation."""

    horizon: int
    mean: float
    variance: float


def _powers(m: TransitionModel, wanted: set):
    """A^k for k = 0..max(wanted), one left multiplication per k, after
    checking the set of horizons."""
    if not wanted or min(wanted) < 0:
        raise ValueError(f"horizons must be a nonempty set of k >= 0, got {sorted(wanted)}")
    power = np.eye(2)
    for _ in range(max(wanted)):
        yield power
        power = m.A @ power
    yield power


def horizon_terms(
    m: TransitionModel, k_values
) -> dict[int, tuple[float, float, float]]:
    """For each horizon k: the first row (xx, xy) of A^k and the variance
    [sum_{j<k} A^j Q A^j^T]_00 of the noise that enters after step n, in
    one pass over k = 0..max(k_values); k = 0 gives (1, 0, 0)."""
    wanted = set(k_values)
    out = {}
    noise = 0.0
    for k, power in enumerate(_powers(m, wanted)):
        if k in wanted:
            out[k] = (float(power[0, 0]), float(power[0, 1]), noise)
        noise += float((power @ m.Q @ power.T)[0, 0])
    return out


def _horizon_rows(m: TransitionModel, k_values) -> dict[int, tuple[float, float]]:
    """The (xx, xy) of ``horizon_terms``, bit for bit, without the noise
    sum: all that a forecaster scored under another model needs."""
    wanted = set(k_values)
    return {
        k: (float(power[0, 0]), float(power[0, 1]))
        for k, power in enumerate(_powers(m, wanted))
        if k in wanted
    }


def _predict(s: FilterState, m: TransitionModel, horizons) -> list[ForecastResult]:
    """The predictive law at each horizon, from one pass."""
    return [
        ForecastResult(
            k, float(xx * s.mean + xy * s.last_y), float(xx * xx * s.variance + noise)
        )
        for k, (xx, xy, noise) in horizon_terms(m, horizons).items()
    ]


def forecast_path(
    s: FilterState, m: TransitionModel, k_max: int
) -> list[ForecastResult]:
    """The predictive law at every horizon k = 1..k_max, in one O(k_max)
    pass."""
    if k_max < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {k_max}")
    return _predict(s, m, range(1, k_max + 1))


def forecast(s: FilterState, m: TransitionModel, k: int) -> ForecastResult:
    """Predictive mean and variance of X_{n+k} given Y_1:n: entry k of
    ``forecast_path``, bit for bit, without keeping the other horizons."""
    if k < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {k}")
    [result] = _predict(s, m, [k])
    return result
