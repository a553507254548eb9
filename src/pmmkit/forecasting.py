"""k-step-ahead predictive law of the hidden variable.

Conditioning X_{n+k} on the pair (X_n, Y_n) is linear with the first row
(xx, xy) of A^k, and replacing X_n by its filtered mean leaves Y_n untouched
because Y_n is observed, so the predictive mean is xx m_n + xy Y_n.  The
predictive variance is xx^2 P_n plus the variance
[sum_{j<k} A^j Q A^j^T]_00 of the noise that enters after step n.

``horizon_terms`` builds (xx, xy, noise) for every wanted k in one pass up
to the largest k.  It is the package's one k-step map: ``forecast`` and
``forecast_path`` apply it to a filter state, ``forecaster_mse`` reads both
the true model's and the forecaster's horizons from it, and the
sliding-window evaluation and the Monte Carlo read the forecaster's (xx, xy).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .model import TransitionModel

if TYPE_CHECKING:  # filtering loads numpy; this module does not
    from .filtering import FilterState

__all__ = ["MAX_GRID_POINTS", "ForecastResult", "check_grid", "forecast",
           "forecast_path", "horizon_terms"]

# The largest n or k, and the most (n, k) points, of a grid: each can cost
# time linear in it (the k-step map; the Riccati passes until they cycle).
MAX_GRID_POINTS = 10**6


class ForecastResult(NamedTuple):
    """Predictive law of X at horizon k past the last observation."""

    horizon: int
    mean: float
    variance: float


def _check_values(values, name: str, low: int) -> list[int]:
    """``values`` as ints in the order given; ValueError naming ``name`` if
    they are none, repeat one or hold one outside low..MAX_GRID_POINTS."""
    values = [int(v) for v in values]
    if not values:
        raise ValueError(f"{name} is an empty grid")
    seen: set[int] = set()
    if (repeat := next((v for v in values if v in seen or seen.add(v)), None)) is not None:
        raise ValueError(f"{name} repeats the value {repeat}")
    if (lo := min(values)) < low:
        raise ValueError(f"{name} must be >= {low}, got {lo}")
    if (hi := max(values)) > MAX_GRID_POINTS:
        raise ValueError(f"{name} must be <= {MAX_GRID_POINTS}, got {hi}")
    return values


def check_grid(n_values, k_values, names=("n_values", "k_values")) -> tuple[list, list]:
    """The n and k grids as lists of ints, in the order given: the one rule
    for a grid.  ValueError names, by ``names``, a grid that is empty,
    repeats a value or holds one outside 1..MAX_GRID_POINTS (n) or
    0..MAX_GRID_POINTS (k), or both past MAX_GRID_POINTS (n, k) points."""
    n_name, k_name = names
    n_values = _check_values(n_values, n_name, 1)
    k_values = _check_values(k_values, k_name, 0)
    if (points := len(n_values) * len(k_values)) > MAX_GRID_POINTS:
        raise ValueError(
            f"{n_name} ({len(n_values)} values) by {k_name} ({len(k_values)} values) "
            f"makes {points} (n, k) points, more than {MAX_GRID_POINTS}"
        )
    return n_values, k_values


def horizon_terms(
    m: TransitionModel, k_values
) -> dict[int, tuple[float, float, float]]:
    """For each horizon k: the first row (xx, xy) of A^k and the variance
    [sum_{j<k} A^j Q A^j^T]_00 of the noise that enters after step n, in
    one pass over k = 0..max(k_values); k = 0 gives (1, 0, 0).

    Both depend on the first row r of A^j alone: r <- r A, and the noise
    gains r Q r^T, over Python floats."""
    wanted = set(k_values)
    if not wanted or min(wanted) < 0:
        raise ValueError(f"horizons must be a nonempty set of k >= 0, got {sorted(wanted)}")
    (a1, a2), (a3, a4) = m.A
    (q11, q12), (_, q22) = m.Q
    xx, xy, noise = 1.0, 0.0, 0.0
    out = {}
    for k in range(max(wanted) + 1):
        if k in wanted:
            out[k] = (xx, xy, noise)
        noise += q11 * xx * xx + 2.0 * q12 * xx * xy + q22 * xy * xy
        xx, xy = xx * a1 + xy * a3, xx * a2 + xy * a4
    return out


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
