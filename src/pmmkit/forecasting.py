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

The module also holds the rules for the values that every layer takes: a
count (``check_int``), a series (``check_series``), an (n, k) grid
(``check_grid``) and a filter state (``check_state``).
"""

from __future__ import annotations

import numbers
import operator
from typing import TYPE_CHECKING, NamedTuple

from .io import finite_number

if TYPE_CHECKING:
    from .model import TransitionModel  # model imports check_int from here

__all__ = ["FLOOR", "MAX_GRID_POINTS", "MAX_INDEX", "MAX_REPLICATES",
           "MAX_REPLICATE_STEPS", "MAX_SIMULATE_STEPS", "FilterState", "ForecastResult",
           "check_grid", "check_int", "check_series", "check_state", "forecast",
           "forecast_path", "horizon_terms"]

# The largest n or k, and the most (n, k) points, of a grid: each can cost
# time linear in it (the k-step map; the Riccati passes until they cycle).
MAX_GRID_POINTS = 10**6
# The most steps of one simulated trajectory: 3.9 s and a 340 MB peak for
# ``simulate`` at 10^7 on a 2-vCPU Xeon VM, linear in the steps.
MAX_SIMULATE_STEPS = 10**7
# The most Monte Carlo replicates: 5.5 s on two CPUs (11 s on one) and a
# 266 MB peak for ``monte-carlo --n 50 --k 5`` at 10^7 on the same VM,
# linear in reps.
MAX_REPLICATES = 10**7
# The most replicate-steps, reps * (n + k), of one Monte Carlo: about 20 ns
# of CPU a replicate-step at any n + k, start-up included, so about 12 s of
# CPU at the bound on the same VM, shared among its CPUs.
MAX_REPLICATE_STEPS = 6 * 10**8
# The largest 1-based sample index of a seasonal phase: every integer up to
# 2^53 is a float, and past it neighbouring indices round to one float.
MAX_INDEX = 2**53
# Below this magnitude a decaying weight (the first row of A^k, a filter
# weight, a Monte Carlo error weight) is set to 0.0.  Such a weight is subnormal: rounding
# holds it at a few units of 2^-1074 rather than letting it decay, and each
# product with it costs about 30 normal ones.  2^-1064 is 1024 units of the
# smallest subnormal and under 1e-12 of the smallest normal float.
FLOOR = 2.0**-1064


class FilterState(NamedTuple):
    """Conditional law of the hidden state after n observations."""

    n: int
    mean: float
    variance: float
    last_y: float


class ForecastResult(NamedTuple):
    """Predictive law of X at horizon k past the last observation."""

    horizon: int
    mean: float
    variance: float


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int by ``operator.index``, the one rule for a count:
    an int (tested first; the ABC check is slow) or a numpy integer.  A bool,
    float or other value, or one outside low..high, raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value}")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def _number(value, name: str) -> float:
    """``value`` as a float by ``io.finite_number``; ValueError naming
    ``name`` unless it is a finite real number."""
    number = finite_number(value)
    if number is None:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def check_state(s: FilterState, name: str) -> FilterState:
    """``s`` as a FilterState of floats, the one rule for a filter state:
    ``n`` by ``check_int`` (at least 1), a finite mean and last_y, and a
    finite variance of at least 0; anything else raises ValueError naming
    ``name``."""
    variance = _number(s.variance, f"{name}.variance")
    if variance < 0.0:
        raise ValueError(f"{name}.variance must be >= 0, got {variance}")
    return FilterState(
        check_int(s.n, f"{name}.n", 1), _number(s.mean, f"{name}.mean"), variance,
        _number(s.last_y, f"{name}.last_y"),
    )


def check_series(values, name: str, low: int, high: int | None = None) -> "np.ndarray":
    """``values`` as a 1-d float array, the one rule for a series.  One that
    does not hold real numbers (bool, int or float), is not 1-d, holds a NaN
    or an infinity, or has a length ``check_int`` rejects in low..high,
    raises ValueError naming ``name``."""
    import numpy as np  # here, so that the theory path loads no numpy

    try:
        dtype = (x := np.asarray(values)).dtype
    except ValueError:  # ragged rows, which numpy holds only as objects
        dtype = np.dtype(object)
    if dtype.kind not in "biuf":
        raise ValueError(f"{name} must be a series of real numbers, got dtype {dtype}")
    x = x.astype(float, copy=False)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d series, got shape {x.shape}")
    if not (finite := np.isfinite(x)).all():
        i = int(finite.argmin())
        raise ValueError(f"{name} must be finite, got {x[i]} at index {i}")
    check_int(x.size, f"length of {name}", low, high)
    return x


def check_grid(n_values, k_values, names=("n_values", "k_values")) -> tuple[list, list]:
    """The n and k grids as lists of ints, in the order given: the one rule
    for a grid.  ValueError names, by ``names``, a grid that is empty,
    repeats a value or holds one ``check_int`` rejects in 1..MAX_GRID_POINTS
    (n) or 0..MAX_GRID_POINTS (k), or both past MAX_GRID_POINTS (n, k) points."""
    grids = []
    for values, name, low in zip((n_values, k_values), names, (1, 0)):
        values = [check_int(v, name, low, MAX_GRID_POINTS) for v in values]
        if not values:
            raise ValueError(f"{name} is an empty grid")
        seen: set[int] = set()
        if (repeat := next((v for v in values if v in seen or seen.add(v)), None)) is not None:
            raise ValueError(f"{name} repeats the value {repeat}")
        grids.append(values)
    (n_name, k_name), (n_values, k_values) = names, grids
    check_int(len(n_values) * len(k_values), f"(n, k) points of {n_name} ({len(n_values)} values)"
              f" by {k_name} ({len(k_values)} values)", 1, MAX_GRID_POINTS)
    return n_values, k_values


def horizon_terms(
    m: TransitionModel, k_values
) -> dict[int, tuple[float, float, float]]:
    """For each horizon k: the first row (xx, xy) of A^k and the variance
    [sum_{j<k} A^j Q A^j^T]_00 of the noise that enters after step n, in
    one pass over k = 0..max(k_values); k = 0 gives (1, 0, 0).

    Both depend on the first row r of A^j alone: r <- r A, and the noise
    gains r Q r^T, over Python floats.  An entry of r below FLOOR in
    magnitude is set to 0.0.  ``m`` goes through ``model.check_transition``."""
    from .model import check_transition  # here: model imports this module

    m = check_transition(m, "m")
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
        xx = xx if abs(xx) >= FLOOR else 0.0
        xy = xy if abs(xy) >= FLOOR else 0.0
    return out


def _predict(s: FilterState, m: TransitionModel, horizons) -> list[ForecastResult]:
    """The predictive law at each horizon, from one pass; ``s`` goes through
    ``check_state`` and ``m`` through ``horizon_terms``'s rule."""
    s = check_state(s, "s")
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
    k_max = check_int(k_max, "k_max", 1, MAX_GRID_POINTS)
    return _predict(s, m, range(1, k_max + 1))


def forecast(s: FilterState, m: TransitionModel, k: int) -> ForecastResult:
    """Predictive mean and variance of X_{n+k} given Y_1:n: entry k of
    ``forecast_path``, bit for bit, without keeping the other horizons."""
    [result] = _predict(s, m, [check_int(k, "k", 1, MAX_GRID_POINTS)])
    return result
