"""Real-data workflow: harmonic detrending, standardization, estimation,
and sliding-window forecast evaluation.

The seasonal component of the observed series is a five-term harmonic
regression on the 1-based sample index i,

    f(i) = t0 + t1*cos(2*pi*i/p1) + t2*sin(2*pi*i/p1)
              + t3*cos(2*pi*i/p2) + t4*sin(2*pi*i/p2),

fit by least squares.  The textbook weighting matrix (1/sigma) * I cancels
out of the normal equations, so ordinary least squares is solved and sigma
is stored only as metadata.  Model parameters are the empirical lag-0 and
lag-1 covariances of the standardized series; test data are standardized
with the fitting window's moments.  ``fit --window`` cuts that window only
after fitting the seasonal component on every row of the file, so rows
outside it, such as those a later ``evaluate`` scores, leak into the model
through the seasonal coefficients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .filtering import filter_coefficients
from .forecasting import MAX_INDEX, check_grid, check_int, check_series, horizon_terms
from .io import atomic_write, finite_number, read_columns, read_json, write_json
from .model import PmmParams, markov_form, validate
from .simulate import empirical_covariances

__all__ = [
    "DetrendModel",
    "StandardizationParams",
    "FittedModel",
    "fit_detrend",
    "detrend",
    "seasonal_values",
    "estimate_params",
    "evaluate",
    "evaluate_grid",
    "read_series_csv",
]

DEFAULT_PERIODS = (24.0, 8772.0)

# Bisection tolerance for the shrink factor used to repair an inadmissible
# empirical estimate.
REPAIR_TOL = 1e-6

# Most steps one evaluate_grid pass may take, from the row count: filter
# means sum_n n (rows - n + 1) plus squared errors
# sum_{n,k} (rows - n - k + 1) = sum_n |k| (rows - n + 1) - |n| sum_k k.
# At 98% of the bound (n 1..57, k 1..200 on 150,000 rows) one pass takes
# 4.7 s, and `evaluate`, one pass per forecaster, 9.4 s with a 47 MB peak,
# on a 2-vCPU Xeon VM.
MAX_EVALUATE_WORK = 2 * 10**9


@dataclass(frozen=True)
class DetrendModel:
    """Fitted harmonic seasonal component of the observed series."""

    theta: np.ndarray  # (5,): constant, cos p1, sin p1, cos p2, sin p2
    periods: tuple[float, float]
    sigma: float  # fit-window dispersion; inert, kept as metadata

    def __post_init__(self) -> None:
        self.theta.setflags(write=False)


@dataclass(frozen=True)
class StandardizationParams:
    """Centering/scaling moments estimated on the fitting window."""

    mean: float
    std: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@dataclass(frozen=True)
class FittedModel:
    """Everything needed to forecast a new window of the same series."""

    params: PmmParams
    x_standardize: StandardizationParams
    y_standardize: StandardizationParams
    detrend: DetrendModel | None = None
    fit_window: tuple[int, int] | None = None
    repaired: bool = False

    def to_json_dict(self) -> dict:
        doc: dict = {
            "params": self.params.to_dict(),
            "detrend": None,
            "x_standardize": asdict(self.x_standardize),
            "y_standardize": asdict(self.y_standardize),
            "repaired": self.repaired,
        }
        if self.detrend is not None:
            doc["detrend"] = {
                "theta": [float(v) for v in self.detrend.theta],
                "periods": list(self.detrend.periods),
                "sigma": self.detrend.sigma,
            }
        if self.fit_window is not None:
            doc["fit_window"] = list(self.fit_window)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FittedModel":
        """The model a ``to_json_dict`` document describes; a missing,
        non-numeric or out-of-range field, a ``detrend`` that is neither an
        object nor null, or a ``repaired`` that is not a boolean raises
        ValueError naming it."""
        if not isinstance(doc, dict):
            raise ValueError(
                f"fitted model must be a JSON object, got {type(doc).__name__}"
            )
        det = None
        d = doc.get("detrend")
        if d is not None:
            if not isinstance(d, dict):
                raise ValueError(f"fitted model: detrend must be an object or null, got {d!r}")
            periods = _numbers(d.get("periods"), "detrend.periods", 2)
            if min(periods) <= 1.0:
                raise ValueError(
                    f"fitted model: detrend.periods must exceed 1 sample, got {periods}"
                )
            det = DetrendModel(
                theta=np.array(_numbers(d.get("theta"), "detrend.theta", 5)),
                periods=(periods[0], periods[1]),
                sigma=_number(d.get("sigma"), "detrend.sigma"),
            )
        window = doc.get("fit_window")
        if window is not None:
            if not (isinstance(window, list) and len(window) == 2):
                raise ValueError(f"fitted model: fit_window must be two integers, got {window!r}")
            window = tuple(check_int(v, "fitted model: fit_window", 0) for v in window)
        repaired = doc.get("repaired", False)
        if not isinstance(repaired, bool):
            raise ValueError(f"fitted model: repaired must be true or false, got {repaired!r}")
        return cls(
            params=PmmParams.from_dict(doc.get("params")),
            x_standardize=_moments(doc, "x_standardize"),
            y_standardize=_moments(doc, "y_standardize"),
            detrend=det,
            fit_window=window,
            repaired=repaired,
        )

    def save(self, path: str | Path) -> None:
        atomic_write(path, lambda fh: write_json(fh, self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        return cls.from_json_dict(read_json(path))


def _number(value, name: str) -> float:
    number = finite_number(value)
    if number is None:
        raise ValueError(f"fitted model: {name} must be a finite number, got {value!r}")
    return number


def _numbers(value, name: str, count: int) -> list[float]:
    numbers = [finite_number(v) for v in value] if isinstance(value, list) else []
    if len(numbers) != count or None in numbers:
        raise ValueError(
            f"fitted model: {name} must be {count} finite numbers, got {value!r}"
        )
    return numbers


def _moments(doc: dict, key: str) -> StandardizationParams:
    """Standardization moments read by name; other keys are ignored."""
    section = doc.get(key)
    if not isinstance(section, dict):
        raise ValueError(f"fitted model: {key} must be an object with mean and std")
    std = _number(section.get("std"), f"{key}.std")
    if std <= 0.0:
        raise ValueError(f"fitted model: {key}.std must be > 0, got {std}")
    return StandardizationParams(_number(section.get("mean"), f"{key}.mean"), std)


def _design_matrix(start_index: int, count: int, periods) -> np.ndarray:
    # The last row's 1-based index must be a float exactly; see MAX_INDEX.
    last = check_int(start_index, "start_index", 0) + count
    check_int(last, "start_index + rows", 0, MAX_INDEX)
    i = np.arange(start_index + 1, start_index + count + 1, dtype=float)
    p1, p2 = periods
    return np.column_stack(
        [
            np.ones(count),
            np.cos(2.0 * np.pi * i / p1),
            np.sin(2.0 * np.pi * i / p1),
            np.cos(2.0 * np.pi * i / p2),
            np.sin(2.0 * np.pi * i / p2),
        ]
    )


def fit_detrend(y, periods=DEFAULT_PERIODS) -> DetrendModel:
    """Least-squares fit of the harmonic seasonal component."""
    y = check_series(y, "y", 6)
    p1, p2 = float(periods[0]), float(periods[1])
    # Written so that nan fails too: a nan period would reach LAPACK as a
    # nan design matrix.
    if not (1.0 < p1 < np.inf and 1.0 < p2 < np.inf):
        raise ValueError(f"periods must be finite and exceed 1 sample, got {periods}")
    # Quietly, as in _standardization: a series past the float range is
    # rejected here, before it reaches LAPACK.
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = float(np.var(y, ddof=1))
    if not math.isfinite(sigma):
        raise ValueError(f"series y: variance {sigma} is not finite; rescale it")
    design = _design_matrix(0, y.size, (p1, p2))
    theta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 5:
        raise ValueError(
            f"rank-deficient harmonic design (rank {rank}); "
            "periods alias each other or the sampling grid"
        )
    return DetrendModel(theta=theta, periods=(p1, p2), sigma=sigma)


def seasonal_values(d: DetrendModel, start_index: int, count: int) -> np.ndarray:
    """f(i) for i = start_index+1 .. start_index+count (1-based indices)."""
    return _design_matrix(start_index, count, d.periods) @ d.theta


def detrend(y, d: DetrendModel, start_index: int = 0) -> np.ndarray:
    """Subtract the seasonal component; ``start_index`` anchors the phase
    when ``y`` is a slice out of a longer series."""
    y = check_series(y, "y", 0)
    return y - seasonal_values(d, start_index, y.size)


def estimate_params(
    x,
    y,
    detrend_model: DetrendModel | None = None,
    fit_window: tuple[int, int] | None = None,
) -> FittedModel:
    """Standardize both series and estimate (a, b, c, d, e) empirically.

    If the raw estimate fails validation, all five covariances are shrunk
    toward zero by the largest factor that restores admissibility (bisection
    to 1e-6) and the repair is recorded.  ``detrend_model`` and
    ``fit_window`` are carried through as metadata only; detrending is the
    caller's step.
    """
    x = check_series(x, "x", 30)
    y = check_series(y, "y", x.size, x.size)
    x_stats = _standardization(x, "x")
    y_stats = _standardization(y, "y")
    raw = empirical_covariances(x_stats.apply(x), y_stats.apply(y))
    params, repaired = raw, False
    if not validate(raw).ok:
        lo, hi = 0.0, 1.0  # all-zero parameters are always admissible
        while hi - lo > REPAIR_TOL:
            mid = 0.5 * (lo + hi)
            if validate(raw.scaled(mid)).ok:
                lo = mid
            else:
                hi = mid
        params, repaired = raw.scaled(lo), True
    return FittedModel(
        params=params,
        x_standardize=x_stats,
        y_standardize=y_stats,
        detrend=detrend_model,
        fit_window=fit_window,
        repaired=repaired,
    )


def _standardization(values: np.ndarray, name: str) -> StandardizationParams:
    """The mean and sample standard deviation of the series called ``name``."""
    # A sum or a square past the float range gives inf or nan, rejected
    # below, rather than a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = float(values.mean()), float(values.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(
            f"series {name}: mean {mean} or standard deviation {std} is not finite; "
            "rescale it"
        )
    if std <= 0.0:
        raise ValueError(f"series {name}: zero-variance series cannot be standardized")
    return StandardizationParams(mean, std)


def _window_errors(model: FittedModel, x_test, y_test, n_values, k_values):
    """Yield (n, k, squared errors of every sliding (n, k) window) over the
    grid and series ``evaluate_grid`` checked; each n's filter means are
    computed once, and every k's horizon coefficients come from one pass."""
    x_std = model.x_standardize.apply(x_test)
    y_std = model.y_standardize.apply(y_test)
    m = markov_form(model.params)
    terms = horizon_terms(m, k_values)
    for n in n_values:
        means = np.correlate(y_std, filter_coefficients(m, n), "valid")
        for k in k_values:
            count = x_test.size - n - k + 1
            xx, xy, _ = terms[k]
            predictions = xx * means[:count] + xy * y_std[n - 1 : n - 1 + count]
            targets = x_std[n - 1 + k : n - 1 + k + count]
            yield n, k, (targets - predictions) ** 2


def evaluate(model: FittedModel, x_test, y_test, n: int, k: int) -> float:
    """One cell of ``evaluate_grid``."""
    return evaluate_grid(model, x_test, y_test, [n], [k])[(n, k)]


def _require_work(n_values, k_values, rows: int, names) -> None:
    """ValueError naming both grids and the row count if the steps
    ``_window_errors`` takes exceed MAX_EVALUATE_WORK."""
    work = sum((n + len(k_values)) * (rows - n + 1) for n in n_values)
    work -= len(n_values) * sum(k_values)
    if work > MAX_EVALUATE_WORK:
        raise ValueError(
            f"{names[0]} ({len(n_values)} values) by {names[1]} ({len(k_values)} values) "
            f"on {rows} rows takes {work} steps, more than {MAX_EVALUATE_WORK}"
        )


def evaluate_grid(
    model: FittedModel, x_test, y_test, n_values, k_values, names=("n_values", "k_values")
) -> dict[tuple[int, int], float]:
    """Standardized mean squared error over all sliding (n, k) windows, for
    every (n, k) of the grid, sharing each n's filter means across all k.

    Window i filters the standardized observations y[i:i+n] and predicts
    the standardized x at offset i+n-1+k; windows slide by one.  Inputs are
    expected already detrended when the model carries a seasonal fit.
    Before any filter work, the grid goes through ``check_grid`` and its
    steps, counted from the row count, through MAX_EVALUATE_WORK; errors
    name the grids by ``names``.
    """
    n_values, k_values = check_grid(n_values, k_values, names)
    # The longest window, n + k rows, stands for the grid.
    n, k = max(n_values), max(k_values)
    x_test = check_series(x_test, f"x_test (longest window n={n}, k={k})", n + k)
    y_test = check_series(y_test, "y_test", x_test.size, x_test.size)
    _require_work(n_values, k_values, x_test.size, names)
    return {
        (n, k): float(errors.mean())
        for n, k, errors in _window_errors(model, x_test, y_test, n_values, k_values)
    }


def read_series_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read the hidden/observed columns from a headed CSV.

    Requires columns named ``x`` and ``y`` (case-insensitive); any other
    columns, such as a timestamp, are ignored.  See ``io.read_columns`` for
    the rows that are rejected.
    """
    return read_columns(path, ("x", "y"))
