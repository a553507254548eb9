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
with the fitting window's moments (no leakage).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filtering import filter_coefficients
from .model import PmmParams, markov_form, matrix_power_coeffs, validate
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
    "evaluate_errors",
    "read_series_csv",
]

DEFAULT_PERIODS = (24.0, 8772.0)

# Bisection tolerance for the shrink factor used to repair an inadmissible
# empirical estimate.
REPAIR_TOL = 1e-6


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
            "x_standardize": {
                "mean": self.x_standardize.mean,
                "std": self.x_standardize.std,
            },
            "y_standardize": {
                "mean": self.y_standardize.mean,
                "std": self.y_standardize.std,
            },
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
        det = None
        if doc.get("detrend"):
            d = doc["detrend"]
            det = DetrendModel(
                theta=np.asarray(d["theta"], dtype=float),
                periods=(float(d["periods"][0]), float(d["periods"][1])),
                sigma=float(d["sigma"]),
            )
        window = tuple(doc["fit_window"]) if doc.get("fit_window") else None
        return cls(
            params=PmmParams.from_dict(doc["params"]),
            x_standardize=StandardizationParams(**doc["x_standardize"]),
            y_standardize=StandardizationParams(**doc["y_standardize"]),
            detrend=det,
            fit_window=window,
            repaired=bool(doc.get("repaired", False)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _design_matrix(start_index: int, count: int, periods) -> np.ndarray:
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
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size <= 5:
        raise ValueError("need a 1-d series longer than 5 points")
    p1, p2 = float(periods[0]), float(periods[1])
    if p1 <= 1.0 or p2 <= 1.0:
        raise ValueError(f"periods must exceed 1 sample, got {periods}")
    design = _design_matrix(0, y.size, (p1, p2))
    theta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 5:
        raise ValueError(
            f"rank-deficient harmonic design (rank {rank}); "
            "periods alias each other or the sampling grid"
        )
    return DetrendModel(theta=theta, periods=(p1, p2), sigma=float(np.var(y, ddof=1)))


def seasonal_values(d: DetrendModel, start_index: int, count: int) -> np.ndarray:
    """f(i) for i = start_index+1 .. start_index+count (1-based indices)."""
    return _design_matrix(start_index, count, d.periods) @ d.theta


def detrend(y, d: DetrendModel, start_index: int = 0) -> np.ndarray:
    """Subtract the seasonal component; ``start_index`` anchors the phase
    when ``y`` is a slice out of a longer series."""
    y = np.asarray(y, dtype=float)
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("series lengths differ")
    if x.size < 30:
        raise ValueError(f"need at least 30 points to estimate, got {x.size}")
    x_stats = StandardizationParams(float(x.mean()), float(x.std(ddof=1)))
    y_stats = StandardizationParams(float(y.mean()), float(y.std(ddof=1)))
    if x_stats.std <= 0.0 or y_stats.std <= 0.0:
        raise ValueError("zero-variance series cannot be standardized")
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


def evaluate_errors(
    model: FittedModel, x_test, y_test, n: int, k: int
) -> np.ndarray:
    """Squared forecast errors of every sliding (n, k) window.

    Window i filters the standardized observations y[i:i+n] and predicts
    the standardized x at offset i+n-1+k; windows slide by one.  Inputs are
    expected already detrended when the model carries a seasonal fit.
    """
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    x_test = np.asarray(x_test, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    if x_test.size != y_test.size:
        raise ValueError("series lengths differ")
    count = x_test.size - n - k + 1
    if count < 1:
        raise ValueError(
            f"test series of length {x_test.size} has no complete "
            f"(n={n}, k={k}) window"
        )
    x_std = model.x_standardize.apply(x_test)
    y_std = model.y_standardize.apply(y_test)
    m = markov_form(model.params)
    weights = filter_coefficients(m, n).weights
    means = np.correlate(y_std, weights, "valid")[:count]
    pc = matrix_power_coeffs(m, k)
    predictions = pc.xx * means + pc.xy * y_std[n - 1 : n - 1 + count]
    targets = x_std[n - 1 + k : n - 1 + k + count]
    return (targets - predictions) ** 2


def evaluate(model: FittedModel, x_test, y_test, n: int, k: int) -> float:
    """Standardized mean squared error over all sliding (n, k) windows."""
    return float(evaluate_errors(model, x_test, y_test, n, k).mean())


def read_series_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read the hidden/observed columns from a headed CSV.

    Requires columns named ``x`` and ``y`` (case-insensitive); any other
    columns, such as a timestamp, are ignored.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing CSV header")
        names = {name.strip().lower(): name for name in reader.fieldnames}
        if "x" not in names or "y" not in names:
            raise ValueError(
                f"{path}: need columns x and y, found {reader.fieldnames}"
            )
        xs, ys = [], []
        for row in reader:
            xs.append(float(row[names["x"]]))
            ys.append(float(row[names["y"]]))
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(xs), np.asarray(ys)
