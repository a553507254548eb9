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
through the seasonal coefficients.  The fitted model's types and the moment
estimator ``empirical_covariances`` live in ``model``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .filtering import filter_coefficients
from .forecasting import MAX_INDEX, _horizon_terms, check_grid, check_int, check_series
from .io import read_columns
from .model import (
    DetrendModel, FittedModel, StandardizationParams, check_detrend, check_periods,
    check_standardization, empirical_covariances, hmm_params, markov_form, validate,
)

__all__ = [
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

MIN_FIT_ROWS = 30  # fewest rows estimate_params fits on

# Most steps one forecaster may take in an evaluate_grid pass, from the row
# count: filter means sum_n n (rows - n + 1) plus squared errors
# sum_{n,k} (rows - n - k + 1) = sum_n |k| (rows - n + 1) - |n| sum_k k.
# One pass takes them for both forecasters: at 98% of the bound (n 1..57,
# k 1..200 on 150,000 rows) `evaluate` took 9.3 s with a 47 MB peak on a
# 2-vCPU Xeon VM.
MAX_EVALUATE_WORK = 2 * 10**9


def _design_matrix(start_index: int, count: int, periods) -> np.ndarray:
    # The last row's 1-based index must be a float exactly; see MAX_INDEX.
    last = check_int(start_index, "start_index", 0) + count
    check_int(last, "start_index + rows", 0, MAX_INDEX)
    design = np.empty((count, 5))
    design[:, 0] = 1.0
    angle = 2.0 * np.pi * np.arange(start_index + 1, start_index + count + 1, dtype=float)
    for col, period in zip((1, 3), periods):
        # The phase 2*pi*i/p, shared by the period's cos and sin.  Its error
        # grows with i; the exact phase, from np.fmod(i, p), would replace
        # this line (ROADMAP item 2), and move printed digits.
        phase = angle / period
        np.cos(phase, out=design[:, col])
        np.sin(phase, out=design[:, col + 1])
    return design


def fit_detrend(y, periods=DEFAULT_PERIODS) -> DetrendModel:
    """Least-squares fit of the harmonic seasonal component."""
    return _fit_and_detrend(y, periods)[0]


def _fit_and_detrend(y, periods) -> tuple[DetrendModel, np.ndarray]:
    """``fit_detrend``'s model and ``detrend`` of y by it, from one design."""
    y = check_series(y, "y", 6)
    # A nan period would reach LAPACK as a nan design matrix.
    p1, p2 = check_periods(periods, "periods")
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
    model = DetrendModel(theta=tuple(theta.tolist()), periods=(p1, p2), sigma=sigma)
    return model, y - design @ model.theta


def seasonal_values(d: DetrendModel, start_index: int, count: int) -> np.ndarray:
    """f(i) for i = start_index+1 .. start_index+count (1-based indices)."""
    d = check_detrend(d, "d")
    return _design_matrix(start_index, count, d.periods) @ d.theta


def detrend(y, d: DetrendModel, start_index: int = 0) -> np.ndarray:
    """Subtract the seasonal component; ``start_index`` anchors the phase
    when ``y`` is a slice out of a longer series."""
    y = check_series(y, "y", 0)
    return y - seasonal_values(d, start_index, y.size)


def estimate_params(x, y) -> FittedModel:
    """Standardize both series and estimate (a, b, c, d, e) empirically.

    If the raw estimate fails validation, all five covariances are shrunk
    toward zero by the largest factor that restores admissibility (bisection
    to 1e-6) and the repair is recorded.  The model has no seasonal part and
    no fit window; ``fit`` sets both with ``FittedModel._replace``.
    """
    x = check_series(x, "x", MIN_FIT_ROWS)
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
        params=params, x_standardize=x_stats, y_standardize=y_stats, repaired=repaired
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
    """Yield (n, k, e_hmm, e_pmm): the squared errors of every sliding (n, k)
    window over the checked grid and series, of the model's hidden-Markov
    restriction and of the model, each n's filter means computed once."""
    x_std = model.x_standardize.apply(x_test)
    y_std = model.y_standardize.apply(y_test)
    # The model first: its inadmissible parameters fail markov_form's gate,
    # not the restriction's |a| < 1 check.
    pmm = markov_form(model.params)
    forms = (markov_form(hmm_params(model.params.a, model.params.b)), pmm)
    terms = [_horizon_terms(m, k_values) for m in forms]
    for n in n_values:
        means = [np.correlate(y_std, filter_coefficients(m, n), "valid") for m in forms]
        for j, k in enumerate(k_values):
            count = x_test.size - n - k + 1
            observed = y_std[n - 1 : n - 1 + count]
            targets = x_std[n - 1 + k : n - 1 + k + count]
            yield n, k, *((targets - (xx[j] * mean[:count] + xy[j] * observed)) ** 2
                          for (xx, xy, _), mean in zip(terms, means))


def evaluate(model: FittedModel, x_test, y_test, n: int, k: int) -> tuple[float, float]:
    """One cell of ``evaluate_grid``: (mse_hmm, mse_pmm)."""
    return evaluate_grid(model, x_test, y_test, [n], [k])[(n, k)]


def _require_work(n_values, k_values, rows: int, names) -> None:
    """ValueError naming both grids and the row count if ``check_int``
    rejects one forecaster's steps in ``_window_errors``, 0..MAX_EVALUATE_WORK."""
    work = sum((n + len(k_values)) * (rows - n + 1) for n in n_values)
    what = f"steps of {names[0]} ({len(n_values)} values) by {names[1]} ({len(k_values)} values)"
    check_int(work - len(n_values) * sum(k_values), f"{what} on {rows} rows", 0, MAX_EVALUATE_WORK)


def evaluate_grid(
    model: FittedModel, x_test, y_test, n_values, k_values, names=("n_values", "k_values")
) -> dict[tuple[int, int], tuple[float, float]]:
    """(mse_hmm, mse_pmm), the mean squared errors of the model's hidden-Markov
    restriction and of the model over all sliding (n, k) windows, per grid cell.

    Window i filters the standardized observations y[i:i+n] and predicts
    the standardized x at offset i+n-1+k; windows slide by one.  Inputs are
    expected already detrended when the model carries a seasonal fit.
    Before any filter work, the grid goes through ``check_grid`` and its
    steps, counted from the row count, through MAX_EVALUATE_WORK; errors
    name the grids by ``names``.  The model's two moments go through
    ``check_standardization``.
    """
    model = model._replace(
        x_standardize=check_standardization(model.x_standardize, "model.x_standardize"),
        y_standardize=check_standardization(model.y_standardize, "model.y_standardize"),
    )
    n_values, k_values = check_grid(n_values, k_values, names)
    # The longest window, n + k rows, stands for the grid.
    n, k = max(n_values), max(k_values)
    x_test = check_series(x_test, f"x_test (longest window n={n}, k={k})", n + k)
    y_test = check_series(y_test, "y_test", x_test.size, x_test.size)
    _require_work(n_values, k_values, x_test.size, names)
    return {
        (n, k): (float(e_hmm.mean()), float(e_pmm.mean()))
        for n, k, e_hmm, e_pmm in _window_errors(model, x_test, y_test, n_values, k_values)
    }


def read_series_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read the hidden/observed columns from a headed CSV.

    Requires columns named ``x`` and ``y`` (case-insensitive); any other
    columns, such as a timestamp, are ignored.  See ``io.read_columns`` for
    the rows that are rejected.
    """
    return read_columns(path, ("x", "y"))
