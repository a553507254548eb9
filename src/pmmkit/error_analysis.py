"""Theoretical mean-square-error comparison of the two model families.

When the data follow the full pairwise model, its conditional expectation is
the orthogonal projection of X_{n+k} onto span(Y_1..Y_n), so for any other
linear forecaster

    MSE_other = MSE_optimal + E[(sum_i (w_i - w'_i) Y_i)^2],

a Pythagoras split.  Both forecasters here are linear with coefficient
vectors that obey a one-step recursion driven by each model's own filter
gain, and the observation covariances E[Y_i Y_j] are explicit in the powers
of the true transition matrix.  Everything in this module is exact up to
floating point; no simulation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from .filtering import (
    CoefficientVector,
    filter_coefficients,
    filter_variance_sequence,
)
from .forecasting import variance_at_horizon
from .model import (
    InvalidModelError,
    PmmParams,
    TransitionModel,
    is_hmm,
    markov_form,
    matrix_power_coeffs,
)

__all__ = [
    "CoefficientVector",
    "MseCurve",
    "filter_coefficients",
    "forecast_coefficients",
    "observation_covariance",
    "theoretical_mse_pmm",
    "theoretical_mse_hmm_under_pmm",
    "mse_sweep",
    "curves_to_csv",
]


@dataclass(frozen=True)
class MseCurve:
    """One theoretical-MSE curve over a sweep of n or k."""

    model_label: str  # "PMM" or "HMM"
    sweep_variable: str  # "n" or "k"
    points: tuple[tuple[int, float], ...]
    fixed: dict[str, int] = field(default_factory=dict)

    @property
    def csv_label(self) -> str:
        if self.fixed:
            inner = ";".join(f"{k}={v}" for k, v in sorted(self.fixed.items()))
            return f"{self.model_label}({inner})"
        return self.model_label


def forecast_coefficients(m: TransitionModel, n: int, k: int) -> CoefficientVector:
    """Observation weights of the k-step forecast E[X_{n+k} | Y_1:n]."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    base = filter_coefficients(m, n)
    pc = matrix_power_coeffs(m, k)
    w = pc.xx * base.weights
    w[-1] += pc.xy
    return CoefficientVector(n=n, horizon=k, weights=w)


def observation_covariance(m: TransitionModel, b: float, n: int) -> np.ndarray:
    """The n x n matrix E[Y_i Y_j] = b*yx_{|i-j|} + yy_{|i-j|} (lag 0 is 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lag_cov = np.empty(n)
    power = np.eye(2)
    for j in range(n):
        lag_cov[j] = b * power[1, 0] + power[1, 1]
        power = m.A @ power
    return toeplitz(lag_cov)


def theoretical_mse_pmm(p: PmmParams, n: int, k: int) -> float:
    """MSE of the optimal forecaster: V[X_{n+k} | Y_1:n], observation-free."""
    m = markov_form(p)
    p_n = float(filter_variance_sequence(m, n)[-1])
    if k == 0:
        return p_n
    return variance_at_horizon(p_n, m, k)


def theoretical_mse_hmm_under_pmm(
    p_true: PmmParams, p_hmm: PmmParams, n: int, k: int, hmm_tol: float = 1e-9
) -> float:
    """MSE of the hidden-Markov forecaster when the data follow ``p_true``.

    The two coefficient vectors are built under their own models (the
    misspecified one runs its own gain recursion); the penalty term is the
    quadratic form of their difference in the true observation covariance.
    """
    if not is_hmm(p_hmm, hmm_tol):
        raise InvalidModelError(
            f"forecaster parameters {p_hmm.astuple()} violate the "
            "hidden-Markov constraints"
        )
    m_true = markov_form(p_true)
    m_hmm = markov_form(p_hmm)
    if k == 0:
        w_true = filter_coefficients(m_true, n).weights
        w_hmm = filter_coefficients(m_hmm, n).weights
    else:
        w_true = forecast_coefficients(m_true, n, k).weights
        w_hmm = forecast_coefficients(m_hmm, n, k).weights
    delta = w_true - w_hmm
    sigma = observation_covariance(m_true, m_true.b, n)
    return theoretical_mse_pmm(p_true, n, k) + float(delta @ sigma @ delta)


def _curve_pair(
    sweep: str,
    indices: list[int],
    mse_pairs: list[tuple[float, float]],
    fixed: dict[str, int],
) -> list[MseCurve]:
    pmm = tuple((i, v[0]) for i, v in zip(indices, mse_pairs))
    hmm = tuple((i, v[1]) for i, v in zip(indices, mse_pairs))
    return [
        MseCurve("PMM", sweep, pmm, dict(fixed)),
        MseCurve("HMM", sweep, hmm, dict(fixed)),
    ]


def mse_sweep(
    p_true: PmmParams, p_hmm: PmmParams, n_values, k_values
) -> list[MseCurve]:
    """Theoretical MSE of both forecasters over a grid.

    Sweeps over k when the k grid has more than one value (one curve pair
    per n), otherwise over n (one curve pair per k).
    """
    n_values = [int(n) for n in n_values]
    k_values = [int(k) for k in k_values]
    if not n_values or not k_values:
        raise ValueError("n_values and k_values must be nonempty")
    curves: list[MseCurve] = []
    if len(k_values) > 1:
        for n in n_values:
            pairs = [
                (
                    theoretical_mse_pmm(p_true, n, k),
                    theoretical_mse_hmm_under_pmm(p_true, p_hmm, n, k),
                )
                for k in k_values
            ]
            fixed = {"n": n} if len(n_values) > 1 else {}
            curves.extend(_curve_pair("k", k_values, pairs, fixed))
    else:
        k = k_values[0]
        pairs = [
            (
                theoretical_mse_pmm(p_true, n, k),
                theoretical_mse_hmm_under_pmm(p_true, p_hmm, n, k),
            )
            for n in n_values
        ]
        curves.extend(_curve_pair("n", n_values, pairs, {}))
    return curves


def curves_to_csv(curves, fh) -> None:
    """Write sweep curves as ``model,sweep,index,mse`` rows."""
    fh.write("model,sweep,index,mse\n")
    for curve in curves:
        for index, mse in curve.points:
            fh.write(f"{curve.csv_label},{curve.sweep_variable},{index},{mse:.12e}\n")
