"""Exact mean-square error of a linear forecaster under a pairwise model.

A forecaster built from parameters p_fc filters with its own gains G_t,
but the observations it sees come from the true model.  Its filter mean
m_t is linear in (X_{t-1}, Y_{t-1}, m_{t-1}) and the fresh noise, so the
augmented state s_t = (X_t, Y_t, e_t), with e_t = X_t - m_t the filter
error, is itself Gauss-Markov:

    s_t = F_t s_{t-1} + H_t W_t,    Cov W_t = Q (the true model's noise),

    F_t = [[a1,                 a2,                 0          ],
           [a3,                 a4,                 0          ],
           [da1 - G_t da3,      da2 - G_t da4,      a1' - G_t a3']],

    H_t = [[1, 0], [0, 1], [1, -G_t]],

with primed entries from the forecaster's transition matrix and
da = a - a' the entrywise difference of the two.  Its covariance follows
S_t = F_t S_{t-1} F_t^T + H_t Q H_t^T from the stationary start S_1
(X_1, Y_1 standard with correlation b, e_1 = X_1 - b' Y_1).  The k-step
forecast is xx' m_n + xy' Y_n with (xx', xy') the first row of A'^k, while
X_{n+k} = [A^k]_00 X_n + [A^k]_01 Y_n + noise, so

    MSE(n, k) = v^T S_n v + [sum_{j<k} A^j Q A^j^T]_00,
    v = ([A^k]_00 - xx', [A^k]_01 - xy', xx').

The first rows of A^k and A'^k and the noise sum come from
``forecasting.horizon_terms`` passes up to the largest k, the same k-step
map that serves the forecast.  One pass over n then yields every grid
point, in O(min(max n, settle step) + grid) time and O(1) memory in n (the
error analysis of suboptimal filters in Anderson & Moore, Optimal
Filtering, 1979).  The pass stops at the exact fixed point: once the
forecaster's filter variance, and with it its gain, repeats and S_t
repeats bit for bit, every later step would return the same S_t, so the
rest of the n grid takes that value.  On the presets
this happens within a few hundred steps.  Carrying the error e_t rather
than the mean m_t avoids cancelling two O(1) covariances to get a small
MSE.  When p_fc is the truth, da = 0, e_t decouples, S_n's last entry is
the filter variance P_n and the MSE is the optimal one,
V[X_{n+k} | Y_1:n]; so ``theoretical_mse_pmm`` is a one-point call with
p_fc = p_true, and ``theoretical_mse_hmm_under_pmm`` and ``mse_sweep``
call the same pass with a hidden-Markov forecaster.  Everything here is
exact up to floating point; no simulation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# filter_coefficients is re-exported here for callers that look it up in
# this module.
from .filtering import filter_coefficients, riccati_steps
from .forecasting import horizon_terms
from .model import InvalidModelError, PmmParams, TransitionModel, is_hmm, markov_form

__all__ = [
    "MseCurve",
    "filter_coefficients",
    "forecaster_mse",
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


def observation_covariance(m: TransitionModel, b: float, n: int) -> np.ndarray:
    """The n x n matrix E[Y_i Y_j] = b*yx_{|i-j|} + yy_{|i-j|} (lag 0 is 1).

    O(n^2) memory; a reference for tests, not used by the MSE routines.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lag_cov = np.empty(n)
    power = np.eye(2)
    for j in range(n):
        lag_cov[j] = b * power[1, 0] + power[1, 1]
        power = m.A @ power
    lags = np.arange(n)
    return lag_cov[np.abs(lags[:, None] - lags[None, :])]


def forecaster_mse(
    p_true: PmmParams, p_fc: PmmParams, n_values, k_values
) -> dict[tuple[int, int], float]:
    """Exact MSE of the forecaster built from ``p_fc`` on data from
    ``p_true``, for every (n, k) of the grid, in one pass over n that
    stops at the exact fixed point of the augmented-state covariance.

    The forecaster may be any admissible model: the true one, its
    hidden-Markov restriction or anything else.
    """
    n_values = sorted({int(n) for n in n_values})
    k_values = sorted({int(k) for k in k_values})
    if not n_values or not k_values:
        raise ValueError("n_values and k_values must be nonempty")
    if n_values[0] < 1 or k_values[0] < 0:
        raise ValueError(
            f"need n >= 1 and k >= 0, got n={n_values[0]}, k={k_values[0]}"
        )
    m = markov_form(p_true)
    m_fc = markov_form(p_fc)
    fc_terms = horizon_terms(m_fc, k_values)
    # Per k: the error weights v on (X_n, Y_n, e_n) and the noise after n.
    horizon = {}
    for k, (xx, xy, noise) in horizon_terms(m, k_values).items():
        fc_xx, fc_xy, _ = fc_terms[k]
        horizon[k] = (np.array([xx - fc_xx, xy - fc_xy, fc_xx]), noise)
    b, b_fc = m.b, m_fc.b
    cov = np.array(
        [
            [1.0, b, 1.0 - b_fc * b],
            [b, 1.0, b - b_fc],
            [1.0 - b_fc * b, b - b_fc, 1.0 - 2.0 * b_fc * b + b_fc * b_fc],
        ]
    )
    (da1, da2), (da3, da4) = m.A - m_fc.A
    a1f, a3f = m_fc.A[:, 0]
    # F S F^T + H Q H^T as one product [F H] diag(S, Q) [F H]^T.
    lift = np.zeros((3, 5))
    lift[:2, :2] = m.A
    lift[:2, 3:] = np.eye(2)
    blocks = np.zeros((5, 5))
    blocks[3:, 3:] = m.Q
    gains = riccati_steps(m_fc)
    variance = 1.0 - b_fc * b_fc
    settled = False
    out = {}
    t = 1
    for n in n_values:
        while t < n and not settled:
            g, next_variance = next(gains)
            lift[2] = (da1 - g * da3, da2 - g * da4, a1f - g * a3f, 1.0, -g)
            blocks[:3, :3] = cov
            next_cov = lift @ blocks @ lift.T
            # The next gain is a function of the filter variance alone, and
            # the next S of this gain and S: once both repeat exactly, every
            # later step returns this S.
            settled = next_variance == variance and np.array_equal(next_cov, cov)
            variance, cov = next_variance, next_cov
            t += 1
        for k, (v, noise) in horizon.items():
            out[(n, k)] = float(v @ cov @ v) + noise
    return out


def theoretical_mse_pmm(p: PmmParams, n: int, k: int) -> float:
    """MSE of the optimal forecaster: V[X_{n+k} | Y_1:n], observation-free."""
    return forecaster_mse(p, p, [n], [k])[(n, k)]


def _require_hmm(p_hmm: PmmParams) -> None:
    if not is_hmm(p_hmm):
        raise InvalidModelError(
            f"forecaster parameters {p_hmm.astuple()} violate the "
            "hidden-Markov constraints"
        )


def theoretical_mse_hmm_under_pmm(
    p_true: PmmParams, p_hmm: PmmParams, n: int, k: int
) -> float:
    """MSE of the hidden-Markov forecaster when the data follow ``p_true``."""
    _require_hmm(p_hmm)
    return forecaster_mse(p_true, p_hmm, [n], [k])[(n, k)]


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
    _require_hmm(p_hmm)
    mse = {
        "PMM": forecaster_mse(p_true, p_true, n_values, k_values),
        "HMM": forecaster_mse(p_true, p_hmm, n_values, k_values),
    }
    if len(k_values) > 1:
        fixed = len(n_values) > 1
        return [
            MseCurve(
                label,
                "k",
                tuple((k, mse[label][(n, k)]) for k in k_values),
                {"n": n} if fixed else {},
            )
            for n in n_values
            for label in ("PMM", "HMM")
        ]
    k = k_values[0]
    return [
        MseCurve(label, "n", tuple((n, mse[label][(n, k)]) for n in n_values))
        for label in ("PMM", "HMM")
    ]


def curves_to_csv(curves, fh) -> None:
    """Write sweep curves as ``model,sweep,index,mse`` rows."""
    fh.write("model,sweep,index,mse\n")
    for curve in curves:
        for index, mse in curve.points:
            fh.write(f"{curve.csv_label},{curve.sweep_variable},{index},{mse:.12e}\n")
