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

S_t's (X_t, Y_t) block is the stationary marginal M = [[1, b], [b, 1]]
at every t, so the pass carries (P_t, s13, s23, s33): the forecaster's
filter variance, which fixes the next gain, and e_t's covariances with
X_t, Y_t and itself.  The MSE is then (v1^2 + 2b v1 v2 + v2^2 + noise) +
v3 (2 (v1 s13 + v2 s23) + v3 s33), from the two models' horizon terms.
The first rows of A^k and A'^k and the noise come from
``forecasting.horizon_terms``, one pass up to the largest k per distinct
model; one pass over n then yields every grid point (the error analysis
of suboptimal filters in Anderson & Moore, Optimal Filtering, 1979).  In
floating point the state settles into an exact cycle, of entry mu and
period lambda (a fixed point is lambda = 1), which ``riccati.orbit``
finds in O(1) memory.  The lambda states of the cycle then serve every
later n, bit for bit the values of stepping all the way to n, so the
pass costs O(min(max n, mu + lambda) + grid) time.  Carrying the error
e_t rather than the mean m_t avoids cancelling two O(1) covariances to
get a small MSE.  When p_fc is the truth, da = 0, e_t decouples, s33 is
the filter variance P_n and the MSE is the optimal one,
V[X_{n+k} | Y_1:n]; so ``theoretical_mse_pmm`` is a one-point call with
p_fc = p_true, and ``theoretical_mse_hmm_under_pmm`` and ``mse_sweep``
call the same pass with a hidden-Markov forecaster.  Everything here is
exact up to floating point; no simulation is involved.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import TYPE_CHECKING

from .forecasting import check_grid, check_int, horizon_terms
from .io import write_rows
from .model import (
    InvalidModelError, PmmParams, TransitionModel, check_transition, is_hmm, markov_form,
)
from .riccati import _riccati_step, orbit

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "filter_coefficients",
    "forecaster_mse",
    "observation_covariance",
    "theoretical_mse_pmm",
    "theoretical_mse_hmm_under_pmm",
    "mse_sweep",
    "curves_to_csv",
]


def __getattr__(name):
    # filter_coefficients is re-exported for callers that look it up in this
    # module; it loads numpy, so on first access only.
    if name == "filter_coefficients":
        from .filtering import filter_coefficients

        return filter_coefficients
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def observation_covariance(m: TransitionModel, b: float, n: int) -> np.ndarray:
    """The n x n matrix E[Y_i Y_j] = b*yx_{|i-j|} + yy_{|i-j|} (lag 0 is 1).

    O(n^2) memory; a reference for tests, not used by the MSE routines.
    """
    import numpy as np

    m, n = check_transition(m, "m"), check_int(n, "n", 1)
    A = np.array(m.A)
    lag_cov = np.empty(n)
    power = np.eye(2)
    for j in range(n):
        lag_cov[j] = b * power[1, 0] + power[1, 1]
        power = A @ power
    lags = np.arange(n)
    return lag_cov[np.abs(lags[:, None] - lags[None, :])]


def _horizons(params, k_values) -> dict:
    """Markov form and horizon terms per distinct model of ``params``: one
    ``horizon_terms`` pass each, which runs ``check_transition`` on the
    model before ``_augmented_recursion`` steps it."""
    out = {}
    for p in params:
        if p not in out:
            m = markov_form(p)
            out[p] = (m, horizon_terms(m, k_values))
    return out


def _augmented_recursion(m: TransitionModel, m_fc: TransitionModel):
    """The state of the pass over n at t = 1, and the step from t to t + 1.

    A state is the tuple (P, s13, s23, s33): the forecaster's filter
    variance and the entries of S in e's row; S's (X, Y) block is M.  The
    step is a function of the state alone, so equal states have equal
    successors.
    """
    (a1, a2), (a3, a4) = m.A
    (q11, q12), (_, q22) = m.Q
    (a1f, a2f), (a3f, a4f) = m_fc.A
    da1, da2, da3, da4 = a1 - a1f, a2 - a2f, a3 - a3f, a4 - a4f
    b, b_fc = m.b, m_fc.b
    # The rows of A M.
    x1, x2 = a1 + a2 * b, a1 * b + a2
    y1, y2 = a3 + a4 * b, a3 * b + a4

    def step(state):
        # e's row of F S F^T + H Q H^T, written out: F's first two rows are
        # A's, its last (f1, f2, f3); H's rows are (1, 0), (0, 1), (1, -g).
        variance, s13, s23, s33 = state
        g, next_variance = _riccati_step(m_fc, variance)
        f1, f2, f3 = da1 - g * da3, da2 - g * da4, a1f - g * a3f
        e1 = f1 + f2 * b + f3 * s13
        e2 = f1 * b + f2 + f3 * s23
        e3 = f1 * s13 + f2 * s23 + f3 * s33
        hq1, hq2 = q11 - g * q12, q12 - g * q22
        return (
            next_variance,
            x1 * f1 + x2 * f2 + (a1 * s13 + a2 * s23) * f3 + hq1,
            y1 * f1 + y2 * f2 + (a3 * s13 + a4 * s23) * f3 + hq2,
            e1 * f1 + e2 * f2 + e3 * f3 + hq1 - g * hq2,
        )

    # X_1, Y_1 standard with correlation b, e_1 = X_1 - b' Y_1.
    start = (1.0 - b_fc * b_fc, 1.0 - b_fc * b, b - b_fc, 1.0 - 2.0 * b_fc * b + b_fc * b_fc)
    return start, step


def _mse_grid(model, forecaster, n_values, k_values) -> list[float]:
    """MSE(n, k) = v^T S_n v + noise over the grid, as one flat list: n in
    increasing order and, for each n, k in ``k_values`` order.  ``model``
    and ``forecaster`` are (Markov form, horizon terms) pairs."""
    (m, terms), (m_fc, fc_terms) = model, forecaster
    out = []
    states = orbit(*_augmented_recursion(m, m_fc))
    t, cycle = 0, []
    for n in sorted(n_values):
        for state, period in islice(states, n - t):
            t += 1
            if period:
                cycle.append(state)
        if t < n:  # the orbit ended on its cycle, which serves n
            state = cycle[(n - t - 1) % len(cycle)]
        _, s13, s23, s33 = state
        for k in k_values:
            # v = (xx - xx', xy - xy', xx'); its (X, Y) part and the noise first.
            (xx, xy, noise), (v3, fc_xy, _) = terms[k], fc_terms[k]
            v1, v2 = xx - v3, xy - fc_xy
            fixed = v1 * v1 + 2.0 * m.b * v1 * v2 + v2 * v2 + noise
            out.append(fixed + v3 * (2.0 * (v1 * s13 + v2 * s23) + v3 * s33))
    return out


def forecaster_mse(
    p_true: PmmParams, p_fc: PmmParams, n_values, k_values
) -> dict[tuple[int, int], float]:
    """Exact MSE of the forecaster built from ``p_fc`` on data from
    ``p_true``, for every (n, k) of the grid, in one pass over n that
    stops once the augmented-state covariance cycles.

    The forecaster may be any admissible model: the true one, its
    hidden-Markov restriction or anything else.
    """
    n_values, k_values = check_grid(n_values, k_values)
    horizons = _horizons((p_true, p_fc), k_values)
    mse = _mse_grid(horizons[p_true], horizons[p_fc], n_values, k_values)
    return dict(zip(((n, k) for n in sorted(n_values) for k in k_values), mse))


def theoretical_mse_pmm(p: PmmParams, n: int, k: int) -> float:
    """MSE of the optimal forecaster: V[X_{n+k} | Y_1:n], observation-free."""
    return forecaster_mse(p, p, [n], [k])[(n, k)]


def _require_hmm(p_hmm: PmmParams) -> None:
    if not is_hmm(p_hmm):
        raise InvalidModelError(
            f"forecaster parameters {tuple(p_hmm)} violate the "
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
) -> list[tuple[str, str, int, float]]:
    """Theoretical MSE of both forecasters over a grid, as the
    ``(model, sweep, index, mse)`` rows that ``theoretical-mse`` writes.

    Sweeps over k when the k grid has more than one value: for each n, the
    PMM then the HMM curve over k, labelled ``PMM(n=...)`` and
    ``HMM(n=...)`` when there are several n.  Otherwise sweeps over n: the
    ``PMM`` then the ``HMM`` curve.  Each curve runs in its grid's order.
    """
    n_values, k_values = check_grid(n_values, k_values)
    _require_hmm(p_hmm)
    # The truth's horizon pass serves both forecasters.
    horizons = _horizons((p_true, p_hmm), k_values)
    mse = {
        label: _mse_grid(horizons[p_true], horizons[p], n_values, k_values)
        for label, p in (("PMM", p_true), ("HMM", p_hmm))
    }
    del horizons  # free the horizon terms before the rows are built
    # Each n's run of len(k_values) points starts at its offset.
    width = len(k_values)
    start = {n: i * width for i, n in enumerate(sorted(n_values))}
    if width == 1:
        return [(label, "n", n, mse[label][start[n]])
                for label in ("PMM", "HMM") for n in n_values]
    rows = []
    for n in n_values:
        for label in ("PMM", "HMM"):
            # One label string per curve, shared by its rows.
            model = f"{label}(n={n})" if len(n_values) > 1 else label
            values = mse[label][start[n] : start[n] + width]
            rows += zip(repeat(model), repeat("k"), k_values, values)
    return rows


def curves_to_csv(rows, fh) -> None:
    """Write ``mse_sweep`` rows under the ``model,sweep,index,mse`` header."""
    write_rows(fh, ("model", "sweep", "index", "mse"), rows)
