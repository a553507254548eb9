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
``forecasting.horizon_terms``, the same k-step map that serves the
forecast, with one pass up to the largest k per distinct model.  One pass
over n then yields every grid point (the error analysis of suboptimal
filters in Anderson & Moore, Optimal Filtering, 1979).  Its whole state
is (P_t, S_t): the next gain is a function of the forecaster's filter
variance P_t alone, and S_{t+1} of that gain and S_t.  In floating point
the state settles into an exact cycle, of entry mu and period lambda (a
fixed point is lambda = 1), and Brent's cycle detection finds it with O(1)
memory (Brent, BIT 20, 1980).  The lambda states of the cycle then serve
every later n, bit for bit the values of stepping all the way to n, so
the pass costs O(min(max n, mu + lambda) + grid) time.  Carrying the error
e_t rather than the mean m_t avoids cancelling two O(1) covariances to get
a small MSE.  When p_fc is the truth, da = 0, e_t decouples, S_n's last entry is
the filter variance P_n and the MSE is the optimal one,
V[X_{n+k} | Y_1:n]; so ``theoretical_mse_pmm`` is a one-point call with
p_fc = p_true, and ``theoretical_mse_hmm_under_pmm`` and ``mse_sweep``
call the same pass with a hidden-Markov forecaster.  Everything here is
exact up to floating point; no simulation is involved.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .forecasting import horizon_terms
from .io import write_rows
from .model import InvalidModelError, PmmParams, TransitionModel, is_hmm, markov_form
from .riccati import _riccati_step

if TYPE_CHECKING:
    import numpy as np

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


class MseCurve(NamedTuple):
    """One theoretical-MSE curve over a sweep of n or k."""

    model_label: str  # "PMM" or "HMM"
    sweep_variable: str  # "n" or "k"
    points: tuple[tuple[int, float], ...]
    fixed: Mapping[str, int] = MappingProxyType({})  # read-only: the default is shared

    @property
    def csv_label(self) -> str:
        if self.fixed:
            inner = ";".join(f"{k}={v}" for k, v in sorted(self.fixed.items()))
            return f"{self.model_label}({inner})"
        return self.model_label


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

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    A = np.array(m.A)
    lag_cov = np.empty(n)
    power = np.eye(2)
    for j in range(n):
        lag_cov[j] = b * power[1, 0] + power[1, 1]
        power = A @ power
    lags = np.arange(n)
    return lag_cov[np.abs(lags[:, None] - lags[None, :])]


def _grid(n_values, k_values) -> tuple[list[int], list[int]]:
    """The distinct n and k, sorted; n >= 1 and k >= 0."""
    n_values = sorted({int(n) for n in n_values})
    k_values = sorted({int(k) for k in k_values})
    if not n_values or not k_values:
        raise ValueError("n_values and k_values must be nonempty")
    if n_values[0] < 1 or k_values[0] < 0:
        raise ValueError(
            f"need n >= 1 and k >= 0, got n={n_values[0]}, k={k_values[0]}"
        )
    return n_values, k_values


def _first_repeat(values):
    """The first value that ``values`` holds a second time, or None."""
    seen = set()
    return next((v for v in values if v in seen or seen.add(v)), None)


def _horizons(params, k_values) -> dict:
    """Markov form and horizon terms per distinct model of ``params``: one
    ``horizon_terms`` pass each."""
    out = {}
    for p in params:
        if p not in out:
            m = markov_form(p)
            out[p] = (m, horizon_terms(m, k_values))
    return out


def _augmented_recursion(m: TransitionModel, m_fc: TransitionModel):
    """The state (P_1, S_1) of the pass over n, and the step that maps
    (P_t, S_t) to (P_{t+1}, S_{t+1}).

    A state is the tuple (P, s11, s12, s13, s22, s23, s33): the
    forecaster's filter variance and the six entries of S.  The step is a
    function of the state alone, so equal states have equal successors.
    """
    (a1, a2), (a3, a4) = m.A
    (q11, q12), (_, q22) = m.Q
    (a1f, a2f), (a3f, a4f) = m_fc.A
    da1, da2, da3, da4 = a1 - a1f, a2 - a2f, a3 - a3f, a4 - a4f

    def step(state):
        # F S F^T + H Q H^T, written out: F's first two rows are A's, its
        # last (f1, f2, f3); H's rows are (1, 0), (0, 1) and (1, -g).
        variance, s11, s12, s13, s22, s23, s33 = state
        g, next_variance = _riccati_step(m_fc, variance)
        f1, f2, f3 = da1 - g * da3, da2 - g * da4, a1f - g * a3f
        x1, x2 = a1 * s11 + a2 * s12, a1 * s12 + a2 * s22
        y1, y2 = a3 * s11 + a4 * s12, a3 * s12 + a4 * s22
        e1 = f1 * s11 + f2 * s12 + f3 * s13
        e2 = f1 * s12 + f2 * s22 + f3 * s23
        e3 = f1 * s13 + f2 * s23 + f3 * s33
        hq1, hq2 = q11 - g * q12, q12 - g * q22
        return (
            next_variance,
            x1 * a1 + x2 * a2 + q11,
            x1 * a3 + x2 * a4 + q12,
            x1 * f1 + x2 * f2 + (a1 * s13 + a2 * s23) * f3 + hq1,
            y1 * a3 + y2 * a4 + q22,
            y1 * f1 + y2 * f2 + (a3 * s13 + a4 * s23) * f3 + hq2,
            e1 * f1 + e2 * f2 + e3 * f3 + hq1 - g * hq2,
        )

    # X_1, Y_1 standard with correlation b, e_1 = X_1 - b' Y_1.
    b, b_fc = m.b, m_fc.b
    start = (
        1.0 - b_fc * b_fc,
        1.0, b, 1.0 - b_fc * b,
        1.0, b - b_fc,
        1.0 - 2.0 * b_fc * b + b_fc * b_fc,
    )
    return start, step


def _error_covariances(m: TransitionModel, m_fc: TransitionModel, n_values):
    """Yield S_n as its six entries (s11, s12, s13, s22, s23, s33), for
    each n of the sorted grid.

    Brent's method finds the cycle: the state of each step t = 2^j is kept,
    and the states of steps 2^j + 1 .. 2^(j+1) are compared with it.  A
    match at step t gives the period lambda = t - 2^j; the lambda states
    from step t on are computed once, and every later n reads its S_n from
    them.  So fewer than 2 max(mu, lambda) + 2 lambda, which is less than
    4 (mu + lambda), steps are taken however large n is.
    """
    state, step = _augmented_recursion(m, m_fc)
    t = kept_at = 1
    kept = state
    cycle = None  # the states of steps start, start + 1, ... once found
    for n in n_values:
        while cycle is None and t < n:
            state = step(state)
            t += 1
            if state == kept:
                start, cycle = t, [state]
                for _ in range(t - kept_at - 1):
                    cycle.append(step(cycle[-1]))
            elif t & (t - 1) == 0:
                kept, kept_at = state, t
        yield (state if cycle is None else cycle[(n - start) % len(cycle)])[1:]


def _mse_grid(model, forecaster, n_values, k_values) -> dict[tuple[int, int], float]:
    """MSE(n, k) = v^T S_n v + noise over the sorted grid; ``model`` and
    ``forecaster`` are (Markov form, horizon terms) pairs."""
    m, terms = model
    m_fc, fc_terms = forecaster
    # Per k: the error weights v on (X_n, Y_n, e_n) and the noise after n.
    weights = []
    for k in k_values:
        xx, xy, noise = terms[k]
        fc_xx, fc_xy, _ = fc_terms[k]
        weights.append((k, xx - fc_xx, xy - fc_xy, fc_xx, noise))
    out = {}
    for n, (s11, s12, s13, s22, s23, s33) in zip(
        n_values, _error_covariances(m, m_fc, n_values)
    ):
        for k, v1, v2, v3, noise in weights:
            w1 = v1 * s11 + v2 * s12 + v3 * s13
            w2 = v1 * s12 + v2 * s22 + v3 * s23
            w3 = v1 * s13 + v2 * s23 + v3 * s33
            out[(n, k)] = w1 * v1 + w2 * v2 + w3 * v3 + noise
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
    n_values, k_values = _grid(n_values, k_values)
    horizons = _horizons((p_true, p_fc), k_values)
    return _mse_grid(horizons[p_true], horizons[p_fc], n_values, k_values)


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
    per n), otherwise over n (one curve pair per k).  A value repeated in
    either grid raises ValueError.
    """
    n_values = [int(n) for n in n_values]
    k_values = [int(k) for k in k_values]
    for name, values in (("n_values", n_values), ("k_values", k_values)):
        if (repeat := _first_repeat(values)) is not None:
            raise ValueError(f"{name} repeats the value {repeat}")
    n_grid, k_grid = _grid(n_values, k_values)
    _require_hmm(p_hmm)
    # The truth's horizon pass serves both forecasters.
    horizons = _horizons((p_true, p_hmm), k_grid)
    mse = {
        label: _mse_grid(horizons[p_true], horizons[p], n_grid, k_grid)
        for label, p in (("PMM", p_true), ("HMM", p_hmm))
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
        MseCurve(label, "n", tuple((n, mse[label][(n, k)]) for n in n_values), {})
        for label in ("PMM", "HMM")
    ]


def curves_to_csv(curves, fh) -> None:
    """Write sweep curves as ``model,sweep,index,mse`` rows."""
    write_rows(fh, ("model", "sweep", "index", "mse"), (
        (label, curve.sweep_variable, index, mse)
        for curve, label in zip(curves, [c.csv_label for c in curves])
        for index, mse in curve.points
    ))
