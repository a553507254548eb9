"""Exact recursive filtering: E[X_n | Y_1:n] and V[X_n | Y_1:n].

The pair (X_n, Y_n) is the Markov state, so the one-step predict uses both
the current conditional mean of X_n and the last observation.  With
A = [[a1, a2], [a3, a4]] and G the gain of the variance recursion in
``riccati``, one step reads

    m' = a1*m + a2*y_n + G*(y_{n+1} - a3*m - a4*y_n).

The variance, and with it every gain, depends on the model only, never on
the observed values.  Their pass stops where the pair (G_t, P_t) repeats
(``riccati.orbit``), and the rest tile its cycle: O(mu + lambda) Python
steps, for a cycle of entry mu and period lambda, plus an O(n) fill.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .forecasting import FLOOR, check_int, check_series
from .model import TransitionModel
from .riccati import _riccati_step, orbit

__all__ = [
    "FilterState",
    "filter_coefficients",
    "filter_init",
    "filter_step",
    "run_filter",
    "filter_variance_sequence",
    "batch_filter_means",
]


class FilterState(NamedTuple):
    """Conditional law of the hidden state after n observations."""

    n: int
    mean: float
    variance: float
    last_y: float


def filter_init(m: TransitionModel, y1: float) -> FilterState:
    """Condition X_1 on Y_1 in the bivariate standard-normal pair."""
    return FilterState(n=1, mean=m.b * y1, variance=1.0 - m.b * m.b, last_y=y1)


def filter_step(s: FilterState, m: TransitionModel, y_next: float) -> FilterState:
    """Absorb one more observation."""
    (a1, a2), (a3, a4) = m.A
    gain, variance = _riccati_step(m, s.variance)
    mean = a1 * s.mean + a2 * s.last_y + gain * (y_next - a3 * s.mean - a4 * s.last_y)
    return FilterState(n=s.n + 1, mean=mean, variance=variance, last_y=y_next)


def run_filter(m: TransitionModel, ys) -> FilterState:
    """Filter a whole observation sequence.

    The mean is ``filter_coefficients(m, n) @ ys``; the variance
    is the last term of the model's variance recursion.  Both match
    filter_init followed by filter_step over ys[1:].
    """
    ys = check_series(ys, "ys", 1)
    variances, gains = _variance_and_gains(m, ys.size)
    return FilterState(
        n=ys.size,
        mean=float(_weights(m, gains) @ ys),
        variance=float(variances[-1]),
        last_y=float(ys[-1]),
    )


def _variance_and_gains(m: TransitionModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    n = check_int(n, "n", 1)
    # Entry i holds step i + 1's (G, P); step 1's G is None, a NaN dropped.
    gains = np.empty(n)
    variances = np.empty(n)
    states = orbit((None, 1.0 - m.b * m.b), lambda state: _riccati_step(m, state[1]))
    for i, ((g, p), period) in zip(range(n), states):
        gains[i] = g
        variances[i] = p
    if i + 1 < n:
        # The orbit ended on its cycle: repeat it to the end.
        rest = n - i - 1
        for values in (gains, variances):
            values[i + 1 :] = np.tile(values[i + 1 - period : i + 1], -(-rest // period))[:rest]
    return variances, gains[1:]


def filter_variance_sequence(m: TransitionModel, n: int) -> np.ndarray:
    """V[X_t | Y_1:t] for t = 1..n; observation-independent."""
    return _variance_and_gains(m, n)[0]


def _weights(m: TransitionModel, gains: np.ndarray) -> np.ndarray:
    # Absorbing observation t scales every earlier weight by
    # c_t = a1 - a3*G_t, adds d_t = a2 - a4*G_t to the weight of
    # observation t-1 and gives observation t the weight G_t (b for the
    # first).  So observation j < n ends with (w_j*c_{j+1} + d_{j+1}) times
    # the suffix product c_{j+2}...c_n.  The products are formed from the
    # end a block at a time by cumprod, which multiplies in order, up to
    # the block where they fall below FLOOR; the earlier ones stay 0.0, as
    # does every weight below FLOOR.
    (a1, a2), (a3, a4) = m.A
    entry = np.concatenate(([m.b], gains))
    c = a1 - a3 * gains
    d = a2 - a4 * gains
    products = np.zeros(c.size)  # c_n, c_n c_{n-1}, ..., c_n...c_2
    product = 1.0
    for lo in range(0, c.size, 4096):
        block = np.cumprod(np.append(product, c[::-1][lo : lo + 4096]))[1:]
        products[lo : lo + 4096] = block
        if abs(product := block[-1]) < FLOOR:
            break
    weights = np.empty(entry.size)
    weights[:-1] = (entry[:-1] * c + d) * np.append(products[::-1][1:], 1.0)
    weights[-1] = entry[-1]
    # Two comparisons rather than np.abs, which would make a float temporary.
    weights[(weights > -FLOOR) & (weights < FLOOR)] = 0.0
    return weights


def filter_coefficients(m: TransitionModel, n: int) -> np.ndarray:
    """Read-only weights w of the filter mean E[X_n | Y_1:n] = w @ Y_1:n;
    cost O(n).

    The gains come from the model's own variance recursion.
    """
    weights = _weights(m, _variance_and_gains(m, n)[1])
    weights.setflags(write=False)
    return weights


def batch_filter_means(m: TransitionModel, obs: np.ndarray) -> np.ndarray:
    """Final filter mean for every row of ``obs`` (shape (rows, n)).

    Row i yields the same value as ``run_filter(m, obs[i]).mean``.
    """
    from . import _kernels_py as kernels  # here: run_filter's callers load no kernels

    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 2 or obs.shape[1] < 1:
        raise ValueError("obs must be 2-d with at least one column")
    return kernels.batch_filter_means(filter_coefficients(m, obs.shape[1]), obs)
