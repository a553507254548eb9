"""Exact recursive filtering: E[X_n | Y_1:n] and V[X_n | Y_1:n].

The pair (X_n, Y_n) is the Markov state, so the one-step predict uses both
the current conditional mean of X_n and the last observation.  With
A = [[a1, a2], [a3, a4]], Q = [[q11, q12], [., q22]] and P the current
conditional variance, the update gain is

    G = (a1*a3*P + q12) / (a3^2*P + q22)

and one step reads

    m' = a1*m + a2*y_n + G*(y_{n+1} - a3*m - a4*y_n)
    P' = a1^2*P + q11 - G^2*(a3^2*P + q22).

P depends on the model only, never on the observed values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels_py as kernels
from .model import InvalidModelError, PmmParams, TransitionModel

__all__ = [
    "CoefficientVector",
    "FilterState",
    "filter_coefficients",
    "filter_init",
    "filter_step",
    "run_filter",
    "filter_variance_sequence",
    "filter_gain_sequence",
    "riccati_steps",
    "batch_filter_means",
]

# Below this, Y_{n+1} is numerically deterministic given (X_n, Y_n) and the
# update gain is ill-posed.  Only a hand-built TransitionModel gets here:
# for one from markov_form the denominator is at least min eig Q > PD_TOL.
DEGENERATE_DENOMINATOR = 1e-14


@dataclass(frozen=True)
class CoefficientVector:
    """Weights w such that the forecaster outputs sum_i w_i * Y_i."""

    n: int
    horizon: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights.setflags(write=False)

    def apply(self, ys) -> float:
        ys = np.asarray(ys, dtype=float)
        if ys.shape != (self.n,):
            raise ValueError(f"expected {self.n} observations, got {ys.shape}")
        return float(self.weights @ ys)


@dataclass(frozen=True)
class FilterState:
    """Conditional law of the hidden state after n observations."""

    n: int
    mean: float
    variance: float
    last_y: float


def filter_init(p: PmmParams, y1: float) -> FilterState:
    """Condition X_1 on Y_1 in the bivariate standard-normal pair."""
    return FilterState(n=1, mean=p.b * y1, variance=1.0 - p.b * p.b, last_y=y1)


def _riccati_step(m: TransitionModel, p: float) -> tuple[float, float]:
    """The gain that absorbs the next observation, and the filter variance
    after it, from the current filter variance ``p``."""
    a1, a3 = m.A[0, 0], m.A[1, 0]
    q11, q12 = m.Q[0]
    denom = a3 * a3 * p + m.Q[1, 1]
    if denom <= DEGENERATE_DENOMINATOR:
        raise InvalidModelError(
            f"degenerate observation channel (innovation variance {denom:g})"
        )
    gain = (a1 * a3 * p + q12) / denom
    # The clamp guards roundoff at near-degenerate models.
    return gain, max(a1 * a1 * p + q11 - gain * gain * denom, 0.0)


def filter_step(s: FilterState, m: TransitionModel, y_next: float) -> FilterState:
    """Absorb one more observation."""
    a1, a2 = m.A[0]
    a3, a4 = m.A[1]
    gain, variance = _riccati_step(m, s.variance)
    mean = a1 * s.mean + a2 * s.last_y + gain * (y_next - a3 * s.mean - a4 * s.last_y)
    return FilterState(n=s.n + 1, mean=mean, variance=variance, last_y=y_next)


def run_filter(m: TransitionModel, ys) -> FilterState:
    """Filter a whole observation sequence.

    The mean is the filter's coefficient vector applied to ys; the variance
    is the last term of the model's variance recursion.  Both match
    filter_init followed by filter_step over ys[1:].
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or ys.size < 1:
        raise ValueError("need a 1-d sequence with at least one observation")
    variances, gains = _variance_and_gains(m, ys.size)
    return FilterState(
        n=ys.size,
        mean=float(_weights(m, gains) @ ys),
        variance=float(variances[-1]),
        last_y=float(ys[-1]),
    )


def riccati_steps(m: TransitionModel):
    """Yield (G, P) for steps t = 2, 3, ...: the gain that absorbs Y_t and
    the filter variance V[X_t | Y_1:t] after it; P_1 = 1 - b^2.

    Lazy, so a caller that folds the steps into its own recursion keeps
    O(1) memory in n.
    """
    p = 1.0 - m.b * m.b
    while True:
        g, p = _riccati_step(m, p)
        yield g, p


def _variance_and_gains(m: TransitionModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    variances = np.empty(n)
    gains = np.empty(n - 1)
    variances[0] = 1.0 - m.b * m.b
    # range comes first so that zip stops before asking for a gain past n.
    for t, (g, p) in zip(range(1, n), riccati_steps(m)):
        gains[t - 1] = g
        variances[t] = p
        if p == variances[t - 1]:
            # Each step is a function of the previous variance alone, so
            # once it repeats exactly every later (G, P) is this one.
            gains[t:] = g
            variances[t + 1 :] = p
            break
    return variances, gains


def filter_variance_sequence(m: TransitionModel, n: int) -> np.ndarray:
    """V[X_t | Y_1:t] for t = 1..n; observation-independent."""
    return _variance_and_gains(m, n)[0]


def filter_gain_sequence(m: TransitionModel, n: int) -> np.ndarray:
    """The gains used at steps 2..n; observation-independent."""
    return _variance_and_gains(m, n)[1]


def _weights(m: TransitionModel, gains: np.ndarray) -> np.ndarray:
    # Absorbing observation t scales every earlier weight by
    # c_t = a1 - a3*G_t, adds d_t = a2 - a4*G_t to the weight of
    # observation t-1 and gives observation t the weight G_t (b for the
    # first).  So observation j < n ends with (w_j*c_{j+1} + d_{j+1}) times
    # the suffix product c_{j+2}...c_n.
    a1, a2 = m.A[0]
    a3, a4 = m.A[1]
    entry = np.concatenate(([m.b], gains))
    c = a1 - a3 * gains
    d = a2 - a4 * gains
    suffix = np.append(np.cumprod(c[::-1])[::-1][1:], 1.0)
    weights = np.empty(entry.size)
    weights[:-1] = (entry[:-1] * c + d) * suffix
    weights[-1] = entry[-1]
    return weights


def filter_coefficients(m: TransitionModel, n: int) -> CoefficientVector:
    """Observation weights of the filter mean E[X_n | Y_1:n]; cost O(n).

    The gains come from the model's own variance recursion.
    """
    _, gains = _variance_and_gains(m, n)
    return CoefficientVector(n=n, horizon=0, weights=_weights(m, gains))


def batch_filter_means(m: TransitionModel, obs: np.ndarray) -> np.ndarray:
    """Final filter mean for every row of ``obs`` (shape (rows, n)).

    Row i yields the same value as ``run_filter(m, obs[i]).mean``.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 2 or obs.shape[1] < 1:
        raise ValueError("obs must be 2-d with at least one column")
    weights = filter_coefficients(m, obs.shape[1]).weights
    return kernels.batch_filter_means(weights, obs)
