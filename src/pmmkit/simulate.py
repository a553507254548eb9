"""Trajectory sampling and Monte Carlo MSE estimation.

The first pair is drawn from the bivariate standard-normal marginal with
correlation b; later pairs follow Z_{t+1} = A Z_t + B W_{t+1}, with B the
lower Cholesky factor of Q (any square root would do; the lower factor is
fixed for reproducibility).  All randomness comes from numpy's default
PCG64 generator, so a (params, length, seed) triple pins the trajectory
bit for bit.  Monte Carlo advances REPLICATE_CHUNK replicates at a time
and keeps only their squared errors, so its memory is
O(reps + REPLICATE_CHUNK * (n + k)) whatever the number of replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _kernels_py as kernels
from .filtering import filter_coefficients
from .model import PmmParams, markov_form, matrix_power_coeffs

__all__ = [
    "RNG_ALGORITHM",
    "Trajectory",
    "sample",
    "monte_carlo_mse",
    "empirical_covariances",
    "trajectory_to_csv",
]

RNG_ALGORITHM = "numpy-pcg64"
# Replicates simulated and filtered together in monte_carlo_mse: a block's
# noise and trajectories take under 2 MB at 50 steps, so they stay in cache.
REPLICATE_CHUNK = 1024
# Rows formatted by one string operation in trajectory_to_csv.
WRITE_ROWS = 4096


@dataclass(frozen=True)
class Trajectory:
    """One simulated path of the hidden and observed series."""

    x: np.ndarray
    y: np.ndarray
    seed: int
    rng: str = RNG_ALGORITHM

    def __post_init__(self) -> None:
        self.x.setflags(write=False)
        self.y.setflags(write=False)
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have equal lengths")

    def __len__(self) -> int:
        return self.x.size


def _chol2(mat: np.ndarray) -> tuple[float, float, float]:
    """Lower Cholesky factor (l11, l21, l22) of a 2x2 positive definite
    matrix; ``markov_form`` makes both the marginal and Q one."""
    l11 = math.sqrt(float(mat[0, 0]))
    l21 = float(mat[0, 1]) / l11
    return l11, l21, math.sqrt(float(mat[1, 1]) - l21 * l21)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed={seed}")
    return np.random.default_rng(seed)


def sample(p: PmmParams, n_steps: int, seed: int) -> Trajectory:
    """Simulate ``n_steps`` pairs; deterministic given (p, n_steps, seed)."""
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    m = markov_form(p)
    l011, l021, l022 = _chol2(m.marginal)
    lq11, lq21, lq22 = _chol2(m.Q)
    rng = _rng(seed)
    e0 = rng.standard_normal(2)
    x0 = l011 * e0[0]
    y0 = l021 * e0[0] + l022 * e0[1]
    if n_steps == 1:
        return Trajectory(x=np.array([x0]), y=np.array([y0]), seed=seed)
    eps = rng.standard_normal((n_steps - 1, 2))
    a1, a2 = m.A[0]
    a3, a4 = m.A[1]
    x, y = kernels.simulate_pairs(a1, a2, a3, a4, lq11, lq21, lq22, x0, y0, eps)
    return Trajectory(x=x, y=y, seed=seed)


def monte_carlo_mse(
    p_true: PmmParams,
    forecaster_params: PmmParams,
    n: int,
    k: int,
    reps: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical MSE of a forecaster on data simulated from ``p_true``.

    Each replicate is an independent trajectory of length n + k; the
    forecaster filters the first n observations under its own parameters
    and predicts X_{n+k}.  Returns the mean squared error and its standard
    error over replicates.

    The first pairs of all replicates are drawn up front; each block of
    REPLICATE_CHUNK replicates then draws its own noise, is simulated and
    filtered, and leaves only its squared errors.  Consecutive draws equal
    one large draw bit for bit, so the result does not depend on the block
    size.
    """
    if reps < 100:
        raise ValueError(f"need reps >= 100, got {reps}")
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    m_true = markov_form(p_true)
    m_fc = markov_form(forecaster_params)
    rng = _rng(seed)
    l011, l021, l022 = _chol2(m_true.marginal)
    lq11, lq21, lq22 = _chol2(m_true.Q)
    a1, a2 = m_true.A[0]
    a3, a4 = m_true.A[1]
    e0 = rng.standard_normal((reps, 2))
    x0 = l011 * e0[:, 0]
    y0 = l021 * e0[:, 0] + l022 * e0[:, 1]
    weights = filter_coefficients(m_fc, n)
    pc = matrix_power_coeffs(m_fc, k)
    sq_errors = np.empty(reps)
    for lo in range(0, reps, REPLICATE_CHUNK):
        block = slice(lo, min(lo + REPLICATE_CHUNK, reps))
        eps = rng.standard_normal((block.stop - lo, n + k - 1, 2))
        x, y = kernels.simulate_block(
            a1, a2, a3, a4, lq11, lq21, lq22, x0[block], y0[block], eps
        )
        means = kernels.batch_filter_means(weights, y[:, :n])
        predictions = pc.xx * means + pc.xy * y[:, n - 1]
        sq_errors[block] = (x[:, n + k - 1] - predictions) ** 2
        del eps, x, y  # so that the next block's arrays do not overlap these
    mse = float(sq_errors.mean())
    stderr = float(sq_errors.std(ddof=1) / math.sqrt(reps))
    return mse, stderr


def empirical_covariances(x, y) -> PmmParams:
    """Moment estimates of (a, b, c, d, e) from a pair of series.

    Sums of products with a 1/(N-1) denominator (the lag-1 sums run over
    the N-1 aligned pairs).  Assumes the series are already standardized,
    which holds for simulated paths by construction; the fitting pipeline
    standardizes before calling this.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need equal-length series with at least two points")
    denom = x.size - 1
    return PmmParams(
        a=float(x[:-1] @ x[1:]) / denom,
        b=float(x @ y) / denom,
        c=float(y[:-1] @ y[1:]) / denom,
        d=float(x[:-1] @ y[1:]) / denom,
        e=float(x[1:] @ y[:-1]) / denom,
    )


def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write a trajectory as ``t,x,y`` rows, t starting at 1.

    WRITE_ROWS rows at a time go through one ``%`` operation on a flat
    tuple, which formats each value exactly as ``f"{v:.12e}"`` does.
    """
    fh.write("t,x,y\n")
    for lo in range(0, len(traj), WRITE_ROWS):
        xs = traj.x[lo : lo + WRITE_ROWS].tolist()
        ys = traj.y[lo : lo + WRITE_ROWS].tolist()
        rows = zip(range(lo + 1, lo + 1 + len(xs)), xs, ys)
        fh.write("%d,%.12e,%.12e\n" * len(xs) % tuple(chain.from_iterable(rows)))
