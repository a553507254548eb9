"""Trajectory sampling and Monte Carlo MSE estimation.

The first pair is drawn from the bivariate standard-normal marginal with
correlation b; later pairs follow Z_{t+1} = A Z_t + B W_{t+1}, with B the
lower Cholesky factor of Q (any square root would do; the lower factor is
fixed for reproducibility).  All randomness comes from numpy's default
PCG64 generator, so a (params, length, seed) triple pins the trajectory
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels_py as kernels
from .filtering import batch_filter_means
from .model import InvalidModelError, PmmParams, markov_form, matrix_power_coeffs

__all__ = [
    "RNG_ALGORITHM",
    "Trajectory",
    "sample",
    "monte_carlo_mse",
    "empirical_covariances",
    "trajectory_to_csv",
]

RNG_ALGORITHM = "numpy-pcg64"


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
    """Lower Cholesky factor (l11, l21, l22) of a 2x2 PSD matrix.

    Closed form so that PSD-singular noise (a deterministic channel) still
    yields a usable factor instead of a LinAlgError.
    """
    m11, m12 = float(mat[0, 0]), float(mat[0, 1])
    m22 = float(mat[1, 1])
    if m11 < -1e-12 or m22 < -1e-12:
        raise InvalidModelError("covariance has a negative diagonal")
    if m11 <= 0.0:
        if abs(m12) > 1e-12:
            raise InvalidModelError("covariance is not positive semidefinite")
        return 0.0, 0.0, math.sqrt(max(m22, 0.0))
    l11 = math.sqrt(m11)
    l21 = m12 / l11
    rest = m22 - l21 * l21
    if rest < -1e-10:
        raise InvalidModelError("covariance is not positive semidefinite")
    return l11, l21, math.sqrt(max(rest, 0.0))


def sample(p: PmmParams, n_steps: int, seed: int) -> Trajectory:
    """Simulate ``n_steps`` pairs; deterministic given (p, n_steps, seed)."""
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    m = markov_form(p)
    l011, l021, l022 = _chol2(m.marginal)
    lq11, lq21, lq22 = _chol2(m.Q)
    rng = np.random.default_rng(seed)
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


def _simulate_block(m, reps: int, steps: int, rng) -> tuple[np.ndarray, np.ndarray]:
    l011, l021, l022 = _chol2(m.marginal)
    lq11, lq21, lq22 = _chol2(m.Q)
    e0 = rng.standard_normal((reps, 2))
    x0 = l011 * e0[:, 0]
    y0 = l021 * e0[:, 0] + l022 * e0[:, 1]
    if steps == 1:
        return x0[:, None], y0[:, None]
    eps = rng.standard_normal((reps, steps - 1, 2))
    a1, a2 = m.A[0]
    a3, a4 = m.A[1]
    return kernels.simulate_block(a1, a2, a3, a4, lq11, lq21, lq22, x0, y0, eps)


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
    """
    if reps < 100:
        raise ValueError(f"need reps >= 100, got {reps}")
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    m_true = markov_form(p_true)
    m_fc = markov_form(forecaster_params)
    rng = np.random.default_rng(seed)
    x, y = _simulate_block(m_true, reps, n + k, rng)
    means = batch_filter_means(m_fc, y[:, :n])
    pc = matrix_power_coeffs(m_fc, k)
    predictions = pc.xx * means + pc.xy * y[:, n - 1]
    sq_errors = (x[:, n + k - 1] - predictions) ** 2
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
    """Write a trajectory as ``t,x,y`` rows, t starting at 1."""
    fh.write("t,x,y\n")
    for t, (xv, yv) in enumerate(zip(traj.x, traj.y), start=1):
        fh.write(f"{t},{xv:.12e},{yv:.12e}\n")
