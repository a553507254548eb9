"""Trajectory sampling and Monte Carlo MSE estimation.

The first pair is drawn from the bivariate standard-normal marginal with
correlation b; later pairs follow Z_{t+1} = A Z_t + B W_{t+1}, with B the
lower Cholesky factor of Q (any square root would do; the lower factor is
fixed for reproducibility).  All randomness comes from numpy's default
PCG64 generator, so a (params, length, seed) triple pins the trajectory
bit for bit.

Monte Carlo builds no trajectory.  Every forecaster here is linear in the
observations and every observation is linear in the normal draws, so a
replicate's forecast error is one fixed weight vector dotted with its own
draws; one backward pass through the true model gives those weights in
O(n + k).  The draws come at most REPLICATE_CHUNK replicates, and at most
BLOCK_STEPS replicate-steps, at a time, and only their errors are kept, so
the memory is O(reps + n + k + BLOCK_STEPS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels_py as kernels
from .filtering import filter_coefficients
from .forecasting import horizon_terms
from .io import write_numbered_floats
from .model import Matrix2, PmmParams, TransitionModel, markov_form

__all__ = [
    "RNG_ALGORITHM",
    "Trajectory",
    "sample",
    "monte_carlo_mse",
    "empirical_covariances",
    "trajectory_to_csv",
]

RNG_ALGORITHM = "numpy-pcg64"
# Replicates drawn together in monte_carlo_mse: a block's noise takes under
# 1 MB at 50 steps, so it stays in cache.
REPLICATE_CHUNK = 1024
# Most replicates times steps in one block: 16 bytes each for the noise, so
# about 16 MB at any n + k.
BLOCK_STEPS = 2**20


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


def _chol2(mat: Matrix2) -> tuple[float, float, float]:
    """Lower Cholesky factor (l11, l21, l22) of a 2x2 positive definite
    matrix; ``markov_form`` makes both the marginal and Q one."""
    (m11, m12), (_, m22) = mat
    l11 = math.sqrt(m11)
    l21 = m12 / l11
    return l11, l21, math.sqrt(m22 - l21 * l21)


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
    (a1, a2), (a3, a4) = m.A
    x, y = kernels.simulate_pairs(a1, a2, a3, a4, lq11, lq21, lq22, x0, y0, eps)
    return Trajectory(x=x, y=y, seed=seed)


def _error_weights(
    m_true: TransitionModel, m_fc: TransitionModel, n: int, k: int
) -> np.ndarray:
    """The forecast error of one replicate as a linear form in its draws,
    shape (n + k, 2): row 0 weighs the two normals of the first pair Z_1,
    row t the two that enter Z_{t+1}.

    The forecaster predicts X_{n+k} by v . Y_1:n: its filter weights times
    xx, plus xy on Y_n, with (xx, xy) the first row of its own A^k.  Since
    Z_t = A Z_{t-1} + B W_t, a form lam . Z_t equals lam A . Z_{t-1} plus
    lam B . W_t, so one backward pass carries lam from (1, 0) on Z_{n+k}
    down to Z_1, taking -v_t on the y of each Z_t with t <= n: the impulse
    response of a suboptimal filter's error (Anderson & Moore, Optimal
    Filtering, 1979).  O(n + k) time, over Python floats.
    """
    [(xx, xy, _)] = horizon_terms(m_fc, [k]).values()
    v = (xx * filter_coefficients(m_fc, n)).tolist()
    v[-1] += xy
    l011, l021, l022 = _chol2(m_true.marginal)
    lq11, lq21, lq22 = _chol2(m_true.Q)
    (a1, a2), (a3, a4) = m_true.A
    # Z_t is numbered from t = 0 here, so Y_1:n are the y of t = 0..n-1.
    rows = []
    lam_x, lam_y = 1.0, 0.0
    for t in range(n + k - 1, 0, -1):
        if t < n:
            lam_y -= v[t]
        rows.append((lam_x * lq11 + lam_y * lq21, lam_y * lq22))
        lam_x, lam_y = lam_x * a1 + lam_y * a3, lam_x * a2 + lam_y * a4
    lam_y -= v[0]
    rows.append((lam_x * l011 + lam_y * l021, lam_y * l022))
    return np.array(rows[::-1])


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

    The draws are those of simulating every replicate: the first pairs of
    all replicates up front, then each block of replicates
    (REPLICATE_CHUNK, or fewer when n + k is long) draws its own noise.  No
    trajectory is built: a block's errors are its noise times the weights
    of ``_error_weights``, reduced row by row with ``np.einsum``, which
    gives every row the same bits at any block size.  Consecutive draws
    equal one large draw bit for bit, so the result does not depend on the
    block size.
    """
    if reps < 100:
        raise ValueError(f"need reps >= 100, got {reps}")
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    weights = _error_weights(markov_form(p_true), markov_form(forecaster_params), n, k)
    rng = _rng(seed)
    e0 = rng.standard_normal((reps, 2))
    errors = weights[0, 0] * e0[:, 0] + weights[0, 1] * e0[:, 1]
    del e0
    step_weights = weights[1:].ravel()
    chunk = max(1, min(REPLICATE_CHUNK, BLOCK_STEPS // (n + k)))
    for lo in range(0, reps, chunk):
        rows = min(chunk, reps - lo)
        noise = rng.standard_normal((rows, n + k - 1, 2)).reshape(rows, -1)
        errors[lo : lo + rows] += np.einsum("ij,j->i", noise, step_weights)
        del noise  # so that the next block's draw does not overlap this one
    sq_errors = errors * errors
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
    """Write a trajectory as ``t,x,y`` rows, t starting at 1, by
    ``io.write_numbered_floats``."""
    write_numbered_floats(fh, ("t", "x", "y"), traj.x, traj.y)
