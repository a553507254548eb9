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
O(n + k).  The draws come at most BLOCK_STEPS replicate-steps (but at least
one replicate) at a time, and only their errors are kept, so the memory is
O(reps + n + k + BLOCK_STEPS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels_py as kernels
from .filtering import filter_coefficients
from .forecasting import (
    FLOOR, MAX_REPLICATE_STEPS, MAX_REPLICATES, MAX_SIMULATE_STEPS, check_grid,
    check_int, check_series, horizon_terms,
)
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
# Most replicate-steps in one Monte Carlo block, which holds at least one
# replicate: 16 bytes each for the noise, so about 1 MB until n + k passes
# 2^16.  A replicate-step costs about 20 ns at any n + k, at this budget or
# at 2^20, on a 2-vCPU Xeon VM.
BLOCK_STEPS = 2**16


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
    return np.random.default_rng(check_int(seed, "seed", 0))


def sample(p: PmmParams, n_steps: int, seed: int) -> Trajectory:
    """Simulate ``n_steps`` pairs, 1..MAX_SIMULATE_STEPS; deterministic
    given (p, n_steps, seed)."""
    n_steps = check_int(n_steps, "n_steps", 1, MAX_SIMULATE_STEPS)
    m = markov_form(p)
    l011, l021, l022 = _chol2(m.marginal)
    lq11, lq21, lq22 = _chol2(m.Q)
    rng = _rng(seed)
    e0 = rng.standard_normal(2)
    x0 = l011 * e0[0]
    y0 = l021 * e0[0] + l022 * e0[1]
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
    Filtering, 1979).  O(n + k) time, over Python floats.  A weight below
    FLOOR in magnitude is 0.0: times a draw it cannot move an error of
    order 1, and a subnormal weight would slow every product.
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
    weights = np.array(rows[::-1])
    weights[np.abs(weights) < FLOOR] = 0.0
    return weights


def monte_carlo_mse(
    p_true: PmmParams,
    forecaster_params: PmmParams,
    n: int,
    k: int,
    reps: int,
    seed: int,
    names=("reps", "n", "k"),
) -> tuple[float, float]:
    """Empirical MSE of a forecaster on data simulated from ``p_true``.

    Each replicate is an independent trajectory of length n + k; the
    forecaster filters the first n observations under its own parameters
    and predicts X_{n+k}.  Returns the mean squared error and its standard
    error over ``reps`` replicates, 100..MAX_REPLICATES.  Before any draw,
    reps * (n + k) is bounded by MAX_REPLICATE_STEPS; errors name reps, n
    and k by ``names``.

    The draws are those of simulating every replicate: the first pairs of
    all replicates up front, then each block of max(1, BLOCK_STEPS //
    (n + k)) replicates draws its own noise.  No
    trajectory is built: a block's errors are its noise times the weights
    of ``_error_weights``, reduced row by row with ``np.einsum``, which
    gives every row the same bits at any block size.  Consecutive draws
    equal one large draw bit for bit, so the result does not depend on the
    block size.  A replicate-step costs about 20 ns at any n + k on a 2-vCPU
    Xeon VM.
    """
    reps = check_int(reps, names[0], 100, MAX_REPLICATES)
    check_grid([n], [k], names[1:])
    if (steps := reps * (n + k)) > MAX_REPLICATE_STEPS:
        raise ValueError(
            f"{names[0]} ({reps}) times {names[1]} + {names[2]} ({n + k}) is {steps} "
            f"replicate-steps, more than {MAX_REPLICATE_STEPS}"
        )
    weights = _error_weights(markov_form(p_true), markov_form(forecaster_params), n, k)
    rng = _rng(seed)
    e0 = rng.standard_normal((reps, 2))
    errors = weights[0, 0] * e0[:, 0] + weights[0, 1] * e0[:, 1]
    del e0
    step_weights = weights[1:].ravel()
    chunk = max(1, BLOCK_STEPS // (n + k))
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
    x = check_series(x, "x", 2)
    y = check_series(y, "y", x.size, x.size)
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
