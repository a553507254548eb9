"""Trajectory sampling and Monte Carlo MSE estimation.

The first pair is drawn from the bivariate standard-normal marginal with
correlation b; later pairs follow Z_{t+1} = A Z_t + B W_{t+1}, with B the
lower Cholesky factor of Q (any square root would do; the lower factor is
fixed for reproducibility).  All randomness comes from numpy's default
PCG64 generator, so a (params, length, seed) triple pins the trajectory
bit for bit.  ``_scan``, a blocked numpy scan, solves the recurrence.

Monte Carlo builds no trajectory.  Every forecaster here is linear in the
observations and every observation is linear in the normal draws, so a
replicate's forecast error is one fixed weight vector dotted with its own
draws; one backward pass through the true model, the same scan in
reversed time, gives those weights.  The replicates come in blocks of at
most BLOCK_STEPS replicate-steps (but at least one replicate), and block j
draws from its own stream, child j of the seed's ``SeedSequence``.  The
blocks run on one thread per CPU of the process's affinity mask, and only
their errors are kept, so the memory is O(reps + n + k + threads *
BLOCK_STEPS).  The block partition and each block's stream do not depend on
the thread count, so it changes no digit of the result.
``empirical_covariances`` is ``model``'s, so that ``fit`` loads no
simulation; it stays importable from here.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .filtering import filter_coefficients
from .forecasting import (
    FLOOR, MAX_REPLICATE_STEPS, MAX_REPLICATES, MAX_SIMULATE_STEPS, check_grid,
    check_int, horizon_terms,
)
from .io import write_numbered_floats
from .model import Matrix2, PmmParams, TransitionModel, empirical_covariances, markov_form

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
# replicate, and in one draw of a replicate longer than that: 16 bytes each
# for the noise, so about 1 MB a thread.  The blocks fix which stream draws
# each replicate, so this constant, unlike the thread count, is part of
# what a seed means.  A replicate-step costs about 20 ns of CPU at any
# n + k on a 2-vCPU Xeon VM.
BLOCK_STEPS = 2**16
# Steps per block of ``_scan``: the blocks fix each simulated state's rounding.
SCAN_BLOCK = 256
SCAN_GROUP = 256  # blocks per group of _scan's last pass: 0.5 MB temporaries


@dataclass(frozen=True)
class Trajectory:
    """One simulated path of the hidden and observed series."""

    x: np.ndarray
    y: np.ndarray
    seed: int

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


def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The generator of ``seed``, or of its child stream ``spawn_key`` as
    numbered by ``SeedSequence.spawn``: every generator of this module."""
    seq = np.random.SeedSequence(check_int(seed, "seed", 0), spawn_key=spawn_key)
    return np.random.default_rng(seq)


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, so that taskset or a cpuset limits Monte Carlo's
    threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan(a1, a2, a3, a4, z) -> None:
    """Overwrite ``z``, a C-ordered (2, steps) array whose column 0 holds
    Z_0 and column t >= 1 the input u_t, with the states of Z_t = A Z_{t-1}
    + u_t, A = ((a1, a2), (a3, a4)).

    The steps after the first split into blocks of SCAN_BLOCK.  Inside a
    block the state i steps in is A^i s + r_i, where s is the state entering
    the block and r_i the response to the block's own inputs from a zero
    start.  The responses of all blocks advance together in place (step i
    of every block is the strided slice ``z[:, 1 + i::width]``), a scalar
    loop carries the entry states, s' = A^B s + r_B, and A^(i+1) s joins r_i.
    """
    assert z.flags.c_contiguous, "the last pass adds into views of z's rows"
    x, y = z
    width = max(1, min(SCAN_BLOCK, x.size - 1))
    for i in range(1, width):
        rx, ry = x[1 + i :: width], y[1 + i :: width]
        px, py = x[i :: width][: rx.size], y[i :: width][: rx.size]
        rx += a1 * px + a2 * py
        ry += a3 * px + a4 * py
    # powers[i] = A^(i+1)
    powers = np.empty((width, 2, 2))
    powers[0] = ((a1, a2), (a3, a4))
    for i in range(1, width):
        powers[i] = powers[0] @ powers[i - 1]
    (p11, p12), (p21, p22) = powers[-1].tolist()
    # The state entering each block, and past the last block if it is full.
    entry = [(float(x[0]), float(y[0]))]
    for ex, ey in zip(x[width::width].tolist(), y[width::width].tolist()):
        xs, ys = entry[-1]
        entry.append((p11 * xs + p12 * ys + ex, p21 * xs + p22 * ys + ey))
    sx, sy = np.array(entry).T
    # Blocks as rows: SCAN_GROUP full ones at a time, then a partial last one.
    full, rest = divmod(x.size - 1, width)
    bounds = [*range(0, full, SCAN_GROUP), full] + [full + 1] * (rest > 0)
    for lo, hi in zip(bounds, bounds[1:]):
        for row, (q1, q2) in zip(z, powers.transpose(1, 2, 0)):
            block = row[1 + lo * width : 1 + hi * width].reshape(hi - lo, -1)
            w = block.shape[1]
            block += np.multiply.outer(sx[lo:hi], q1[:w]) + np.multiply.outer(sy[lo:hi], q2[:w])


def _lower_times(l11, l21, l22, eps, out) -> None:
    """Write L w, L = ((l11, 0), (l21, l22)), for each row w of ``eps`` into ``out``'s columns."""
    np.multiply(eps[:, 1], l22, out=out[0])  # scratch, so no temporary
    np.multiply(eps[:, 0], l21, out=out[1])
    out[1] += out[0]
    np.multiply(eps[:, 0], l11, out=out[0])


def sample(p: PmmParams, n_steps: int, seed: int) -> Trajectory:
    """Simulate ``n_steps`` pairs, 1..MAX_SIMULATE_STEPS; deterministic
    given (p, n_steps, seed).  The draws and the states are the memory:
    32 bytes a step."""
    n_steps = check_int(n_steps, "n_steps", 1, MAX_SIMULATE_STEPS)
    m = markov_form(p)
    # Row 0 is the start pair and rows 1.. drive the scan, as in a replicate.
    eps = _rng(seed).standard_normal((n_steps, 2))
    z = np.empty((2, n_steps))
    _lower_times(*_chol2(m.marginal), eps[:1], z[:, :1])
    _lower_times(*_chol2(m.Q), eps[1:], z[:, 1:])
    del eps
    _scan(*m.A[0], *m.A[1], z)
    return Trajectory(x=z[0], y=z[1], seed=seed)


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
    Filtering, 1979).  In reversed time that pass is the recurrence
    ``sample`` solves, with A transposed, so ``_scan`` runs it.  v is formed
    before the scan's buffer, so the peak is the weights twice.  A weight
    below FLOOR in magnitude is 0.0: times a draw it cannot move an
    error of order 1, and a subnormal weight would slow every product.
    """
    [(xx, xy, _)] = horizon_terms(m_fc, [k]).values()
    v = xx * filter_coefficients(m_fc, n)
    v[-1] += xy
    # Column c is lam on Z_t, t = n + k - 1 - c, numbered from t = 0 (so
    # Y_1:n are the y of t = 0..n-1); its input is -v_t where t < n.
    lam = np.zeros((2, n + k))
    lam[0, 0] = 1.0
    np.negative(v[::-1], out=lam[1, k:])
    del v
    (a1, a2), (a3, a4) = m_true.A
    _scan(a1, a3, a2, a4, lam)
    # lam B, B being Q's factor for Z_2.. and the marginal's for Z_1.
    for cols, cov in ((slice(-1), m_true.Q), (slice(-1, None), m_true.marginal)):
        l11, l21, l22 = _chol2(cov)
        lam[0, cols] *= l11
        lam[0, cols] += l21 * lam[1, cols]
        lam[1, cols] *= l22
    weights = np.ascontiguousarray(lam[:, ::-1].T)
    del lam
    # Two comparisons rather than np.abs, which would make a float temporary.
    weights[(weights > -FLOOR) & (weights < FLOOR)] = 0.0
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

    Block j holds replicates j * b .. j * b + b - 1, b = max(1, BLOCK_STEPS
    // (n + k)), and draws from the generator of SeedSequence(seed,
    spawn_key=(j,)).  A replicate draws its 2 (n + k) normals in the order
    a simulation takes them, the first pair first.  No trajectory is built:
    a block's errors are its noise times the weights of ``_error_weights``,
    reduced row by row with ``np.einsum``.  A replicate longer than
    BLOCK_STEPS draws its row in pieces of BLOCK_STEPS steps and adds their
    products in order.

    The blocks run on min(blocks, CPUs of the affinity mask) threads, block
    j on thread j mod that count, the caller's thread being thread 0.  No
    digit depends on the count: the blocks, their streams and their
    arithmetic do not, and the mean and standard error are taken in the
    caller's thread.  An exception in any thread stops the others at their
    next block and is raised here.  A replicate-step costs about 20 ns of
    CPU at any n + k on a 2-vCPU Xeon VM.
    """
    reps = check_int(reps, names[0], 100, MAX_REPLICATES)
    check_grid([n], [k], names[1:])
    what = f"replicate-steps of {names[0]} ({reps}) times {names[1]} + {names[2]} ({n + k})"
    check_int(reps * (n + k), what, 1, MAX_REPLICATE_STEPS)
    weights = _error_weights(markov_form(p_true), markov_form(forecaster_params), n, k).ravel()
    seed = check_int(seed, "seed", 0)
    width, piece = weights.size, 2 * BLOCK_STEPS
    chunk = max(1, BLOCK_STEPS // (n + k))
    blocks = -(-reps // chunk)
    workers = min(blocks, _cpu_count())
    errors = np.zeros(reps)
    stop = threading.Event()
    failures = []

    def stripe(first: int) -> None:
        try:
            for j in range(first, blocks, workers):
                if stop.is_set():
                    return
                rng = _rng(seed, j)
                out = errors[j * chunk : (j + 1) * chunk]
                # One piece, unless a lone replicate is longer than BLOCK_STEPS;
                # each piece's noise is freed before the next is drawn.
                for c in range(0, width, piece):
                    noise = rng.standard_normal((out.size, min(piece, width - c)))
                    out += np.einsum("ij,j->i", noise, weights[c : c + piece])
                    del noise
        except BaseException as exc:
            failures.append(exc)
            stop.set()

    threads = [threading.Thread(target=stripe, args=(w,)) for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        stripe(0)
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # an interrupt while joining stops the workers too
    if failures:
        raise failures[0]
    sq_errors = errors * errors
    mse = float(sq_errors.mean())
    stderr = float(sq_errors.std(ddof=1) / math.sqrt(reps))
    return mse, stderr


def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write a trajectory as ``t,x,y`` rows, t starting at 1, by
    ``io.write_numbered_floats``."""
    write_numbered_floats(fh, ("t", "x", "y"), traj.x, traj.y)
