"""Numpy kernels for simulation and batched filtering.

Neither simulation recursion runs one Python iteration per step of a long
series: replicate trajectories advance together, one time step per
iteration, and a single trajectory runs as a blocked scan.  Neither bounds
its own memory: the caller sizes the replicate block or the trajectory.

``simulate_pairs`` serves ``simulate.sample``.  ``simulate_block`` and
``batch_filter_means`` have no caller in the package since Monte Carlo
weights its draws directly; they are kept only because the benchmark's
tracer wraps them and the tests' simulate-and-filter reference uses them.
"""

from __future__ import annotations

import numpy as np

# Steps per block of the blocked scan in simulate_pairs.
SCAN_BLOCK = 256


def simulate_pairs(a1, a2, a3, a4, l11, l21, l22, x0, y0, eps):
    """One trajectory of Z_{t+1} = A Z_t + L w_{t+1}, L lower triangular.

    ``eps`` has shape (steps-1, 2); returns x, y arrays of length steps.

    The steps after the first split into blocks of SCAN_BLOCK.  Inside a
    block the state i steps in is A^i s + r_i, where s is the state entering
    the block and r_i the response to the block's own noise from a zero
    start.  The responses of all blocks advance together, one step per
    iteration; a scalar loop then carries the entry states forward,
    s' = A^B s + r_B.
    """
    steps = eps.shape[0] + 1
    x = np.empty(steps)
    y = np.empty(steps)
    x[0] = x0
    y[0] = y0
    if steps == 1:
        return x, y
    width = min(SCAN_BLOCK, steps - 1)
    blocks = -(-(steps - 1) // width)
    noise_x = np.zeros(blocks * width)
    noise_y = np.zeros(blocks * width)
    noise_x[: steps - 1] = l11 * eps[:, 0]
    noise_y[: steps - 1] = l21 * eps[:, 0] + l22 * eps[:, 1]
    # Time-major (width, blocks): row i holds step i of every block.
    rx = np.ascontiguousarray(noise_x.reshape(blocks, width).T)
    ry = np.ascontiguousarray(noise_y.reshape(blocks, width).T)
    for i in range(1, width):
        rx[i] += a1 * rx[i - 1] + a2 * ry[i - 1]
        ry[i] += a3 * rx[i - 1] + a4 * ry[i - 1]
    # powers[i] = A^(i+1)
    powers = np.empty((width, 2, 2))
    powers[0] = ((a1, a2), (a3, a4))
    for i in range(1, width):
        powers[i] = powers[0] @ powers[i - 1]
    (p11, p12), (p21, p22) = powers[-1].tolist()
    sx = np.empty(blocks)
    sy = np.empty(blocks)
    xs, ys = float(x0), float(y0)
    for b, (ex, ey) in enumerate(zip(rx[-1].tolist(), ry[-1].tolist())):
        sx[b] = xs
        sy[b] = ys
        xs, ys = p11 * xs + p12 * ys + ex, p21 * xs + p22 * ys + ey
    x_blocks = powers[:, 0, :1] * sx + powers[:, 0, 1:] * sy + rx
    y_blocks = powers[:, 1, :1] * sx + powers[:, 1, 1:] * sy + ry
    x[1:] = x_blocks.T.ravel()[: steps - 1]
    y[1:] = y_blocks.T.ravel()[: steps - 1]
    return x, y


def simulate_block(a1, a2, a3, a4, l11, l21, l22, x0, y0, eps):
    """Independent replicate trajectories, one per row.

    ``x0``, ``y0`` have shape (reps,); ``eps`` has shape (reps, steps-1, 2).
    Every replicate it is given advances together, one step per iteration.
    The returned (reps, steps) arrays are in Fortran order, so each step
    writes contiguous columns; the noise is read in place.  Memory is
    O(reps * steps): callers that need a bound pass a block of replicates
    at a time.
    """
    reps, steps_m1, _ = eps.shape
    x = np.empty((reps, steps_m1 + 1), order="F")
    y = np.empty((reps, steps_m1 + 1), order="F")
    x[:, 0] = x0
    y[:, 0] = y0
    for t in range(1, steps_m1 + 1):
        u, v = eps[:, t - 1, 0], eps[:, t - 1, 1]
        x_prev, y_prev = x[:, t - 1], y[:, t - 1]
        x[:, t] = a1 * x_prev + a2 * y_prev + l11 * u
        y[:, t] = a3 * x_prev + a4 * y_prev + l21 * u + l22 * v
    return x, y


def batch_filter_means(weights, obs):
    """The linear forecaster ``weights`` applied to every row of ``obs``."""
    return obs @ weights
