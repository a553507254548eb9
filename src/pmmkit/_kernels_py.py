"""Numpy kernels for simulation and batched filtering, with no caller in
the package: ``simulate_pairs`` adapts ``simulate._scan`` to its old
signature, and Monte Carlo weights its draws directly.  They are kept for
the benchmark's tracer, which wraps them, and the tests' references.
"""

from __future__ import annotations

import numpy as np

from .simulate import _lower_times, _scan


def simulate_pairs(a1, a2, a3, a4, l11, l21, l22, x0, y0, eps):
    """One trajectory of Z_{t+1} = A Z_t + L w_{t+1}, L lower triangular, by
    ``simulate._scan``: ``eps`` has shape (steps-1, 2); returns x, y arrays
    of length steps."""
    z = np.empty((2, eps.shape[0] + 1))
    z[:, 0] = x0, y0
    _lower_times(l11, l21, l22, eps, z[:, 1:])
    _scan(a1, a2, a3, a4, z)
    return z[0], z[1]


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
    x[:, 0], y[:, 0] = x0, y0
    for t in range(1, steps_m1 + 1):
        u, v = eps[:, t - 1, 0], eps[:, t - 1, 1]
        x_prev, y_prev = x[:, t - 1], y[:, t - 1]
        x[:, t] = a1 * x_prev + a2 * y_prev + l11 * u
        y[:, t] = a3 * x_prev + a4 * y_prev + l21 * u + l22 * v
    return x, y


def batch_filter_means(weights, obs):
    """The linear forecaster ``weights`` applied to every row of ``obs``."""
    return obs @ weights
