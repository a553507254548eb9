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

``trajectory_to_csv`` writes the bytes of ``f"{t},{x:.12e},{y:.12e}\\n"``
for every row, but formats WRITE_ROWS rows at a time with numpy.  For each
value v it takes e = floor(log10|v|), s = |v| * 10**(12 - e) with a
correctly rounded power of ten, and the 13 digits of M = rint(s).  Two
roundings of relative error at most 2**-53 each keep s within 2.3e-3 of
the exact decimal value while s < 1e13.  So wherever |frac(s) - 0.5| >
0.005 and 1e12 <= M < 1e13, M is the correctly rounded mantissa and e the
printed exponent; a wrong e, or a carry into the next decade, puts M
outside that range.  The values that fail this rule (ties and near-ties,
decade carries, zeros: about 1% of a simulated path) are formatted by
Python's ``%.12e`` and copied into their places.  A block holding a
non-finite value, or a nonzero one outside 1e-99 <= |v| < 1e99, whose
exponent could take three digits, is formatted by Python's ``%`` alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _kernels_py as kernels
from .filtering import filter_coefficients
from .forecasting import horizon_terms
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
# Rows formatted together in trajectory_to_csv; a block's arrays take
# about 1.5 MB.
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
    """Write a trajectory as ``t,x,y`` rows, t starting at 1.

    The bytes are those of ``f"{t},{x:.12e},{y:.12e}\\n"`` for every row.
    Each block of WRITE_ROWS rows is laid out in a byte array and written
    by one ``fh.write``.  Numpy formats every value that meets the
    exactness rule of the module docstring, Python's ``%.12e`` the rest,
    and Python's ``%`` alone a block with a non-finite value or a possible
    three-digit exponent.
    """
    fh.write("t,x,y\n")
    n = len(traj)
    width = len(str(n))
    rows = min(n, WRITE_ROWS)
    # A row is t right-aligned in width bytes, the words of x and of y, and
    # "\n".  Spaces stand for the absent leading digits of t and the absent
    # signs, and are removed before the block is written.
    lines = np.empty((rows, width + 41), np.uint8)
    lines[:, -1] = ord("\n")
    words = np.empty((2 * rows, 5), np.uint32)
    for lo in range(0, n, WRITE_ROWS):
        x = traj.x[lo : lo + WRITE_ROWS]
        y = traj.y[lo : lo + WRITE_ROWS]
        r = x.size
        with np.errstate(all="ignore"):
            formatted = _fill_words(words[: 2 * r], np.stack([x, y], axis=1).ravel())
        if not formatted:
            fh.write(_percent_rows(lo + 1, x, y))
            continue
        block = lines[:r]
        block[:, width:-1] = words[: 2 * r].view(np.uint8).reshape(r, 40)
        t = np.arange(lo + 1, lo + 1 + r, dtype=np.min_scalar_type(n))
        for j in range(width - 1, -1, -1):
            quotient = t // 10
            block[:, j] = t - quotient * 10 + ord("0")
            t = quotient
        for j in range(width - 1):
            # The rows whose t is below 10**(width - 1 - j) come first.
            block[: max(0, 10 ** (width - 1 - j) - lo - 1), j] = ord(" ")
        fh.write(block.tobytes().replace(b" ", b"").decode("ascii"))


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables of ``_fill_words``, built on first use, so that
    a command that writes no trajectory does not build them:

    - 10**k correctly rounded for k = -87..111, where entry 99 - e scales a
      value with decimal exponent e, |e| <= 99, to 13 integer digits;
    - the head word of a value: ",", its sign (a space when there is
      none), its lead digit d and "."; entry d for a positive value and
      10 + d for a negative one;
    - the word of f"{i:04d}" at entry i, i < 10 000;
    - the exponent word: "e", the exponent's sign and two digits; entry
      e + 99.
    """
    pow10 = np.array([float(f"1e{k}") for k in range(-87, 112)])
    head = _ascii_words(f",{sign}{d}." for sign in " -" for d in range(10))
    digits = np.frombuffer(b"0123456789", np.uint8)
    quad = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
    exp = _ascii_words(f"e{e:+03d}" for e in range(-99, 100))
    pow10.flags.writeable = quad.flags.writeable = False
    return pow10, head, quad, exp


def _ascii_words(strings) -> np.ndarray:
    """4-character ASCII strings as the uint32 words of their bytes."""
    return np.frombuffer("".join(strings).encode("ascii"), np.uint32)


def _fill_words(words: np.ndarray, values: np.ndarray) -> bool:
    """Write ``f",{v:.12e}"`` of each value into its row of ``words``, five
    words of four bytes with a space for an absent sign, and return True;
    or return False, writing nothing, when a value is non-finite or its
    exponent may take three digits."""
    mag = np.abs(values)
    if not np.all((mag < 1e99) & ((mag >= 1e-99) | (mag == 0))):
        return False
    pow10, head, quad, exp_words = _format_tables()
    exp = np.clip(np.floor(np.log10(mag)), -99, 99).astype(np.intp)
    scaled = mag * pow10[99 - exp]
    mantissa = np.rint(scaled)
    # The exactness rule: |frac(scaled) - 0.5| > 0.005 and 13 digits.
    exact = (np.abs(scaled - mantissa) < 0.495) & (mantissa >= 1e12) & (mantissa < 1e13)
    mantissa[~exact] = 1e12  # keeps the table indices below in range
    lead = np.floor(mantissa / 1e12)
    rest = mantissa - lead * 1e12
    high = np.floor(rest / 1e8)
    rest -= high * 1e8
    mid = np.floor(rest / 1e4)
    rest -= mid * 1e4
    words[:, 0] = head[(lead + 10 * np.signbit(values)).astype(np.intp)]
    words[:, 1] = quad[high.astype(np.intp)]
    words[:, 2] = quad[mid.astype(np.intp)]
    words[:, 3] = quad[rest.astype(np.intp)]
    words[:, 4] = exp_words[exp + 99]
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        text = ",%19.12e" * inexact.size % tuple(values[inexact].tolist())
        words[inexact] = np.frombuffer(text.encode("ascii"), np.uint32).reshape(-1, 5)
    return True


def _percent_rows(t0: int, x: np.ndarray, y: np.ndarray) -> str:
    """Rows t0, t0 + 1, ... by one ``%`` operation on a flat tuple."""
    rows = zip(range(t0, t0 + x.size), x.tolist(), y.tolist())
    return "%d,%.12e,%.12e\n" * x.size % tuple(chain.from_iterable(rows))
