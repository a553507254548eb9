"""The filter's variance recursion over Python floats, and its exact exit.

With A = [[a1, a2], [a3, a4]], Q = [[q11, q12], [., q22]] and P the
current conditional variance V[X_t | Y_1:t], the gain that absorbs the
next observation and the variance after it are

    G = (a1*a3*P + q12) / (a3^2*P + q22)
    P' = a1^2*P + q11 - G^2*(a3^2*P + q22).

P depends on the model only, never on the observed values.  ``orbit``
gives every exact pass over it one exit: the filter's gains and variances
in ``filtering``, and the exact MSE's augmented covariance in
``error_analysis``, which loads no numpy.
"""

from __future__ import annotations

from .model import TransitionModel

__all__: list[str] = []


def _riccati_step(m: TransitionModel, p: float) -> tuple[float, float]:
    """The gain that absorbs the next observation, and the filter variance
    after it, from the current filter variance ``p`` >= 0.

    Every caller's model has passed ``model.check_transition``, so the
    innovation variance a3^2 p + q22 is at least min eig Q > NOISE_TOL."""
    (a1, _), (a3, _) = m.A
    (q11, q12), (_, q22) = m.Q
    denom = a3 * a3 * p + q22
    gain = (a1 * a3 * p + q12) / denom
    # The clamp guards roundoff at near-degenerate models.
    return gain, max(a1 * a1 * p + q11 - gain * gain * denom, 0.0)


def orbit(state, step):
    """Yield (x_t, period) for t = 1, 2, ..., with x_1 = ``state`` and
    x_{t+1} = step(x_t), a function of x_t alone.

    Once x_t equals x_{t-lambda}, every later state repeats x_t, ...,
    x_{t+lambda-1}: these lambda states are yielded with period lambda, and
    the orbit ends; every state before them has period 0.  Brent's method
    (BIT 20, 1980) finds the repeat in O(1) memory: it keeps the state of
    each step t = 2^j and compares it with those of steps 2^j + 1 ..
    2^(j+1), so a cycle entered at step mu costs fewer than 4 (mu + lambda)
    steps however far the orbit is read.
    """
    kept, kept_at, t = state, 1, 1
    while True:
        yield state, 0
        state = step(state)
        t += 1
        if state == kept:
            break
        if t & (t - 1) == 0:
            kept, kept_at = state, t
    for _ in range(t - kept_at - 1):
        yield state, t - kept_at
        state = step(state)
    yield state, t - kept_at
