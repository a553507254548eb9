"""The filter's variance recursion, over Python floats.

With A = [[a1, a2], [a3, a4]], Q = [[q11, q12], [., q22]] and P the
current conditional variance V[X_t | Y_1:t], the gain that absorbs the
next observation and the variance after it are

    G = (a1*a3*P + q12) / (a3^2*P + q22)
    P' = a1^2*P + q11 - G^2*(a3^2*P + q22).

P depends on the model only, never on the observed values.  ``filtering``
builds the filter from these steps and re-exports them; the exact MSE in
``error_analysis`` folds them into its own pass, without loading numpy.
"""

from __future__ import annotations

from .model import InvalidModelError, TransitionModel

__all__ = ["riccati_steps"]

# Below this, Y_{n+1} is numerically deterministic given (X_n, Y_n) and the
# update gain is ill-posed.  Only a hand-built TransitionModel gets here:
# for one from markov_form the denominator is at least min eig Q > PD_TOL.
DEGENERATE_DENOMINATOR = 1e-14


def _riccati_step(m: TransitionModel, p: float) -> tuple[float, float]:
    """The gain that absorbs the next observation, and the filter variance
    after it, from the current filter variance ``p``."""
    (a1, _), (a3, _) = m.A
    (q11, q12), (_, q22) = m.Q
    denom = a3 * a3 * p + q22
    if denom <= DEGENERATE_DENOMINATOR:
        raise InvalidModelError(
            f"degenerate observation channel (innovation variance {denom:g})"
        )
    gain = (a1 * a3 * p + q12) / denom
    # The clamp guards roundoff at near-degenerate models.
    return gain, max(a1 * a1 * p + q11 - gain * gain * denom, 0.0)


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
