"""Property: ``markov_form`` is the one admissibility gate.

Parameters are drawn at and around the edge of the admissible set: a
spectral radius near 1, |b| near 1, and a nearly singular 4x4 covariance
or noise covariance.  The gate must raise exactly when ``validate`` rejects,
and every model it lets through must filter, forecast, score and simulate
to finite values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmmkit import (
    InvalidModelError,
    PmmParams,
    forecaster_mse,
    markov_form,
    run_filter,
    sample,
    validate,
)
from pmmkit.forecasting import forecast_path

# Relative offsets from an edge of the admissible set, both sides of it.
EDGE_OFFSETS = [-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3]
# Distances 1 - |b|; below PD_TOL the pair marginal itself is rejected.
B_DEPTHS = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
unit = st.floats(-1.0, 1.0)


def _at_edge(family, offset: float) -> PmmParams:
    """``family(s * (1 + offset))`` with s a factor in [0, 4] where
    ``family`` leaves the admissible set, found by bisection to float
    resolution (s = 0 when family(0) is already inadmissible)."""
    lo, hi = 0.0, 4.0
    if validate(family(hi)).ok:
        lo = hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if validate(family(mid)).ok else (lo, mid)
    return family(lo * (1.0 + offset))


@st.composite
def edge_params(draw) -> PmmParams:
    kind = draw(st.sampled_from(["interior", "scaled_edge", "b_edge", "noise_edge"]))
    a, b, c, d, e = (draw(unit) for _ in range(5))
    if kind == "interior":
        return PmmParams(a, b, c, d, e)
    offset = draw(st.sampled_from(EDGE_OFFSETS))
    if kind == "scaled_edge":
        # Along the ray toward the independent model, the edge is where
        # the 4x4 covariance turns singular or the radius reaches 1.
        return _at_edge(lambda s: PmmParams(a, b, c, d, e).scaled(s), offset)
    if kind == "b_edge":
        # |b| near 1, the other four covariances pushed to their own edge.
        b = np.copysign(1.0, b) * (1.0 - draw(st.sampled_from(B_DEPTHS)))
        return _at_edge(lambda s: PmmParams(s * a, b, s * c, s * d, s * e), offset)
    # Y_{n+1} nearly a deterministic function of (X_n, Y_n): a noise
    # covariance close to singular.
    return PmmParams(0.0, 0.0, np.copysign(1.0, c) * (1.0 - abs(offset)), 0.0, 0.0)


def _all_finite(*values) -> bool:
    return all(np.isfinite(v).all() for v in values)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(p=edge_params(), seed=st.integers(0, 2**32 - 1))
def test_gate_raises_exactly_when_validate_rejects(p, seed):
    if not validate(p).ok:
        with pytest.raises(InvalidModelError, match="invalid parameters"):
            markov_form(p)
        return
    m = markov_form(p)
    ys = np.random.default_rng(seed).standard_normal(30)
    state = run_filter(m, ys)
    assert _all_finite(state.mean, state.variance)
    path = forecast_path(state, m, 20)
    assert _all_finite([r.mean for r in path], [r.variance for r in path])
    mse = forecaster_mse(p, p, [1, 2, 30], [0, 1, 20])
    assert _all_finite(list(mse.values()))
    traj = sample(p, 64, seed)
    assert _all_finite(traj.x, traj.y)
