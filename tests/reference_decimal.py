"""A 60-digit reference for the exact theory, over stdlib ``decimal``.

Each input float becomes a Decimal exactly, and all else is computed at 60
digits: ports of ``model._transition``, ``forecasting._horizon_terms``
(without FLOOR), ``riccati._riccati_step``, the exact-MSE pass stepped to
every n over all of the augmented covariance S (so the pass's 4-entry
reduction is checked, not assumed), and the O(n^2) filter-weight recursion.
It loads no numpy.  ``PYTHONPATH=src python tests/reference_decimal.py``
prints the worst relative error of ``forecaster_mse``, in eps = 2^-52 and
with its (n, k), per preset and real example and per forecaster, and exits
1 if one is beyond its bound.
"""

from __future__ import annotations

import sys
from decimal import Context, Decimal, localcontext
from functools import cache

from pmmkit.error_analysis import forecaster_mse as float_forecaster_mse
from pmmkit.model import PmmParams, hmm_params
from pmmkit.presets import PRESET_NAMES, get_preset

EPS = 2.0**-52
# The most relative error, in eps, of a float value: on the presets and on
# random models, and on the real examples, which sit near the edge of the
# admissible set (spectral radius 0.9964).
BOUND, REAL_BOUND = 64, 128

# The fitted values reported for the pressure-by-temperature and
# soil-moisture-by-temperature examples (the source data is not shipped),
# and an admissible model whose exact-MSE pass never reaches a fixed point,
# with itself or with its hidden-Markov restriction as forecaster: it cycles.
PRESSURE_PARAMS = PmmParams(0.996, -0.6, 0.986, -0.599, -0.602)
SOIL_PARAMS = PmmParams(0.996, 0.543, 0.986, 0.545, 0.542)
FOUND_PARAMS = PmmParams(-0.6487, 0.7264, 0.0829, -0.4006, -0.1546)
REAL_EXAMPLES = {"pressure": PRESSURE_PARAMS, "soil": SOIL_PARAMS, "found": FOUND_PARAMS}
# name -> (bound, truth, hidden-Markov forecaster, n grid, k grid): each
# preset with its reference, then each real example with its restriction.
CASES = {name: (BOUND, *get_preset(name)[1:]) for name in PRESET_NAMES}
CASES.update((name, (REAL_BOUND, p, hmm_params(p.a, p.b), (1, 5, 50), tuple(range(101))))
             for name, p in REAL_EXAMPLES.items())

_DIGITS = Context(prec=60)


def transition(p: PmmParams):
    """(A, Q, b): A = C M^-1 and Q = M - A C^T, with Q's off-diagonal the
    mean of its two products as in ``model._transition``."""
    with localcontext(_DIGITS):
        a, b, c, d, e = map(Decimal, p)
        diag, off = 1 / (1 - b * b), -b / (1 - b * b)
        a1, a2 = a * diag + e * off, a * off + e * diag
        a3, a4 = d * diag + c * off, d * off + c * diag
        q12 = ((b - (a1 * d + a2 * c)) + (b - (a3 * a + a4 * e))) / 2
        Q = ((1 - (a1 * a + a2 * e), q12), (q12, 1 - (a3 * d + a4 * c)))
        return ((a1, a2), (a3, a4)), Q, b


def horizon_terms(model, k_max: int) -> list:
    """(xx, xy, noise) for k = 0..k_max: the first row of A^k and
    [sum_{j<k} A^j Q A^j^T]_00, with no floor."""
    with localcontext(_DIGITS):
        ((a1, a2), (a3, a4)), ((q11, q12), (_, q22)), _ = model
        xx, xy, noise = Decimal(1), Decimal(0), Decimal(0)
        out = []
        for _ in range(k_max + 1):
            out.append((xx, xy, noise))
            noise += q11 * xx * xx + 2 * q12 * xx * xy + q22 * xy * xy
            xx, xy = xx * a1 + xy * a3, xx * a2 + xy * a4
        return out


def riccati_step(model, p):
    """The next gain and filter variance from the variance ``p`` (at 60 digits)."""
    ((a1, _), (a3, _)), ((q11, q12), (_, q22)), _ = model
    denom = a3 * a3 * p + q22
    gain = (a1 * a3 * p + q12) / denom
    return gain, a1 * a1 * p + q11 - gain * gain * denom


def forecaster_mse(p_true: PmmParams, p_fc: PmmParams, n_values, k_values) -> dict:
    """MSE(n, k) = v^T S_n v + noise for every (n, k) of the grid, with
    S_t = F_t S_{t-1} F_t^T + H_t Q H_t^T (the notation of
    ``error_analysis``) over all six entries of S, stepped once per t up to
    the largest n."""
    with localcontext(_DIGITS):
        m, m_fc = transition(p_true), transition(p_fc)
        (((a1, a2), (a3, a4)), ((q11, q12), (_, q22)), b) = m
        (((a1f, a2f), (a3f, a4f)), _, b_fc) = m_fc
        k_max = max(k_values)
        terms, fc_terms = horizon_terms(m, k_max), horizon_terms(m_fc, k_max)
        # S at t = 1 (X_1, Y_1 standard with correlation b, e_1 = X_1 - b' Y_1).
        s11, s12, s13, s22, s23 = 1, b, 1 - b_fc * b, 1, b - b_fc
        s33, variance, wanted = 1 - 2 * b_fc * b + b_fc * b_fc, 1 - b_fc * b_fc, set(n_values)
        out = {}
        for n in range(1, max(wanted) + 1):
            if n > 1:
                g, variance = riccati_step(m_fc, variance)
                # F's rows are A's and (f1, f2, f3); H's are (1, 0), (0, 1), (1, -g).
                f1, f2 = (a1 - a1f) - g * (a3 - a3f), (a2 - a2f) - g * (a4 - a4f)
                f3 = a1f - g * a3f
                x1, x2 = a1 * s11 + a2 * s12, a1 * s12 + a2 * s22
                y1, y2 = a3 * s11 + a4 * s12, a3 * s12 + a4 * s22
                e1, e2, e3 = (f1 * s11 + f2 * s12 + f3 * s13, f1 * s12 + f2 * s22 + f3 * s23,
                              f1 * s13 + f2 * s23 + f3 * s33)
                hq1, hq2 = q11 - g * q12, q12 - g * q22
                s11, s12, s13, s22, s23, s33 = (
                    x1 * a1 + x2 * a2 + q11,
                    x1 * a3 + x2 * a4 + q12,
                    x1 * f1 + x2 * f2 + (a1 * s13 + a2 * s23) * f3 + hq1,
                    y1 * a3 + y2 * a4 + q22,
                    y1 * f1 + y2 * f2 + (a3 * s13 + a4 * s23) * f3 + hq2,
                    e1 * f1 + e2 * f2 + e3 * f3 + hq1 - g * hq2,
                )
            if n in wanted:
                for k in k_values:
                    (xx, xy, noise), (v3, fc_xy, _) = terms[k], fc_terms[k]
                    v1, v2 = xx - v3, xy - fc_xy
                    out[(n, k)] = (v1 * (v1 * s11 + 2 * (v2 * s12 + v3 * s13))
                                   + v2 * (v2 * s22 + 2 * v3 * s23) + v3 * v3 * s33 + noise)
        return out


def filter_weights(p: PmmParams, n_max: int) -> list:
    """The weights w of E[X_n | Y_1:n] = w @ Y_1:n for n = 1..n_max: each
    observation scales every earlier weight by a1 - a3 G, adds a2 - a4 G to
    the weight of the one before it and enters with the gain G."""
    with localcontext(_DIGITS):
        model = transition(p)
        ((a1, a2), (a3, a4)), _, b = model
        w, variance = [b], 1 - b * b
        out = [w]
        for _ in range(1, n_max):
            g, variance = riccati_step(model, variance)
            w = [v * (a1 - a3 * g) for v in w]
            w[-1] += a2 - a4 * g
            w.append(g)
            out.append(w)
        return out


def error_in_eps(got: float, want: Decimal, scale: Decimal | None = None) -> float:
    """|got - want| over |want| (or ``scale``), in units of eps."""
    scale = want if scale is None else scale
    return float(abs(Decimal(got) - want)) / abs(float(scale)) / EPS


def worst_mse_error(p_true: PmmParams, p_fc: PmmParams, n_values, k_values) -> tuple:
    """(error in eps, (n, k)) of the float ``forecaster_mse``'s worst point."""
    want = forecaster_mse(p_true, p_fc, n_values, k_values)
    got = float_forecaster_mse(p_true, p_fc, n_values, k_values)
    return max((error_in_eps(got[key], want[key]), key) for key in want)


@cache
def report() -> dict:
    """name -> (bound, PMM worst, HMM worst) over ``CASES``, each worst
    ``worst_mse_error``'s pair."""
    return {
        name: (bound, *(worst_mse_error(p, p_fc, n_values, k_values) for p_fc in (p, p_hmm)))
        for name, (bound, p, p_hmm, n_values, k_values) in CASES.items()
    }


def table() -> list[str]:
    """The report as the README's markdown table."""
    lines = ["| Model | PMM forecaster | HMM forecaster |", "|---|---|---|"]
    for name, (_, *worst) in report().items():
        cells = (f"{error:.1f} ε at {key}" for error, key in worst)
        lines.append(f"| {name} | {' | '.join(cells)} |")
    return lines


if __name__ == "__main__":
    print("\n".join(table()))
    sys.exit(any(max(worst)[0] > bound for bound, *worst in report().values()))
