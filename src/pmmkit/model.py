"""Model parameterization, validation, Markov-form conversion and model files.

A stationary Gaussian pairwise model of the couple Z_n = (X_n, Y_n) is fixed
by five covariances of the standardized variables:

    a = Cov[X_n, X_{n+1}]    b = Cov[X_n, Y_n]    c = Cov[Y_n, Y_{n+1}]
    d = Cov[X_n, Y_{n+1}]    e = Cov[X_{n+1}, Y_n]

with all means 0 and all variances 1.  The hidden-Markov special case pins
c = a*b^2 and d = e = a*b.  Any admissible parameter set is equivalently
written in Markov form

    Z_{n+1} = A Z_n + B W_{n+1},    W white standard normal,

where A = C M^{-1}, Q = B B^T = M - C M^{-1} C^T, with M = [[1, b], [b, 1]]
the marginal pair covariance and C = [[a, e], [d, c]] the lag-one cross
covariance Cov[Z_{n+1}, Z_n].  Only Q matters outside of sampling, so the
transition model stores Q rather than a particular square root B.

All but the moment estimator ``empirical_covariances`` is 2x2 and 4x4
algebra over Python floats: the module and the exact theory load no numpy.
The admissibility gate finds the smallest eigenvalue of Q and the spectral
radius of A in closed form, and that of the 4x4 stationary covariance by
cyclic Jacobi rotations.  Every model file, fitted or bare parameters, is
read by ``FittedModel.load``; ``load_params`` keeps its parameters.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .forecasting import check_int, check_series
from .io import atomic_write, finite_number, read_json, write_json

__all__ = [
    "PmmError",
    "InvalidModelError",
    "PmmParams",
    "TransitionModel",
    "ValidationReport",
    "DetrendModel",
    "StandardizationParams",
    "FittedModel",
    "empirical_covariances",
    "gamma_from_params",
    "hmm_params",
    "is_hmm",
    "check_periods",
    "markov_form",
    "validate",
    "load_params",
    "save_params",
]

# Positive-definiteness margin for the 4x4 stationary covariance.
PD_TOL = 1e-10
# A model is stationary-forecastable only if the spectral radius of A stays
# strictly below 1; this margin rejects the boundary.
SPECTRAL_TOL = 1e-9
# How far c, d and e may sit from a*b^2, a*b and a*b in a hidden-Markov model.
HMM_TOL = 1e-9


class PmmError(Exception):
    """Base class for errors raised by this package."""


class InvalidModelError(PmmError, ValueError):
    """Parameters do not define an admissible stationary model."""


class PmmParams(NamedTuple):
    """The five stationary covariances defining a pairwise model."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def scaled(self, factor: float) -> "PmmParams":
        """All five covariances shrunk toward the independent model."""
        return PmmParams(*(factor * v for v in self))

    @classmethod
    def from_dict(cls, data: dict) -> "PmmParams":
        """Parameters from a mapping with a finite number under each of
        a..e; missing or non-numeric keys raise ValueError naming them."""
        if not isinstance(data, dict):
            raise ValueError(
                "parameters must be an object with keys a..e, "
                f"got {type(data).__name__}"
            )
        keys = ("a", "b", "c", "d", "e")
        values = {k: finite_number(data[k]) for k in keys if k in data}
        missing = [k for k in keys if k not in data]
        bad = [k for k, v in values.items() if v is None]
        if missing or bad:
            problems = []
            if missing:
                problems.append("missing " + ", ".join(missing))
            if bad:
                problems.append("not a finite number: " + ", ".join(bad))
            raise ValueError("invalid parameters: " + "; ".join(problems))
        return cls(**values)


def empirical_covariances(x, y) -> PmmParams:
    """Moment estimates of (a, b, c, d, e) from a pair of standardized
    series, as a simulated path is by construction and ``estimate_params``
    makes them: sums of products over N - 1, the lag-1 sums over the N - 1
    aligned pairs."""
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


# A 2x2 matrix as its two rows of floats.
Matrix2 = tuple[tuple[float, float], tuple[float, float]]


class TransitionModel(NamedTuple):
    """Markov form of a pairwise model: Z_{n+1} = A Z_n + noise with Cov Q,
    each matrix an immutable pair of rows of floats.

    ``marginal`` is the stationary pair covariance [[1, b], [b, 1]]; the
    stationarity fixed point A marginal A^T + Q = marginal holds for every
    admissible model.
    """

    A: Matrix2
    Q: Matrix2
    marginal: Matrix2

    @property
    def b(self) -> float:
        return self.marginal[0][1]


class ValidationReport(NamedTuple):
    """Admissibility diagnostics for a parameter set."""

    gamma_min_eigenvalue: float
    gamma_pd: bool
    q_min_eigenvalue: float
    q_psd: bool
    spectral_radius: float
    spectral_ok: bool
    is_hmm: bool

    @property
    def ok(self) -> bool:
        return self.gamma_pd and self.q_psd and self.spectral_ok

    def summary(self) -> str:
        flags = [
            f"gamma_pd={self.gamma_pd} (min eig {self.gamma_min_eigenvalue:.3e})",
            f"q_psd={self.q_psd} (min eig {self.q_min_eigenvalue:.3e})",
            f"spectral_ok={self.spectral_ok} (radius {self.spectral_radius:.6f})",
            f"is_hmm={self.is_hmm}",
        ]
        return "; ".join(flags)


def gamma_from_params(p: PmmParams) -> tuple[tuple[float, ...], ...]:
    """The 4x4 stationary covariance of (X_1, Y_1, X_2, Y_2), by rows."""
    a, b, c, d, e = p
    return (
        (1.0, b, a, d),
        (b, 1.0, e, c),
        (a, e, 1.0, b),
        (d, c, b, 1.0),
    )


def hmm_params(a: float, b: float) -> PmmParams:
    """The hidden-Markov special case: c = a*b^2, d = e = a*b."""
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise InvalidModelError(f"|a| and |b| must be < 1, got a={a}, b={b}")
    return PmmParams(a, b, a * b * b, a * b, a * b)


def is_hmm(p: PmmParams) -> bool:
    """True when the three hidden-Markov constraints hold within HMM_TOL."""
    a, b, c, d, e = p
    return all(abs(v) <= HMM_TOL for v in (c - a * b * b, d - a * b, e - a * b))


def _transition(p: PmmParams) -> tuple[Matrix2, Matrix2]:
    """A and the symmetrized Q, unvalidated; needs |b| < 1."""
    a, b, c, d, e = map(float, p)
    # A = C M^{-1} with the closed-form inverse of the marginal M, whose
    # rows are (1, -b) and (-b, 1) over 1 - b^2; C = [[a, e], [d, c]].
    diag, off = 1.0 / (1.0 - b * b), -b / (1.0 - b * b)
    a1, a2 = a * diag + e * off, a * off + e * diag
    a3, a4 = d * diag + c * off, d * off + c * diag
    # Q = M - A C^T; its off-diagonal is the mean of the two products.
    q12 = 0.5 * ((b - (a1 * d + a2 * c)) + (b - (a3 * a + a4 * e)))
    Q = ((1.0 - (a1 * a + a2 * e), q12), (q12, 1.0 - (a3 * d + a4 * c)))
    return ((a1, a2), (a3, a4)), Q


def _min_eigenvalue(rows) -> float:
    """Smallest eigenvalue of a small symmetric matrix by cyclic Jacobi.

    Each rotation zeroes one off-diagonal entry.  The matrix is first scaled
    by a power of two into [-1, 1], exactly, so that no product overflows.
    Sweeps stop when the off-diagonal sum of squares is zero or no longer
    falls; a float cannot fall forever, so no sweep count is needed."""
    size = len(rows)
    entries = [abs(v) for row in rows for v in row]
    if not all(map(math.isfinite, entries)):
        return math.nan
    top = max(entries)
    if not top:
        return 0.0
    shift = math.frexp(top)[1]
    s = [[math.ldexp(v, -shift) for v in row] for row in rows]
    pairs = [(p, q) for p in range(size) for q in range(p + 1, size)]
    off = math.inf
    while 0.0 < (rest := math.fsum(s[p][q] * s[p][q] for p, q in pairs)) < off:
        off = rest
        for p, q in pairs:
            spq = s[p][q]
            if spq == 0.0:
                continue
            h = s[q][q] - s[p][p]
            if abs(h) + abs(spq) == abs(h):
                # spq is below h's last digit: tan ~ spq / h, and squaring
                # h / spq could overflow.
                t = spq / h
            else:
                theta = 0.5 * h / spq
                t = math.copysign(1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta)), theta)
            c = 1.0 / math.sqrt(1.0 + t * t)
            sn = t * c
            s[p][p] -= t * spq
            s[q][q] += t * spq
            s[p][q] = s[q][p] = 0.0
            for r in range(size):
                if r != p and r != q:
                    srp, srq = s[r][p], s[r][q]
                    s[r][p] = s[p][r] = c * srp - sn * srq
                    s[r][q] = s[q][r] = sn * srp + c * srq
    return math.ldexp(min(s[i][i] for i in range(size)), shift)


def _spectral_radius(m: Matrix2) -> float:
    """Largest eigenvalue modulus of a 2x2 matrix, in closed form."""
    (a1, a2), (a3, a4) = m
    half_trace, half_gap = 0.5 * (a1 + a4), 0.5 * (a1 - a4)
    # The discriminant (trace/2)^2 - det, without cancelling the squares.
    disc = half_gap * half_gap + a2 * a3
    if disc >= 0.0:
        return abs(half_trace) + math.sqrt(disc)
    # A complex pair, trace/2 +- i sqrt(-disc).
    return math.hypot(half_trace, math.sqrt(-disc))


def _min_eigenvalue_2x2(m: Matrix2) -> float:
    """Smallest eigenvalue of a symmetric 2x2 matrix, in closed form."""
    (m11, m12), (_, m22) = m
    return 0.5 * (m11 + m22) - math.hypot(0.5 * (m11 - m22), m12)


def markov_form(p: PmmParams) -> TransitionModel:
    """Convert the covariance parameterization to the transition form.

    This is the package's admissibility gate: parameters that ``validate``
    rejects raise InvalidModelError, so every TransitionModel built here
    has a positive definite marginal and noise covariance and a spectral
    radius below 1.
    """
    report = validate(p)
    if not report.ok:
        raise InvalidModelError(f"invalid parameters: {report.summary()}")
    A, Q = _transition(p)
    b = float(p.b)
    return TransitionModel(A=A, Q=Q, marginal=((1.0, b), (b, 1.0)))


def validate(p: PmmParams) -> ValidationReport:
    """Full admissibility report: 4x4 PD, noise PSD, spectral radius < 1."""
    gamma_min = _min_eigenvalue(gamma_from_params(p))
    gamma_pd = gamma_min > PD_TOL
    # A covariance beyond +-1 already makes gamma indefinite, and its
    # transition form can overflow.
    if abs(p.b) < 1.0 and max(map(abs, p)) <= 1.0:
        a_mat, q_mat = _transition(p)
        q_min = _min_eigenvalue_2x2(q_mat)
        radius = _spectral_radius(a_mat)
    else:
        # The marginal is singular, or gamma is out of range; no transition
        # form exists.
        q_min = float("nan")
        radius = float("inf")
    return ValidationReport(
        gamma_min_eigenvalue=gamma_min,
        gamma_pd=gamma_pd,
        q_min_eigenvalue=q_min,
        q_psd=q_min >= -PD_TOL,
        spectral_radius=radius,
        spectral_ok=radius < 1.0 - SPECTRAL_TOL,
        is_hmm=is_hmm(p),
    )


class DetrendModel(NamedTuple):
    """Fitted harmonic seasonal component of the observed series."""

    theta: tuple[float, ...]  # constant, cos p1, sin p1, cos p2, sin p2
    periods: tuple[float, float]
    # Sample variance of every row the seasonal fit used, which is the whole
    # input of ``fit``, not its window; inert, kept as metadata.
    sigma: float


def check_periods(periods, name: str) -> tuple[float, float]:
    """The two harmonic periods as floats; ValueError naming ``name`` unless
    both are finite and exceed 1 sample."""
    p1, p2 = float(periods[0]), float(periods[1])
    # Written so that nan fails too.
    if not (1.0 < p1 < math.inf and 1.0 < p2 < math.inf):
        raise ValueError(f"{name} must be finite and exceed 1 sample, got {periods}")
    return p1, p2


class StandardizationParams(NamedTuple):
    """Centering/scaling moments estimated on the fitting window."""

    mean: float
    std: float

    def apply(self, values):
        return (values - self.mean) / self.std

    def invert(self, values):
        return values * self.std + self.mean


# No centering and no scaling: the moments of a bare parameter file.
_IDENTITY = StandardizationParams(0.0, 1.0)


class FittedModel(NamedTuple):
    """Everything needed to forecast a new window of the same series."""

    params: PmmParams
    x_standardize: StandardizationParams = _IDENTITY
    y_standardize: StandardizationParams = _IDENTITY
    detrend: DetrendModel | None = None
    fit_window: tuple[int, int] | None = None
    repaired: bool = False

    def to_json_dict(self) -> dict:
        doc: dict = {
            "params": self.params._asdict(),
            "detrend": None,
            "x_standardize": self.x_standardize._asdict(),
            "y_standardize": self.y_standardize._asdict(),
            "repaired": self.repaired,
        }
        if self.detrend is not None:
            doc["detrend"] = {
                "theta": list(self.detrend.theta),
                "periods": list(self.detrend.periods),
                "sigma": self.detrend.sigma,
            }
        if self.fit_window is not None:
            doc["fit_window"] = list(self.fit_window)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FittedModel":
        """The model a ``to_json_dict`` document describes; a missing,
        non-numeric or out-of-range field, a ``detrend`` that is neither an
        object nor null, or a ``repaired`` that is not a boolean raises
        ValueError naming it.  A document with no ``params`` key is a bare
        parameter document: those parameters with identity moments and no
        seasonal part."""
        if not isinstance(doc, dict):
            raise ValueError(
                f"fitted model must be a JSON object, got {type(doc).__name__}"
            )
        if "params" not in doc:
            return cls(PmmParams.from_dict(doc))
        det = None
        d = doc.get("detrend")
        if d is not None:
            if not isinstance(d, dict):
                raise ValueError(f"fitted model: detrend must be an object or null, got {d!r}")
            periods = _numbers(d.get("periods"), "detrend.periods", 2)
            det = DetrendModel(
                theta=tuple(_numbers(d.get("theta"), "detrend.theta", 5)),
                periods=check_periods(periods, "fitted model: detrend.periods"),
                sigma=_number(d.get("sigma"), "detrend.sigma"),
            )
        window = doc.get("fit_window")
        if window is not None:
            if not (isinstance(window, list) and len(window) == 2):
                raise ValueError(f"fitted model: fit_window must be two integers, got {window!r}")
            start = check_int(window[0], "fitted model: fit_window start", 0)
            window = (start, check_int(window[1], "fitted model: fit_window end", start + 1))
        repaired = doc.get("repaired", False)
        if not isinstance(repaired, bool):
            raise ValueError(f"fitted model: repaired must be true or false, got {repaired!r}")
        return cls(
            params=PmmParams.from_dict(doc.get("params")),
            x_standardize=_moments(doc, "x_standardize"),
            y_standardize=_moments(doc, "y_standardize"),
            detrend=det,
            fit_window=window,
            repaired=repaired,
        )

    def save(self, path: str | Path) -> None:
        atomic_write(path, lambda fh: write_json(fh, self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        return cls.from_json_dict(read_json(path))


def _number(value, name: str) -> float:
    number = finite_number(value)
    if number is None:
        raise ValueError(f"fitted model: {name} must be a finite number, got {value!r}")
    return number


def _numbers(value, name: str, count: int) -> list[float]:
    numbers = [finite_number(v) for v in value] if isinstance(value, list) else []
    if len(numbers) != count or None in numbers:
        raise ValueError(
            f"fitted model: {name} must be {count} finite numbers, got {value!r}"
        )
    return numbers


def _moments(doc: dict, key: str) -> StandardizationParams:
    """Standardization moments read by name; other keys are ignored."""
    section = doc.get(key)
    if not isinstance(section, dict):
        raise ValueError(f"fitted model: {key} must be an object with mean and std")
    std = _number(section.get("std"), f"{key}.std")
    if std <= 0.0:
        raise ValueError(f"fitted model: {key}.std must be > 0, got {std}")
    return StandardizationParams(_number(section.get("mean"), f"{key}.mean"), std)


def save_params(p: PmmParams, path: str | Path) -> None:
    atomic_write(path, lambda fh: write_json(fh, p._asdict()))


def load_params(path: str | Path) -> PmmParams:
    """The parameters of the model file at ``path``, by ``FittedModel.load``."""
    return FittedModel.load(path).params
