"""Model parameterization, validation, and Markov-form conversion.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import atomic_write, finite_number, read_json, write_json

__all__ = [
    "PmmError",
    "InvalidModelError",
    "PmmParams",
    "TransitionModel",
    "ValidationReport",
    "gamma_from_params",
    "hmm_params",
    "is_hmm",
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


class PmmError(Exception):
    """Base class for errors raised by this package."""


class InvalidModelError(PmmError, ValueError):
    """Parameters do not define an admissible stationary model."""


@dataclass(frozen=True)
class PmmParams:
    """The five stationary covariances defining a pairwise model."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def astuple(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)

    def scaled(self, factor: float) -> "PmmParams":
        """All five covariances shrunk toward the independent model."""
        return PmmParams(*(factor * v for v in self.astuple()))

    def to_dict(self) -> dict[str, float]:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d, "e": self.e}

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


@dataclass(frozen=True)
class TransitionModel:
    """Markov form of a pairwise model: Z_{n+1} = A Z_n + noise with Cov Q.

    ``marginal`` is the stationary pair covariance [[1, b], [b, 1]]; the
    stationarity fixed point A marginal A^T + Q = marginal holds for every
    admissible model.
    """

    A: np.ndarray
    Q: np.ndarray
    marginal: np.ndarray

    def __post_init__(self) -> None:
        for m in (self.A, self.Q, self.marginal):
            m.setflags(write=False)

    @property
    def b(self) -> float:
        return float(self.marginal[0, 1])


@dataclass(frozen=True)
class ValidationReport:
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


def gamma_from_params(p: PmmParams) -> np.ndarray:
    """The 4x4 stationary covariance of (X_1, Y_1, X_2, Y_2)."""
    a, b, c, d, e = p.astuple()
    return np.array(
        [
            [1.0, b, a, d],
            [b, 1.0, e, c],
            [a, e, 1.0, b],
            [d, c, b, 1.0],
        ]
    )


def hmm_params(a: float, b: float) -> PmmParams:
    """The hidden-Markov special case: c = a*b^2, d = e = a*b."""
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise InvalidModelError(f"|a| and |b| must be < 1, got a={a}, b={b}")
    return PmmParams(a, b, a * b * b, a * b, a * b)


def is_hmm(p: PmmParams, tol: float = 1e-9) -> bool:
    """True when the three hidden-Markov constraints hold within ``tol``."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    a, b, c, d, e = p.astuple()
    return (
        abs(c - a * b * b) <= tol
        and abs(d - a * b) <= tol
        and abs(e - a * b) <= tol
    )


def _transition(p: PmmParams) -> tuple[np.ndarray, np.ndarray]:
    """A and the symmetrized Q, unvalidated; needs |b| < 1."""
    a, b, c, d, e = p.astuple()
    cross = np.array([[a, e], [d, c]])  # Cov[Z_{n+1}, Z_n]
    # Closed-form inverse of the marginal [[1, b], [b, 1]] for exactness.
    A = cross @ (np.array([[1.0, -b], [-b, 1.0]]) / (1.0 - b * b))
    Q = np.array([[1.0, b], [b, 1.0]]) - A @ cross.T
    return A, 0.5 * (Q + Q.T)


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
    return TransitionModel(A=A, Q=Q, marginal=np.array([[1.0, p.b], [p.b, 1.0]]))


def validate(p: PmmParams) -> ValidationReport:
    """Full admissibility report: 4x4 PD, noise PSD, spectral radius < 1."""
    gamma_min = float(np.linalg.eigvalsh(gamma_from_params(p)).min())
    gamma_pd = gamma_min > PD_TOL
    # A covariance beyond +-1 already makes gamma indefinite, and its
    # transition form can overflow.
    if abs(p.b) < 1.0 and max(map(abs, p.astuple())) <= 1.0:
        a_mat, q_mat = _transition(p)
        q_min = float(np.linalg.eigvalsh(q_mat).min())
        radius = float(max(abs(np.linalg.eigvals(a_mat))))
    else:
        # The marginal is singular, or gamma is out of range; no transition
        # form exists.
        q_min = float("nan")
        radius = float("inf")
    return ValidationReport(
        gamma_min_eigenvalue=gamma_min,
        gamma_pd=gamma_pd,
        q_min_eigenvalue=q_min,
        q_psd=bool(q_min >= -PD_TOL),
        spectral_radius=radius,
        spectral_ok=bool(radius < 1.0 - SPECTRAL_TOL),
        is_hmm=is_hmm(p),
    )


def save_params(p: PmmParams, path: str | Path) -> None:
    atomic_write(path, lambda fh: write_json(fh, p.to_dict()))


def load_params(path: str | Path) -> PmmParams:
    """Read parameters from JSON; accepts a bare {a..e} document or a fitted
    model document with a nested "params" object."""
    data = read_json(path)
    if isinstance(data, dict) and isinstance(data.get("params"), dict):
        data = data["params"]
    return PmmParams.from_dict(data)
