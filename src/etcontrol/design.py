"""Event-trigger design: per-sensor thresholds and minimum dwell times.

A design turns stability certificates into the two numbers each sensor
needs: an error-to-state threshold ``w_i`` (transmit when the local
sampling error reaches ``w_i`` times the local state magnitude) and a
dwell time ``T_i`` (never transmit more often than this). Thresholds are
capped by admissible bounds from the certificate; dwell times are
first-crossing times of the scalar comparison ODE assembled from
Lipschitz-type growth constants.

Both design paths end in ``dwell_times``, which takes the growth
constants as plain numbers. The certificate path evaluates a certificate's
threshold caps and a model's Lipschitz data at one level c. The LTI path
is its special case with bounds that hold globally: it solves a Lyapunov
equation for the certificate matrix, splits the decay margin into
thresholds, and takes the growth constants from row and matrix norms of
the closed loop. Model-specific bounds live with their models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DesignError
from .linalg import solve_lyapunov, spectral_norm, sym_eig
from .riccati import RiccatiCoefficients, crossing_time

__all__ = [
    "LyapunovCertificate",
    "LipschitzData",
    "TriggerConfig",
    "DesignResult",
    "validate_weights",
    "dwell_times",
    "design_nonlinear",
    "design_lti",
    "validate_certificate",
]


@dataclass(frozen=True)
class LyapunovCertificate:
    """Quadratic ISS Lyapunov certificate ``V(x) = x^T P x`` for a
    sampled-data closed loop.

    The certificate asserts a decay inequality whose disturbance terms are
    the per-sensor ``error_gains`` applied to sampling-error magnitudes.
    For each level c, ``threshold_bounds(c)[i]`` is the largest admissible
    error-to-state threshold for sensor i.

    Attributes
    ----------
    quadratic : ndarray
        Symmetric positive definite matrix P of the certificate.
    error_gains : tuple of callables
        Per-sensor gain of the decay inequality's error terms.
    threshold_bounds : callable
        Level c -> array of per-sensor threshold caps.

    Raises
    ------
    ValueError
        If ``quadratic`` is not a finite symmetric matrix.
    DesignError
        If ``quadratic`` is not positive definite.
    """

    quadratic: np.ndarray
    error_gains: tuple
    threshold_bounds: Callable[[float], np.ndarray]

    def __post_init__(self):
        P = np.asarray(self.quadratic, dtype=float)
        if not sym_eig(P)[0] > 0.0:
            raise DesignError("certificate matrix must be positive definite")
        object.__setattr__(self, "quadratic", P)

    def value(self, x):
        """Certificate value ``x^T P x``."""
        x = np.asarray(x, dtype=float)
        return float(x @ self.quadratic @ x)

    def level_radius(self, c):
        """State-norm radius ``sqrt(c / lambda_min(P))`` that the sublevel
        set ``{x : V(x) <= c}`` fits inside."""
        return float(np.sqrt(c / sym_eig(self.quadratic)[0]))


@dataclass(frozen=True)
class LipschitzData:
    """Growth constants of the closed loop on one operating region.

    ``state_gain`` and ``error_gain`` bound the full dynamics:
    |f(x, k(x + x_e))| <= state_gain |x| + error_gain |x_e| on the region
    (a certificate sublevel set, or the whole space for a linear loop).
    ``state_gains[i]`` and ``error_gains[i]`` bound the i-th component of
    f the same way.
    """

    state_gain: float
    error_gain: float
    state_gains: np.ndarray
    error_gains: np.ndarray


@dataclass(frozen=True)
class TriggerConfig:
    """Per-sensor trigger parameters.

    Attributes
    ----------
    thresholds : ndarray
        Error-to-state thresholds w_i, each positive. ``inf`` marks a
        sensor whose error never affects the decay bound; such sensors
        never transmit and are excluded from the aggregate norms.
    dwells : ndarray
        Minimum inter-transmission times T_i, each positive (``inf`` for
        excluded sensors).
    """

    thresholds: np.ndarray
    dwells: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.thresholds, dtype=float)
        T = np.asarray(self.dwells, dtype=float)
        if w.ndim != 1 or w.shape != T.shape or w.size == 0:
            raise ValueError("thresholds and dwells must be matching 1-D arrays")
        if np.any(np.isnan(w)) or np.any(w <= 0.0):
            raise ValueError("thresholds must be positive (inf marks excluded sensors)")
        if np.any(np.isnan(T)) or np.any(T <= 0.0):
            raise ValueError("dwell times must be positive")
        object.__setattr__(self, "thresholds", w)
        object.__setattr__(self, "dwells", T)

    @property
    def threshold_norm(self):
        """Aggregate threshold W = sqrt(sum of squared finite thresholds)."""
        finite = self.thresholds[np.isfinite(self.thresholds)]
        return float(np.sqrt(np.sum(finite**2)))


@dataclass(frozen=True)
class DesignResult:
    """A complete trigger design plus the certificate facts it rests on."""

    config: TriggerConfig
    P: np.ndarray
    q_min: float
    sigma: float
    theta: np.ndarray = field(default_factory=lambda: np.array([]))
    level: Optional[float] = None

    def to_dict(self):
        """JSON-ready document with per-sensor parameters and certificate data."""
        w = self.config.thresholds
        T = self.config.dwells
        return {
            "sensors": [{"w": float(w[i]), "T": float(T[i])} for i in range(w.size)],
            "W": self.config.threshold_norm,
            "P": [list(map(float, row)) for row in self.P],
            "Q_m": float(self.q_min),
            "sigma": float(self.sigma),
            "theta": [float(t) for t in np.asarray(self.theta).ravel()],
            "c": None if self.level is None else float(self.level),
        }


def validate_weights(theta):
    """Validate per-sensor design weights: each strictly inside (0, 1),
    and ``sum(theta) <= 1``.

    Returns
    -------
    ndarray
        The validated weights as a float array.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise DesignError("theta must be a non-empty 1-D array of weights")
    if np.any(~np.isfinite(theta)) or np.any(theta <= 0.0) or np.any(theta >= 1.0):
        raise DesignError("each theta weight must lie strictly inside (0, 1)")
    if float(np.sum(theta)) > 1.0 + 1e-12:
        raise DesignError(f"sum of theta weights is {np.sum(theta):.6g}, must be <= 1")
    return theta


def dwell_times(thresholds, lip, bounds=None):
    """Minimum dwell times for the given thresholds.

    For sensor i the sampling-error-to-state ratio obeys the comparison
    ODE ``phi' = a0 + a1 phi + a2 phi^2`` with

        a0 = state_gains[i] + error_gains[i] * W_i
        a1 = state_gain + error_gains[i] + error_gain * W_i
        a2 = error_gain

    where ``W_i`` aggregates the other sensors' finite thresholds. The
    dwell time is the time this ratio needs to climb from 0 to
    ``thresholds[i]``. An infinite threshold marks a sensor whose error
    never affects the decay bound: it gets ``T_i = inf`` and stays out of
    every other sensor's ``W_i``.

    Parameters
    ----------
    thresholds : array_like
        Positive per-sensor thresholds w_i (``inf`` for excluded sensors).
    lip : LipschitzData
        Growth constants on the region the design is valid on.
    bounds : array_like, optional
        Admissible caps; any threshold above its cap rejects the design.

    Returns
    -------
    ndarray
        Positive dwell times T_i.
    """
    w = np.asarray(thresholds, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DesignError("thresholds must be a non-empty 1-D array")
    if np.any(np.isnan(w)) or np.any(w <= 0.0):
        raise DesignError("thresholds must be positive (inf marks excluded sensors)")
    if bounds is not None:
        caps = np.asarray(bounds, dtype=float)
        if caps.shape != w.shape:
            raise DesignError("threshold bounds must match thresholds in shape")
        bad = np.nonzero(w > caps * (1.0 + 1e-12))[0]
        if bad.size:
            i = int(bad[0])
            raise DesignError(
                f"threshold {w[i]:.6g} for sensor {i} exceeds its admissible "
                f"bound {caps[i]:.6g}")
    L = float(lip.state_gain)
    D = float(lip.error_gain)
    Li = np.asarray(lip.state_gains, dtype=float)
    Di = np.asarray(lip.error_gains, dtype=float)
    if Li.shape != w.shape or Di.shape != w.shape:
        raise DesignError("per-sensor Lipschitz arrays must match thresholds in shape")
    if L < 0.0 or D < 0.0 or np.any(Li < 0.0) or np.any(Di < 0.0):
        raise DesignError("Lipschitz constants must be non-negative")
    finite = np.isfinite(w)
    finite_sq = np.where(finite, w**2, 0.0)
    others = np.sqrt(np.maximum(np.sum(finite_sq) - finite_sq, 0.0))
    T = np.full_like(w, np.inf)
    for i in np.flatnonzero(finite):
        coeffs = RiccatiCoefficients(
            Li[i] + Di[i] * others[i],
            L + Di[i] + D * others[i],
            D,
        )
        T[i] = crossing_time(w[i], coeffs)
    return T


def design_nonlinear(cert, lipschitz, level):
    """Trigger design from a certificate: thresholds at their admissible caps.

    Uses ``w_i = threshold_bounds(level)[i]`` (the largest admissible
    choice) and assembles dwell times from ``lipschitz(level)``, the
    model's ``LipschitzData`` on the sublevel set of ``level``.
    """
    level = float(level)
    if not level > 0.0:
        raise DesignError(f"design level must be positive, got {level}")
    w = np.asarray(cert.threshold_bounds(level), dtype=float)
    if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
        raise DesignError("certificate produced non-positive threshold bounds")
    T = dwell_times(w, lipschitz(level), bounds=w)
    return TriggerConfig(thresholds=w, dwells=T)


def design_lti(A, B, K, Q, theta, sigma):
    """Trigger design for the LTI closed loop ``x' = (A + BK) x`` under
    zero-order-hold control ``u = K x_s``.

    Solves ``P (A+BK) + (A+BK)^T P = -Q`` and splits the decay margin
    ``sigma`` across sensors by the weights ``theta``:

        w_i = sigma * theta_i * Q_min / |column_i(2 P B K)|

    Dwell times come from ``dwell_times`` with level-independent growth
    constants: the row norms of A+BK and BK and the matrix norms of both.

    A sensor whose column of ``2 P B K`` is exactly zero cannot affect the
    decay bound; it receives ``w_i = T_i = inf``, never transmits, and is
    excluded from the aggregate threshold norms.

    Returns
    -------
    DesignResult
        Trigger configuration plus the certificate data (P, Q_min).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    K = np.asarray(K, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DesignError(f"A must be square, got shape {A.shape}")
    if B.ndim != 2 or B.shape[0] != n:
        raise DesignError(f"B must have {n} rows, got shape {B.shape}")
    if K.ndim != 2 or K.shape != (B.shape[1], n):
        raise DesignError(f"K must have shape {(B.shape[1], n)}, got {K.shape}")
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0:
        raise DesignError(f"sigma must lie in (0, 1), got {sigma}")
    theta = validate_weights(theta)
    if theta.size != n:
        raise DesignError(f"theta must supply one weight per sensor ({n}), got {theta.size}")
    A_cl = A + B @ K
    P = solve_lyapunov(A_cl, Q)
    q_min = float(sym_eig(Q)[0])
    if q_min <= 0.0:
        raise DesignError("Q must be positive definite")
    G = 2.0 * P @ B @ K
    column_norms = np.linalg.norm(G, axis=0)
    with np.errstate(divide="ignore"):
        w = np.where(column_norms > 0.0, sigma * theta * q_min / column_norms, np.inf)
    BK = B @ K
    lip = LipschitzData(spectral_norm(A_cl), spectral_norm(BK),
                        np.linalg.norm(A_cl, axis=1), np.linalg.norm(BK, axis=1))
    config = TriggerConfig(thresholds=w, dwells=dwell_times(w, lip))
    return DesignResult(config=config, P=P, q_min=q_min, sigma=sigma, theta=theta)


def validate_certificate(cert, level, rng=None, samples=200):
    """Spot-check certificate invariants at a level by random sampling.

    Checks that each error gain vanishes at zero, increases strictly on a
    sampled grid, and stays below ``r / threshold_bounds(level)[i]`` on
    the admissible error range.

    Raises
    ------
    DesignError
        On the first violated invariant.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    level = float(level)
    caps = np.asarray(cert.threshold_bounds(level), dtype=float)
    radius = float(cert.level_radius(level))
    for i, gain in enumerate(cert.error_gains):
        if abs(float(gain(0.0))) > 1e-12:
            raise DesignError(f"error gain {i} does not vanish at zero")
        grid = np.sort(rng.uniform(0.0, radius, size=samples))
        vals = np.array([float(gain(r)) for r in grid])
        if np.any(np.diff(vals) <= 0.0):
            raise DesignError(f"error gain {i} is not strictly increasing")
        linear_cap = grid / caps[i]
        if np.any(vals > linear_cap * (1.0 + 1e-9)):
            raise DesignError(
                f"error gain {i} exceeds its linear bound inside the admissible range")
