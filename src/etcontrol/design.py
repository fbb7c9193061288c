"""Event-trigger design: per-sensor thresholds and minimum dwell times.

A design turns stability certificates into the two numbers each sensor
needs: an error-to-state threshold ``w_i`` (transmit when the local
sampling error reaches ``w_i`` times the local state magnitude) and a
dwell time ``T_i`` (never transmit more often than this). Thresholds are
capped by admissible bounds from the certificate; dwell times are
first-crossing times of the scalar comparison ODE assembled from
Lipschitz-type growth constants.

There is one design path: ``design_nonlinear`` evaluates a certificate's
threshold caps and a model's Lipschitz data at one level c and passes
plain numbers to ``dwell_times``. ``design_lti`` is its case at level
``inf``: it solves a Lyapunov equation for a certificate whose caps and
growth constants hold on the whole state space. Every design carries its
certificate and level. Model-specific bounds live with their models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    "lti_matrices",
]


@dataclass(frozen=True)
class LyapunovCertificate:
    """Quadratic ISS Lyapunov certificate ``V(x) = x^T P x`` for a
    sampled-data closed loop.

    The certificate asserts a decay inequality whose disturbance terms are
    per-sensor gains applied to sampling-error magnitudes. For each level
    c, ``threshold_bounds(c)[i]`` is the largest error-to-state threshold
    for sensor i that keeps those terms within the decay margin.

    Attributes
    ----------
    quadratic : ndarray
        Symmetric positive definite matrix P of the certificate.
    threshold_bounds : callable
        Level c -> array of per-sensor threshold caps.

    Raises
    ------
    ValueError
        If ``quadratic`` is not a finite symmetric matrix.
    DesignError
        If ``quadratic`` is not positive definite (a design's one
        definiteness check: ``linalg.solve_lyapunov`` makes none).
    """

    quadratic: np.ndarray
    threshold_bounds: Callable[[float], np.ndarray]

    def __post_init__(self):
        P = np.asarray(self.quadratic, dtype=float)
        if not sym_eig(P)[0] > 0.0:
            raise DesignError("certificate matrix must be positive definite")
        object.__setattr__(self, "quadratic", P)

    def value(self, x):
        """Certificate value ``x^T P x``; ``inf`` when it overflows."""
        x = np.asarray(x, dtype=float)
        value = float(x @ self.quadratic @ x)
        if not np.isfinite(value) and np.isfinite(x).all():
            # Overflowing products of P's mixed-sign entries can cancel to
            # -inf or NaN; rescaling by peak = max |x_i| keeps the sign.
            peak = float(np.abs(x).max())
            u = x / peak
            value = peak * (peak * float(u @ self.quadratic @ u))
        return value


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
        if not (w > 0.0).all():  # NaN fails every comparison
            raise ValueError("thresholds must be positive (inf marks excluded sensors)")
        if not (T > 0.0).all():
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
    """A trigger design plus the certificate and level c it holds at; an
    LTI design's level is ``inf``, which ``to_dict`` writes as ``None``."""

    config: TriggerConfig
    certificate: LyapunovCertificate
    q_min: float
    sigma: float
    theta: np.ndarray
    level: float

    @property
    def P(self):
        """The certificate matrix."""
        return self.certificate.quadratic

    def to_dict(self):
        """JSON-ready document with per-sensor parameters and certificate data."""
        pairs = zip(self.config.thresholds.tolist(), self.config.dwells.tolist())
        return {
            "sensors": [{"w": w, "T": T} for w, T in pairs],
            "W": self.config.threshold_norm,
            "P": self.P.tolist(),
            "Q_m": float(self.q_min),
            "sigma": float(self.sigma),
            "theta": np.asarray(self.theta, dtype=float).ravel().tolist(),
            "c": float(self.level) if math.isfinite(self.level) else None,
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
    if not ((theta > 0.0) & (theta < 1.0)).all():  # NaN and inf fail too
        raise DesignError("each theta weight must lie strictly inside (0, 1)")
    if float(theta.sum()) > 1.0 + 1e-12:
        raise DesignError(f"sum of theta weights is {theta.sum():.6g}, must be <= 1")
    return theta


def dwell_times(thresholds, lip):
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

    Returns
    -------
    ndarray
        Positive dwell times T_i.
    """
    w = np.asarray(thresholds, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DesignError("thresholds must be a non-empty 1-D array")
    if not (w > 0.0).all():
        raise DesignError("thresholds must be positive (inf marks excluded sensors)")
    L = float(lip.state_gain)
    D = float(lip.error_gain)
    Li = np.asarray(lip.state_gains, dtype=float)
    Di = np.asarray(lip.error_gains, dtype=float)
    if Li.shape != w.shape or Di.shape != w.shape:
        raise DesignError("per-sensor Lipschitz arrays must match thresholds in shape")
    if L < 0.0 or D < 0.0 or (Li < 0.0).any() or (Di < 0.0).any():
        raise DesignError("Lipschitz constants must be non-negative")
    finite_sq = np.where(np.isfinite(w), w**2, 0.0)
    others = np.sqrt(np.maximum(np.sum(finite_sq) - finite_sq, 0.0))
    # Python floats: numpy scalars cost more per operation, same IEEE bits.
    T = [
        crossing_time(wi, RiccatiCoefficients(Lii + Dii * oi, L + Dii + D * oi, D))
        if math.isfinite(wi) else math.inf
        for wi, Lii, Dii, oi in zip(w.tolist(), Li.tolist(), Di.tolist(), others.tolist())
    ]
    return np.array(T)


def design_nonlinear(cert, lipschitz, level):
    """Trigger design from a certificate: thresholds at their admissible caps.

    Uses ``w_i = threshold_bounds(level)[i]`` (the largest admissible
    choice) and assembles dwell times from ``lipschitz(level)``, the
    model's ``LipschitzData`` on the sublevel set of ``level``. An
    infinite cap designs its sensor out (``w_i = T_i = inf``); a NaN or
    non-positive cap is refused by ``dwell_times``.
    """
    level = float(level)
    if not level > 0.0:
        raise DesignError(f"design level must be positive, got {level}")
    w = np.asarray(cert.threshold_bounds(level), dtype=float)
    T = dwell_times(w, lipschitz(level))
    return TriggerConfig(thresholds=w, dwells=T)


def lti_matrices(A, B, K):
    """``A, B, K`` as float arrays of shapes (n, n), (n, m) and (m, n)."""
    A, B, K = (np.asarray(M, dtype=float) for M in (A, B, K))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DesignError(f"A must be square, got shape {A.shape}")
    if B.ndim != 2 or B.shape[0] != len(A):
        raise DesignError(f"B must have {len(A)} rows, got shape {B.shape}")
    if K.shape != B.shape[::-1]:
        raise DesignError(f"K must have shape {B.shape[::-1]}, got {K.shape}")
    return A, B, K


def design_lti(A, B, K, Q, theta, sigma):
    """Trigger design for the LTI closed loop ``x' = (A + BK) x`` under
    zero-order-hold control ``u = K x_s``.

    Solves ``P (A+BK) + (A+BK)^T P = -Q``. The certificate ``x^T P x``
    holds on the whole state space, so this is ``design_nonlinear`` at
    level ``inf``, with caps that split the decay margin ``sigma`` by the
    weights ``theta``,

        w_i = sigma * theta_i * Q_min / |column_i(2 P B K)|

    and growth constants from the row and matrix norms of A+BK and BK.

    A sensor whose column of ``2 P B K`` is exactly zero cannot affect the
    decay bound; it receives ``w_i = T_i = inf``, never transmits, and is
    excluded from the aggregate threshold norms.

    Returns
    -------
    DesignResult
        Trigger configuration plus the certificate, Q_min and level ``inf``.
    """
    A, B, K = lti_matrices(A, B, K)
    n = A.shape[0]
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
    column_norms = np.linalg.norm(2.0 * P @ B @ K, axis=0)
    with np.errstate(divide="ignore"):
        caps = np.where(column_norms > 0.0, sigma * theta * q_min / column_norms, np.inf)
    # A copy per call: no thresholds share memory with the caps run checks.
    cert = LyapunovCertificate(P, lambda level: caps.copy())
    BK = B @ K
    lip = LipschitzData(spectral_norm(A_cl), spectral_norm(BK),
                        np.linalg.norm(A_cl, axis=1), np.linalg.norm(BK, axis=1))
    config = design_nonlinear(cert, lambda level: lip, math.inf)
    return DesignResult(config=config, certificate=cert, q_min=q_min, sigma=sigma,
                        theta=theta, level=math.inf)
