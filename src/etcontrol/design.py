"""Event-trigger design: per-sensor thresholds and minimum dwell times.

A design turns stability certificates into the two numbers each sensor
needs: an error-to-state threshold ``w_i`` (transmit when the local
sampling error reaches ``w_i`` times the local state magnitude) and a
dwell time ``T_i`` (never transmit more often than this). Thresholds are
capped by admissible bounds from the certificate; dwell times are
first-crossing times of the scalar comparison ODE assembled from
Lipschitz-type growth constants.

Two design paths are provided. The general path consumes a user-supplied
Lyapunov certificate and Lipschitz data. The LTI path builds everything
from the plant matrices: it solves a Lyapunov equation for the quadratic
certificate and derives the growth constants from row and matrix norms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DesignError, DesignWarning
from .linalg import solve_lyapunov, spectral_norm, spectral_summary
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
    "peak_cubic_gain",
    "cubic_threshold_bounds",
    "validate_certificate",
]


def peak_cubic_gain(mu1, k1):
    """Largest magnitude of ``3 x1^2 - k1`` over ``|x1| <= mu1``.

    The quadratic is extremal at the interval center and endpoints, so the
    maximum is ``max(|k1|, |3 mu1^2 - k1|)``; the nonnegative envelope is
    grid-verified in the test suite.
    """
    mu1 = float(mu1)
    if mu1 < 0.0:
        raise ValueError(f"mu1 must be non-negative, got {mu1}")
    return max(abs(float(k1)), abs(3.0 * mu1 * mu1 - float(k1)))


@dataclass(frozen=True)
class LyapunovCertificate:
    """ISS Lyapunov certificate for a sampled-data closed loop.

    The certificate asserts ``norm_lower(|x|) <= value(x) <= norm_upper(|x|)``
    and a decay inequality whose disturbance terms are the per-sensor
    ``error_gains`` applied to sampling-error magnitudes. For each level c,
    ``threshold_bounds(c)[i]`` is the largest admissible error-to-state
    threshold for sensor i, and ``level_radius(c)`` is the state-norm
    radius that the sublevel set ``{x : value(x) <= c}`` fits inside.

    Attributes
    ----------
    value : callable
        State -> certificate value V(x).
    norm_lower, norm_upper : callable
        Class-K-infinity envelopes of V as functions of the state norm.
    decay : callable
        Class-K-infinity decay margin as a function of the state norm.
    error_gains : tuple of callables
        Per-sensor gain of the decay inequality's error terms.
    threshold_bounds : callable
        Level c -> array of per-sensor threshold caps.
    level_radius : callable
        Level c -> state-norm radius of the sublevel set.
    quadratic : ndarray, optional
        Matrix P when ``value`` is the quadratic form x^T P x; enables the
        exact sphere maximization used by the controller-feedback variant.
    """

    value: Callable[[np.ndarray], float]
    norm_lower: Callable[[float], float]
    norm_upper: Callable[[float], float]
    decay: Callable[[float], float]
    error_gains: tuple
    threshold_bounds: Callable[[float], np.ndarray]
    level_radius: Callable[[float], float]
    quadratic: Optional[np.ndarray] = None


@dataclass(frozen=True)
class LipschitzData:
    """Growth constants of the closed loop as functions of the level c.

    ``state_gain(c)`` and ``error_gain(c)`` bound the full dynamics:
    |f(x, k(x + x_e))| <= state_gain(c) |x| + error_gain(c) |x_e| on the
    sublevel set of c. ``state_gains(c)[i]`` and ``error_gains(c)[i]``
    bound the i-th component of f the same way.
    """

    state_gain: Callable[[float], float]
    error_gain: Callable[[float], float]
    state_gains: Callable[[float], np.ndarray]
    error_gains: Callable[[float], np.ndarray]


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
    P: Optional[np.ndarray]
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
            "P": None if self.P is None else [list(map(float, row)) for row in self.P],
            "Q_m": float(self.q_min),
            "sigma": float(self.sigma),
            "theta": [float(t) for t in np.asarray(self.theta).ravel()],
            "c": None if self.level is None else float(self.level),
        }


def validate_weights(theta, rule="linear-sum"):
    """Validate per-sensor design weights under the stated aggregation rule.

    Parameters
    ----------
    theta : array_like
        Per-sensor weights, each strictly inside (0, 1).
    rule : {"linear-sum", "quadratic-sum"}
        "linear-sum" requires sum(theta) <= 1 (the LTI design rule);
        "quadratic-sum" requires sum(theta^2) <= 1 (the general rule) and
        warns when the weights would fail the linear-sum convention.

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
    tol = 1e-12
    if rule == "linear-sum":
        if float(np.sum(theta)) > 1.0 + tol:
            raise DesignError(f"sum of theta weights is {np.sum(theta):.6g}, must be <= 1")
    elif rule == "quadratic-sum":
        if float(np.sum(theta**2)) > 1.0 + tol:
            raise DesignError(
                f"sum of squared theta weights is {np.sum(theta**2):.6g}, must be <= 1")
        if float(np.sum(theta)) > 1.0 + tol:
            warnings.warn(
                "theta weights satisfy the quadratic-sum rule but their plain sum "
                f"is {np.sum(theta):.6g} > 1; they would be rejected by the "
                "linear-sum (LTI) design path",
                DesignWarning,
                stacklevel=2,
            )
    else:
        raise ValueError(f"unknown weight rule {rule!r}")
    return theta


def dwell_times(thresholds, lip, level, bounds=None):
    """Minimum dwell times for the given thresholds at a design level.

    For sensor i the sampling-error-to-state ratio obeys the comparison
    ODE ``phi' = a0 + a1 phi + a2 phi^2`` with

        a0 = state_gains[i] + error_gains[i] * W_i
        a1 = state_gain + error_gains[i] + error_gain * W_i
        a2 = error_gain

    where ``W_i`` aggregates the other sensors' thresholds. The dwell time
    is the time this ratio needs to climb from 0 to ``thresholds[i]``.

    Parameters
    ----------
    thresholds : array_like
        Positive per-sensor thresholds w_i.
    lip : LipschitzData
        Growth constants, evaluated at ``level``.
    level : float
        Certificate level c the design is valid on.
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
    if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
        raise DesignError("thresholds must be finite and positive")
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
    L = float(lip.state_gain(level))
    D = float(lip.error_gain(level))
    Li = np.asarray(lip.state_gains(level), dtype=float)
    Di = np.asarray(lip.error_gains(level), dtype=float)
    if Li.shape != w.shape or Di.shape != w.shape:
        raise DesignError("per-sensor Lipschitz arrays must match thresholds in shape")
    if L < 0.0 or D < 0.0 or np.any(Li < 0.0) or np.any(Di < 0.0):
        raise DesignError("Lipschitz constants must be non-negative")
    total = float(np.sum(w**2))
    others = np.sqrt(np.maximum(total - w**2, 0.0))
    T = np.empty_like(w)
    for i in range(w.size):
        coeffs = RiccatiCoefficients(
            Li[i] + Di[i] * others[i],
            L + Di[i] + D * others[i],
            D,
        )
        T[i] = crossing_time(w[i], coeffs)
    return T


def design_nonlinear(cert, lip, level):
    """Trigger design from a certificate: thresholds at their admissible caps.

    Uses ``w_i = threshold_bounds(level)[i]`` (the largest admissible
    choice) and assembles dwell times from the Lipschitz data.
    """
    level = float(level)
    if not level > 0.0:
        raise DesignError(f"design level must be positive, got {level}")
    w = np.asarray(cert.threshold_bounds(level), dtype=float)
    if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
        raise DesignError("certificate produced non-positive threshold bounds")
    T = dwell_times(w, lip, level, bounds=w)
    return TriggerConfig(thresholds=w, dwells=T)


def design_lti(A, B, K, Q, theta, sigma):
    """Trigger design for the LTI closed loop ``x' = (A + BK) x`` under
    zero-order-hold control ``u = K x_s``.

    Solves ``P (A+BK) + (A+BK)^T P = -Q`` and splits the decay margin
    ``sigma`` across sensors by the weights ``theta``:

        w_i = sigma * theta_i * Q_min / |column_i(2 P B K)|

    Dwell times come from the comparison ODE with coefficients built from
    row norms of A+BK and BK, the matrix norms of both, and the aggregate
    thresholds of the other sensors.

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
    theta = validate_weights(theta, rule="linear-sum")
    if theta.size != n:
        raise DesignError(f"theta must supply one weight per sensor ({n}), got {theta.size}")
    A_cl = A + B @ K
    P = solve_lyapunov(A_cl, Q)
    q_min = spectral_summary(Q).min_eigenvalue
    if q_min <= 0.0:
        raise DesignError("Q must be positive definite")
    G = 2.0 * P @ B @ K
    column_norms = np.linalg.norm(G, axis=0)
    with np.errstate(divide="ignore"):
        w = np.where(column_norms > 0.0, sigma * theta * q_min / column_norms, np.inf)
    finite_sq = np.where(np.isfinite(w), w**2, 0.0)
    others = np.sqrt(np.maximum(np.sum(finite_sq) - finite_sq, 0.0))
    BK = B @ K
    norm_A_cl = spectral_norm(A_cl)
    norm_BK = spectral_norm(BK)
    row_A_cl = np.linalg.norm(A_cl, axis=1)
    row_BK = np.linalg.norm(BK, axis=1)
    T = np.empty(n)
    for i in range(n):
        if not np.isfinite(w[i]):
            T[i] = np.inf
            continue
        coeffs = RiccatiCoefficients(
            row_A_cl[i] + row_BK[i] * others[i],
            norm_A_cl + row_BK[i] + norm_BK * others[i],
            norm_BK,
        )
        T[i] = crossing_time(w[i], coeffs)
    config = TriggerConfig(thresholds=w, dwells=T)
    return DesignResult(config=config, P=P, q_min=q_min, sigma=sigma, theta=theta)


def cubic_threshold_bounds(level, mu, mu1, k1, k2, P, B, q_min, sigma, theta1, theta2):
    """Admissible threshold caps for the two-sensor cubic oscillator.

    Sensor 1 feeds a cubic error term whose gain over the operating region
    is the polynomial ``mu^2 + 3 mu1 mu + peak`` with
    ``peak = max(|k1|, |3 mu1^2 - k1|)``, the largest magnitude of
    ``3 x1^2 - k1`` over ``|x1| <= mu1``. Sensor 2 enters linearly with
    gain ``|k2|``, so its cap does not depend on the level.

    Parameters
    ----------
    level : float
        Certificate level c (>= 0).
    mu, mu1 : float
        State-norm radius of the sublevel set and the first-component
        radius used by the cubic gain bound.
    k1, k2 : float
        Linear controller gains on the two state components.
    P : ndarray
        Certificate matrix of the quadratic form.
    B : ndarray
        Input column of the plant.
    q_min : float
        Smallest eigenvalue of the decay weight.
    sigma : float
        Decay margin split across sensors, in (0, 1).
    theta1, theta2 : float
        Per-sensor shares of the margin.

    Returns
    -------
    ndarray
        Array ``[cap_1, cap_2]``.
    """
    level = float(level)
    if level < 0.0:
        raise DesignError(f"level must be non-negative, got {level}")
    gain_column = spectral_norm(2.0 * np.asarray(P) @ np.asarray(B).reshape(-1, 1))
    poly = mu * mu + 3.0 * mu1 * mu + peak_cubic_gain(mu1, k1)
    cap1 = sigma * theta1 * q_min / (gain_column * poly)
    cap2 = sigma * theta2 * q_min / (gain_column * abs(k2))
    return np.array([cap1, cap2])


def validate_certificate(cert, level, rng=None, samples=200):
    """Spot-check certificate invariants at a level by random sampling.

    Checks that each error gain vanishes at zero, increases strictly on a
    sampled grid, and stays below ``r / threshold_bounds(level)[i]`` on
    the admissible error range; and that the envelope inequality
    ``norm_lower(|x|) <= value(x) <= norm_upper(|x|)`` holds on sampled
    states of the sublevel set.

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
    # Envelope inequality on sampled states of the sublevel set.
    dim = cert.quadratic.shape[0] if cert.quadratic is not None else 2
    for _ in range(samples):
        x = rng.standard_normal(dim)
        x *= rng.uniform(0.0, radius) / max(np.linalg.norm(x), 1e-300)
        v = float(cert.value(x))
        r = float(np.linalg.norm(x))
        if not (cert.norm_lower(r) <= v * (1.0 + 1e-9) + 1e-12
                and v <= cert.norm_upper(r) * (1.0 + 1e-9) + 1e-12):
            raise DesignError("certificate envelope inequality fails on a sample")
