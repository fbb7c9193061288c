"""Bundled benchmark systems with certificates and Lipschitz data.

Two fully parameterized case studies ship with the toolkit:

* ``batch_reactor``: a classic linearized chemical-reactor benchmark,
  four states, two inputs, each state measured by its own sensor.
* ``cubic_oscillator``: a second-order system with a cubic nonlinearity
  cancelled through sampled feedback, two sensors, with a closed-form
  quadratic certificate and level-dependent Lipschitz data.

Custom LTI scenarios can be loaded from a JSON document via ``load_lti``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .design import (
    DesignResult,
    LipschitzData,
    LyapunovCertificate,
    cubic_threshold_bounds,
    design_lti,
    design_nonlinear,
    peak_cubic_gain,
)
from .errors import DesignError
from .linalg import is_hurwitz, spectral_summary

__all__ = [
    "SystemModel",
    "Scenario",
    "batch_reactor",
    "cubic_oscillator",
    "lipschitz_bounds_cubic",
    "cubic_error_injection",
    "load_lti",
    "design_scenario",
    "scenario_by_name",
    "SCENARIO_NAMES",
]


@dataclass(frozen=True)
class SystemModel:
    """Plant dynamics and controller under zero-order-hold sampling.

    ``f(x, u)`` is the state derivative and ``controller(x_s)`` maps the
    sampled state to the input. For linear plants the defining matrices
    are kept alongside the callbacks; they reproduce ``f`` and
    ``controller`` exactly.
    """

    state_dim: int
    input_dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    controller: Callable[[np.ndarray], np.ndarray]
    A: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    K: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Scenario:
    """A system plus everything needed to design and simulate its triggers."""

    name: str
    model: SystemModel
    Q: np.ndarray
    theta: np.ndarray
    sigma: float
    x0: np.ndarray
    xs0: np.ndarray
    horizon: float
    step: float
    certificate: Optional[LyapunovCertificate] = None
    lipschitz: Optional[LipschitzData] = None
    level: Optional[float] = None
    feedback_step: Optional[float] = None


# Linearized batch-reactor benchmark (four states, two inputs) with a
# stabilizing static feedback; each state component is its own sensor.
BATCH_A = np.array([
    [1.38, -0.20, 6.71, -5.67],
    [-0.58, -4.29, 0.0, 0.67],
    [1.06, 4.27, -6.65, 5.89],
    [0.04, 4.27, 1.34, -2.10],
])
BATCH_B = np.array([
    [0.0, 0.0],
    [5.67, 0.0],
    [1.13, -3.14],
    [1.13, 0.0],
])
BATCH_K = np.array([
    [0.1006, -0.2469, -0.0952, -0.2447],
    [1.4099, -0.1966, 0.0139, 0.0823],
])


def _lti_model(A, B, K):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    K = np.asarray(K, dtype=float)

    def f(x, u):
        return A @ x + B @ u

    def controller(x_s):
        return K @ x_s

    return SystemModel(
        state_dim=A.shape[0],
        input_dim=B.shape[1],
        f=f,
        controller=controller,
        A=A,
        B=B,
        K=K,
    )


def batch_reactor():
    """The batch-reactor scenario: plant, controller, and design inputs."""
    model = _lti_model(BATCH_A, BATCH_B, BATCH_K)
    if not is_hurwitz(model.A + model.B @ model.K):
        raise DesignError("batch reactor closed loop must be Hurwitz")
    return Scenario(
        name="batch_reactor",
        model=model,
        Q=np.eye(4),
        theta=np.array([0.6, 0.17, 0.08, 0.15]),
        sigma=0.95,
        x0=np.array([4.0, 7.0, -4.0, 3.0]),
        xs0=np.array([4.1, 7.2, -4.5, 2.0]),
        horizon=10.0,
        step=1e-4,
    )


# Cubic oscillator: x1' = x2, x2' = -x2 + x1^3 + u with sampled control
# u = k1 x1s + k2 x2s - x1s^3. The certificate matrix below makes the
# nominal closed loop contract at unit rate (P Acl + Acl^T P = -I).
CUBIC_P = np.array([[1.15, 0.1], [0.1, 0.15]])
CUBIC_B = np.array([[0.0], [1.0]])
CUBIC_K1 = -5.0
CUBIC_K2 = -3.0
CUBIC_SIGMA = 0.9
CUBIC_THETA = np.array([0.9, 0.1])


def _cubic_model():
    def f(x, u):
        return np.array([x[1], -x[1] + x[0] ** 3 + float(u[0])])

    def controller(x_s):
        return np.array([CUBIC_K1 * x_s[0] + CUBIC_K2 * x_s[1] - x_s[0] ** 3])

    return SystemModel(state_dim=2, input_dim=1, f=f, controller=controller)


def cubic_error_injection(x, x_e):
    """Additive error terms of the cubic oscillator's closed loop.

    With sampling error ``x_e`` the closed loop satisfies
    ``f(x, controller(x + x_e)) = A_cl x + [0, h1 + h2]`` where ``h1``
    collects the cubic error response of sensor 1 and ``h2 = k2 * x_e[1]``.
    Returns the vector ``[0, h1 + h2]``.
    """
    x = np.asarray(x, dtype=float)
    x_e = np.asarray(x_e, dtype=float)
    e1 = x_e[0]
    h1 = -(e1**3 + 3.0 * x[0] * e1**2 + (3.0 * x[0] ** 2 - CUBIC_K1) * e1)
    h2 = CUBIC_K2 * x_e[1]
    return np.array([0.0, h1 + h2])


def _cubic_nominal_matrix():
    """Closed-loop matrix of the cubic oscillator's nominal (error-free) loop."""
    return np.array([[0.0, 1.0], [CUBIC_K1, -1.0 + CUBIC_K2]])


def lipschitz_bounds_cubic(level):
    """Level-dependent growth constants for the cubic oscillator.

    The first component of the dynamics is linear in the state alone; the
    second collects the nominal row plus the cubic and linear error
    responses. Per-component constants are row norms of the nominal
    closed-loop matrix and the error-response gains over the operating
    region; whole-vector constants aggregate the component bounds in the
    Euclidean sense.
    """
    level = float(level)
    if level < 0.0:
        raise DesignError(f"level must be non-negative, got {level}")
    A_cl = _cubic_nominal_matrix()
    row_norms = np.linalg.norm(A_cl, axis=1)
    p_min = spectral_summary(CUBIC_P).min_eigenvalue
    whole_state = float(np.hypot(row_norms[0], row_norms[1]))

    def error_response(c):
        mu = np.sqrt(c / p_min)
        mu1 = mu
        poly = mu * mu + 3.0 * mu1 * mu + peak_cubic_gain(mu1, CUBIC_K1)
        return float(np.hypot(poly, CUBIC_K2))

    return LipschitzData(
        state_gain=lambda c: whole_state,
        error_gain=error_response,
        state_gains=lambda c: row_norms.copy(),
        error_gains=lambda c: np.array([0.0, error_response(c)]),
    )


def cubic_oscillator(level=10.0):
    """The cubic-oscillator scenario with certificate and Lipschitz data."""
    level = float(level)
    if level <= 0.0:
        raise DesignError(f"level must be positive, got {level}")
    p = spectral_summary(CUBIC_P)
    p_min, p_max = p.min_eigenvalue, p.max_eigenvalue
    q_min = 1.0
    gain_column = float(np.linalg.norm(2.0 * CUBIC_P @ CUBIC_B))

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(x @ CUBIC_P @ x)

    def radius(c):
        return float(np.sqrt(c / p_min))

    def bounds(c):
        mu = radius(c)
        return cubic_threshold_bounds(
            c, mu, mu, CUBIC_K1, CUBIC_K2, CUBIC_P, CUBIC_B,
            q_min, CUBIC_SIGMA, CUBIC_THETA[0], CUBIC_THETA[1])

    def gain_sensor1(r):
        mu1 = radius(level)
        poly = r * r + 3.0 * mu1 * r + peak_cubic_gain(mu1, CUBIC_K1)
        return gain_column * poly * r / (CUBIC_SIGMA * CUBIC_THETA[0] * q_min)

    def gain_sensor2(r):
        return gain_column * abs(CUBIC_K2) * r / (CUBIC_SIGMA * CUBIC_THETA[1] * q_min)

    certificate = LyapunovCertificate(
        value=value,
        norm_lower=lambda r: p_min * r * r,
        norm_upper=lambda r: p_max * r * r,
        decay=lambda r: q_min * r * r,
        error_gains=(gain_sensor1, gain_sensor2),
        threshold_bounds=bounds,
        level_radius=radius,
        quadratic=CUBIC_P.copy(),
    )
    return Scenario(
        name="cubic_oscillator",
        model=_cubic_model(),
        Q=np.eye(2),
        theta=CUBIC_THETA.copy(),
        sigma=CUBIC_SIGMA,
        x0=np.array([2.8, -2.6]),
        xs0=np.array([2.9, -2.7]),
        horizon=10.0,
        step=1e-4,
        certificate=certificate,
        lipschitz=lipschitz_bounds_cubic(level),
        level=level,
        feedback_step=6e-4,
    )


_LTI_KEYS = ("A", "B", "K", "Q", "theta", "sigma", "x0", "xs0", "horizon")


def load_lti(source):
    """Build a custom LTI scenario from a JSON document or mapping.

    The document must supply ``A, B, K, Q, theta, sigma, x0, xs0,
    horizon``; ``step`` and ``name`` are optional.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "read"):
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    else:
        data = dict(source)
    missing = [k for k in _LTI_KEYS if k not in data]
    if missing:
        raise ValueError(f"LTI scenario document missing keys: {', '.join(missing)}")
    model = _lti_model(data["A"], data["B"], data["K"])
    x0 = np.asarray(data["x0"], dtype=float)
    xs0 = np.asarray(data["xs0"], dtype=float)
    if x0.shape != (model.state_dim,) or xs0.shape != (model.state_dim,):
        raise ValueError("x0 and xs0 must be state-dimension vectors")
    horizon = float(data["horizon"])
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    step = float(data.get("step", 1e-4))
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return Scenario(
        name=str(data.get("name", "custom_lti")),
        model=model,
        Q=np.asarray(data["Q"], dtype=float),
        theta=np.asarray(data["theta"], dtype=float),
        sigma=float(data["sigma"]),
        x0=x0,
        xs0=xs0,
        horizon=horizon,
        step=step,
    )


def design_scenario(scenario, level=None):
    """Trigger design for a scenario, choosing the path its data supports."""
    if scenario.certificate is None:
        return design_lti(
            scenario.model.A, scenario.model.B, scenario.model.K,
            scenario.Q, scenario.theta, scenario.sigma)
    if level is None:
        level = scenario.level
    config = design_nonlinear(scenario.certificate, scenario.lipschitz, level)
    return DesignResult(
        config=config,
        P=scenario.certificate.quadratic,
        q_min=spectral_summary(scenario.Q).min_eigenvalue,
        sigma=scenario.sigma,
        theta=scenario.theta,
        level=float(level),
    )


SCENARIO_NAMES = ("batch_reactor", "cubic_oscillator")


def scenario_by_name(name, level=None):
    """Look up a bundled scenario by its CLI name."""
    if name == "batch_reactor":
        return batch_reactor()
    if name == "cubic_oscillator":
        return cubic_oscillator() if level is None else cubic_oscillator(level)
    raise ValueError(f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}")
