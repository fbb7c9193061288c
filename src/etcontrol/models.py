"""Bundled benchmark systems with certificates and Lipschitz data.

Two fully parameterized case studies ship with the toolkit:

* ``batch_reactor``: a classic linearized chemical-reactor benchmark,
  four states, two inputs, each state measured by its own sensor.
* ``cubic_oscillator``: a second-order system with a cubic nonlinearity
  cancelled through sampled feedback, two sensors, with a closed-form
  quadratic certificate. Its threshold caps and Lipschitz data are bounds
  on the operating region of a level c and are defined here, around one
  cubic error polynomial.

Custom LTI scenarios load from a mapping or a JSON file via ``load_lti``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .design import (
    DesignResult,
    LipschitzData,
    LyapunovCertificate,
    design_lti,
    design_nonlinear,
    lti_matrices,
)
from .errors import DesignError
from .linalg import spectral_norm, sym_eig

__all__ = [
    "SystemModel",
    "Scenario",
    "batch_reactor",
    "cubic_oscillator",
    "peak_cubic_gain",
    "lipschitz_bounds_cubic",
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
    """A system plus everything needed to design and simulate its triggers.

    Certificate scenarios also carry ``lipschitz``, which maps a level c
    to the ``LipschitzData`` on the sublevel set of c, and the ``level``
    the initial design is made at.

    Construction converts the fields to floats and raises a ``DesignError``
    naming a malformed one: ``x0`` and ``xs0`` must be finite vectors of
    the state dimension, ``horizon``, ``step``, ``level`` and
    ``feedback_step`` positive and finite, and a certificate needs
    ``lipschitz`` and ``level``.
    """

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
    lipschitz: Optional[Callable[[float], LipschitzData]] = None
    level: Optional[float] = None
    feedback_step: Optional[float] = None

    def __post_init__(self):
        if self.certificate is not None and None in (self.lipschitz, self.level):
            field = "lipschitz" if self.lipschitz is None else "level"
            raise DesignError(f"certificate scenario {self.name!r} has no {field}")
        for field in ("sigma", "horizon", "step", "level", "feedback_step"):
            value = getattr(self, field)
            if value is None and field in ("level", "feedback_step"):
                continue
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise DesignError(f"{field} must be a number, got {value!r}") from None
            if field != "sigma" and not 0.0 < value < np.inf:
                raise DesignError(f"{field} must be positive and finite, got {value}")
            object.__setattr__(self, field, value)
        state = (self.model.state_dim,)
        for field, shape in (("Q", None), ("theta", None), ("x0", state), ("xs0", state)):
            try:
                value = np.asarray(getattr(self, field), dtype=float)
            except (TypeError, ValueError):
                raise DesignError(f"{field} must be an array of numbers") from None
            if shape and (value.shape != shape or not np.isfinite(value).all()):
                raise DesignError(f"{field} must be a finite state-dimension vector")
            object.__setattr__(self, field, value)


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
    A, B, K = lti_matrices(A, B, K)

    # ``dot`` reaches the same BLAS product as ``@`` with less call overhead.
    def f(x, u):
        return A.dot(x) + B.dot(u)

    def controller(x_s):
        return K.dot(x_s)

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
    """The batch-reactor scenario, built from its ``load_lti`` document."""
    return load_lti({
        "name": "batch_reactor", "A": BATCH_A, "B": BATCH_B, "K": BATCH_K,
        "Q": np.eye(4), "theta": [0.6, 0.17, 0.08, 0.15], "sigma": 0.95,
        "x0": [4.0, 7.0, -4.0, 3.0], "xs0": [4.1, 7.2, -4.5, 2.0],
        "horizon": 10.0, "step": 1e-4,
    })


# Cubic oscillator: x1' = x2, x2' = -x2 + x1^3 + u with sampled control
# u = k1 x1s + k2 x2s - x1s^3. The certificate matrix below makes the
# nominal closed loop contract at unit rate (P Acl + Acl^T P = -I).
CUBIC_P = np.array([[1.15, 0.1], [0.1, 0.15]])
CUBIC_B = np.array([[0.0], [1.0]])
CUBIC_K1 = -5.0
CUBIC_K2 = -3.0
CUBIC_SIGMA = 0.9
CUBIC_THETA = np.array([0.9, 0.1])
# Smallest eigenvalue of the decay weight Q = I.
CUBIC_Q_MIN = 1.0
# Smallest eigenvalue of the certificate matrix, and the gain |2 P B| of
# the input column in the certificate's rate as an induced 2-norm (its
# Frobenius norm differs in the last bit).
_CUBIC_P_MIN = float(sym_eig(CUBIC_P)[0])
_CUBIC_GAIN_COLUMN = spectral_norm(2.0 * CUBIC_P @ CUBIC_B)
# Closed-loop matrix of the nominal (error-free) loop.
_CUBIC_NOMINAL = np.array([[0.0, 1.0], [CUBIC_K1, -1.0 + CUBIC_K2]])


def _cubic_model():
    # Row indexing makes both callbacks work on one state vector or on an
    # (n, B) array of state columns.
    def f(x, u):
        return np.array([x[1], -x[1] + x[0] ** 3 + u[0]])

    def controller(x_s):
        return np.array([CUBIC_K1 * x_s[0] + CUBIC_K2 * x_s[1] - x_s[0] ** 3])

    return SystemModel(state_dim=2, input_dim=1, f=f, controller=controller)


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


def _cubic_gain(mu1, r):
    """Gain ``r^2 + 3 mu1 r + peak`` of sensor 1's cubic error response.

    For a sampling error of magnitude at most ``r`` on the first state
    component, itself at most ``mu1`` in magnitude, the error term is at
    most this polynomial times ``r``.
    """
    return r * r + 3.0 * mu1 * r + peak_cubic_gain(mu1, CUBIC_K1)


def _cubic_radius(level):
    """State-norm radius of the certificate's sublevel set of ``level``."""
    level = float(level)
    if level < 0.0:
        raise DesignError(f"level must be non-negative, got {level}")
    return float(np.sqrt(level / _CUBIC_P_MIN))


def _cubic_threshold_bounds(level):
    """Admissible threshold caps ``[cap_1, cap_2]`` at a level.

    Sensor 1 feeds the cubic error term, bounded on the sublevel set by
    ``_cubic_gain(mu, mu)`` with ``mu`` the set's radius. Sensor 2 enters
    linearly with gain ``|k2|``, so its cap does not depend on the level.
    """
    mu = _cubic_radius(level)
    cap1 = CUBIC_SIGMA * CUBIC_THETA[0] * CUBIC_Q_MIN / (
        _CUBIC_GAIN_COLUMN * _cubic_gain(mu, mu))
    cap2 = CUBIC_SIGMA * CUBIC_THETA[1] * CUBIC_Q_MIN / (
        _CUBIC_GAIN_COLUMN * abs(CUBIC_K2))
    return np.array([cap1, cap2])


def lipschitz_bounds_cubic(level):
    """Growth constants for the cubic oscillator on the sublevel set of a level.

    The first component of the dynamics is linear in the state alone; the
    second collects the nominal row plus the cubic and linear error
    responses. Per-component constants are row norms of the nominal
    closed-loop matrix and the error-response gains over the operating
    region; whole-vector constants aggregate the component bounds in the
    Euclidean sense.
    """
    mu = _cubic_radius(level)
    row_norms = np.linalg.norm(_CUBIC_NOMINAL, axis=1)
    error_response = float(np.hypot(_cubic_gain(mu, mu), CUBIC_K2))
    return LipschitzData(
        state_gain=float(np.hypot(row_norms[0], row_norms[1])),
        error_gain=error_response,
        state_gains=row_norms,
        error_gains=np.array([0.0, error_response]),
    )


def cubic_oscillator(level=10.0):
    """The cubic-oscillator scenario with certificate and Lipschitz data."""
    certificate = LyapunovCertificate(
        quadratic=CUBIC_P.copy(),
        threshold_bounds=_cubic_threshold_bounds,
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
        lipschitz=lipschitz_bounds_cubic,
        level=level,
        feedback_step=6e-4,
    )


_LTI_KEYS = ("A", "B", "K", "Q", "theta", "sigma", "x0", "xs0", "horizon")


def load_lti(source):
    """Build a custom LTI scenario from a mapping or the path of a JSON file.

    The document must supply ``A, B, K, Q, theta, sigma, x0, xs0,
    horizon``; ``step`` and ``name`` are optional. ``Scenario`` checks
    the values.
    """
    if isinstance(source, Mapping):
        data = dict(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    missing = [k for k in _LTI_KEYS if k not in data]
    if missing:
        raise ValueError(f"LTI scenario document missing keys: {', '.join(missing)}")
    return Scenario(
        name=str(data.get("name", "custom_lti")),
        model=_lti_model(data["A"], data["B"], data["K"]),
        step=data.get("step", 1e-4),
        **{key: data[key] for key in _LTI_KEYS[3:]},
    )


def design_scenario(scenario):
    """Trigger design for a scenario, choosing the path its data supports."""
    if scenario.certificate is None:
        return design_lti(
            scenario.model.A, scenario.model.B, scenario.model.K,
            scenario.Q, scenario.theta, scenario.sigma)
    config = design_nonlinear(scenario.certificate, scenario.lipschitz, scenario.level)
    return DesignResult(
        config=config, certificate=scenario.certificate,
        q_min=float(sym_eig(scenario.Q)[0]), sigma=scenario.sigma,
        theta=scenario.theta, level=scenario.level)


SCENARIO_NAMES = ("batch_reactor", "cubic_oscillator")


def scenario_by_name(name):
    """Look up a bundled scenario, with its default fields, by its CLI name."""
    if name == "batch_reactor":
        return batch_reactor()
    if name == "cubic_oscillator":
        return cubic_oscillator()
    raise ValueError(f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}")
