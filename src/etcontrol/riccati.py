"""First-crossing times of the scalar comparison ODE.

The inter-transmission analysis reduces to the scalar Riccati initial
value problem ``phi' = a0 + a1 phi + a2 phi^2`` with ``phi(0) = 0`` and
non-negative coefficients. The minimum dwell time of a sensor is the time
this solution needs to climb to its error-to-state threshold. Separation
of variables gives the crossing time as ``integral 0..w of
dphi / (a0 + a1 phi + a2 phi^2)``, evaluated here by one closed form,
written so that no branch subtracts nearly equal quantities. Its one
body runs in floats when the level and every nonzero coefficient lie in
[2^-120, 2^120], where no product of the closed form leaves the normal
float range, and on 60-digit decimals otherwise. A forward integrator,
``crossing_time_numeric``, serves as an independent oracle.
"""

from __future__ import annotations

import decimal
import math
import warnings
from dataclasses import dataclass

__all__ = ["RiccatiCoefficients", "crossing_time", "crossing_time_numeric"]

# With the level and every nonzero coefficient in this range, the rate
# terms a0 / w, a1 and a2 w span at most 2^480 and every product of the
# closed form stays in the normal float range.
_FLOAT_RANGE = (2.0 ** -120, 2.0 ** 120)
_WIDE = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
# Below this, the wide log1p and atan keep only their leading series terms.
_TINY = decimal.Decimal("1e-30")

# Integration time past which the numeric oracle abandons its search.
_HORIZON = 1e7


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Non-negative coefficients of ``phi' = a0 + a1 phi + a2 phi^2``."""

    a0: float
    a1: float
    a2: float

    def __post_init__(self):
        for name in ("a0", "a1", "a2"):
            object.__setattr__(self, name, _non_negative(name, getattr(self, name)))


def _non_negative(name, value):
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


def crossing_time(level, coeffs):
    """Time for the comparison ODE solution to reach ``level`` from zero.

    Parameters
    ----------
    level : float
        Target value, finite and non-negative.
    coeffs : RiccatiCoefficients
        ODE coefficients.

    Returns
    -------
    float
        The unique t >= 0 with phi(t) = level, rounded to a float; 0 when
        level is 0, and ``math.inf`` when the flow never leaves zero
        (a0 = 0) or the exact time exceeds the largest float.
    """
    w = _non_negative("crossing level", level)
    a0, a1, a2 = coeffs.a0, coeffs.a1, coeffs.a2
    if w == 0.0:
        return 0.0
    if a0 == 0.0:
        return math.inf
    low, high = _FLOAT_RANGE
    if all(low <= v <= high for v in (w, a0, a1, a2) if v > 0.0):
        return _closed_form(w, a0, a1, a2)
    with decimal.localcontext(_WIDE):
        wide = (decimal.Decimal(v) for v in (w, a0, a1, a2))
        return float(_closed_form(*wide, sqrt=decimal.Decimal.sqrt,
                                  log1p=_log1p_wide, atan2=_atan2_wide))


def _closed_form(w, a0, a1, a2, sqrt=math.sqrt, log1p=math.log1p, atan2=math.atan2):
    """The crossing-time integral in closed form, for a0 > 0 and w > 0.

    One body serves two arithmetics: floats with the ``math`` defaults,
    and ``decimal.Decimal`` inputs with ``Decimal.sqrt`` and the wide
    helpers below, for levels or coefficients outside ``_FLOAT_RANGE``.
    """
    # With D = a1^2 - 4 a0 a2, d = 2 a0 + a1 w and s = sqrt|D|, the
    # integral is log((d + s w) / (d - s w)) / s for D > 0 and
    # 2 atan(s w / d) / s for D < 0; both tend to 2 w / d as D -> 0.
    # The denominator g = d - s w cancels when a0 a2 << a1^2 (s ~ a1 and
    # d ~ a1 w), so it is formed as (d^2 - D w^2) / (d + s w), whose
    # numerator expands to the positive sum 4 a0 (a0 + a1 w + a2 w^2).
    disc = a1 * a1 - 4 * a0 * a2
    d = 2 * a0 + a1 * w
    s = sqrt(abs(disc))
    if disc > 0:
        r = s * w
        g = 4 * a0 * (a0 + a1 * w + a2 * w * w) / (d + r)
        return log1p(2 * r / g) / s
    if disc < 0:
        return 2 * atan2(s * w, d) / s
    return 2 * w / d


def _log1p_wide(x):
    """Decimal log1p: x - x^2/2 + O(x^3) is exact to 60 digits below 1e-30."""
    return x * (1 - x / 2) if x < _TINY else (1 + x).ln()


def _atan2_wide(y, x):
    """Decimal atan(y / x) for y, x > 0: t - t^3/3 + ... below 1e-30,
    pi/2 - 1/t + ... above 1e30, and an accurate float atan in between."""
    t = min(y / x, 1 / _TINY)
    return t if t < _TINY else decimal.Decimal(math.atan(float(t)))


def _rk4_trial(phi, h, a0, a1, a2):
    """One RK4 step of the comparison ODE; monotone non-decreasing in phi."""
    k1 = a0 + phi * (a1 + a2 * phi)
    p2 = phi + 0.5 * h * k1
    k2 = a0 + p2 * (a1 + a2 * p2)
    p3 = phi + 0.5 * h * k2
    k3 = a0 + p3 * (a1 + a2 * p3)
    p4 = phi + h * k3
    k4 = a0 + p4 * (a1 + a2 * p4)
    return phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_to_crossing(w, a0, a1, a2, h):
    """Fixed-step forward integration with step halving at the crossing.

    Returns the crossing time, or None past ``_HORIZON``.
    """
    t, phi = 0.0, 0.0
    while True:
        trial = _rk4_trial(phi, h, a0, a1, a2)
        if trial < w:
            t += h
            phi = trial
            if t > _HORIZON:
                return None
            continue
        if h <= 1e-12 * (t + h):
            return t + h
        h *= 0.5


def _unreached(w):
    warnings.warn(f"comparison ODE did not reach level {w} within horizon {_HORIZON}",
                  RuntimeWarning, stacklevel=3)
    return math.inf


def crossing_time_numeric(level, coeffs):
    """Crossing time by forward RK4 integration; oracle for crossing_time.

    Integrates ``phi' = a0 + a1 phi + a2 phi^2`` from zero with a fixed
    step, halving the step at the crossing until the bracket collapses.
    The whole integration is repeated at half the step until two
    consecutive results agree to 1e-8 relative. Past an integration time
    of 1e7 the search is abandoned and ``math.inf`` returned with a warning.

    Parameters
    ----------
    level : float
        Target value, finite and non-negative.
    coeffs : RiccatiCoefficients
        ODE coefficients.

    Returns
    -------
    float
        Crossing time, or ``math.inf`` when unreachable.
    """
    w = _non_negative("crossing level", level)
    a0, a1, a2 = coeffs.a0, coeffs.a1, coeffs.a2
    if w == 0.0:
        return 0.0
    if a0 == 0.0:
        # phi stays identically zero; no finite horizon helps.
        return math.inf
    h = 0.25 * w / (a0 + w * (a1 + a2 * w))
    # Coarse pass: exponential step growth brackets the crossing cheaply.
    t, phi = 0.0, 0.0
    hc = h
    while True:
        trial = _rk4_trial(phi, hc, a0, a1, a2)
        if trial >= w:
            coarse = t + hc
            break
        t += hc
        phi = trial
        hc *= 2.0
        if t > _HORIZON:
            return _unreached(w)
    # Fine passes at h and h/2 until mutually converged.
    h = min(h, coarse / 400.0)
    previous = _integrate_to_crossing(w, a0, a1, a2, h)
    for _ in range(8):
        h *= 0.5
        current = _integrate_to_crossing(w, a0, a1, a2, h)
        if previous is not None and current is not None:
            if abs(previous - current) <= 1e-8 * current:
                return current
        previous = current
    if current is None:
        return _unreached(w)
    return current
