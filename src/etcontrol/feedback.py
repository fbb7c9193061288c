"""Containment-based controller feedback for on-line trigger updates.

Between transmissions every sensor keeps its sampling error below its
threshold, so the true state is confined to a ball computed from the
current samples alone. Maximizing the certificate over that ball yields
a guaranteed bound on the certificate level; once the bound has decayed
by a prescribed factor (and a minimum time has passed since the last
update), thresholds and dwell times are redesigned at the smaller level,
relaxing the triggers as the state approaches the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import TriggerConfig, design_nonlinear
from .errors import DesignError
from .linalg import sym_eig

__all__ = [
    "ContainmentRecord",
    "ParameterUpdate",
    "QuadraticBound",
    "UpdateSchedule",
    "DEFAULT_SCHEDULE",
    "containment_sphere",
    "max_on_sphere_grid",
    "update_due",
    "apply_update",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ContainmentRecord:
    """Per-boundary containment data logged by the feedback simulation."""

    time: float
    center: np.ndarray
    radius: float
    value: float
    level: float


@dataclass(frozen=True)
class ParameterUpdate:
    """An applied on-line redesign: the new level and trigger parameters."""

    time: float
    level: float
    config: TriggerConfig


@dataclass(frozen=True)
class UpdateSchedule:
    """Timing and decay rule for containment-based parameter updates.

    An update is admitted when at least ``dwell`` time has passed since
    the previous update and the containment bound has fallen to ``decay``
    times the level the triggers were last designed for.
    """

    dwell: float
    decay: float

    def __post_init__(self):
        dwell = float(self.dwell)
        decay = float(self.decay)
        if not (np.isfinite(dwell) and dwell > 0.0):
            raise ValueError(f"update dwell must be positive and finite, got {self.dwell}")
        if not 0.0 < decay < 1.0:
            raise ValueError(f"update decay must lie in (0, 1), got {self.decay}")
        object.__setattr__(self, "dwell", dwell)
        object.__setattr__(self, "decay", decay)


# Update schedule used when a feedback run names none.
DEFAULT_SCHEDULE = UpdateSchedule(dwell=0.5, decay=0.5)


def containment_sphere(x_s, threshold_norm):
    """Ball guaranteed to contain the true state, from current samples only.

    While no sensor is transmitting, each sampling error sits below its
    threshold, so the aggregate error satisfies ``|x_s - x| <= W |x|``
    with ``W`` the aggregate threshold norm. For ``W < 1`` that set is
    the closed ball

        |x - x_s / (1 - W^2)| <= W |x_s| / (1 - W^2).

    Parameters
    ----------
    x_s : array_like
        Current sensor samples.
    threshold_norm : float
        Aggregate threshold W, with 0 <= W < 1.

    Returns
    -------
    center : ndarray
    radius : float
    """
    x_s = np.asarray(x_s, dtype=float)
    W = float(threshold_norm)
    if W < 0.0 or not np.isfinite(W):
        raise DesignError(f"aggregate threshold must be finite and non-negative, got {W}")
    if W >= 1.0:
        raise DesignError(
            f"aggregate threshold {W:.6g} is not below 1; the sample-based "
            "containment ball is unbounded")
    denom = 1.0 - W * W
    center = x_s / denom
    radius = W * float(np.linalg.norm(x_s)) / denom
    return center, radius


class QuadraticBound:
    """Repeated exact sphere maximization of one fixed quadratic form.

    Caches the eigendecomposition of P so that each ball query costs only
    a scalar secular solve; the feedback simulation issues one query per
    step boundary against the same certificate matrix.
    """

    def __init__(self, P):
        self.P = np.asarray(P, dtype=float)
        vals, vecs = sym_eig(self.P, vectors=True)
        self._vals = vals
        self._vecs = vecs
        self._lam_max = float(vals[-1])
        scale = float(np.max(np.abs(vals)))
        self._top = vals >= self._lam_max - 1e-12 * max(scale, 1e-300)

    def __call__(self, center, radius):
        """Maximum of ``x^T P x`` over the ball ``|x - center| <= radius``.

        Stationarity of the Lagrangian gives ``(lam I - P) y = P center``
        for the offset ``y = x - center``, with a multiplier ``lam`` at
        least the largest eigenvalue of P and ``|y| = radius``. In the
        eigenbasis of P the multiplier solves a scalar secular equation,
        located here by bisection. When the forcing term has no component
        in the top eigenspace and the pinned components stay inside the
        ball (the hard case), the solution instead gains a free component
        along a top eigenvector that spends the remaining radius.
        """
        c = np.asarray(center, dtype=float)
        radius = float(radius)
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        base_value = float(c @ self.P @ c)
        if radius == 0.0:
            return base_value
        vals = self._vals
        lam_max = self._lam_max
        top = self._top
        rest = ~top
        ghat = self._vecs.T @ (self.P @ c)
        g_top = float(np.linalg.norm(ghat[top]))
        g_norm = float(np.linalg.norm(ghat))
        pinned_sq = float(np.sum((ghat[rest] / (lam_max - vals[rest])) ** 2))
        if g_top <= 1e-13 * max(g_norm, 1e-300) and pinned_sq <= radius * radius:
            cross = float(np.sum(ghat[rest] ** 2 / (lam_max - vals[rest])))
            return base_value + cross + lam_max * radius * radius
        # Regular case: bisect sum g_i^2 / (lam - l_i)^2 = radius^2 on
        # (lam_max, lam_max + |g| / radius]; the left side decreases in lam.
        gi2 = [float(g) ** 2 for g in ghat]
        eigs = [float(v) for v in vals]
        target = radius * radius
        lo = lam_max
        hi = lam_max + g_norm / radius
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            phi = 0.0
            for g2, lam in zip(gi2, eigs):
                gap = mid - lam
                phi += g2 / (gap * gap)
            if phi > target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(abs(hi), 1e-300):
                break
        cross = sum(g2 / (hi - lam) for g2, lam in zip(gi2, eigs))
        return base_value + cross + hi * radius * radius


def max_on_sphere_grid(value_fn, center, radius, samples=4096):
    """Grid-plus-refinement maximum of a scalar field on a planar circle.

    Independent oracle for the exact quadratic maximization of
    ``QuadraticBound``, used by the tests and the verify battery: scans
    ``samples`` equally spaced angles, then sharpens the best bracket by
    golden-section search.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise ValueError("grid maximization supports two-dimensional states only")
    radius = float(radius)
    if radius < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if radius == 0.0:
        return float(value_fn(c))
    if samples < 8:
        raise ValueError(f"need at least 8 angular samples, got {samples}")

    def at(theta):
        point = c + radius * np.array([np.cos(theta), np.sin(theta)])
        return float(value_fn(point))

    step = 2.0 * np.pi / samples
    coarse = np.array([at(k * step) for k in range(samples)])
    best = int(np.argmax(coarse))
    a = (best - 1) * step
    b = (best + 1) * step
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = at(x1), at(x2)
    for _ in range(90):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = at(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = at(x1)
    return float(max(coarse[best], f1, f2))


def update_due(schedule, time, last_update, value, level):
    """Whether the containment bound admits a parameter update now."""
    return time >= last_update + schedule.dwell and value <= schedule.decay * level


def apply_update(cert, lip, value, time, current_level):
    """Redesign thresholds and dwell times at a shrunken level.

    Parameters
    ----------
    cert : LyapunovCertificate
        Certificate supplying the admissible threshold caps.
    lip : callable
        Level -> ``LipschitzData`` for the dwell-time assembly.
    value : float
        The new level: the current containment bound.
    time : float
        Update instant, recorded on the result.
    current_level : float
        Level of the design being replaced; the new level must not
        exceed it.

    Returns
    -------
    ParameterUpdate
    """
    value = float(value)
    if value > float(current_level):
        raise DesignError(
            f"containment bound {value:.6g} exceeds the current design level "
            f"{float(current_level):.6g}; updates may only shrink the level")
    config = design_nonlinear(cert, lip, value)
    return ParameterUpdate(time=float(time), level=value, config=config)
