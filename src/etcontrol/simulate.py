"""Fixed-step closed-loop simulation of event-triggered sampled control.

The plant advances with classical fourth-order Runge-Kutta steps while
each sensor holds its last transmitted value; the control input is
recomputed from the held samples once per step. Trigger conditions are
evaluated at every step boundary, including the initial and final
instants. A firing sensor refreshes its held sample instantaneously, and
the event carries the boundary timestamp; events are not localized
inside integration steps (see the trace metadata).

Four trigger modes are supported:

* ``decentralized``: sensor i transmits when its sampling error reaches
  its threshold times the magnitude of its own state component, with at
  least its dwell time between consecutive transmissions.
* ``centralized``: the error is compared against the threshold times the
  full state norm, and the dwell time is enforced.
* ``centralized-nodwell``: as ``centralized`` but without the dwell
  condition. The dwell times are provably redundant for the centralized
  rule, so this pair of modes exists to check that claim numerically.
* ``feedback``: ``decentralized`` plus containment-based on-line
  parameter updates that re-design thresholds and dwell times as the
  guaranteed certificate level shrinks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError, SimulationError
from .feedback import (
    DEFAULT_SCHEDULE,
    ContainmentRecord,
    QuadraticBound,
    apply_update,
    containment_sphere,
    update_due,
)
from .models import design_scenario

__all__ = [
    "TransmissionEvent",
    "SimulationTrace",
    "rk4_step",
    "transmissions_due",
    "run",
    "summarize",
    "decay_excess",
    "containment_margins",
    "write_trace_csv",
    "write_events_json",
    "write_summary_json",
]

MODES = ("decentralized", "centralized", "centralized-nodwell", "feedback")

# Default probabilities at which the summaries sample each sensor's gaps.
QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)

# Consecutive firing boundaries tolerated before the run is aborted as
# effectively Zeno (transmitting at every opportunity).
_ZENO_LIMIT = 10_000


@dataclass(frozen=True)
class TransmissionEvent:
    """One sensor transmission at a step boundary.

    ``gap`` is the time since the same sensor's previous transmission;
    for a sensor's first transmission it is measured from the virtual
    baseline one dwell time before the run starts.
    """

    sensor: int
    time: float
    value: float
    gap: float


@dataclass
class SimulationTrace:
    """Boundary-sampled closed-loop trajectory and its event record.

    Attributes
    ----------
    times : ndarray
        Step-boundary instants, shape (n_boundaries,).
    states : ndarray
        True state at each boundary, shape (n_boundaries, dim).
    samples : ndarray
        Held sensor samples in effect after each boundary's
        transmissions, shape (n_boundaries, dim).
    lyapunov : ndarray
        Certificate value ``x^T P x`` at each boundary.
    events : list of TransmissionEvent
        Transmissions in processing order (time, then sensor index).
    updates : list of ParameterUpdate
        Applied on-line redesigns (feedback mode only).
    containment : list of ContainmentRecord
        Per-boundary containment data (feedback mode only).
    meta : dict
        Run parameters and conventions.
    """

    times: np.ndarray
    states: np.ndarray
    samples: np.ndarray
    lyapunov: np.ndarray
    events: list = field(default_factory=list)
    updates: list = field(default_factory=list)
    containment: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def rk4_step(f, state, control, step):
    """One classical fourth-order Runge-Kutta step of ``x' = f(x, u)``.

    The control is held constant across the four stages, matching
    zero-order-hold actuation.
    """
    k1 = f(state, control)
    k2 = f(state + 0.5 * step * k1, control)
    k3 = f(state + 0.5 * step * k2, control)
    k4 = f(state + step * k3, control)
    return state + (step / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def transmissions_due(time, state, samples, config, last_transmit, mode="decentralized"):
    """Sensors required to transmit at a step boundary.

    A sensor transmits when its sampling error is nonzero, has reached
    its threshold times the reference magnitude (the sensor's own state
    component in decentralized operation, the full state norm in
    centralized operation), and its dwell time has passed since its
    previous transmission (unless the mode disables the dwell condition).
    Sensors with an infinite threshold never transmit.

    Returns
    -------
    list of int
        Indices of firing sensors, ascending.
    """
    w = config.thresholds
    T = config.dwells
    centralized = mode.startswith("centralized")
    reference = float(np.linalg.norm(state)) if centralized else 0.0
    dwell_active = mode != "centralized-nodwell"
    fired = []
    for i in range(w.size):
        wi = w[i]
        if not np.isfinite(wi):
            continue
        error = abs(float(samples[i]) - float(state[i]))
        if error == 0.0:
            continue
        ref = reference if centralized else abs(float(state[i]))
        if error < wi * ref:
            continue
        if dwell_active and time < last_transmit[i] + T[i]:
            continue
        fired.append(i)
    return fired


def run(scenario, design=None, mode="decentralized", step=None, horizon=None,
        scale=1.0, schedule=None):
    """Simulate a scenario's event-triggered closed loop.

    Parameters
    ----------
    scenario : Scenario
        System, design inputs, and initial conditions.
    design : DesignResult, optional
        Trigger design to run with; computed from the scenario when
        omitted.
    mode : str
        One of ``decentralized``, ``centralized``, ``centralized-nodwell``,
        ``feedback``.
    step : float, optional
        Integration step; defaults to the scenario's step (its feedback
        step in feedback mode, when one is set).
    horizon : float, optional
        Simulated time span; defaults to the scenario's horizon.
    scale : float, optional
        Factor applied to both initial conditions, for scale-invariance
        experiments.
    schedule : UpdateSchedule, optional
        Update timing for feedback mode; defaults to ``DEFAULT_SCHEDULE``
        of :mod:`etcontrol.feedback`.

    Returns
    -------
    SimulationTrace

    Raises
    ------
    DesignError
        When the inputs are inconsistent with the design region.
    SimulationError
        When the state leaves the representable range or the trigger
        fires at every boundary for an extended stretch.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    scale = float(scale)
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    model = scenario.model
    if design is None:
        design = design_scenario(scenario)
    config = design.config
    if mode == "feedback":
        default_step = scenario.feedback_step or scenario.step
    else:
        default_step = scenario.step
    h = float(step) if step is not None else float(default_step)
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    span = float(horizon) if horizon is not None else float(scenario.horizon)
    if not span > 0.0:
        raise ValueError(f"horizon must be positive, got {span}")
    n_steps = int(round(span / h))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")

    cert = scenario.certificate
    lip = scenario.lipschitz
    level = design.level
    if mode == "feedback":
        if cert is None or lip is None:
            raise DesignError("feedback mode needs a certificate and Lipschitz data")
        if level is None:
            raise DesignError("feedback mode needs a design level to shrink")
        if schedule is None:
            schedule = DEFAULT_SCHEDULE

    x = scale * np.asarray(scenario.x0, dtype=float)
    x_s = scale * np.asarray(scenario.xs0, dtype=float)
    if x.shape != (model.state_dim,) or x_s.shape != (model.state_dim,):
        raise DesignError("initial conditions must be state-dimension vectors")

    if cert is not None and level is not None:
        initial_value = float(cert.value(x))
        if initial_value > level * (1.0 + 1e-12):
            raise DesignError(
                f"initial certificate value {initial_value:.6g} exceeds the design "
                f"level {level:.6g}; the guarantees do not cover this start")
        caps = np.asarray(cert.threshold_bounds(level), dtype=float)
        finite = np.isfinite(config.thresholds)
        if np.any(config.thresholds[finite] > caps[finite] * (1.0 + 1e-9)):
            raise DesignError("trigger thresholds exceed their admissible bounds")

    P = design.P if cert is None else cert.quadratic
    bound = QuadraticBound(P) if mode == "feedback" else None

    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, model.state_dim))
    samples = np.empty_like(states)
    events = []
    updates = []
    containment = []
    initial_thresholds = config.thresholds.copy()
    initial_dwells = config.dwells.copy()
    last_transmit = np.where(
        np.isfinite(config.dwells), -config.dwells, -np.inf)
    last_update = 0.0
    consecutive_firing = 0

    for k in range(n_steps + 1):
        t = float(times[k])
        fired = transmissions_due(t, x, x_s, config, last_transmit, mode)
        for i in fired:
            events.append(TransmissionEvent(
                sensor=i, time=t, value=float(x[i]), gap=float(t - last_transmit[i])))
            x_s[i] = x[i]
            last_transmit[i] = t
        if fired:
            consecutive_firing += 1
            if consecutive_firing > _ZENO_LIMIT:
                raise SimulationError(
                    f"trigger fired at {consecutive_firing} consecutive boundaries "
                    f"(t={t:.6g}); the configuration is effectively Zeno")
        else:
            consecutive_firing = 0
        if mode == "feedback":
            center, radius = containment_sphere(x_s, config.threshold_norm)
            value = bound(center, radius)
            if value > 0.0 and update_due(schedule, t, last_update, value, level):
                update = apply_update(cert, lip, value, t, level)
                updates.append(update)
                config = update.config
                level = update.level
                last_update = t
            containment.append(ContainmentRecord(
                time=t, center=center, radius=float(radius),
                value=float(value), level=float(level)))
        states[k] = x
        samples[k] = x_s
        if k < n_steps:
            control = model.controller(x_s)
            x = rk4_step(model.f, x, control, h)
            if not np.all(np.isfinite(x)):
                raise SimulationError(
                    f"state became non-finite at t={float(times[k + 1]):.6g}")

    meta = {
        "scenario": scenario.name,
        "mode": mode,
        "step": h,
        "horizon": float(n_steps * h),
        "scale": scale,
        "boundaries": n_steps + 1,
        "thresholds": [float(v) for v in initial_thresholds],
        "dwells": [float(v) for v in initial_dwells],
        "threshold_norm": design.config.threshold_norm,
        "level": None if design.level is None else float(design.level),
        "final_level": None if level is None else float(level),
        "event_timing": "triggers are evaluated at step boundaries and events "
                        "carry the boundary timestamp",
    }
    return SimulationTrace(
        times=times, states=states, samples=samples,
        lyapunov=np.einsum("ki,ij,kj->k", states, P, states),
        events=events, updates=updates, containment=containment, meta=meta)


def sensor_statistics(times_by_sensor, dwells, quantiles=QUANTILES):
    """Gap statistics for each sensor's transmission times.

    ``times_by_sensor`` holds one ascending sequence of event times per
    sensor; ``dwells`` the matching enforced gap floors (``None`` or
    infinite entries are reported as ``null``). Gap statistics need at
    least two events and are ``null`` otherwise. ``gap_quantiles``
    samples the cumulative distribution of the gaps at the requested
    probabilities.
    """
    quantiles = tuple(float(q) for q in quantiles)
    if any(not 0.0 <= q <= 1.0 for q in quantiles):
        raise ValueError("quantiles must lie in [0, 1]")
    sensors = []
    for i, raw_times in enumerate(times_by_sensor):
        event_times = np.asarray(raw_times, dtype=float)
        entry = {"sensor": i, "count": int(event_times.size)}
        dwell = dwells[i] if i < len(dwells) else None
        entry["dwell"] = float(dwell) if dwell is not None and np.isfinite(dwell) else None
        if event_times.size >= 2:
            gaps = np.diff(event_times)
            entry["min_gap"] = float(gaps.min())
            entry["mean_gap"] = float(gaps.mean())
            entry["max_gap"] = float(gaps.max())
            entry["gap_quantiles"] = {
                str(q): float(np.quantile(gaps, q)) for q in quantiles}
            if entry["dwell"] is not None:
                entry["dwell_ratio"] = entry["dwell"] / entry["mean_gap"]
            else:
                entry["dwell_ratio"] = None
        else:
            entry["min_gap"] = entry["mean_gap"] = entry["max_gap"] = None
            entry["gap_quantiles"] = None
            entry["dwell_ratio"] = None
        sensors.append(entry)
    return sensors


def summary_from_events(records, dwells, quantiles=QUANTILES):
    """Per-sensor statistics recomputed from serialized event records.

    ``records`` is an iterable of event dicts in the shape the events
    file uses; only entries with ``type == "transmission"`` contribute.
    Returns the same per-sensor list ``summarize`` embeds, so a summary
    can be cross-checked against the event log it was emitted with.
    """
    times_by_sensor = [[] for _ in dwells]
    for record in records:
        if record.get("type", "transmission") != "transmission":
            continue
        sensor = int(record["sensor"])
        if not 0 <= sensor < len(times_by_sensor):
            raise ValueError(f"event names sensor {sensor}, beyond the {len(dwells)} known")
        times_by_sensor[sensor].append(float(record["t"]))
    return sensor_statistics(times_by_sensor, dwells, quantiles)


def summarize(trace, quantiles=QUANTILES):
    """Per-sensor transmission statistics plus run-level facts.

    Gap statistics are consecutive differences of each sensor's event
    times within the run; a sensor needs at least two events for them,
    and ``null`` is reported otherwise. ``dwell_ratio`` is the sensor's
    initial dwell time divided by its mean gap, and ``gap_quantiles``
    samples the cumulative distribution of the gaps at the requested
    probabilities.

    Returns a JSON-ready dict.
    """
    dim = trace.states.shape[1]
    dwells = trace.meta.get("dwells", [None] * dim)
    times_by_sensor = [
        [e.time for e in trace.events if e.sensor == i] for i in range(dim)]
    sensors = sensor_statistics(times_by_sensor, dwells, quantiles)
    return {
        "scenario": trace.meta.get("scenario"),
        "mode": trace.meta.get("mode"),
        "step": trace.meta.get("step"),
        "horizon": trace.meta.get("horizon"),
        "scale": trace.meta.get("scale"),
        "sensors": sensors,
        "transmissions": len(trace.events),
        "updates": len(trace.updates),
        "level": trace.meta.get("level"),
        "final_level": trace.meta.get("final_level"),
        "initial_value": float(trace.lyapunov[0]),
        "final_value": float(trace.lyapunov[-1]),
    }


def decay_excess(trace, sigma, Q=None, q_min=None):
    """Pointwise excess of the certificate rate over its certified bound.

    The guarantee is ``dV/dt <= -(1 - sigma) m(x)`` with ``m(x) = x^T Q x``
    when ``Q`` is given and ``m(x) = q_min |x|^2`` otherwise; exactly one
    of the two must be supplied. The rate is the second-order finite
    difference of the logged certificate values. Returns the array
    ``dV/dt + (1 - sigma) m(x)``, non-positive wherever the guarantee
    holds.
    """
    if (Q is None) == (q_min is None):
        raise ValueError("supply exactly one of Q and q_min")
    rate = np.gradient(trace.lyapunov, trace.times)
    if Q is not None:
        margin = np.einsum("ki,ij,kj->k", trace.states, np.asarray(Q, dtype=float),
                           trace.states)
    else:
        margin = float(q_min) * np.sum(trace.states**2, axis=1)
    return rate + (1.0 - float(sigma)) * margin


def containment_margins(trace):
    """Worst-case slack of the feedback-mode containment guarantees.

    Returns a dict with ``distance_excess`` (largest excess of the
    state's distance from the ball center over the ball radius) and
    ``level_excess`` (largest excess of the certificate value over the
    sampled level); non-positive entries mean the corresponding guarantee
    held at every logged boundary.
    """
    if not trace.containment:
        raise ValueError("trace has no containment records")
    centers = np.array([r.center for r in trace.containment])
    radii = np.array([r.radius for r in trace.containment])
    levels = np.array([r.level for r in trace.containment])
    distances = np.linalg.norm(trace.states - centers, axis=1)
    return {
        "distance_excess": float((distances - radii).max()),
        "level_excess": float((trace.lyapunov - levels).max()),
    }


def json_ready(value):
    """Recursively convert a document to plain JSON types.

    Numpy scalars and arrays become Python numbers and lists, and
    non-finite floats become ``null`` so the output stays strict JSON.
    """
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return json_ready(value.item())
    if isinstance(value, np.ndarray):
        return [json_ready(v) for v in value.tolist()]
    return value


def _write_json(document, path):
    text = json.dumps(json_ready(document), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_trace_csv(trace, path):
    """Write the boundary-sampled trajectory as CSV.

    Columns are the boundary time, the state components, the held
    samples, the certificate value and its finite-difference rate. Floats
    are written in shortest round-trip form, so identical runs produce
    byte-identical files.
    """
    dim = trace.states.shape[1]
    header = ["t"]
    header += [f"x{i + 1}" for i in range(dim)]
    header += [f"xs{i + 1}" for i in range(dim)]
    header += ["V", "Vdot"]
    rate = np.gradient(trace.lyapunov, trace.times)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(trace.times.size):
            row = [trace.times[k], *trace.states[k], *trace.samples[k],
                   trace.lyapunov[k], rate[k]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_events_json(trace, path):
    """Write the chronological event record as JSON.

    Transmissions carry the sensor index, transmitted value, and the gap
    since the sensor's previous transmission; parameter updates carry the
    sampled level and the redesigned thresholds and dwell times. Events
    at the same boundary are ordered transmissions first, then updates,
    matching processing order.
    """
    records = []
    for e in trace.events:
        records.append({
            "type": "transmission", "t": e.time, "sensor": e.sensor,
            "value": e.value, "gap": e.gap,
        })
    for u in trace.updates:
        records.append({
            "type": "param_update", "t": u.time, "V_sampled": u.level,
            "w": [float(v) if np.isfinite(v) else None for v in u.config.thresholds],
            "T": [float(v) if np.isfinite(v) else None for v in u.config.dwells],
        })
    records.sort(key=lambda r: (
        r["t"], 0 if r["type"] == "transmission" else 1, r.get("sensor", -1)))
    document = {
        "scenario": trace.meta.get("scenario"),
        "mode": trace.meta.get("mode"),
        "events": records,
    }
    _write_json(document, path)


def write_summary_json(summary, path):
    """Write a ``summarize`` document (or any JSON-ready dict) to a file."""
    _write_json(summary, path)
