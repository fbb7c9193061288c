"""Fixed-step closed-loop simulation of event-triggered sampled control.

The plant advances with classical fourth-order Runge-Kutta steps while
each sensor holds its last transmitted value; the control input is
re-evaluated from the held samples when a held sample changes. Trigger
conditions are evaluated at every step boundary, including the initial
and final instants. A firing sensor refreshes its held sample
instantaneously, and the event carries the boundary timestamp; events
are not localized inside integration steps (see the trace metadata).
The transmissions and the per-boundary containment data are numpy
record arrays, so a sensor's event times are
``trace.events.time[trace.events.sensor == i]``.

Several runs of one scenario at one step can be simulated as one batch of
members (``run_members``): the plant state is an ``(n, B)`` array of
columns, each step makes one Runge-Kutta call for the whole batch, the
controller is re-evaluated for the whole batch when a held sample changes,
and the triggers are evaluated member by member. ``run`` is the
one-member case, whose state is a plain vector.

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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DesignError, SimulationError
from .feedback import (
    DEFAULT_SCHEDULE,
    QuadraticBound,
    apply_update,
    containment_sphere,
    update_due,
)
from .models import design_scenario

__all__ = [
    "SimulationTrace",
    "rk4_step",
    "transmissions_due",
    "run",
    "run_members",
    "summarize",
    "decay_excess",
    "containment_margins",
    "write_trace_csv",
    "write_events_json",
    "write_summary_json",
    "dump_json",
]

MODES = ("decentralized", "centralized", "centralized-nodwell", "feedback")

# Default probabilities at which the summaries sample each sensor's gaps.
QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)

# Consecutive firing boundaries tolerated before the run is aborted as
# effectively Zeno (transmitting at every opportunity).
_ZENO_LIMIT = 10_000

# Rows per ``write_trace_csv`` block: enough to amortize the numpy calls,
# few enough that a block's Python floats stay well under a megabyte.
_CSV_BLOCK = 1024


# Columns of ``SimulationTrace.events``, one row per transmission.
EVENT_DTYPE = np.dtype([
    ("sensor", np.int64), ("time", float), ("value", float), ("gap", float)])


def containment_dtype(dim):
    """Columns of ``SimulationTrace.containment`` for a ``dim``-state plant."""
    return np.dtype([("center", float, (dim,)), ("radius", float), ("level", float)])


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
    events : numpy.recarray
        One row per transmission, ordered by time, then sensor index,
        with columns ``sensor``, ``time``, ``value`` (the transmitted
        sample) and ``gap`` (time since the sensor's previous
        transmission, or for its first one since the virtual baseline
        one dwell time before the run starts).
    updates : list of ParameterUpdate
        Applied on-line redesigns (feedback mode only).
    containment : numpy.recarray
        One row per boundary in feedback mode, zero rows otherwise, with
        columns ``center`` (shape (n_boundaries, dim)) and ``radius`` of
        the ball guaranteed to hold the state, and the certificate
        ``level`` in force.
    meta : dict
        Run parameters and conventions.
    """

    times: np.ndarray
    states: np.ndarray
    samples: np.ndarray
    lyapunov: np.ndarray
    events: np.recarray = field(
        default_factory=lambda: np.recarray(0, dtype=EVENT_DTYPE))
    updates: list = field(default_factory=list)
    containment: np.recarray = field(
        default_factory=lambda: np.recarray(0, dtype=containment_dtype(0)))
    meta: dict = field(default_factory=dict)


def rk4_step(f, state, control, step):
    """One classical fourth-order Runge-Kutta step of ``x' = f(x, u)``.

    The control is held constant across the four stages, matching
    zero-order-hold actuation.
    """
    half = 0.5 * step
    k1 = f(state, control)
    k2 = f(state + half * k1, control)
    k3 = f(state + half * k2, control)
    k4 = f(state + step * k3, control)
    # state + (step / 6) * (k1 + 2 * (k2 + k3) + k4), accumulated in one
    # fresh array; IEEE + and * commute, so every bit matches that form.
    out = k2 + k3
    out *= 2.0
    out += k1
    out += k4
    out *= step / 6.0
    out += state
    return out


def transmissions_due(time, state, samples, config, last_transmit, mode="decentralized"):
    """Sensors required to transmit at a step boundary.

    A sensor transmits when its sampling error is nonzero, has reached
    its threshold times the reference magnitude (the sensor's own state
    component in decentralized operation, the full state norm in
    centralized operation), and its dwell time has passed since its
    previous transmission (unless the mode disables the dwell condition).
    Sensors with an infinite threshold never transmit, and neither do
    sensors with an infinite dwell while the dwell condition applies.

    Returns
    -------
    list of int
        Indices of firing sensors, ascending.

    Raises
    ------
    SimulationError
        When a state component is not finite, naming ``time``; every
        component is read, those of sensors designed out too.
    """
    xs = state.tolist()
    # A sum is finite unless a term is not finite or the sum overflows.
    if not math.isfinite(sum(xs)) and not all(map(math.isfinite, xs)):
        raise SimulationError(f"state became non-finite at t={time:.6g}")
    centralized = mode.startswith("centralized")
    reference = 0.0
    if centralized:
        reference = float(np.linalg.norm(state))
        if reference == math.inf:
            # The sum of squares overflows once |x| passes about 1.3e154.
            peak = float(np.max(np.abs(state)))
            reference = peak * float(np.linalg.norm(state / peak))
    dwell_active = mode != "centralized-nodwell"
    fired = []
    # Python floats: indexing numpy scalars costs more than the arithmetic.
    # An infinite dwell gives a NaN baseline (-inf + inf), which the negated
    # comparison treats as blocking, so such a sensor never transmits.
    rows = zip(config.thresholds.tolist(), config.dwells.tolist(), xs,
               samples.tolist(), last_transmit.tolist())
    for i, (wi, Ti, xi, si, last) in enumerate(rows):
        if not math.isfinite(wi):
            continue
        error = abs(si - xi)
        if error == 0.0:
            continue
        ref = reference if centralized else abs(xi)
        if error < wi * ref:
            continue
        if dwell_active and not time >= last + Ti:
            continue
        fired.append(i)
    return fired


class _Member:
    """One run of a batch: its validated inputs and its loop state.

    Takes the keyword arguments of ``run`` and checks them in the same
    order and with the same errors.
    """

    def __init__(self, scenario, step, design=None, mode="decentralized",
                 horizon=None, scale=1.0, schedule=None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        model = scenario.model
        if design is None:
            design = design_scenario(scenario)
        config = design.config
        h = float(step) if step is not None else (
            (mode == "feedback" and scenario.feedback_step) or scenario.step)
        if not h > 0.0:
            raise ValueError(f"step must be positive, got {h}")
        span = float(horizon) if horizon is not None else scenario.horizon
        if not (np.isfinite(span) and span > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {span}")
        n_steps = int(round(span / h))
        if n_steps < 1:
            raise ValueError("horizon must cover at least one step")

        cert = design.certificate
        level = design.level
        if mode == "feedback":
            if scenario.lipschitz is None:
                raise DesignError("feedback mode needs a certificate and Lipschitz data")
            if schedule is None:
                schedule = DEFAULT_SCHEDULE
        if level is None:
            raise DesignError("a run needs a design made at a level")

        x = scale * scenario.x0
        # A design at level inf holds on the whole state space and covers
        # every start; an infinite one fails the check after the first step.
        if level < math.inf:
            initial_value = float(cert.value(x))
            if not initial_value <= level * (1.0 + 1e-12):
                raise DesignError(
                    f"initial certificate value {initial_value:.6g} exceeds the design "
                    f"level {level:.6g}; the guarantees do not cover this start")
        caps = np.asarray(cert.threshold_bounds(level), dtype=float)
        finite = np.isfinite(config.thresholds)
        if not np.all(config.thresholds[finite] <= caps[finite] * (1.0 + 1e-9)):
            raise DesignError("trigger thresholds exceed their admissible bounds")

        self.design = design
        self.mode = mode
        self.scale = scale
        self.schedule = schedule
        self.h = h
        self.n_steps = n_steps
        self.x0 = x
        self.held = scale * scenario.xs0
        self.config = config
        self.level = level
        self.P = cert.quadratic
        self.bound = QuadraticBound(self.P) if mode == "feedback" else None
        self.last_transmit = -config.dwells
        try:
            self.states = np.empty((n_steps + 1, model.state_dim))
            self.samples = np.empty_like(self.states)
            self.containment = np.recarray(n_steps + 1 if mode == "feedback" else 0,
                                           dtype=containment_dtype(model.state_dim))
        except MemoryError:
            raise ValueError(
                f"horizon {span:g} at step {h:g} needs {n_steps + 1} boundaries, "
                "more than memory holds") from None
        self.events = []
        self.updates = []
        self.consecutive_firing = 0
        self.W = config.threshold_norm
        self.ball = None
        self.last_update = 0.0

    def contain(self, scenario, k, t, fired):
        """Feedback mode at boundary ``k``: the containment ball, its
        certificate bound, and a parameter update when one is due."""
        # The ball depends only on the samples and W, so it changes only
        # after a transmission or an update.
        if fired or self.ball is None:
            self.ball = containment_sphere(self.held, self.W)
        center, radius = self.ball
        value = self.bound(center, radius)
        if value > 0.0 and update_due(self.schedule, t, self.last_update, value,
                                      self.level):
            update = apply_update(self.design.certificate, scenario.lipschitz, value, t,
                                  self.level)
            self.updates.append(update)
            self.config = update.config
            self.W = self.config.threshold_norm
            self.ball = None
            self.level = update.level
            self.last_update = t
        self.containment[k] = (center, radius, self.level)

    def trace(self, scenario):
        """The finished run as a ``SimulationTrace``."""
        config = self.design.config
        meta = {
            "scenario": scenario.name,
            "mode": self.mode,
            "step": self.h,
            "horizon": float(self.n_steps * self.h),
            "scale": self.scale,
            "boundaries": self.n_steps + 1,
            "thresholds": [float(v) for v in config.thresholds],
            "dwells": [float(v) for v in config.dwells],
            "threshold_norm": config.threshold_norm,
            "level": float(self.design.level),
            "final_level": float(self.level),
            "event_timing": "triggers are evaluated at step boundaries and events "
                            "carry the boundary timestamp",
        }
        # Once x^T P x overflows, inf products of P's mixed-sign entries can
        # cancel to NaN; such rows are rescaled by peak = max |x_i| instead.
        lyapunov = np.einsum("ki,ij,kj->k", self.states, self.P, self.states)
        wide = ~np.isfinite(lyapunov)
        if wide.any():
            peak = np.abs(self.states[wide]).max(axis=1)
            u = self.states[wide] / peak[:, None]
            lyapunov[wide] = peak * (peak * np.einsum("ki,ij,kj->k", u, self.P, u))
        return SimulationTrace(
            times=np.arange(self.n_steps + 1) * self.h, states=self.states,
            samples=self.samples, lyapunov=lyapunov,
            events=np.array(self.events, dtype=EVENT_DTYPE).view(np.recarray),
            updates=self.updates, containment=self.containment, meta=meta)


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
        When the design has no level, the start's certificate value
        exceeds the design level (never for an LTI design, whose level is
        ``inf``), or the design's thresholds exceed the caps of its
        certificate at its level.
    SimulationError
        When the state leaves the representable range or the trigger
        fires at every boundary for an extended stretch.
    """
    member = dict(design=design, mode=mode, horizon=horizon, scale=scale,
                  schedule=schedule)
    return run_members(scenario, [member], step=step)[0]


def run_members(scenario, members, step=None):
    """Simulate several runs of one scenario at one step as one batch.

    Each member is a dict of ``run``'s keyword arguments (``design``,
    ``mode``, ``horizon``, ``scale``, ``schedule``), validated as ``run``
    validates them. The plant state of the batch is one ``(n, B)`` array
    of columns, so each step makes one ``rk4_step`` call for all members,
    and one ``controller`` call re-evaluates the input of all members when
    a held sample changes: at the start, after a boundary where any member
    transmitted, and when the column block shrinks. The triggers are
    evaluated per member. Members are ordered longest horizon first, and
    a member whose horizon ends drops off the end of the column block.
    With one member the state is a plain vector, which is how ``run``
    simulates.
    Linear plants advance a batch with matrix products whose rounding
    can differ in the last bits from the vector products of single runs.

    Feedback mode runs only as a single member.

    Returns
    -------
    list of SimulationTrace
        One per member, in the given order.
    """
    members = list(members)
    if not members:
        raise ValueError("need at least one member")
    if len(members) > 1 and any(m.get("mode") == "feedback" for m in members):
        raise ValueError("feedback mode runs only as a single member")
    # A scaled start, a diverging state or a certificate value can overflow;
    # the start's certificate check, the trigger pass's finiteness check
    # and the trace's quadratic values turn that into typed errors or inf.
    with np.errstate(over="ignore", invalid="ignore"):
        runs = [_Member(scenario, step, **m) for m in members]
        ordered = sorted(runs, key=lambda m: -m.n_steps)
        model = scenario.model
        h = ordered[0].h
        n_max = ordered[0].n_steps
        single = len(ordered) == 1
        if single:
            x = ordered[0].x0
            held = ordered[0].held
        else:
            x = np.column_stack([m.x0 for m in ordered])
            held = np.column_stack([m.held for m in ordered])
            for j, m in enumerate(ordered):
                m.held = held[:, j]
        # Members whose horizon reaches boundary k are the first ``active``.
        active = len(ordered)
        held_active = held
        # The input depends only on the held samples, so it is re-evaluated
        # only after a transmission or when the column block shrinks.
        control = None

        for k in range(n_max + 1):
            t = k * h
            transmitted = False
            for j in range(active):
                m = ordered[j]
                column = x if single else x[:, j]
                fired = transmissions_due(t, column, m.held, m.config, m.last_transmit,
                                          m.mode)
                for i in fired:
                    m.events.append(
                        (i, t, float(column[i]), float(t - m.last_transmit[i])))
                    m.held[i] = column[i]
                    m.last_transmit[i] = t
                if fired:
                    transmitted = True
                    m.consecutive_firing += 1
                    if m.consecutive_firing > _ZENO_LIMIT:
                        raise SimulationError(
                            f"trigger fired at {m.consecutive_firing} consecutive "
                            f"boundaries (t={t:.6g}); the configuration is "
                            "effectively Zeno")
                else:
                    m.consecutive_firing = 0
                if m.bound is not None:
                    m.contain(scenario, k, t, fired)
                m.states[k] = column
                m.samples[k] = m.held
            if k == n_max:
                break
            if ordered[active - 1].n_steps == k:
                while ordered[active - 1].n_steps == k:
                    active -= 1
                x = x[:, :active]
                held_active = held[:, :active]
                control = None
            if transmitted or control is None:
                control = model.controller(held_active)
            x = rk4_step(model.f, x, control, h)

        return [m.trace(scenario) for m in runs]


def checked_quantiles(quantiles):
    """The probabilities as a tuple of floats, each checked to lie in [0, 1]."""
    quantiles = tuple(float(q) for q in quantiles)
    if any(not 0.0 <= q <= 1.0 for q in quantiles):
        raise ValueError("quantiles must lie in [0, 1]")
    return quantiles


def sensor_statistics(times_by_sensor, dwells, quantiles=QUANTILES):
    """Gap statistics for each sensor's transmission times.

    ``times_by_sensor`` holds one ascending sequence of event times per
    sensor; ``dwells`` the matching enforced gap floors (``None`` or
    infinite entries are reported as ``null``). Gap statistics need at
    least two events and are ``null`` otherwise. ``gap_quantiles``
    samples the cumulative distribution of the gaps at the requested
    probabilities.
    """
    quantiles = checked_quantiles(quantiles)
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

    A ``null`` ``initial_value`` or ``final_value`` in the written JSON
    means the certificate value overflowed: for a finite state it is
    finite or ``inf``, never NaN.

    Returns a JSON-ready dict.
    """
    dim = trace.states.shape[1]
    dwells = trace.meta.get("dwells", [None] * dim)
    events = trace.events
    times_by_sensor = [events.time[events.sensor == i] for i in range(dim)]
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


def decay_excess(trace, sigma, Q):
    """Pointwise excess of the certificate rate over its certified bound.

    The guarantee is ``dV/dt <= -(1 - sigma) x^T Q x``; a certificate
    whose error terms are capped at ``sigma Q_min |x|^2`` meets it too,
    since ``Q_min |x|^2 <= x^T Q x``. The rate is the second-order finite
    difference of the logged certificate values. Returns the array
    ``dV/dt + (1 - sigma) x^T Q x``, non-positive wherever the guarantee
    holds.
    """
    rate = np.gradient(trace.lyapunov, trace.times)
    margin = np.einsum("ki,ij,kj->k", trace.states, np.asarray(Q, dtype=float),
                       trace.states)
    return rate + (1.0 - float(sigma)) * margin


def containment_margins(trace):
    """Worst-case slack of the feedback-mode containment guarantees.

    Returns a dict with ``distance_excess`` (largest excess of the
    state's distance from the ball center over the ball radius) and
    ``level_excess`` (largest excess of the certificate value over the
    sampled level); non-positive entries mean the corresponding guarantee
    held at every logged boundary.
    """
    balls = trace.containment
    if balls.size == 0:
        raise ValueError("trace has no containment records")
    distances = np.linalg.norm(trace.states - balls.center, axis=1)
    return {
        "distance_excess": float((distances - balls.radius).max()),
        "level_excess": float((trace.lyapunov - balls.level).max()),
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


def dump_json(document, path=None):
    """Strict JSON text of a document: sorted keys, two-space indent and a
    final newline. When ``path`` is given the text is also written there,
    creating the parent directory. Returns the text."""
    text = json.dumps(json_ready(document), indent=2, sort_keys=True) + "\n"
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


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
    # The rate next to an overflowed (inf) certificate value is NaN.
    with np.errstate(invalid="ignore"):
        rate = np.gradient(trace.lyapunov, trace.times)
    lead = (np.asarray(trace.times, dtype=float),
            *np.asarray(trace.states, dtype=float).T)
    tail = (np.asarray(trace.lyapunov, dtype=float), rate)
    # The held samples change only at transmissions, so each distinct row is
    # formatted once. Rows are compared bitwise, which keeps the text of
    # 0.0 and -0.0 apart and sees a repeated NaN as unchanged.
    held = np.asarray(trace.samples, dtype=float)
    bits = held.view(np.int64)
    changed = np.zeros(len(held), dtype=bool)
    changed[0] = True
    for column in bits.T:
        changed[1:] |= column[1:] != column[:-1]
    group = np.cumsum(changed)
    group -= 1
    held_text = np.array([",".join(map(repr, row)) for row in held[changed].tolist()],
                         dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, trace.times.size, _CSV_BLOCK):
            part = slice(start, start + _CSV_BLOCK)
            block = [list(map(repr, c[part].tolist())) for c in lead]
            block.append(held_text[group[part]].tolist())
            block += [list(map(repr, c[part].tolist())) for c in tail]
            fh.write("\n".join(map(",".join, zip(*block))))
            fh.write("\n")


def write_events_json(trace, path):
    """Write the chronological event record as JSON.

    Transmissions carry the sensor index, transmitted value, and the gap
    since the sensor's previous transmission; parameter updates carry the
    sampled level and the redesigned thresholds and dwell times. Events
    at the same boundary are ordered transmissions first, then updates,
    matching processing order.
    """
    events = trace.events
    records = [
        {"type": "transmission", "t": t, "sensor": i, "value": v, "gap": g}
        for i, t, v, g in zip(events.sensor.tolist(), events.time.tolist(),
                              events.value.tolist(), events.gap.tolist())]
    for u in trace.updates:
        records.append({
            "type": "param_update", "t": u.time, "V_sampled": u.level,
            "w": u.config.thresholds, "T": u.config.dwells,
        })
    records.sort(key=lambda r: (
        r["t"], 0 if r["type"] == "transmission" else 1, r.get("sensor", -1)))
    document = {
        "scenario": trace.meta.get("scenario"),
        "mode": trace.meta.get("mode"),
        "events": records,
    }
    dump_json(document, path)


def write_summary_json(summary, path):
    """Write a ``summarize`` document (or any JSON-ready dict) to a file."""
    dump_json(summary, path)
