"""Runtime invariant battery behind ``etcontrol verify``.

``report(scenarios)`` returns ``{"pass": bool, "checks": [...]}``; each
check records its name, measured value, tolerance, verdict and a detail
line. Per scenario the checks cover certified decay, the per-sensor gap
floors (with halved-floor and doubled-threshold faults that must be
caught), scale invariance for linear plants, the redundancy of dwell
times under the centralized rule, and containment in feedback mode. A
scenario's runs at its own step (decentralized, the 1000x scale for
linear plants, centralized with and without dwells, and the halved-floor
fault) are simulated as one batch of members by
``simulate.run_members``; the half-step run, the doubled-threshold run
(rejected before it steps) and the feedback run go alone.
Three seeded batteries compare fast paths with independent oracles:
``riccati.crossing_time_numeric``, the Lyapunov residual, and
``feedback.max_on_sphere_grid``.
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from .design import TriggerConfig
from .errors import DesignError
from .feedback import DEFAULT_SCHEDULE, QuadraticBound, max_on_sphere_grid
from .linalg import is_hurwitz, solve_lyapunov
from .models import design_scenario
from .riccati import RiccatiCoefficients, crossing_time, crossing_time_numeric
from .simulate import (containment_margins, decay_excess, dump_json, run,
                       run_members, summarize, summary_from_events,
                       write_events_json)

__all__ = ["report", "matched_event_delta"]

# Seed of the random inputs of the three global batteries.
SEED = 20260819
# Random cases per global battery.
RICCATI_CASES = 100
LYAPUNOV_CASES = 20
SPHERE_CASES = 10


def _check(name, measured, tolerance, detail, passed=None):
    if passed is None:
        passed = measured <= tolerance
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "pass": bool(passed),
        "detail": detail,
    }


def _gap_shortfall(trace, dwells):
    """Largest amount any sensor's smallest gap falls below its floor;
    ``-inf`` when no sensor with a finite floor transmits twice, since the
    floors then hold vacuously."""
    events = trace.events
    shortfall = -math.inf
    for i, dwell in enumerate(dwells):
        if dwell is None or not np.isfinite(dwell):
            continue
        times = events.time[events.sensor == i]
        if times.size >= 2:
            shortfall = max(shortfall, float(dwell - np.diff(times).min()))
    return shortfall


def _family_excess(trace):
    """Largest excess of a held error over its share of the state norm."""
    thresholds = np.asarray(trace.meta["thresholds"], dtype=float)
    finite = np.isfinite(thresholds)
    errors = np.abs(trace.samples - trace.states)
    norms = np.linalg.norm(trace.states, axis=1)
    excess = errors[:, finite] - np.outer(norms, thresholds[finite])
    return float(excess.max())


def matched_event_delta(trace_a, trace_b):
    """Largest time difference between each sensor's events matched in
    order, or inf when some sensor's event counts differ.

    Runs emit events in (time, sensor) order, so a delta of 0 means the
    two event sequences are identical.
    """
    a, b = trace_a.events, trace_b.events
    delta = 0.0
    for i in range(trace_a.states.shape[1]):
        times_a = a.time[a.sensor == i]
        times_b = b.time[b.sensor == i]
        if times_a.size != times_b.size:
            return math.inf
        if times_a.size:
            delta = max(delta, float(np.abs(times_a - times_b).max()))
    return delta


def _riccati_battery(rng):
    """Worst relative disagreement of the closed-form crossing time."""
    worst = 0.0
    for k in range(RICCATI_CASES):
        a0 = float(rng.uniform(0.05, 5.0))
        a1 = float(rng.uniform(0.05, 5.0))
        a2 = float(rng.uniform(0.05, 5.0))
        branch = k % 5
        if branch == 1:
            a2 = 0.0
        elif branch == 2:
            a1 = 0.0
        elif branch == 3:
            a1 = 2.0 * math.sqrt(a0 * a2)
        elif branch == 4:
            a1 = float(rng.uniform(2.1, 4.0)) * math.sqrt(a0 * a2)
        coeffs = RiccatiCoefficients(a0, a1, a2)
        target = float(rng.uniform(0.01, 0.5))
        closed = crossing_time(target, coeffs)
        numeric = crossing_time_numeric(target, coeffs)
        worst = max(worst, abs(closed - numeric) / numeric)
    return worst


def _random_hurwitz(rng, dim):
    matrix = rng.normal(size=(dim, dim))
    shift = 0.1 * float(np.linalg.norm(matrix))
    candidate = matrix - shift * np.eye(dim)
    while not is_hurwitz(candidate):
        shift *= 2.0
        candidate = matrix - shift * np.eye(dim)
    return candidate


def _lyapunov_battery(rng):
    """Worst relative residual of the Lyapunov solver on random plants."""
    worst = 0.0
    for _ in range(LYAPUNOV_CASES):
        dim = int(rng.integers(2, 5))
        A = _random_hurwitz(rng, dim)
        M = rng.normal(size=(dim, dim))
        Q = M @ M.T + 0.1 * np.eye(dim)
        P = solve_lyapunov(A, Q)
        residual = np.linalg.norm(A.T @ P + P @ A + Q) / np.linalg.norm(Q)
        worst = max(worst, float(residual))
    return worst


def _sphere_battery(rng):
    """Worst relative gap between the exact and grid sphere maxima."""
    worst = 0.0
    for _ in range(SPHERE_CASES):
        M = rng.normal(size=(2, 2))
        P = M @ M.T + 0.1 * np.eye(2)
        center = rng.normal(size=2)
        radius = float(rng.uniform(0.1, 2.0))
        exact = QuadraticBound(P)(center, radius)
        grid = max_on_sphere_grid(lambda z: float(z @ P @ z), center, radius)
        worst = max(worst, abs(exact - grid) / exact)
    return worst


def _summary_roundtrip_mismatch(trace):
    """0.0 when statistics recomputed from the event file match exactly."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.json"
        write_events_json(trace, path)
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)["events"]
    recomputed = summary_from_events(records, trace.meta["dwells"])
    same = dump_json(recomputed) == dump_json(summarize(trace)["sensors"])
    return 0.0 if same else 1.0


def _same_step_members(scenario, design):
    """The battery's runs at the scenario's own step, as ``run_members``
    members by name: the decentralized trace, the 1000x scale (linear
    plants only), centralized with and without dwells, and the
    halved-floor fault."""
    horizon = min(1.5, float(scenario.horizon))
    pair_horizon = min(1.0, float(scenario.horizon))
    forged_dwells = dataclasses.replace(
        design, config=TriggerConfig(design.config.thresholds,
                                     design.config.dwells * 0.5))
    members = {
        "trace": dict(design=design, horizon=horizon),
        "with_dwell": dict(design=design, horizon=pair_horizon, mode="centralized"),
        "without": dict(design=design, horizon=pair_horizon,
                        mode="centralized-nodwell"),
        "faulty": dict(design=forged_dwells, horizon=pair_horizon),
    }
    if scenario.certificate is None:
        members["scaled"] = dict(design=design, horizon=horizon, scale=1e3)
    return members


def _scenario_checks(scenario):
    """Run the invariant battery for one scenario."""
    checks = []
    name = scenario.name
    design = design_scenario(scenario)
    is_linear = scenario.certificate is None

    if is_linear:
        A_cl = scenario.model.A + scenario.model.B @ scenario.model.K
        residual = np.linalg.norm(A_cl.T @ design.P + design.P @ A_cl + scenario.Q)
        checks.append(_check(
            f"{name}.design_residual", residual / np.linalg.norm(scenario.Q),
            1e-10, detail="Lyapunov equation residual relative to the rate matrix"))

    members = _same_step_members(scenario, design)
    runs = dict(zip(members, run_members(scenario, members.values())))
    trace = runs["trace"]
    horizon = members["trace"]["horizon"]
    pair_horizon = members["with_dwell"]["horizon"]
    step = trace.meta["step"]
    checks.append(_check(
        f"{name}.dwell_enforcement", _gap_shortfall(trace, trace.meta["dwells"]),
        1e-12, detail="largest shortfall of a transmission gap below its floor"))
    excess = decay_excess(trace, scenario.sigma, scenario.Q)
    checks.append(_check(
        f"{name}.certificate_decrease", float(excess.max()),
        1e-6 * float(trace.lyapunov[0]),
        detail="largest excess of the certificate rate over its bound"))
    checks.append(_check(
        f"{name}.family_membership_step", _family_excess(trace), step,
        detail="held errors against their share of the state norm at the run step"))
    half = run(scenario, design=design, horizon=min(0.75, horizon), step=step / 2.0)
    checks.append(_check(
        f"{name}.family_membership_halfstep", _family_excess(half), step / 2.0,
        detail="the same membership check at half the integration step"))

    if is_linear:
        checks.append(_check(
            f"{name}.scale_invariance", matched_event_delta(trace, runs["scaled"]), step,
            detail="events under a 1000x initial-condition scale, matched in order"))
    checks.append(_check(
        f"{name}.centralized_equivalence",
        matched_event_delta(runs["with_dwell"], runs["without"]),
        0.0, detail="largest event-time difference, per sensor, when the "
                    "dwell-free variant runs"))
    checks.append(_check(
        f"{name}.summary_roundtrip", _summary_roundtrip_mismatch(trace), 0.0,
        detail="statistics recomputed from the emitted event file"))

    shortfall = _gap_shortfall(runs["faulty"], design.config.dwells)
    checks.append(_check(
        f"{name}.fault_halved_dwell_detected", shortfall, 1e-12,
        passed=shortfall > 1e-12,
        detail="halving the gap floors must produce a detectable violation"))

    forged_thresholds = dataclasses.replace(
        design, config=TriggerConfig(design.config.thresholds * 2.0,
                                     design.config.dwells))
    try:
        run(scenario, design=forged_thresholds, horizon=pair_horizon)
        detected = 0.0
    except DesignError:
        detected = 1.0
    checks.append(_check(
        f"{name}.fault_doubled_threshold_detected", detected, 1.0,
        passed=detected == 1.0,
        detail="doubled thresholds must be rejected as inadmissible"))

    if not is_linear:
        checks.extend(_feedback_checks(scenario, design))
    return checks


def _feedback_checks(scenario, design):
    """Containment and parameter-update invariants in feedback mode."""
    name = scenario.name
    trace = run(scenario, design=design, mode="feedback",
                horizon=min(3.0, float(scenario.horizon)), schedule=DEFAULT_SCHEDULE)
    checks = []
    margins = containment_margins(trace)
    checks.append(_check(
        f"{name}.containment_distance", margins["distance_excess"], 1e-6,
        detail="state distance from the held-sample ball center minus its radius"))
    checks.append(_check(
        f"{name}.containment_level", margins["level_excess"], 1e-9,
        detail="certificate value minus the sampled level in force"))
    levels = [design.level] + [u.level for u in trace.updates]
    rises = [b - a for a, b in zip(levels[:-1], levels[1:])]
    checks.append(_check(
        f"{name}.update_levels_decrease", max(rises) if rises else -math.inf, 0.0,
        passed=bool(rises) and max(rises) < 0.0,
        detail="sampled levels must strictly shrink at every update"))
    update_times = [0.0] + [u.time for u in trace.updates]
    gaps = np.diff(update_times)
    checks.append(_check(
        f"{name}.update_gaps", float((DEFAULT_SCHEDULE.dwell - gaps).max()), 1e-12,
        detail="largest shortfall of an inter-update gap below the update floor"))
    configs = [design.config] + [u.config for u in trace.updates]
    drop = max(
        float((a.thresholds - b.thresholds).max())
        for a, b in zip(configs[:-1], configs[1:]))
    checks.append(_check(
        f"{name}.thresholds_nondecreasing", drop, 1e-12,
        detail="largest per-sensor threshold drop across consecutive designs"))
    floor_gap = max(
        float((design.config.dwells - c.dwells).max()) for c in configs[1:])
    checks.append(_check(
        f"{name}.dwell_floor", floor_gap, 1e-12,
        detail="redesigned gap floors may not fall below the initial design"))
    return checks


def report(scenarios):
    """Run the global batteries and each scenario's checks.

    Returns ``{"pass": bool, "checks": [...]}``; ``pass`` is true when
    every check passed.
    """
    rng = np.random.default_rng(SEED)
    checks = [
        _check("riccati.closed_form_vs_numeric", _riccati_battery(rng), 1e-6,
               detail="closed-form crossing times against adaptive integration"),
        _check("linalg.lyapunov_residual_random", _lyapunov_battery(rng), 1e-10,
               detail="Lyapunov solver residuals on random stable plants"),
        _check("feedback.sphere_max_vs_grid", _sphere_battery(rng), 1e-8,
               detail="exact sphere maxima against a dense grid search"),
    ]
    for scenario in scenarios:
        checks.extend(_scenario_checks(scenario))
    return {"pass": all(c["pass"] for c in checks), "checks": checks}
