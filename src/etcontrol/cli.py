"""Command-line interface for trigger design, simulation, and verification.

Subcommands
-----------
design
    Compute trigger parameters for a model and emit them as JSON.
simulate
    Run the event-triggered closed loop and write trace, event, and
    summary files into an output directory.
verify
    Run the runtime invariant battery, including fault injections that
    must be caught, and emit a machine-readable report; the exit code
    states whether every check passed.
sweep
    Run one scenario at several initial-condition scales with isolated
    output directories and report event-sequence agreement.

Models are referred to by bundled name or by the path of a JSON document
describing a linear plant. A JSON config file can hold any flag value;
explicit flags override the file. Exit codes: 0 success, 1 validation
failure, 2 numerical failure, 3 I/O failure. Files state durations in
seconds; the console summaries use milliseconds.
"""

import argparse
import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from .design import TriggerConfig
from .errors import DesignError, SimulationError
from .feedback import DEFAULT_SCHEDULE, QuadraticBound, max_on_sphere_grid
from .linalg import is_hurwitz, solve_lyapunov
from .models import SCENARIO_NAMES, design_scenario, load_lti, scenario_by_name
from .riccati import RiccatiCoefficients, crossing_time, crossing_time_numeric
from .simulate import (MODES, QUANTILES, containment_margins, decay_excess,
                       json_ready, run, summarize, summary_from_events,
                       write_events_json, write_summary_json, write_trace_csv)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_CONFIG_KEYS = frozenset({
    "model", "mode", "step", "horizon", "scale", "scales", "out", "sigma",
    "theta", "level", "update_dwell", "update_decay", "quantiles",
})


def _floats(value, what):
    """Parse a float list given as a comma-separated string or a sequence."""
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"{what} must list at least one number")
        return [float(p) for p in parts]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(value)]


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _merged(args, key, default=None):
    """Flag value if given, else the config-file value, else the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    config = getattr(args, "config_data", None) or {}
    if key in config and config[key] is not None:
        return config[key]
    return default


def _resolve_scenario(args):
    """Build the scenario named by --model/--config, with overrides applied."""
    model = _merged(args, "model")
    if model is None:
        raise ValueError("a model is required (--model NAME or --model path.json)")
    model = str(model)
    level = _merged(args, "level")
    level = None if level is None else float(level)
    if model in SCENARIO_NAMES:
        scenario = scenario_by_name(model, level=level)
    elif model.endswith(".json") or "/" in model or Path(model).exists():
        scenario = load_lti(model)
    else:
        scenario = scenario_by_name(model)
    sigma = _merged(args, "sigma")
    theta = _merged(args, "theta")
    if scenario.certificate is not None:
        if sigma is not None or theta is not None:
            raise DesignError(
                "sigma and theta are fixed by the stability certificate of "
                f"{scenario.name} and cannot be overridden")
    else:
        if level is not None:
            raise DesignError(
                "a level applies only to scenarios with a stability certificate")
        replacements = {}
        if sigma is not None:
            replacements["sigma"] = float(sigma)
        if theta is not None:
            replacements["theta"] = np.asarray(_floats(theta, "theta"), dtype=float)
        if replacements:
            scenario = dataclasses.replace(scenario, **replacements)
    return scenario


def _run_options(args):
    """Simulation options shared by the simulate and sweep subcommands."""
    mode = str(_merged(args, "mode", "decentralized"))
    step = _merged(args, "step")
    horizon = _merged(args, "horizon")
    schedule = None
    overrides = {}
    for key in ("dwell", "decay"):
        value = _merged(args, f"update_{key}")
        if value is not None:
            overrides[key] = float(value)
    if overrides:
        if mode != "feedback":
            raise DesignError("update schedule options apply to feedback mode only")
        schedule = dataclasses.replace(DEFAULT_SCHEDULE, **overrides)
    quantiles = _merged(args, "quantiles")
    quantiles = QUANTILES if quantiles is None else tuple(
        _floats(quantiles, "quantiles"))
    return {
        "mode": mode,
        "step": None if step is None else float(step),
        "horizon": None if horizon is None else float(horizon),
        "schedule": schedule,
        "quantiles": quantiles,
    }


def _ms(seconds):
    return "n/a" if seconds is None else f"{1000.0 * seconds:.3f} ms"


def _print_run_summary(summary, stream=None):
    stream = stream or sys.stdout
    print(
        f"{summary['scenario']} [{summary['mode']}]: "
        f"{summary['horizon']:.3f} s at step {_ms(summary['step'])}, "
        f"{summary['transmissions']} transmissions, "
        f"{summary['updates']} parameter updates", file=stream)
    for entry in summary["sensors"]:
        label = f"  sensor {entry['sensor'] + 1}: {entry['count']} events"
        if entry["min_gap"] is not None:
            label += (f", gaps min {_ms(entry['min_gap'])}"
                      f" / mean {_ms(entry['mean_gap'])}"
                      f" / max {_ms(entry['max_gap'])}")
        print(label, file=stream)
    print(
        f"  certificate: {summary['initial_value']:.6g} initial, "
        f"{summary['final_value']:.6g} final", file=stream)


def _write_run_outputs(trace, summary, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    write_events_json(trace, out_dir / "events.json")
    write_summary_json(summary, out_dir / "summary.json")
    return out_dir


def cmd_design(args):
    """Emit the trigger design for a model as a JSON document."""
    scenario = _resolve_scenario(args)
    design = design_scenario(scenario)
    text = json.dumps(json_ready(design.to_dict()), indent=2, sort_keys=True) + "\n"
    out = _merged(args, "out")
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_simulate(args):
    """Run one closed-loop simulation and write its artifacts."""
    scenario = _resolve_scenario(args)
    options = _run_options(args)
    scale = float(_merged(args, "scale", 1.0))
    out = _merged(args, "out")
    if out is None:
        raise ValueError("simulate requires an output directory (--out)")
    design = design_scenario(scenario)
    trace = run(scenario, design=design, mode=options["mode"],
                step=options["step"], horizon=options["horizon"], scale=scale,
                schedule=options["schedule"])
    summary = summarize(trace, quantiles=options["quantiles"])
    out_dir = _write_run_outputs(trace, summary, out)
    _print_run_summary(summary)
    print(f"wrote {out_dir / 'trace.csv'}, {out_dir / 'events.json'}, "
          f"{out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_sweep(args):
    """Run the scenario once per scale and compare the event sequences."""
    scenario = _resolve_scenario(args)
    options = _run_options(args)
    scales = _floats(_merged(args, "scales", "0.001,1.0,1000.0"), "scales")
    if len(scales) < 2:
        raise ValueError("a sweep needs at least two scales")
    if not all(math.isfinite(scale) and scale > 0.0 for scale in scales):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    names = [f"scale-{scale:g}" for scale in scales]
    if len(set(names)) < len(names):
        raise ValueError(f"scales must have distinct output directories, got {names}")
    out = _merged(args, "out")
    if out is None:
        raise ValueError("sweep requires an output directory (--out)")
    design = design_scenario(scenario)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    base = None
    max_delta = 0.0
    for scale, name in zip(scales, names):
        trace = run(scenario, design=design, mode=options["mode"],
                    step=options["step"], horizon=options["horizon"],
                    scale=scale, schedule=options["schedule"])
        summary = summarize(trace, quantiles=options["quantiles"])
        sub = _write_run_outputs(trace, summary, out_dir / name)
        step = trace.meta["step"]
        if base is None:
            base = trace
        else:
            max_delta = max(max_delta, _matched_event_delta(base, trace))
        runs.append({
            "scale": scale,
            "dir": sub.name,
            "transmissions": summary["transmissions"],
            "counts": [entry["count"] for entry in summary["sensors"]],
        })

    counts_identical = math.isfinite(max_delta)
    agreement = {
        "counts_identical": counts_identical,
        "max_time_delta": max_delta if counts_identical else None,
        "step": step,
        "within_one_step": bool(max_delta <= step + 1e-12),
    }
    report = {
        "scenario": scenario.name,
        "mode": options["mode"],
        "scales": scales,
        "runs": runs,
        "agreement": agreement,
    }
    text = json.dumps(json_ready(report), indent=2, sort_keys=True) + "\n"
    with open(out_dir / "sweep.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

    for entry in runs:
        print(f"scale {entry['scale']:g}: {entry['transmissions']} transmissions "
              f"-> {out_dir / entry['dir']}")
    if agreement["within_one_step"]:
        print(f"event sequences agree within one step ({_ms(step)})")
    else:
        print("event sequences differ across scales")
    print(f"wrote {out_dir / 'sweep.json'}")
    return EXIT_OK


def _check(name, measured, tolerance, passed=None, detail=None):
    if passed is None:
        passed = bool(measured <= tolerance)
    entry = {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }
    if detail is not None:
        entry["detail"] = detail
    return entry


def _gap_shortfall(trace, dwells):
    """Largest amount any sensor's smallest gap falls below its floor."""
    shortfall = -math.inf
    for i, dwell in enumerate(dwells):
        if dwell is None or not np.isfinite(dwell):
            continue
        times = [e.time for e in trace.events if e.sensor == i]
        if len(times) >= 2:
            shortfall = max(shortfall, float(dwell - np.diff(times).min()))
    if shortfall == -math.inf:
        raise SimulationError("no sensor produced two events; cannot check gaps")
    return shortfall


def _family_excess(trace):
    """Largest excess of a held error over its share of the state norm."""
    thresholds = np.asarray(trace.meta["thresholds"], dtype=float)
    finite = np.isfinite(thresholds)
    errors = np.abs(trace.samples - trace.states)
    norms = np.linalg.norm(trace.states, axis=1)
    excess = errors[:, finite] - np.outer(norms, thresholds[finite])
    return float(excess.max())


def _sequence_mismatch(trace_a, trace_b):
    """Count of positions where two event sequences disagree."""
    seq_a = [(e.sensor, e.time) for e in trace_a.events]
    seq_b = [(e.sensor, e.time) for e in trace_b.events]
    mismatch = sum(1 for a, b in zip(seq_a, seq_b) if a != b)
    return mismatch + abs(len(seq_a) - len(seq_b))


def _matched_event_delta(trace_a, trace_b):
    """Largest time difference between each sensor's events matched in
    order, or inf when some sensor's event counts differ."""
    delta = 0.0
    for i in range(trace_a.states.shape[1]):
        times_a = [e.time for e in trace_a.events if e.sensor == i]
        times_b = [e.time for e in trace_b.events if e.sensor == i]
        if len(times_a) != len(times_b):
            return math.inf
        if times_a:
            delta = max(delta, float(np.max(np.abs(
                np.asarray(times_a) - np.asarray(times_b)))))
    return delta


def _riccati_battery(rng, count=100):
    """Worst relative disagreement of the closed-form crossing time."""
    worst = 0.0
    for k in range(count):
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


def _lyapunov_battery(rng, count=20):
    """Worst relative residual of the Lyapunov solver on random plants."""
    worst = 0.0
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        A = _random_hurwitz(rng, dim)
        M = rng.normal(size=(dim, dim))
        Q = M @ M.T + 0.1 * np.eye(dim)
        P = solve_lyapunov(A, Q)
        residual = np.linalg.norm(A.T @ P + P @ A + Q) / np.linalg.norm(Q)
        worst = max(worst, float(residual))
    return worst


def _sphere_battery(rng, count=10):
    """Worst relative gap between the exact and grid sphere maxima."""
    worst = 0.0
    for _ in range(count):
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
    expected = summarize(trace)["sensors"]
    same = json.dumps(json_ready(recomputed), sort_keys=True) == \
        json.dumps(json_ready(expected), sort_keys=True)
    return 0.0 if same else 1.0


def _scenario_checks(scenario, include_scale_invariance):
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

    horizon = min(1.5, float(scenario.horizon))
    trace = run(scenario, design=design, horizon=horizon)
    step = trace.meta["step"]
    checks.append(_check(
        f"{name}.dwell_enforcement", _gap_shortfall(trace, trace.meta["dwells"]),
        1e-12, detail="largest shortfall of a transmission gap below its floor"))
    if is_linear:
        excess = decay_excess(trace, scenario.sigma, Q=scenario.Q)
    else:
        excess = decay_excess(trace, scenario.sigma, q_min=design.q_min)
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

    pair_horizon = min(1.0, float(scenario.horizon))
    if include_scale_invariance:
        base = run(scenario, design=design, horizon=pair_horizon)
        scaled = run(scenario, design=design, horizon=pair_horizon, scale=1e3)
        checks.append(_check(
            f"{name}.scale_invariance", _matched_event_delta(base, scaled), step,
            detail="events under a 1000x initial-condition scale, matched in order"))
    with_dwell = run(scenario, design=design, horizon=pair_horizon,
                     mode="centralized")
    without = run(scenario, design=design, horizon=pair_horizon,
                  mode="centralized-nodwell")
    checks.append(_check(
        f"{name}.centralized_equivalence",
        float(_sequence_mismatch(with_dwell, without)), 0.0,
        detail="event positions where the dwell-free variant disagrees"))
    checks.append(_check(
        f"{name}.summary_roundtrip", _summary_roundtrip_mismatch(trace), 0.0,
        detail="statistics recomputed from the emitted event file"))

    forged_dwells = dataclasses.replace(
        design, config=TriggerConfig(design.config.thresholds,
                                     design.config.dwells * 0.5))
    faulty = run(scenario, design=forged_dwells, horizon=pair_horizon)
    shortfall = _gap_shortfall(faulty, design.config.dwells)
    checks.append(_check(
        f"{name}.fault_halved_dwell_detected", shortfall, 1e-12,
        passed=shortfall > 1e-12,
        detail="halving the gap floors must produce a detectable violation"))

    forged_thresholds = dataclasses.replace(
        design, config=TriggerConfig(design.config.thresholds * 2.0,
                                     design.config.dwells))
    if is_linear:
        deviation = float(np.max(np.abs(
            forged_thresholds.config.thresholds / design.config.thresholds - 1.0)))
        checks.append(_check(
            f"{name}.fault_doubled_threshold_detected", deviation, 1e-9,
            passed=deviation > 1e-9,
            detail="doubled thresholds must deviate from the derived design"))
    else:
        try:
            run(scenario, design=forged_thresholds, horizon=pair_horizon)
            detected = 0.0
        except DesignError:
            detected = 1.0
        checks.append(_check(
            f"{name}.fault_doubled_threshold_detected", detected, 1.0,
            passed=detected == 1.0,
            detail="doubled thresholds must be rejected as inadmissible"))

    if scenario.certificate is not None and scenario.lipschitz is not None:
        checks.extend(_feedback_checks(scenario, design))
    return checks


def _feedback_checks(scenario, design):
    """Containment and parameter-update invariants in feedback mode."""
    name = scenario.name
    schedule = DEFAULT_SCHEDULE
    trace = run(scenario, design=design, mode="feedback",
                horizon=min(3.0, float(scenario.horizon)), schedule=schedule)
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
        f"{name}.update_gaps", float((schedule.dwell - gaps).max()), 1e-12,
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


def cmd_verify(args):
    """Run the invariant battery and report the results as JSON."""
    model = _merged(args, "model")
    rng = np.random.default_rng(20260819)
    checks = [
        _check("riccati.closed_form_vs_numeric", _riccati_battery(rng), 1e-6,
               detail="closed-form crossing times against adaptive integration"),
        _check("linalg.lyapunov_residual_random", _lyapunov_battery(rng), 1e-10,
               detail="Lyapunov solver residuals on random stable plants"),
        _check("feedback.sphere_max_vs_grid", _sphere_battery(rng), 1e-8,
               detail="exact sphere maxima against a dense grid search"),
    ]
    if model is None:
        scenarios = [scenario_by_name(n) for n in SCENARIO_NAMES]
    else:
        scenarios = [_resolve_scenario(args)]
    for scenario in scenarios:
        include_scale = scenario.certificate is None
        checks.extend(_scenario_checks(scenario, include_scale))
    report = {
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
    text = json.dumps(json_ready(report), indent=2, sort_keys=True) + "\n"
    out = _merged(args, "out")
    if out is not None:
        path = Path(out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK if report["pass"] else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="etcontrol",
        description="Design, simulate, and verify decentralized event-triggered "
                    "controllers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", help="bundled scenario name "
                       f"({', '.join(SCENARIO_NAMES)}) or path to a JSON "
                       "description of a linear plant")
        p.add_argument("--config", help="JSON file providing defaults for any flag")
        p.add_argument("--out", help="output file (design, verify) or directory "
                       "(simulate, sweep)")

    def add_overrides(p):
        p.add_argument("--sigma", type=float, help="decay share left to the "
                       "triggers (linear models only)")
        p.add_argument("--theta", help="comma-separated per-sensor weights "
                       "(linear models only)")
        p.add_argument("--level", type=float, help="certificate level bounding "
                       "the operating region (certificate models only)")

    def add_run_flags(p):
        p.add_argument("--mode", choices=MODES, help="trigger mode "
                       "(default decentralized)")
        p.add_argument("--step", type=float, help="integration step in seconds")
        p.add_argument("--horizon", type=float, help="simulated span in seconds")
        p.add_argument("--quantiles", help="comma-separated probabilities for "
                       "the gap distribution summary")

    p_design = sub.add_parser("design", help="emit trigger parameters as JSON")
    add_common(p_design)
    add_overrides(p_design)
    p_design.set_defaults(func=cmd_design)

    p_sim = sub.add_parser("simulate", help="run the closed loop and write "
                           "trace.csv, events.json, summary.json")
    add_common(p_sim)
    add_overrides(p_sim)
    add_run_flags(p_sim)
    p_sim.add_argument("--scale", type=float, help="initial-condition scale "
                       "(default 1)")
    p_sim.add_argument("--update-dwell", type=float, dest="update_dwell",
                       help="least time between parameter updates (feedback mode)")
    p_sim.add_argument("--update-decay", type=float, dest="update_decay",
                       help="level fraction required before an update "
                       "(feedback mode)")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the invariant battery and "
                              "emit a machine-readable report")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run several initial-condition "
                             "scales with isolated outputs")
    add_common(p_sweep)
    add_overrides(p_sweep)
    add_run_flags(p_sweep)
    p_sweep.add_argument("--scales", help="comma-separated scales "
                         "(default 0.001,1,1000)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
        return EXIT_OK if code == 0 else EXIT_VALIDATION
    try:
        args.config_data = _load_config(args.config) if args.config else {}
        return args.func(args)
    except (DesignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SimulationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
