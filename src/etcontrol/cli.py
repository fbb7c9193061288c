"""Command-line interface for trigger design, simulation, and verification.

Subcommands
-----------
design
    Compute trigger parameters for a model and emit them as JSON.
simulate
    Run the event-triggered closed loop and write trace, event, and
    summary files into an output directory.
verify
    Run the invariant battery of :mod:`etcontrol.verify`, including fault
    injections that must be caught, and emit its machine-readable report;
    the exit code states whether every check passed.
sweep
    Run one scenario at several initial-condition scales with isolated
    output directories and report event-sequence agreement.

Models are referred to by bundled name or by the path of a JSON document
describing a linear plant. A JSON config file can hold any flag value.
Each value is resolved once, before any command runs: the flag if given,
else the config file, else the default, converted by the same rule
whichever source it came from. Exit codes: 0 success, 1 validation
failure, 2 numerical failure, 3 I/O failure. Files state durations in
seconds; the console summaries use milliseconds.

This module only resolves flags and config files, calls the library and
writes files and console output; the library checks the values, and the
invariant checks live in :mod:`etcontrol.verify`.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import verify
from .errors import DesignError, SimulationError
from .feedback import DEFAULT_SCHEDULE
from .models import SCENARIO_NAMES, design_scenario, load_lti, scenario_by_name
from .simulate import (MODES, QUANTILES, checked_quantiles, dump_json, run,
                       summarize, write_events_json, write_summary_json,
                       write_trace_csv)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_CONFIG_KEYS = frozenset({
    "model", "mode", "step", "horizon", "scale", "scales", "out", "sigma",
    "theta", "level", "update_dwell", "update_decay", "quantiles",
})
# Config keys holding a string or a list of numbers; the others hold a number.
_CONFIG_STRINGS = ("model", "mode", "out")
_CONFIG_LISTS = ("scales", "theta", "quantiles")
# Values of the keys left unset by both the flags and the config file;
# every other key defaults to None.
_DEFAULTS = {"mode": "decentralized", "scale": 1.0,
             "scales": (0.001, 1.0, 1000.0), "quantiles": QUANTILES}


def _float(value, what):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _floats(value, what):
    """Parse a float list given as a comma-separated string or a sequence."""
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"{what} must list at least one number")
        return [_float(p, what) for p in parts]
    if isinstance(value, (list, tuple)):
        return [_float(v, what) for v in value]
    return [_float(value, what)]


def _settle(args):
    """Set every config key on ``args`` once: the flag if given, else the
    config-file value, else the default, converted by its key's kind."""
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(config) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    # In a fixed order, so a run with two bad values always names the same one.
    for key in sorted(_CONFIG_KEYS):
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        if value is None:
            value = _DEFAULTS.get(key)
        if key in _CONFIG_STRINGS:
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
        elif value is not None:
            value = (_floats if key in _CONFIG_LISTS else _float)(value, key)
        setattr(args, key, value)
    args.quantiles = checked_quantiles(args.quantiles)


def _resolve_scenario(args):
    """Build the scenario named by the model key, with overrides applied."""
    model = args.model
    if model is None:
        raise ValueError("a model is required (--model NAME or --model path.json)")
    if model not in SCENARIO_NAMES and (
            model.endswith(".json") or "/" in model or Path(model).exists()):
        scenario = load_lti(model)
    else:
        scenario = scenario_by_name(model)
    overrides = {key: getattr(args, key) for key in ("sigma", "theta", "level")
                 if getattr(args, key) is not None}
    if scenario.certificate is not None:
        if "sigma" in overrides or "theta" in overrides:
            raise DesignError(
                "sigma and theta are fixed by the stability certificate of "
                f"{scenario.name} and cannot be overridden")
    elif "level" in overrides:
        raise DesignError(
            "a level applies only to scenarios with a stability certificate")
    return dataclasses.replace(scenario, **overrides)


def _run_options(args):
    """Keyword arguments of ``run`` shared by the simulate and sweep commands."""
    schedule = None
    overrides = {key: getattr(args, f"update_{key}") for key in ("dwell", "decay")
                 if getattr(args, f"update_{key}") is not None}
    if overrides:
        if args.mode != "feedback":
            raise DesignError("update schedule options apply to feedback mode only")
        schedule = dataclasses.replace(DEFAULT_SCHEDULE, **overrides)
    return {"mode": args.mode, "step": args.step, "horizon": args.horizon,
            "schedule": schedule}


def _ms(seconds):
    return "n/a" if seconds is None else f"{1000.0 * seconds:.3f} ms"


def _print_run_summary(summary):
    print(
        f"{summary['scenario']} [{summary['mode']}]: "
        f"{summary['horizon']:.3f} s at step {_ms(summary['step'])}, "
        f"{summary['transmissions']} transmissions, "
        f"{summary['updates']} parameter updates")
    for entry in summary["sensors"]:
        label = f"  sensor {entry['sensor'] + 1}: {entry['count']} events"
        if entry["min_gap"] is not None:
            label += (f", gaps min {_ms(entry['min_gap'])}"
                      f" / mean {_ms(entry['mean_gap'])}"
                      f" / max {_ms(entry['max_gap'])}")
        print(label)
    print(
        f"  certificate: {summary['initial_value']:.6g} initial, "
        f"{summary['final_value']:.6g} final")


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
    text = dump_json(design.to_dict(), args.out)
    if args.out is None:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args):
    """Run one closed-loop simulation and write its artifacts."""
    scenario = _resolve_scenario(args)
    options = _run_options(args)
    if args.out is None:
        raise ValueError("simulate requires an output directory (--out)")
    design = design_scenario(scenario)
    trace = run(scenario, design=design, scale=args.scale, **options)
    summary = summarize(trace, quantiles=args.quantiles)
    out_dir = _write_run_outputs(trace, summary, args.out)
    _print_run_summary(summary)
    print(f"wrote {out_dir / 'trace.csv'}, {out_dir / 'events.json'}, "
          f"{out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_sweep(args):
    """Run the scenario once per scale and compare the event sequences."""
    scenario = _resolve_scenario(args)
    options = _run_options(args)
    scales = args.scales
    if len(scales) < 2:
        raise ValueError("a sweep needs at least two scales")
    if not all(math.isfinite(scale) and scale > 0.0 for scale in scales):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    names = [f"scale-{scale:g}" for scale in scales]
    if len(set(names)) < len(names):
        raise ValueError(f"scales must have distinct output directories, got {names}")
    if args.out is None:
        raise ValueError("sweep requires an output directory (--out)")
    design = design_scenario(scenario)
    out_dir = Path(args.out)
    runs = []
    base = None
    max_delta = 0.0
    for scale, name in zip(scales, names):
        trace = run(scenario, design=design, scale=scale, **options)
        summary = summarize(trace, quantiles=args.quantiles)
        _write_run_outputs(trace, summary, out_dir / name)
        step = trace.meta["step"]
        if base is None:
            base = trace
        else:
            max_delta = max(max_delta, verify.matched_event_delta(base, trace))
        runs.append({
            "scale": scale,
            "dir": name,
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
        "mode": args.mode,
        "scales": scales,
        "runs": runs,
        "agreement": agreement,
    }
    dump_json(report, out_dir / "sweep.json")

    for entry in runs:
        print(f"scale {entry['scale']:g}: {entry['transmissions']} transmissions "
              f"-> {out_dir / entry['dir']}")
    if agreement["within_one_step"]:
        print(f"event sequences agree within one step ({_ms(step)})")
    else:
        print("event sequences differ across scales")
    print(f"wrote {out_dir / 'sweep.json'}")
    return EXIT_OK


def cmd_verify(args):
    """Run the invariant battery of :mod:`etcontrol.verify` and report the
    results as JSON; the exit code states whether every check passed."""
    if args.model is None:
        scenarios = [scenario_by_name(n) for n in SCENARIO_NAMES]
    else:
        scenarios = [_resolve_scenario(args)]
    report = verify.report(scenarios)
    sys.stdout.write(dump_json(report, args.out))
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
        p.add_argument("--sigma", help="decay share left to the "
                       "triggers (linear models only)")
        p.add_argument("--theta", help="comma-separated per-sensor weights "
                       "(linear models only)")
        p.add_argument("--level", help="certificate level bounding "
                       "the operating region (certificate models only)")

    def add_run_flags(p):
        p.add_argument("--mode", choices=MODES, help="trigger mode "
                       "(default decentralized)")
        p.add_argument("--step", help="integration step in seconds")
        p.add_argument("--horizon", help="simulated span in seconds")
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
    p_sim.add_argument("--scale", help="initial-condition scale "
                       "(default 1)")
    p_sim.add_argument("--update-dwell", dest="update_dwell",
                       help="least time between parameter updates (feedback mode)")
    p_sim.add_argument("--update-decay", dest="update_decay",
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
        _settle(args)
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
