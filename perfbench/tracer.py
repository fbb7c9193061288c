"""Outside-in tracer: times calls into etcontrol's public functions.

The tracer never edits etcontrol. It rebinds each traced name in every
``etcontrol`` module namespace that holds it (``sym_eig`` is bound in
both ``linalg`` and ``feedback``, ``run`` in the package, ``simulate``
and ``cli``), so calls made through any of those bindings pass through
a timing wrapper. ``uninstall`` puts the original objects back.

Each benchmark op is a span with its own ID. Calls to coarse functions
(``run``, the writers, the design entry points) become spans with a
parent link. Hot per-step calls (``rk4_step``, the plant ``f``, the
containment bound, ...) are not stored one by one: they are aggregated
as count, inclusive time and self time per enclosing span. Self time is
the inclusive time minus the time covered by direct children, spans and
hot calls alike.

A traced name that the installed etcontrol no longer defines is listed
in ``absent`` and reports zero calls, so the same benchmark runs on
commits before and after the name goes away.
"""

import dataclasses
import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# (metric prefix, defining module, attribute path, hot). Hot names are
# called per integration step or per trigger evaluation.
TRACED = (
    ("simulate.run", "etcontrol.simulate", "run", False),
    ("simulate.rk4_step", "etcontrol.simulate", "rk4_step", True),
    ("simulate.transmissions_due", "etcontrol.simulate", "transmissions_due", True),
    ("simulate.summarize", "etcontrol.simulate", "summarize", False),
    ("simulate.write_trace_csv", "etcontrol.simulate", "write_trace_csv", False),
    ("simulate.write_events_json", "etcontrol.simulate", "write_events_json", False),
    ("simulate.write_summary_json", "etcontrol.simulate", "write_summary_json", False),
    ("models.design_scenario", "etcontrol.models", "design_scenario", False),
    ("models.load_lti", "etcontrol.models", "load_lti", False),
    ("feedback.bound", "etcontrol.feedback", "QuadraticBound.__call__", True),
    ("feedback.containment_sphere", "etcontrol.feedback", "containment_sphere", True),
    ("feedback.apply_update", "etcontrol.feedback", "apply_update", False),
    ("feedback.max_on_sphere_grid", "etcontrol.feedback", "max_on_sphere_grid", False),
    ("design.design_lti", "etcontrol.design", "design_lti", False),
    ("design.design_nonlinear", "etcontrol.design", "design_nonlinear", False),
    ("design.dwell_times", "etcontrol.design", "dwell_times", False),
    ("riccati.crossing_time", "etcontrol.riccati", "crossing_time", True),
    ("riccati.crossing_time_numeric", "etcontrol.riccati", "crossing_time_numeric", True),
    ("linalg.sym_eig", "etcontrol.linalg", "sym_eig", True),
    ("linalg.solve_lyapunov", "etcontrol.linalg", "solve_lyapunov", False),
    ("linalg.is_hurwitz", "etcontrol.linalg", "is_hurwitz", True),
    ("linalg.spectral_norm", "etcontrol.linalg", "spectral_norm", True),
    ("cli.verify", "etcontrol.cli", "cmd_verify", False),
)

# Plant callbacks live on each scenario's SystemModel, not in a module.
MODEL_CALLBACKS = (("models.f", "f"), ("models.controller", "controller"))


def _after_run(tracer, args, kwargs, trace):
    tracer.count("simulate.boundaries", len(trace.times))
    tracer.count("simulate.events", len(trace.events))
    tracer.count("feedback.updates", len(trace.updates))


def _after_transmissions_due(tracer, args, kwargs, fired):
    if len(fired):
        tracer.count("simulate.trigger.firing_boundaries")


def _after_write_trace_csv(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("simulate.write_trace_csv.bytes", os.path.getsize(path))


def _after_bound(tracer, args, kwargs, value):
    center, radius = args[1], args[2]
    query = (np.asarray(center, dtype=float).tobytes(), float(radius))
    if query != tracer.memo.get("feedback.bound"):
        tracer.count("feedback.bound.fresh")
    tracer.memo["feedback.bound"] = query


def _after_crossing_time_numeric(tracer, args, kwargs, value):
    if tracer.inside("riccati.crossing_time"):
        tracer.count("riccati.fallbacks")


AFTER = {
    "simulate.run": _after_run,
    "simulate.transmissions_due": _after_transmissions_due,
    "simulate.write_trace_csv": _after_write_trace_csv,
    "feedback.bound": _after_bound,
    "riccati.crossing_time_numeric": _after_crossing_time_numeric,
}


class Tracer:
    """Span recorder with per-span aggregation of hot calls.

    ``clock`` returns seconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.hot = {}
        self.counters = {}
        self.memo = {}
        self.absent = []
        self.ops = 0
        self._stack = []
        self._next_id = 1
        self._patches = []

    # -- recording -----------------------------------------------------

    def _enter(self, name, hot):
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        parent = self._nearest_span()
        frame = [name, span_id, parent, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, span_id, parent, start, child = frame
        incl = end - start
        if self._stack:
            self._stack[-1][4] += incl
        if span_id is None:
            slot = self.hot.setdefault((parent, name), [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += incl
            slot[2] += incl - child
        else:
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "self_s": incl - child,
            })

    def _nearest_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def inside(self, name):
        """Whether a call of ``name`` is open on the current stack."""
        return any(frame[0] == name for frame in self._stack)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def op(self, fn, *args):
        """Run one benchmark op as a root span named ``op``; returns its result."""
        self.ops += 1
        self.memo.clear()
        frame = self._enter("op", hot=False)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def wrap(self, name, fn, hot):
        """Timing wrapper around ``fn`` recorded under ``name``."""
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self, traced=TRACED):
        """Rebind every traced name; missing ones are listed in ``absent``."""
        for name, module_name, path, hot in traced:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, hot)
            if owners:
                self._patch(owner, attr, original, wrapped)
                continue
            for module in list(sys.modules.values()):
                where = getattr(module, "__name__", "")
                if where != "etcontrol" and not where.startswith("etcontrol."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_model(self, scenario):
        """Copy of ``scenario`` whose plant callbacks are traced."""
        model = scenario.model
        changes = {}
        for name, attr in MODEL_CALLBACKS:
            fn = getattr(model, attr, None)
            if fn is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            changes[attr] = self.wrap(name, fn, hot=True)
        return dataclasses.replace(scenario, model=dataclasses.replace(model, **changes))

    # -- results -------------------------------------------------------

    def totals(self):
        """Per name: [calls, inclusive seconds, self seconds], over all ops."""
        out = {}
        for span in self.spans:
            slot = out.setdefault(span["name"], [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += span["end"] - span["start"]
            slot[2] += span["self_s"]
        for (_, name), (calls, incl, own) in self.hot.items():
            slot = out.setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += incl
            slot[2] += own
        return out

    def dump(self, path, extra=None):
        """Write spans, hot aggregates and counters as JSON."""
        document = {
            "spans": self.spans,
            "hot": [{"span": parent, "name": name, "calls": c, "incl_s": i, "self_s": s}
                    for (parent, name), (c, i, s) in self.hot.items()],
            "counters": self.counters,
            "absent": self.absent,
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)


def per_layer_metrics(tracer):
    """Per-op layer metrics from a finished traced run.

    Calls, times and counts are divided by the number of traced ops, so
    runs that fit a different number of ops in their time compare.
    """
    ops = max(tracer.ops, 1)
    totals = tracer.totals()
    counters = tracer.counters
    metrics = {}
    for name in [t[0] for t in TRACED] + [m[0] for m in MODEL_CALLBACKS]:
        calls, incl, own = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.incl_s"] = incl / ops
        metrics[f"{name}.self_s"] = own / ops
    _, incl, own = totals.get("op", (0, 0.0, 0.0))
    metrics["op.incl_s"] = incl / ops
    metrics["op.self_s"] = own / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    for name in ("simulate.boundaries", "simulate.events", "feedback.updates",
                 "simulate.write_trace_csv.bytes"):
        metrics[name] = counters.get(name, 0) / ops
    metrics["simulate.trigger.fire_ratio"] = ratio(
        counters.get("simulate.trigger.firing_boundaries", 0),
        calls("simulate.transmissions_due"))
    metrics["simulate.write_trace_csv.mb_per_s"] = ratio(
        counters.get("simulate.write_trace_csv.bytes", 0) / 1e6,
        incl("simulate.write_trace_csv"))
    metrics["feedback.bound.us_per_call"] = 1e6 * ratio(
        incl("feedback.bound"), calls("feedback.bound"))
    metrics["feedback.bound.fresh_ratio"] = ratio(
        counters.get("feedback.bound.fresh", 0), calls("feedback.bound"))
    metrics["riccati.fallback_ratio"] = ratio(
        counters.get("riccati.fallbacks", 0), calls("riccati.crossing_time"))
    metrics["cli.verify.checks"] = counters.get("cli.verify.checks", 0) / ops
    return metrics
