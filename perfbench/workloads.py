"""The benchmark's four workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one caller: an op starts only after
the previous one has finished. Ops call etcontrol through the package
and module attributes at call time, so the tracer's rebinding sees them.
Checks run outside the timed region and return a list of problems; an
empty list means the op's outputs are correct.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import etcontrol as ec
import etcontrol.cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Plants per lti_design run; a multiple of the nine plant sizes 2..10.
DESIGN_PLANTS = 1188
DESIGN_SIZES = tuple(range(2, 11))
# Closed-loop eigenvalue real parts span -1 .. -10**k, k drawn from this range.
DESIGN_SPREAD_DECADES = (1.0, 4.0)

# Horizon of the reduced op used to warm up a fresh process.
WARM_UP_HORIZON = 0.5
# States of the seed-0 reference are kept at every this many boundaries.
REFERENCE_STRIDE = 250
STATE_RTOL = 1e-10


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a, b, rtol=1e-12):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Workload:
    """Defaults for workloads whose inputs hold no plant callbacks."""

    def traced(self, job, tracer):
        """The job with its plant callbacks wrapped by ``tracer``."""
        return job

    def trace_counts(self, result):
        """Counters that only the op's result can give, for a traced op."""
        return {}


@dataclasses.dataclass(frozen=True)
class SimulateJob:
    scenario: object
    mode: str
    schedule: object
    horizon: float = None


@dataclasses.dataclass(frozen=True)
class SimulateResult:
    design: object
    trace: object
    out_dir: Path


class SimulateWorkload(Workload):
    """``etcontrol simulate``: design, run, summarize, write the three files."""

    def __init__(self, name, scenario_name, mode, schedule=None):
        self.name = name
        self.scenario_name = scenario_name
        self.mode = mode
        self.schedule = schedule

    def _scenario(self, seed):
        scenario = ec.scenario_by_name(self.scenario_name)
        if seed == 0:
            return scenario
        # Same certificate value (or norm, without a certificate) as the
        # bundled x0, random direction; xs0 keeps the bundled offset.
        rng = np.random.default_rng(seed)
        x0 = np.asarray(scenario.x0, dtype=float)
        direction = rng.normal(size=x0.shape)
        cert = scenario.certificate
        if cert is None:
            new_x0 = direction * (np.linalg.norm(x0) / np.linalg.norm(direction))
        else:
            new_x0 = direction * math.sqrt(cert.value(x0) / cert.value(direction))
        new_xs0 = new_x0 + (np.asarray(scenario.xs0, dtype=float) - x0)
        return dataclasses.replace(scenario, x0=new_x0, xs0=new_xs0)

    def inputs(self, seed, horizon=None):
        schedule = ec.UpdateSchedule(*self.schedule) if self.schedule else None
        return [SimulateJob(self._scenario(seed), self.mode, schedule, horizon)]

    def traced(self, job, tracer):
        return dataclasses.replace(job, scenario=tracer.wrap_model(job.scenario))

    def op(self, job, out_dir):
        design = ec.design_scenario(job.scenario)
        trace = ec.run(job.scenario, design=design, mode=job.mode,
                       horizon=job.horizon, schedule=job.schedule)
        summary = ec.summarize(trace)
        ec.write_trace_csv(trace, out_dir / "trace.csv")
        ec.write_events_json(trace, out_dir / "events.json")
        ec.write_summary_json(summary, out_dir / "summary.json")
        return SimulateResult(design, trace, out_dir)

    def warm_up(self, jobs, out_dir):
        self.op(dataclasses.replace(jobs[0], horizon=WARM_UP_HORIZON), out_dir)

    def check(self, job, result, seed, state):
        trace = result.trace
        out = result.out_dir
        times = np.asarray(trace.times, dtype=float)
        states = np.asarray(trace.states, dtype=float)
        step = float(times[1] - times[0])
        problems = []

        with open(out / "trace.csv", "rb") as fh:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if rows != times.size + 1:
            problems.append(f"trace.csv has {rows} lines for {times.size} boundaries")

        events = json.loads((out / "events.json").read_text())["events"]
        summary = json.loads((out / "summary.json").read_text())
        sent = [e for e in events if e["type"] == "transmission"]
        dwells = trace.meta["dwells"]
        by_sensor = [[] for _ in dwells]
        for e in sent:
            by_sensor[e["sensor"]].append(e["t"])
        for i, event_times in enumerate(by_sensor):
            gaps = np.diff(event_times)
            if gaps.size and math.isfinite(dwells[i]) and gaps.min() < dwells[i] - step:
                problems.append(f"sensor {i} gap {gaps.min():.6g} below dwell {dwells[i]:.6g}")

        # The summary must follow from events.json alone.
        if summary["transmissions"] != len(sent):
            problems.append("summary transmission count differs from events.json")
        if summary["updates"] != sum(e["type"] == "param_update" for e in events):
            problems.append("summary update count differs from events.json")
        for i, entry in enumerate(summary["sensors"]):
            event_times = np.asarray(by_sensor[i])
            if entry["count"] != event_times.size:
                problems.append(f"sensor {i} count differs from events.json")
                continue
            if event_times.size < 2:
                continue
            gaps = np.diff(event_times)
            expected = {"min_gap": gaps.min(), "mean_gap": gaps.mean(), "max_gap": gaps.max()}
            expected.update({f"q{q}": np.quantile(gaps, float(q))
                             for q in entry["gap_quantiles"]})
            got = {k: entry[k] for k in ("min_gap", "mean_gap", "max_gap")}
            got.update({f"q{q}": v for q, v in entry["gap_quantiles"].items()})
            if any(not _close(float(expected[k]), got[k]) for k in expected):
                problems.append(f"sensor {i} gap statistics differ from events.json")

        # Certified decrease, from the states with the design's P.
        P = np.asarray(result.design.P, dtype=float)
        V = np.einsum("ki,ij,kj->k", states, P, states)
        if job.scenario.certificate is None:
            margin = np.einsum("ki,ij,kj->k", states, np.asarray(job.scenario.Q), states)
        else:
            margin = float(result.design.q_min) * np.sum(states**2, axis=1)
        excess = np.gradient(V, times) + (1.0 - float(job.scenario.sigma)) * margin
        if excess.max() > 1e-6 * V[0]:
            problems.append(f"certificate decay exceeded by {excess.max():.3g}")

        if job.mode == "feedback":
            centers = np.array([r.center for r in trace.containment])
            radii = np.array([r.radius for r in trace.containment])
            levels = np.array([r.level for r in trace.containment])
            distance = (np.linalg.norm(states - centers, axis=1) - radii).max()
            level = (V - levels).max()
            if distance > 1e-6 or level > 1e-6:
                problems.append(f"containment exceeded: distance {distance:.3g}, "
                                f"level {level:.3g}")

        digests = (_digest(out / "events.json"), _digest(out / "summary.json"))
        if state.setdefault("digests", digests) != digests:
            problems.append("events.json or summary.json differs from the run's first op")

        if seed == 0 and job.horizon is None:
            problems.extend(self._against_reference(trace, states))
        return problems

    def reference(self, trace):
        """The seed-0 reference document for a finished full-horizon trace."""
        index = list(range(0, len(trace.times), REFERENCE_STRIDE))
        if index[-1] != len(trace.times) - 1:
            index.append(len(trace.times) - 1)
        return {
            "events": [[e.sensor, e.time] for e in trace.events],
            "updates": len(trace.updates),
            "state_index": index,
            "states": np.asarray(trace.states)[index].tolist(),
        }

    def _against_reference(self, trace, states):
        path = REFERENCE_DIR / f"{self.name}.json"
        ref = json.loads(path.read_text())
        problems = []
        if [[e.sensor, e.time] for e in trace.events] != ref["events"]:
            problems.append("event sequence differs from the seed-0 reference")
        if len(trace.updates) != ref["updates"]:
            problems.append("update count differs from the seed-0 reference")
        expected = np.asarray(ref["states"])
        if states.shape[0] <= ref["state_index"][-1]:
            problems.append("fewer boundaries than the seed-0 reference")
        else:
            scale = np.abs(expected).max()
            if np.abs(states[ref["state_index"]] - expected).max() > STATE_RTOL * scale:
                problems.append("states differ from the seed-0 reference beyond roundoff")
        return problems


class VerifyWorkload(Workload):
    """``etcontrol verify`` with stdout captured; the seed is not used."""

    name = "verify"

    def inputs(self, seed):
        return [None]

    def op(self, job, out_dir):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = etcontrol.cli.main(["verify"])
        return code, buffer.getvalue()

    def warm_up(self, jobs, out_dir):
        for name in ec.models.SCENARIO_NAMES:
            with contextlib.redirect_stdout(io.StringIO()):
                etcontrol.cli.main(["design", "--model", name])

    def trace_counts(self, result):
        return {"cli.verify.checks": len(json.loads(result[1])["checks"])}

    def check(self, job, result, seed, state):
        code, text = result
        report = json.loads(text)
        problems = []
        if code != 0 or not report["pass"]:
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            problems.append(f"verify exit code {code}, failed checks: {failed}")
        if state.setdefault("report", text) != text:
            problems.append("verify report differs from the run's first op")
        return problems


def random_plant(rng, n, decades):
    """A custom-LTI document whose closed loop A + BK has a known spectrum.

    Closed-loop eigenvalue real parts run from -1 to -10**decades, both
    ends included; interior ones may form complex pairs. Stability is checked
    with numpy's eigenvalues of A + BK as the program will form it.
    """
    m = int(rng.integers(1, min(n, 3) + 1))
    while True:
        mags = np.sort(np.concatenate(
            ([1.0, 10.0 ** decades], 10.0 ** (decades * rng.random(n - 2)))))
        D = np.zeros((n, n))
        i = 0
        while i < n:
            if 1 <= i < n - 2 and rng.random() < 0.5:
                re, im = -mags[i], mags[i] * rng.uniform(0.2, 2.0)
                D[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
                i += 2
            else:
                D[i, i] = -mags[i]
                i += 1
        S = rng.normal(size=(n, n))
        if np.linalg.cond(S) > 50.0:
            continue
        A_cl = S @ D @ np.linalg.inv(S)
        B = rng.normal(size=(n, m))
        K = rng.normal(size=(m, n))
        A = A_cl - B @ K
        if np.linalg.eigvals(A + B @ K).real.max() < 0.0:
            break
    x0 = rng.normal(size=n)
    return {
        "name": f"plant_n{n}",
        "A": A.tolist(), "B": B.tolist(), "K": K.tolist(),
        "Q": np.diag(rng.uniform(0.5, 2.0, size=n)).tolist(),
        "theta": (rng.dirichlet(np.ones(n)) * rng.uniform(0.8, 1.0)).tolist(),
        "sigma": float(rng.uniform(0.5, 0.95)),
        "x0": x0.tolist(), "xs0": (x0 + 0.05 * rng.normal(size=n)).tolist(),
        "horizon": 1.0,
    }


class DesignWorkload(Workload):
    """``load_lti`` -> ``design_scenario`` -> ``to_dict`` on seeded plants."""

    name = "lti_design"

    def inputs(self, seed):
        # Sizes and spreads are stratified so that the op-time distribution
        # depends little on the seed; the matrices come from the seed.
        rng = np.random.default_rng(seed)
        per_size = DESIGN_PLANTS // len(DESIGN_SIZES)
        lo, hi = DESIGN_SPREAD_DECADES
        plants = []
        for n in DESIGN_SIZES:
            for j in range(per_size):
                decades = lo + (hi - lo) * (j + rng.random()) / per_size
                plants.append(random_plant(rng, n, decades))
        return [plants[i] for i in rng.permutation(len(plants))]

    def op(self, doc, out_dir):
        design = ec.design_scenario(ec.load_lti(doc))
        return design.to_dict()

    def warm_up(self, jobs, out_dir):
        self.op(jobs[0], out_dir)

    def check(self, doc, result, seed, state):
        A_cl = np.asarray(doc["A"]) + np.asarray(doc["B"]) @ np.asarray(doc["K"])
        Q = np.asarray(doc["Q"])
        P = np.asarray(result["P"], dtype=float)
        problems = []
        residual = np.linalg.norm(P @ A_cl + A_cl.T @ P + Q)
        if not residual <= 1e-10 * np.linalg.norm(Q):
            problems.append(f"Lyapunov residual {residual:.3g}")
        for i, sensor in enumerate(result["sensors"]):
            if not (sensor["w"] > 0.0 and sensor["T"] > 0.0):
                problems.append(f"sensor {i}: w={sensor['w']}, T={sensor['T']}")
        return problems


WORKLOADS = {
    "lti_simulate": SimulateWorkload("lti_simulate", "batch_reactor", "decentralized"),
    "feedback_simulate": SimulateWorkload(
        "feedback_simulate", "cubic_oscillator", "feedback", schedule=(0.5, 0.5)),
    "verify": VerifyWorkload(),
    "lti_design": DesignWorkload(),
}
