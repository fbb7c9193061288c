"""Tests of the benchmark's own code: tracer, counters, tally and speed probe.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import etcontrol  # noqa: E402
import etcontrol.feedback  # noqa: E402
import etcontrol.linalg  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(0.1)

    hot_leaf = tracer.wrap("leaf", leaf, hot=True)

    def mid():
        clock.advance(0.5)
        for _ in range(3):
            hot_leaf()

    span_mid = tracer.wrap("mid", mid, hot=False)

    def outer():
        clock.advance(1.0)
        span_mid()
        span_mid()
        clock.advance(2.0)

    tracer.op(tracer.wrap("outer", outer, hot=False))
    totals = tracer.totals()
    assert totals["op"] == pytest.approx([1, 4.6, 0.0])
    assert totals["outer"] == pytest.approx([1, 4.6, 3.0])
    assert totals["mid"] == pytest.approx([2, 1.6, 1.0])
    assert totals["leaf"] == pytest.approx([6, 0.6, 0.6])

    spans = {s["name"]: s for s in tracer.spans}
    op_id = spans["op"]["id"]
    assert spans["op"]["parent"] is None
    assert spans["outer"]["parent"] == op_id
    mids = [s for s in tracer.spans if s["name"] == "mid"]
    assert [s["parent"] for s in mids] == [spans["outer"]["id"]] * 2
    # Hot calls are aggregated per enclosing span, not stored one by one.
    assert sorted(tracer.hot) == sorted((s["id"], "leaf") for s in mids)
    assert all(slot[0] == 3 for slot in tracer.hot.values())


def test_missing_traced_name_reports_absent(monkeypatch):
    monkeypatch.delattr(etcontrol.feedback, "max_on_sphere_grid")
    original = etcontrol.linalg.sym_eig
    tracer = tracing.Tracer()
    extra = (("nowhere.f", "etcontrol.no_such_module", "f", False),)
    tracer.install(tracing.TRACED + extra)
    try:
        assert etcontrol.feedback.sym_eig is not original
        assert etcontrol.linalg.sym_eig is etcontrol.feedback.sym_eig
    finally:
        tracer.uninstall()
    assert etcontrol.linalg.sym_eig is original
    assert etcontrol.feedback.sym_eig is original
    assert tracer.absent == ["feedback.max_on_sphere_grid", "nowhere.f"]
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["feedback.max_on_sphere_grid.calls"] == 0


def _traced_short_op(name, horizon, tmp_path):
    workload = WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        job = workload.traced(workload.inputs(0, horizon=horizon)[0], tracer)
        result = tracer.op(workload.op, job, tmp_path)
    finally:
        tracer.uninstall()
    assert workload.check(job, result, 0, {}) == []
    return job, result, tracing.per_layer_metrics(tracer)


def test_counters_agree_with_trace_lti(tmp_path):
    job, result, metrics = _traced_short_op("lti_simulate", 0.2, tmp_path)
    trace = result.trace
    n_steps = round(0.2 / job.scenario.step)
    assert metrics["simulate.boundaries"] == n_steps + 1
    assert metrics["simulate.events"] == len(trace.events) > 0
    assert metrics["simulate.transmissions_due.calls"] == n_steps + 1
    assert metrics["simulate.rk4_step.calls"] == n_steps
    assert metrics["models.f.calls"] == 4 * n_steps
    assert metrics["feedback.bound.calls"] == 0
    assert 0.0 < metrics["simulate.trigger.fire_ratio"] < 1.0
    assert metrics["simulate.write_trace_csv.bytes"] == (tmp_path / "trace.csv").stat().st_size


def test_counters_agree_with_trace_feedback(tmp_path):
    job, result, metrics = _traced_short_op("feedback_simulate", 2.0, tmp_path)
    trace = result.trace
    n_steps = round(2.0 / job.scenario.feedback_step)
    assert metrics["simulate.boundaries"] == n_steps + 1
    assert metrics["simulate.events"] == len(trace.events)
    assert metrics["feedback.updates"] == len(trace.updates) > 0
    assert metrics["feedback.apply_update.calls"] == len(trace.updates)
    assert metrics["feedback.bound.calls"] == n_steps + 1
    assert 0.0 < metrics["feedback.bound.fresh_ratio"] < 1.0


@pytest.mark.parametrize("name", ["lti_simulate", "feedback_simulate"])
def test_full_seed0_op_matches_reference(name, tmp_path):
    workload = WORKLOADS[name]
    job = workload.inputs(0)[0]
    result = workload.op(job, tmp_path)
    assert workload.check(job, result, 0, {}) == []
    # The reference comparison is not vacuous: perturbed states fail it.
    states = np.asarray(result.trace.states, dtype=float)
    assert workload._against_reference(result.trace, states * (1.0 + 1e-8)) == [
        "states differ from the seed-0 reference beyond roundoff"]


class RaisingWorkload:
    def op(self, error, out_dir):
        raise error

    def check(self, job, result, seed, state):
        return []


@pytest.mark.parametrize("error, wrong", [
    (etcontrol.DesignError("not Hurwitz"), 0),
    (etcontrol.SimulationError("diverged"), 0),
    (TypeError("defect"), 1),
])
def test_only_etcontrol_refusals_are_plain_failures(error, wrong, tmp_path):
    import run
    tally = run.Tally()
    run.timed_ops(RaisingWorkload(), [error], 0, 0.0, tmp_path, {}, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, wrong)


class MixedWorkload:
    """Input 0 is refused, input 1 succeeds."""

    def op(self, job, out_dir):
        if job == 0:
            raise etcontrol.DesignError("not Hurwitz")
        return job

    def check(self, job, result, seed, state):
        return []


def test_repeated_inputs_count_once(tmp_path):
    import run
    tally = run.Tally()
    samples = []
    for _ in range(5):
        samples += run.timed_ops(MixedWorkload(), [0, 1], 0, 0.0, tmp_path, {}, tally)
    assert (len(samples), tally.attempted, tally.failed, tally.wrong) == (5, 2, 1, 0)


def test_outcome_that_changes_on_repeat_is_wrong():
    import run
    tally = run.Tally()
    tally.record(3, True)
    tally.record(3, False)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 1)


def test_speed_probe_rescales_by_nearby_kernel_times():
    import speed
    probe = speed.SpeedProbe()
    probe.times = [0.0, 10.0, 10.5, 11.0, 30.0]
    probe.durations = [9.0, 1.0, 2.0, 4.0, 9.0]
    ref = speed.KERNEL_REFERENCE_S
    assert probe.calibrated(3.0, 10.2, 10.4) == pytest.approx(3.0 * ref / (7.0 / 3.0))
    # No kernel run near the span: the last one before it is used.
    assert probe.calibrated(3.0, 20.0, 21.0) == pytest.approx(3.0 * ref / 4.0)


class FakeMachine:
    """A probe whose kernels take 30 ms of each op and run at reference speed."""

    spent = 0.0

    def calibrated(self, seconds, start, end):
        return seconds


class ProbedWorkload:
    def __init__(self, machine):
        self.machine = machine

    def op(self, job, out_dir):
        time.sleep(0.05)
        self.machine.spent += 0.03

    def check(self, job, result, seed, state):
        return []


def test_probe_kernel_time_is_taken_out_of_ops(tmp_path):
    import run
    machine = FakeMachine()
    samples = run.timed_ops(ProbedWorkload(machine), [None], 0, 0.0, tmp_path, {},
                            run.Tally(), machine=machine)
    assert 0.015 < samples[0] < 0.045


def test_speed_probe_runs_kernels_on_its_timer():
    import speed
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    # Three warm-up runs, then one every INTERVAL_S.
    assert len(probe.times) >= 5
    assert probe.spent == pytest.approx(sum(probe.durations))


def test_declared_per_layer_metrics_match_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.per_layer_metrics(tracing.Tracer())) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lti_design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
