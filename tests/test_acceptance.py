"""Acceptance suite: every deliverable claim, one test per criterion.

Each test pins one externally visible guarantee of the package at its
stated tolerance, using the two bundled benchmark scenarios. Expensive
simulations are shared through module-scoped fixtures, and runs that
share a step are stepped as one ``run_members`` batch.
"""

import math
import time

import numpy as np
import pytest

from etcontrol.design import design_lti
from etcontrol.linalg import is_hurwitz, solve_lyapunov
from etcontrol.models import (BATCH_A, BATCH_B, BATCH_K, batch_reactor,
                              cubic_oscillator, design_scenario)
from etcontrol.riccati import (RiccatiCoefficients, crossing_time,
                               crossing_time_numeric)
from etcontrol.simulate import containment_margins, decay_excess, run, run_members

# Reference statistics for the bundled benchmark runs. Dwells and gaps
# are in milliseconds; counts are transmissions over the 10 s horizon.
BATCH_DWELLS_MS = (11.0, 15.4, 12.6, 19.9)
BATCH_MEAN_GAPS_MS = (24.9, 27.7, 34.5, 34.2)
BATCH_GAP_RATIOS = (0.44, 0.55, 0.36, 0.58)
CUBIC_THRESHOLDS = (0.0045, 0.0832)
CUBIC_DWELLS_MS = (4.0, 3.4)
CUBIC_INITIAL_VALUE = 8.574
STATIC_COUNTS = (2366, 382)
STATIC_MEAN_GAPS_MS = (4.2, 26.2)
FEEDBACK_UPDATES = 16
FEEDBACK_COUNTS = (198, 322)
FEEDBACK_MIN_GAPS_MS = (4.2, 9.0)
FEEDBACK_MEAN_GAPS_MS = (50.5, 31.1)


def sensor_gaps(trace, sensor):
    times = np.array([e.time for e in trace.events if e.sensor == sensor])
    assert times.size >= 2, f"sensor {sensor} produced too few events"
    return np.diff(times)


def event_sequence(trace):
    return [(e.sensor, e.time) for e in trace.events]


@pytest.fixture(scope="module")
def batch():
    scenario = batch_reactor()
    return scenario, design_scenario(scenario)


@pytest.fixture(scope="module")
def batch_trace(batch):
    scenario, design = batch
    return run(scenario, design=design)


@pytest.fixture(scope="module")
def cubic():
    scenario = cubic_oscillator()
    return scenario, design_scenario(scenario)


@pytest.fixture(scope="module")
def cubic_trace(cubic):
    scenario, design = cubic
    return run(scenario, design=design)


@pytest.fixture(scope="module")
def feedback_trace(cubic):
    scenario, design = cubic
    return run(scenario, design=design, mode="feedback")


@pytest.fixture(scope="module")
def scaled_traces(batch, batch_trace):
    scenario, design = batch
    small, large = run_members(scenario, [
        dict(design=design, scale=1e-3), dict(design=design, scale=1e3)])
    return {1e-3: small, 1.0: batch_trace, 1e3: large}


@pytest.fixture(scope="module")
def centralized_pair(batch):
    scenario, design = batch
    with_dwell, without = run_members(scenario, [
        dict(design=design, mode="centralized"),
        dict(design=design, mode="centralized-nodwell")])
    return with_dwell, without


def test_criterion_01_batch_design_dwells_within_5_percent():
    start = time.perf_counter()
    design = design_lti(BATCH_A, BATCH_B, BATCH_K, np.eye(4),
                        (0.6, 0.17, 0.08, 0.15), 0.95)
    elapsed = time.perf_counter() - start
    for i, expected_ms in enumerate(BATCH_DWELLS_MS):
        assert design.config.dwells[i] * 1e3 == pytest.approx(
            expected_ms, rel=0.05), f"dwell {i + 1}"
    assert elapsed < 1.0, f"design took {elapsed:.3f} s"


def test_criterion_02_batch_gap_statistics(batch, batch_trace):
    _, design = batch
    step = batch_trace.meta["step"]
    for i in range(4):
        gaps = sensor_gaps(batch_trace, i)
        dwell = design.config.dwells[i]
        assert gaps.min() >= dwell - 1e-12, f"sensor {i + 1} broke its floor"
        assert gaps.min() <= dwell + step + 1e-12, \
            f"sensor {i + 1} min gap {gaps.min():.6f} not within one step of {dwell:.6f}"
        assert gaps.mean() * 1e3 == pytest.approx(
            BATCH_MEAN_GAPS_MS[i], rel=0.15), f"sensor {i + 1} mean gap"
        ratio = dwell / gaps.mean()
        assert ratio == pytest.approx(BATCH_GAP_RATIOS[i], abs=0.08), \
            f"sensor {i + 1} dwell-to-mean ratio"


def test_criterion_03_cubic_design_values(cubic):
    _, design = cubic
    for i in range(2):
        assert design.config.thresholds[i] == pytest.approx(
            CUBIC_THRESHOLDS[i], rel=0.05), f"threshold {i + 1}"
        assert design.config.dwells[i] * 1e3 == pytest.approx(
            CUBIC_DWELLS_MS[i], rel=0.10), f"dwell {i + 1}"


def test_criterion_04_cubic_static_run(cubic_trace):
    assert cubic_trace.lyapunov[0] == pytest.approx(
        CUBIC_INITIAL_VALUE, abs=1e-3)
    for i in range(2):
        count = sum(1 for e in cubic_trace.events if e.sensor == i)
        assert count == pytest.approx(STATIC_COUNTS[i], rel=0.15), \
            f"sensor {i + 1} transmission count"
        gaps = sensor_gaps(cubic_trace, i)
        assert gaps.mean() * 1e3 == pytest.approx(
            STATIC_MEAN_GAPS_MS[i], rel=0.15), f"sensor {i + 1} mean gap"


def test_criterion_05_feedback_run(feedback_trace):
    step = feedback_trace.meta["step"]
    assert abs(len(feedback_trace.updates) - FEEDBACK_UPDATES) <= 3
    for i in range(2):
        count = sum(1 for e in feedback_trace.events if e.sensor == i)
        assert count == pytest.approx(FEEDBACK_COUNTS[i], rel=0.20), \
            f"sensor {i + 1} transmission count"
        gaps = sensor_gaps(feedback_trace, i)
        assert gaps.min() >= FEEDBACK_MIN_GAPS_MS[i] * 1e-3 - step, \
            f"sensor {i + 1} min gap"
        assert gaps.mean() * 1e3 == pytest.approx(
            FEEDBACK_MEAN_GAPS_MS[i], rel=0.20), f"sensor {i + 1} mean gap"


def test_criterion_06_certificate_decrease(batch, batch_trace, cubic,
                                           cubic_trace):
    batch_scenario, _ = batch
    excess = decay_excess(batch_trace, batch_scenario.sigma, Q=batch_scenario.Q)
    allowed = 1e-6 * batch_trace.lyapunov[0]
    violations = int(np.count_nonzero(excess > allowed))
    assert violations == 0, f"linear run: {violations} steps beyond tolerance"
    cubic_scenario, _ = cubic
    excess = decay_excess(cubic_trace, cubic_scenario.sigma, Q=cubic_scenario.Q)
    allowed = 1e-6 * cubic_trace.lyapunov[0]
    violations = int(np.count_nonzero(excess > allowed))
    assert violations == 0, f"nonlinear run: {violations} steps beyond tolerance"


def test_criterion_07_scale_invariance(scaled_traces):
    scales = sorted(scaled_traces)
    step = scaled_traces[1.0].meta["step"]
    sequences = {b: event_sequence(scaled_traces[b]) for b in scales}
    for a in scales:
        for b in scales:
            if a >= b:
                continue
            seq_a, seq_b = sequences[a], sequences[b]
            assert len(seq_a) == len(seq_b), f"counts differ for {a} vs {b}"
            for (s_a, t_a), (s_b, t_b) in zip(seq_a, seq_b):
                assert s_a == s_b, f"sensor order differs for {a} vs {b}"
                assert abs(t_a - t_b) <= step + 1e-12, \
                    f"event time differs by more than one step for {a} vs {b}"


def test_criterion_08_crossing_time_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    worst = 0.0
    for k in range(1000):
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
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst relative disagreement {worst:.3e}"
    assert elapsed < 5.0, f"battery took {elapsed:.3f} s"


def test_criterion_09_lyapunov_solver_residuals():
    A_cl = BATCH_A + BATCH_B @ BATCH_K
    Q = np.eye(4)
    P = solve_lyapunov(A_cl, Q)
    residual = np.linalg.norm(A_cl.T @ P + P @ A_cl + Q)
    assert residual <= 1e-10 * np.linalg.norm(Q), "batch-reactor residual"
    rng = np.random.default_rng(5678)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        M = rng.normal(size=(dim, dim))
        shift = 0.1 * float(np.linalg.norm(M))
        A = M - shift * np.eye(dim)
        while not is_hurwitz(A):
            shift *= 2.0
            A = M - shift * np.eye(dim)
        G = rng.normal(size=(dim, dim))
        Q = G @ G.T + 0.1 * np.eye(dim)
        P = solve_lyapunov(A, Q)
        residual = np.linalg.norm(A.T @ P + P @ A + Q)
        assert residual <= 1e-10 * np.linalg.norm(Q), \
            f"random {dim}-dimensional system residual {residual:.3e}"


def test_criterion_10_containment_soundness(feedback_trace):
    margins = containment_margins(feedback_trace)
    assert margins["distance_excess"] <= 1e-6, \
        f"state left the containment ball by {margins['distance_excess']:.3e}"
    assert margins["level_excess"] <= 0.0, \
        f"certificate exceeded the sampled level by {margins['level_excess']:.3e}"


def test_criterion_11_centralized_trigger_equivalence(centralized_pair):
    with_dwell, without = centralized_pair
    assert event_sequence(with_dwell) == event_sequence(without)
