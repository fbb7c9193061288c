"""Tests for the fixed-step event-triggered simulation engine."""

import filecmp

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from etcontrol.design import DesignResult, TriggerConfig
from etcontrol.errors import DesignError, SimulationError
from etcontrol.feedback import UpdateSchedule
from etcontrol.models import (
    BATCH_A,
    BATCH_B,
    BATCH_K,
    batch_reactor,
    cubic_oscillator,
    design_scenario,
    load_lti,
)
from etcontrol.simulate import (
    SimulationTrace,
    TransmissionEvent,
    containment_margins,
    decay_excess,
    rk4_step,
    run,
    summarize,
    transmissions_due,
    write_events_json,
    write_summary_json,
    write_trace_csv,
)


@pytest.fixture(scope="module")
def batch_short():
    scenario = batch_reactor()
    return scenario, design_scenario(scenario), run(scenario, horizon=2.0)


@pytest.fixture(scope="module")
def cubic_short():
    scenario = cubic_oscillator()
    return scenario, run(scenario, horizon=2.0)


def _zeno_scenario():
    # A scalar loop designed with a nearly vanished decay margin gets a
    # tiny threshold, so the sampling error exceeds it at every boundary.
    return load_lti({
        "A": [[-1.0]], "B": [[1.0]], "K": [[-1.0]], "Q": [[1.0]],
        "theta": [0.5], "sigma": 1e-6,
        "x0": [1.0], "xs0": [1.001], "horizon": 3.0,
    })


class TestIntegrator:
    def test_scalar_exponential_step(self):
        decay = lambda x, u: -x
        x1 = rk4_step(decay, np.array([1.0]), np.array([0.0]), 0.01)
        assert x1[0] == pytest.approx(np.exp(-0.01), abs=1e-12)

    def test_matches_matrix_exponential(self):
        model = batch_reactor().model
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        xs = rng.standard_normal(4)
        u = BATCH_K @ xs
        h = 1e-4
        steps = 20
        state = x.copy()
        for _ in range(steps):
            state = rk4_step(model.f, state, u, h)
        # Held input folded into an augmented generator: d/dt [x; 1].
        aug = np.zeros((5, 5))
        aug[:4, :4] = BATCH_A
        aug[:4, 4] = BATCH_B @ u
        exact = (expm(aug * (h * steps)) @ np.append(x, 1.0))[:4]
        npt.assert_allclose(state, exact, rtol=1e-12)

    def test_equilibrium_is_fixed(self):
        model = batch_reactor().model
        zero = np.zeros(4)
        npt.assert_array_equal(rk4_step(model.f, zero, model.controller(zero), 1e-2), zero)


class TestTransmissionsDue:
    def _config(self):
        return TriggerConfig(
            thresholds=np.array([0.1, np.inf]), dwells=np.array([1.0, np.inf]))

    def test_fires_on_threshold_crossing(self):
        fired = transmissions_due(
            0.0, np.array([1.0, 5.0]), np.array([1.2, 99.0]),
            self._config(), np.array([-1.0, -np.inf]))
        assert fired == [0]

    def test_below_threshold_stays_silent(self):
        fired = transmissions_due(
            0.0, np.array([1.0, 5.0]), np.array([1.05, 99.0]),
            self._config(), np.array([-1.0, -np.inf]))
        assert fired == []

    def test_dwell_blocks_firing(self):
        fired = transmissions_due(
            0.0, np.array([1.0, 5.0]), np.array([1.2, 99.0]),
            self._config(), np.array([-0.5, -np.inf]))
        assert fired == []

    def test_nodwell_mode_ignores_dwell(self):
        # Error 0.6 is above 0.1 * |x|, but the dwell has 0.5 left to run.
        state = np.array([1.0, 5.0])
        samples = np.array([1.6, 99.0])
        last = np.array([-0.5, -np.inf])
        assert transmissions_due(
            0.0, state, samples, self._config(), last, mode="centralized") == []
        assert transmissions_due(
            0.0, state, samples, self._config(), last,
            mode="centralized-nodwell") == [0]

    def test_zero_error_never_fires(self):
        fired = transmissions_due(
            0.0, np.array([1.0, 5.0]), np.array([1.0, 99.0]),
            self._config(), np.array([-1.0, -np.inf]))
        assert fired == []

    def test_zero_component_with_nonzero_error_fires(self):
        fired = transmissions_due(
            0.0, np.array([0.0, 5.0]), np.array([0.3, 99.0]),
            self._config(), np.array([-1.0, -np.inf]))
        assert fired == [0]

    def test_centralized_uses_state_norm(self):
        # Error 0.2 is above 0.1 * |x_1| = 0.1 but below 0.1 * |x| = 0.5.
        config = TriggerConfig(
            thresholds=np.array([0.1, 0.1]), dwells=np.array([1.0, 1.0]))
        state = np.array([1.0, np.sqrt(24.0)])
        samples = state + np.array([0.2, 0.0])
        last = np.array([-1.0, -1.0])
        assert transmissions_due(0.0, state, samples, config, last) == [0]
        assert transmissions_due(
            0.0, state, samples, config, last, mode="centralized") == []


class TestRunValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run(batch_reactor(), mode="sporadic")

    def test_bad_scale_step_horizon(self):
        with pytest.raises(ValueError, match="scale"):
            run(batch_reactor(), scale=0.0)
        with pytest.raises(ValueError, match="step"):
            run(batch_reactor(), step=-1e-4)
        with pytest.raises(ValueError, match="horizon"):
            run(batch_reactor(), horizon=-1.0)
        with pytest.raises(ValueError, match="one step"):
            run(batch_reactor(), horizon=1e-6)

    def test_feedback_needs_certificate(self):
        with pytest.raises(DesignError, match="certificate"):
            run(batch_reactor(), mode="feedback")

    def test_initial_state_outside_level_set(self):
        with pytest.raises(DesignError, match="exceeds the design"):
            run(cubic_oscillator(), scale=2.0, horizon=0.1)

    def test_thresholds_above_caps_rejected(self):
        scenario = cubic_oscillator()
        base = design_scenario(scenario)
        forged = DesignResult(
            config=TriggerConfig(
                thresholds=2.0 * base.config.thresholds, dwells=base.config.dwells),
            P=base.P, q_min=base.q_min, sigma=base.sigma,
            theta=base.theta, level=base.level)
        with pytest.raises(DesignError, match="admissible"):
            run(scenario, design=forged, horizon=0.1)

    def test_zeno_configuration_aborts(self):
        with pytest.raises(SimulationError, match="Zeno"):
            run(_zeno_scenario(), mode="centralized-nodwell")


class TestRunBatch:
    def test_trace_shapes(self, batch_short):
        _, _, trace = batch_short
        boundaries = int(round(2.0 / 1e-4)) + 1
        assert trace.times.shape == (boundaries,)
        assert trace.states.shape == (boundaries, 4)
        assert trace.samples.shape == (boundaries, 4)
        assert trace.lyapunov.shape == (boundaries,)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(2.0, rel=1e-12)
        assert trace.meta["mode"] == "decentralized"
        assert trace.meta["boundaries"] == boundaries

    def test_all_sensors_transmit(self, batch_short):
        _, _, trace = batch_short
        sensors = {e.sensor for e in trace.events}
        assert sensors == {0, 1, 2, 3}

    def test_dwell_times_are_enforced(self, batch_short):
        _, design, trace = batch_short
        for i in range(4):
            times = np.array([e.time for e in trace.events if e.sensor == i])
            gaps = np.diff(times)
            assert gaps.min() >= design.config.dwells[i] - 1e-12

    def test_certificate_decreases(self, batch_short):
        _, _, trace = batch_short
        assert trace.lyapunov[-1] < 1e-3 * trace.lyapunov[0]
        excess = decay_excess(trace, 0.95, Q=np.eye(4))
        assert excess.max() <= 1e-6 * trace.lyapunov[0]

    def test_first_event_gap_uses_virtual_baseline(self, batch_short):
        _, design, trace = batch_short
        # Sensor 4 starts with a unit error and fires immediately at t=0.
        first = next(e for e in trace.events if e.sensor == 3)
        assert first.time == 0.0
        assert first.gap == pytest.approx(design.config.dwells[3], rel=1e-12)

    def test_events_are_chronological(self, batch_short):
        _, _, trace = batch_short
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_scale_invariance(self):
        a = run(batch_reactor(), horizon=1.0)
        b = run(batch_reactor(), horizon=1.0, scale=1e3)
        assert [(e.sensor, e.time) for e in a.events] == \
               [(e.sensor, e.time) for e in b.events]

    def test_centralized_dwell_is_redundant(self):
        with_dwell = run(batch_reactor(), mode="centralized", horizon=1.0)
        without = run(batch_reactor(), mode="centralized-nodwell", horizon=1.0)
        assert [(e.sensor, e.time) for e in with_dwell.events] == \
               [(e.sensor, e.time) for e in without.events]

    def test_halved_dwells_break_the_gap_floor(self, batch_short):
        # Fault injection: a config with halved dwell times must produce a
        # gap below the designed floor, proving the check has teeth.
        scenario, design, _ = batch_short
        faulty = DesignResult(
            config=TriggerConfig(
                thresholds=design.config.thresholds,
                dwells=0.5 * design.config.dwells),
            P=design.P, q_min=design.q_min, sigma=design.sigma, theta=design.theta)
        trace = run(scenario, design=faulty, horizon=1.0)
        violated = False
        for i in range(4):
            times = np.array([e.time for e in trace.events if e.sensor == i])
            if times.size >= 2 and np.diff(times).min() < design.config.dwells[i] - 1e-12:
                violated = True
        assert violated


class TestRunCubic:
    def test_certificate_decreases(self, cubic_short):
        scenario, trace = cubic_short
        assert trace.lyapunov[0] == pytest.approx(8.574, abs=1e-6)
        assert trace.lyapunov[-1] < 0.05 * trace.lyapunov[0]

    def test_decay_bound_holds_at_two_steps(self, cubic_short):
        scenario, trace = cubic_short
        tol = 1e-6 * trace.lyapunov[0]
        assert decay_excess(trace, scenario.sigma, q_min=1.0).max() <= tol
        halved = run(scenario, horizon=2.0, step=5e-5)
        assert decay_excess(halved, scenario.sigma, q_min=1.0).max() <= tol

    def test_both_sensors_transmit(self, cubic_short):
        _, trace = cubic_short
        counts = summarize(trace)["sensors"]
        assert counts[0]["count"] > 100
        assert counts[1]["count"] > 20


@pytest.fixture(scope="module")
def fb():
    scenario = cubic_oscillator()
    schedule = UpdateSchedule(dwell=0.2, decay=0.8)
    return scenario, run(scenario, mode="feedback", horizon=2.0, schedule=schedule)


class TestRunFeedback:
    def test_updates_happen_and_levels_shrink(self, fb):
        _, trace = fb
        assert len(trace.updates) >= 2
        levels = [u.level for u in trace.updates]
        assert all(b < a for a, b in zip(levels, levels[1:]))
        assert levels[0] < 10.0

    def test_updates_respect_schedule_dwell(self, fb):
        _, trace = fb
        update_times = [u.time for u in trace.updates]
        assert all(b - a >= 0.2 - 1e-12 for a, b in zip(update_times, update_times[1:]))
        assert update_times[0] >= 0.2 - 1e-12

    def test_thresholds_relax_as_level_shrinks(self, fb):
        scenario, trace = fb
        initial = design_scenario(scenario).config.thresholds
        final = trace.updates[-1].config.thresholds
        assert final[0] > initial[0]
        assert final[1] == pytest.approx(initial[1], rel=1e-12)

    def test_containment_holds_throughout(self, fb):
        _, trace = fb
        assert len(trace.containment) == trace.times.size
        margins = containment_margins(trace)
        assert margins["distance_excess"] <= 1e-6
        assert margins["level_excess"] <= 1e-9

    def test_default_step_is_feedback_step(self, fb):
        scenario, trace = fb
        assert trace.meta["step"] == scenario.feedback_step
        assert trace.meta["final_level"] < trace.meta["level"]

    def test_dwell_clocks_survive_updates(self, fb):
        # Dwell floors hold across update instants: every gap observed under
        # the final configuration respects the dwell active at firing time.
        scenario, trace = fb
        config_times = [0.0] + [u.time for u in trace.updates]
        dwells = [design_scenario(scenario).config.dwells] + \
                 [u.config.dwells for u in trace.updates]
        for i in range(2):
            times = np.array([e.time for e in trace.events if e.sensor == i])
            for prev, cur in zip(times, times[1:]):
                active = max(
                    (j for j, ct in enumerate(config_times) if ct <= cur),
                    default=0)
                assert cur - prev >= dwells[active][i] - 1e-12


class TestSummarize:
    def test_synthetic_gap_statistics(self):
        times = np.linspace(0.0, 6.0, 7)
        zeros = np.zeros((7, 2))
        events = [TransmissionEvent(0, t, 0.0, 0.0) for t in (0.0, 1.0, 3.0, 6.0)]
        events.append(TransmissionEvent(1, 2.0, 0.0, 0.5))
        trace = SimulationTrace(
            times=times, states=zeros, samples=zeros, lyapunov=np.zeros(7),
            events=events, meta={"scenario": "synthetic", "mode": "decentralized",
                                 "dwells": [0.5, 1.0]})
        doc = summarize(trace)
        s0, s1 = doc["sensors"]
        assert s0["count"] == 4
        assert s0["min_gap"] == 1.0
        assert s0["mean_gap"] == 2.0
        assert s0["max_gap"] == 3.0
        assert s0["dwell_ratio"] == 0.25
        assert s0["gap_quantiles"]["0.5"] == 2.0
        assert s0["gap_quantiles"]["0.25"] == pytest.approx(1.5)
        assert s1["count"] == 1
        assert s1["min_gap"] is None and s1["dwell_ratio"] is None
        assert s1["gap_quantiles"] is None
        assert doc["transmissions"] == 5

    def test_quantile_validation_and_override(self):
        times = np.linspace(0.0, 3.0, 4)
        zeros = np.zeros((4, 1))
        events = [TransmissionEvent(0, t, 0.0, 0.0) for t in (0.0, 1.0, 3.0)]
        trace = SimulationTrace(
            times=times, states=zeros, samples=zeros, lyapunov=np.zeros(4),
            events=events, meta={"scenario": "synthetic", "mode": "decentralized",
                                 "dwells": [0.5]})
        doc = summarize(trace, quantiles=(0.0, 1.0))
        assert doc["sensors"][0]["gap_quantiles"] == {"0.0": 1.0, "1.0": 2.0}
        with pytest.raises(ValueError, match="quantiles"):
            summarize(trace, quantiles=(1.5,))

    def test_run_summary_fields(self, cubic_short):
        _, trace = cubic_short
        doc = summarize(trace)
        assert doc["scenario"] == "cubic_oscillator"
        assert doc["level"] == 10.0
        assert doc["initial_value"] == pytest.approx(8.574, abs=1e-6)
        assert doc["updates"] == 0


class TestDiagnostics:
    def test_decay_excess_argument_validation(self, cubic_short):
        _, trace = cubic_short
        with pytest.raises(ValueError, match="exactly one"):
            decay_excess(trace, 0.9)
        with pytest.raises(ValueError, match="exactly one"):
            decay_excess(trace, 0.9, Q=np.eye(2), q_min=1.0)

    def test_containment_requires_records(self, cubic_short):
        _, trace = cubic_short
        with pytest.raises(ValueError, match="containment"):
            containment_margins(trace)


@pytest.fixture(scope="module")
def short_trace():
    return run(cubic_oscillator(), horizon=0.2)


class TestWriters:
    def test_csv_layout(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(short_trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,xs1,xs2,V,Vdot"
        assert len(lines) == short_trace.times.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[5]) == pytest.approx(8.574, abs=1e-6)

    def test_csv_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_trace_csv(run(cubic_oscillator(), horizon=0.2), a)
        write_trace_csv(run(cubic_oscillator(), horizon=0.2), b)
        assert filecmp.cmp(a, b, shallow=False)

    def test_events_json_structure(self, tmp_path):
        import json
        schedule = UpdateSchedule(dwell=0.2, decay=0.8)
        trace = run(cubic_oscillator(), mode="feedback", horizon=1.0,
                    schedule=schedule)
        path = tmp_path / "events.json"
        write_events_json(trace, path)
        doc = json.loads(path.read_text())
        assert doc["scenario"] == "cubic_oscillator"
        kinds = {r["type"] for r in doc["events"]}
        assert kinds == {"transmission", "param_update"}
        times = [r["t"] for r in doc["events"]]
        assert times == sorted(times)
        update = next(r for r in doc["events"] if r["type"] == "param_update")
        assert set(update) == {"type", "t", "V_sampled", "w", "T"}
        assert len(update["w"]) == 2

    def test_json_writers_are_deterministic(self, short_trace, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_events_json(short_trace, a)
        write_events_json(short_trace, b)
        assert filecmp.cmp(a, b, shallow=False)
        write_summary_json(summarize(short_trace), a)
        write_summary_json(summarize(short_trace), b)
        assert filecmp.cmp(a, b, shallow=False)

    def test_equilibrium_run_is_silent(self, tmp_path):
        scenario = load_lti({
            "A": BATCH_A.tolist(), "B": BATCH_B.tolist(), "K": BATCH_K.tolist(),
            "Q": np.eye(4).tolist(), "theta": [0.6, 0.17, 0.08, 0.15],
            "sigma": 0.95, "x0": [0.0, 0.0, 0.0, 0.0],
            "xs0": [0.0, 0.0, 0.0, 0.0], "horizon": 0.5,
        })
        trace = run(scenario)
        assert trace.events == []
        npt.assert_array_equal(trace.states, 0.0)
        npt.assert_array_equal(trace.lyapunov, 0.0)
