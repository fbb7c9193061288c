"""Tests for the fixed-step event-triggered simulation engine."""

import dataclasses
import filecmp
import json

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from etcontrol import models
from etcontrol.design import LyapunovCertificate, TriggerConfig
from etcontrol.errors import DesignError, SimulationError
from etcontrol.feedback import QuadraticBound, UpdateSchedule, containment_sphere
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
    EVENT_DTYPE,
    SimulationTrace,
    containment_margins,
    decay_excess,
    dump_json,
    rk4_step,
    run,
    run_members,
    summarize,
    summary_from_events,
    transmissions_due,
    write_events_json,
    write_summary_json,
    write_trace_csv,
)
from etcontrol.verify import _same_step_members, matched_event_delta


@pytest.fixture(scope="module")
def batch_short():
    scenario = batch_reactor()
    return scenario, design_scenario(scenario), run(scenario, horizon=2.0)


@pytest.fixture(scope="module")
def cubic_short():
    scenario = cubic_oscillator()
    return scenario, run(scenario, horizon=2.0)


def _sensor_times(trace, i):
    return trace.events.time[trace.events.sensor == i]


def _synthetic_events(sensors, times):
    zeros = np.zeros(len(times))
    return np.rec.fromarrays([sensors, times, zeros, zeros],
                             names="sensor,time,value,gap")


def _transmissions_due_loop(time, state, samples, config, last_transmit,
                            mode="decentralized"):
    """Reference for ``transmissions_due``: the per-sensor loop over numpy
    scalars it replaced, with the dwell test negated so that the NaN
    baseline of an infinite dwell blocks. An infinite dwell makes numpy
    warn on the ``-inf + inf`` baseline; callers silence that with
    ``np.errstate``."""
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
        if dwell_active and not time >= last_transmit[i] + T[i]:
            continue
        fired.append(i)
    return fired


def _write_trace_csv_rows(trace, path):
    """Reference for ``write_trace_csv``: one ``repr`` per value, row by row."""
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


def _rk4_textbook(f, state, control, h):
    """Reference for ``rk4_step``: the classical stages and their weighted sum
    written as one expression."""
    k1 = f(state, control)
    k2 = f(state + 0.5 * h * k1, control)
    k3 = f(state + 0.5 * h * k2, control)
    k4 = f(state + h * k3, control)
    return state + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


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

    @pytest.mark.parametrize("make, shape", [
        (batch_reactor, (4,)), (batch_reactor, (4, 5)),
        (cubic_oscillator, (2,)), (cubic_oscillator, (2, 5))])
    def test_matches_textbook_form_bitwise(self, make, shape):
        model = make().model
        rng = np.random.default_rng(len(shape))
        for h in (1e-4, 1e-2, 0.3):
            state = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, shape)
            control = model.controller(rng.normal(size=shape))
            assert np.array_equal(rk4_step(model.f, state, control, h),
                                  _rk4_textbook(model.f, state, control, h))

    def test_writes_neither_state_nor_stage_values(self):
        # An ``f`` that hands back a cached buffer per distinct input: the
        # step must leave those buffers and the state as they were.
        model = batch_reactor().model
        cache = {}

        def cached_f(x, u):
            key = x.tobytes()
            if key not in cache:
                k = model.f(x, u)
                k.flags.writeable = False
                cache[key] = (k, k.copy())
            return cache[key][0]

        state = np.array([4.0, 7.0, -4.0, 3.0])
        state.flags.writeable = False
        control = model.controller(np.array([4.1, 7.2, -4.5, 2.0]))
        first = rk4_step(cached_f, state, control, 1e-2)
        again = rk4_step(cached_f, state, control, 1e-2)
        assert len(cache) == 4
        assert np.array_equal(first, again)
        assert np.array_equal(first, _rk4_textbook(model.f, state, control, 1e-2))
        npt.assert_array_equal(state, [4.0, 7.0, -4.0, 3.0])
        for k, snapshot in cache.values():
            assert np.array_equal(k, snapshot)


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

    @pytest.mark.parametrize("mode", ["decentralized", "centralized", "centralized-nodwell"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_is_refused(self, mode, bad):
        # Sensor 1 is designed out (w = inf) and its error is never read,
        # but a non-finite component there is refused all the same.
        for state in (np.array([bad, 5.0]), np.array([1.0, bad])):
            with pytest.raises(SimulationError, match=r"non-finite at t=0\.25$"):
                transmissions_due(0.25, state, np.array([1.0, 5.0]), self._config(),
                                  np.array([-1.0, -np.inf]), mode)

    def test_overflowing_component_sum_is_not_refused(self):
        state = np.array([1.5e308, 1.5e308])
        assert transmissions_due(
            0.0, state, state, self._config(), np.array([-1.0, -np.inf])) == []

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


STATIC_MODES = ("decentralized", "centralized", "centralized-nodwell")


def _trigger_inputs(rng, mode):
    """Random inputs of one trigger evaluation, seeded with edge cases.

    Each sensor draws a case: 0 plain, 1 infinite threshold, 2 zero
    error, 3 zero state component, 4 an exact error tie with its threshold
    times the reference, 5 an exact dwell tie. One draw in twenty zeroes
    the whole state, so the centralized reference vanishes too. The dyadic
    values of cases 4 and 5 make the ties exact in floating point.
    """
    n = int(rng.integers(1, 7))
    case = rng.integers(0, 6, n)
    thresholds = rng.uniform(0.01, 0.5, n)
    dwells = rng.uniform(1e-3, 0.1, n)
    state = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
    samples = state * (1.0 + rng.normal(scale=0.3, size=n))
    time = 0.5
    last = time - rng.uniform(0.0, 0.2, n)
    thresholds[case == 1] = np.inf
    samples[case == 2] = state[case == 2]
    state[case == 3] = 0.0
    if rng.random() < 0.05:
        state[:] = 0.0
    tie = case == 4
    thresholds[tie] = 2.0 ** -rng.integers(1, 6, tie.sum())
    if mode == "decentralized":
        state[tie] = rng.integers(-64, 65, tie.sum()) / 8.0
        samples[tie] = state[tie] + thresholds[tie] * np.abs(state[tie])
    else:
        state[tie] = 0.0
        reference = float(np.linalg.norm(state))
        samples[tie] = -thresholds[tie] * reference
    dwell_tie = case == 5
    dwells[dwell_tie] = 0.125
    last[dwell_tie] = 0.375
    config = TriggerConfig(thresholds=thresholds, dwells=dwells)
    return time, state, samples, config, last, case


class TestTransmissionsDueOracle:
    @pytest.mark.parametrize("mode", STATIC_MODES)
    def test_matches_loop_on_random_inputs(self, mode):
        rng = np.random.default_rng(STATIC_MODES.index(mode))
        firing = silent = ties = 0
        for _ in range(3000):
            time, state, samples, config, last, case = _trigger_inputs(rng, mode)
            fired = transmissions_due(time, state, samples, config, last, mode)
            assert fired == _transmissions_due_loop(
                time, state, samples, config, last, mode)
            firing += bool(fired)
            silent += not fired
            ties += sum(1 for i in fired if case[i] in (4, 5))
        assert firing > 100 and silent > 100 and ties > 100

    @pytest.mark.parametrize("mode", ("decentralized", "centralized"))
    def test_infinite_dwell_never_fires(self, mode):
        # A finite threshold with an infinite dwell starts from the NaN
        # baseline -inf + inf, which blocks like any unfinished dwell.
        rng = np.random.default_rng(7)
        config = TriggerConfig(
            thresholds=np.array([0.05, 0.05]), dwells=np.array([np.inf, 0.01]))
        last = np.where(np.isfinite(config.dwells), -config.dwells, -np.inf)
        samples = np.array([1.0, 1.0])
        counts = [0, 0]
        for k in range(200):
            time = k * 0.005
            state = samples + rng.normal(scale=0.5, size=2)
            fired = transmissions_due(time, state, samples, config, last, mode)
            with np.errstate(invalid="ignore"):
                assert fired == _transmissions_due_loop(
                    time, state, samples, config, last, mode)
            for i in fired:
                samples[i] = state[i]
                last[i] = time
                counts[i] += 1
        assert counts[0] == 0
        assert counts[1] > 20

    def test_centralized_nodwell_ignores_infinite_dwell(self):
        config = TriggerConfig(thresholds=np.array([0.05]), dwells=np.array([np.inf]))
        assert transmissions_due(0.0, np.array([1.0]), np.array([2.0]), config,
                                 np.array([-np.inf]), "centralized-nodwell") == [0]


class TestRunValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run(batch_reactor(), mode="sporadic")

    def test_bad_scale_step_horizon(self):
        with pytest.raises(ValueError, match="scale"):
            run(batch_reactor(), scale=0.0)
        with pytest.raises(ValueError, match="finite"):
            run(batch_reactor(), scale=np.inf)
        with pytest.raises(ValueError, match="finite"):
            run(batch_reactor(), horizon=np.inf)
        with pytest.raises(ValueError, match="step"):
            run(batch_reactor(), step=-1e-4)
        with pytest.raises(ValueError, match="horizon"):
            run(batch_reactor(), horizon=-1.0)
        with pytest.raises(ValueError, match="one step"):
            run(batch_reactor(), horizon=1e-6)

    def test_unallocatable_trace_is_refused(self):
        # 1e15 boundaries of four states ask numpy for 28.4 PiB, which the
        # allocator refuses without touching memory.
        with pytest.raises(ValueError, match=r"^horizon 1 at step 1e-15 needs "
                           r"1000000000000001 boundaries"):
            run(batch_reactor(), horizon=1.0, step=1e-15)

    def test_feedback_needs_certificate(self):
        with pytest.raises(DesignError, match="certificate"):
            run(batch_reactor(), mode="feedback")

    def test_initial_state_outside_level_set(self):
        with pytest.raises(DesignError, match="exceeds the design"):
            run(cubic_oscillator(), scale=2.0, horizon=0.1)

    def test_overflowing_initial_certificate_value(self):
        # At scale 1e200 the start's x^T P x overflows; the start is refused
        # with the typed error instead of a numpy overflow warning.
        with pytest.raises(DesignError, match="exceeds the design"):
            run(cubic_oscillator(), horizon=0.01, scale=1e200)

    def test_infinite_start_outside_level_set(self):
        # At scale 1e308 x0 itself overflows and x^T P x is NaN, which no
        # finite design level covers.
        with pytest.raises(DesignError, match="exceeds the design level"):
            run(cubic_oscillator(), horizon=0.01, scale=1e308)

    def test_overflowing_certificate_value_is_inf(self):
        # x^T P x is about 1.1e401. Products of P's mixed-sign entries
        # overflow and could cancel to -inf, letting this start pass.
        cert = LyapunovCertificate([[2.0, -1.0], [-1.0, 2.0]],
                                   models._cubic_threshold_bounds)
        x0 = np.array([1e200, 2.1e200])
        with np.errstate(over="ignore", invalid="ignore"):
            assert cert.value(x0) == np.inf
        scenario = dataclasses.replace(cubic_oscillator(), certificate=cert,
                                       x0=x0, xs0=x0)
        with pytest.raises(DesignError, match="exceeds the design level"):
            run(scenario, horizon=0.001)

    def test_thresholds_above_caps_rejected(self):
        scenario = cubic_oscillator()
        base = design_scenario(scenario)
        forged = dataclasses.replace(base, config=TriggerConfig(
            thresholds=2.0 * base.config.thresholds, dwells=base.config.dwells))
        with pytest.raises(DesignError, match="admissible"):
            run(scenario, design=forged, horizon=0.1)

    def test_levelless_certificate_design_rejected(self):
        # Without a level, neither the start nor the thresholds could be
        # checked; doubled thresholds and a start at V(x0) = 77.2 > c = 10
        # used to run.
        scenario = cubic_oscillator()
        levelless = dataclasses.replace(design_scenario(scenario), level=None)
        doubled = dataclasses.replace(levelless, config=TriggerConfig(
            2.0 * levelless.config.thresholds, levelless.config.dwells))
        for mode in ("decentralized", "feedback"):
            with pytest.raises(DesignError, match="design made at a level"):
                run(scenario, design=doubled, mode=mode, horizon=0.1)
        with pytest.raises(DesignError, match="design made at a level"):
            run(scenario, design=levelless, horizon=0.1, scale=3.0)

    @pytest.mark.parametrize("field", ["level", "lipschitz"])
    def test_malformed_certificate_scenario_rejected(self, field):
        with pytest.raises(DesignError, match=f"has no {field}"):
            run(dataclasses.replace(cubic_oscillator(), **{field: None}), horizon=0.1)

    def test_lti_thresholds_above_caps_rejected(self):
        scenario = batch_reactor()
        base = design_scenario(scenario)
        forged = dataclasses.replace(base, config=TriggerConfig(
            2.0 * base.config.thresholds, base.config.dwells))
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
        assert set(trace.events.sensor.tolist()) == {0, 1, 2, 3}

    def test_dwell_times_are_enforced(self, batch_short):
        _, design, trace = batch_short
        for i in range(4):
            gaps = np.diff(_sensor_times(trace, i))
            assert gaps.min() >= design.config.dwells[i] - 1e-12

    def test_certificate_decreases(self, batch_short):
        _, _, trace = batch_short
        assert trace.lyapunov[-1] < 1e-3 * trace.lyapunov[0]
        excess = decay_excess(trace, 0.95, Q=np.eye(4))
        assert excess.max() <= 1e-6 * trace.lyapunov[0]

    def test_first_event_gap_uses_virtual_baseline(self, batch_short):
        _, design, trace = batch_short
        # Sensor 4 starts with a unit error and fires immediately at t=0.
        first = trace.events[trace.events.sensor == 3][0]
        assert first.time == 0.0
        assert first.gap == pytest.approx(design.config.dwells[3], rel=1e-12)

    def test_events_are_chronological(self, batch_short):
        _, _, trace = batch_short
        assert np.all(np.diff(trace.events.time) >= 0.0)

    def test_scale_invariance(self):
        a = run(batch_reactor(), horizon=1.0)
        b = run(batch_reactor(), horizon=1.0, scale=1e3)
        npt.assert_array_equal(a.events.sensor, b.events.sensor)
        npt.assert_array_equal(a.events.time, b.events.time)

    def test_centralized_fires_at_extreme_scales(self):
        # Past |x| of about 1.3e154 the sum of squares in the state norm
        # overflows; the centralized reference must stay finite there.
        base = run(batch_reactor(), mode="centralized", horizon=0.3)
        for scale in (1e160, 1e300):
            scaled = run(batch_reactor(), mode="centralized", horizon=0.3, scale=scale)
            assert len(scaled.events) == len(base.events) > 0
            assert matched_event_delta(base, scaled) <= base.meta["step"]

    def test_divergence_raises_simulation_error(self):
        # The plant overflows in its first step; numpy's overflow warnings
        # must not escape in place of the typed error.
        with pytest.raises(SimulationError, match="non-finite at t="):
            run(batch_reactor(), horizon=0.01, scale=1e307)

    def test_overflowing_start_raises_simulation_error(self):
        # Scaling x0 by 1e308 overflows before the first step, and the
        # trigger pass at the first boundary refuses it.
        with pytest.raises(SimulationError, match="non-finite at t=0$"):
            run(batch_reactor(), horizon=0.01, scale=1e308)

    def test_infinite_start_of_designed_out_sensor_is_refused(self):
        # K ignores x_1, so column 1 of 2 P B K is zero and w_1 = inf: the
        # trigger never reads that sensor's error. Its infinite start is
        # still refused at t=0, before the plant spreads it.
        scenario = models.load_lti({
            "A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]], "K": [[-1.0, 0.0]],
            "Q": [[1.0, 0.0], [0.0, 1.0]], "theta": [0.5, 0.5], "sigma": 0.5,
            "x0": [1.0, 1e300], "xs0": [1.0, 1.0], "horizon": 0.01})
        design = models.design_scenario(scenario)
        assert np.isinf(design.config.thresholds[1])
        with pytest.raises(SimulationError, match="non-finite at t=0$"):
            run(scenario, design=design, scale=1e10)

    def test_overflowing_certificate_values_are_inf(self, tmp_path):
        # x^T P x overflows near |x| = 1e200, where inf products of P's
        # mixed-sign entries cancel to NaN unless rescaled. The CSV then
        # gives the rate next to an inf value as NaN, without a warning.
        trace = run(batch_reactor(), horizon=0.01, scale=1e200)
        npt.assert_array_equal(trace.lyapunov[:2], [np.inf, np.inf])
        assert not np.isnan(trace.lyapunov).any()
        write_trace_csv(trace, tmp_path / "trace.csv")
        row = (tmp_path / "trace.csv").read_text().splitlines()[1]
        assert row.endswith(",inf,nan")

    @pytest.mark.parametrize("mode", ["decentralized", "centralized"])
    def test_power_of_two_scaling_is_exact(self, mode):
        # A power-of-two scale moves no bit of the run: states, events and
        # certificate values scale exactly.
        base = run(batch_reactor(), mode=mode, horizon=0.2)
        for k in (10, -10, 300):
            scaled = run(batch_reactor(), mode=mode, horizon=0.2, scale=2.0 ** k)
            assert np.array_equal(scaled.states, 2.0 ** k * base.states)
            npt.assert_array_equal(scaled.events.sensor, base.events.sensor)
            npt.assert_array_equal(scaled.events.time, base.events.time)
            assert np.array_equal(scaled.lyapunov, 4.0 ** k * base.lyapunov)

    def test_centralized_dwell_is_redundant(self):
        with_dwell = run(batch_reactor(), mode="centralized", horizon=1.0)
        without = run(batch_reactor(), mode="centralized-nodwell", horizon=1.0)
        npt.assert_array_equal(with_dwell.events.sensor, without.events.sensor)
        npt.assert_array_equal(with_dwell.events.time, without.events.time)

    def test_halved_dwells_break_the_gap_floor(self, batch_short):
        # Fault injection: a config with halved dwell times must produce a
        # gap below the designed floor, proving the check has teeth.
        scenario, design, _ = batch_short
        faulty = dataclasses.replace(design, config=TriggerConfig(
            thresholds=design.config.thresholds, dwells=0.5 * design.config.dwells))
        trace = run(scenario, design=faulty, horizon=1.0)
        violated = False
        for i in range(4):
            times = _sensor_times(trace, i)
            if times.size >= 2 and np.diff(times).min() < design.config.dwells[i] - 1e-12:
                violated = True
        assert violated

    def test_infinite_dwell_sensor_never_transmits(self, batch_short):
        scenario, design, _ = batch_short
        dwells = design.config.dwells.copy()
        dwells[3] = np.inf
        forged = dataclasses.replace(
            design, config=TriggerConfig(design.config.thresholds, dwells))
        trace = run(scenario, design=forged, horizon=0.2)
        assert not np.any(trace.events.sensor == 3)
        assert set(trace.events.sensor.tolist()) == {0, 1, 2}


def _assert_same_run(batched, alone):
    """A batch member reproduces its separate run: the same events and
    meta, states and samples to roundoff."""
    assert batched.meta == alone.meta
    npt.assert_array_equal(batched.times, alone.times)
    npt.assert_array_equal(batched.events.sensor, alone.events.sensor)
    npt.assert_array_equal(batched.events.time, alone.events.time)
    npt.assert_array_equal(batched.events.gap, alone.events.gap)
    scale = np.abs(alone.states).max()
    for a, b in ((batched.states, alone.states), (batched.samples, alone.samples),
                 (batched.events.value, alone.events.value)):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * scale


def _counted_controller(scenario):
    """A copy of ``scenario`` whose controller records each call's input
    shape in the returned list."""
    calls = []
    controller = scenario.model.controller

    def counted(x_s):
        calls.append(np.shape(x_s))
        return controller(x_s)

    model = dataclasses.replace(scenario.model, controller=counted)
    return dataclasses.replace(scenario, model=model), calls


def _transmission_boundaries(trace):
    """Indices of the boundaries at which any sensor transmitted."""
    return set(np.rint(trace.events.time / trace.meta["step"]).astype(int).tolist())


class TestRunMembers:
    @pytest.mark.parametrize("make", [batch_reactor, cubic_oscillator])
    def test_controller_runs_when_a_held_sample_changes(self, make):
        # Once at the start, then after each boundary with a transmission
        # that still has a step to take.
        scenario = make()
        design = design_scenario(scenario)
        counted, calls = _counted_controller(scenario)
        trace = run(counted, design=design, horizon=0.3)
        plain = run(scenario, design=design, horizon=0.3)
        last = trace.meta["boundaries"] - 1
        changes = {0} | {k for k in _transmission_boundaries(trace) if k < last}
        assert len(calls) == len(changes) < last
        assert trace.events.tolist() == plain.events.tolist()
        assert np.array_equal(trace.states, plain.states)
        assert np.array_equal(trace.samples, plain.samples)

    def test_controller_runs_when_the_batch_shrinks(self):
        scenario = batch_reactor()
        design = design_scenario(scenario)
        members = [dict(design=design, horizon=0.05),
                   dict(design=design, horizon=0.1, mode="centralized")]
        counted, calls = _counted_controller(scenario)
        traces = run_members(counted, members)
        plain = run_members(scenario, members)
        shrink, last = (t.meta["boundaries"] - 1 for t in traces)
        changes = {0, shrink} | {k for t in traces for k in _transmission_boundaries(t)
                                 if k < last}
        assert len(calls) == len(changes)
        assert calls == [(4, 2) if k < shrink else (4, 1) for k in sorted(changes)]
        for trace, alone in zip(traces, plain):
            assert trace.events.tolist() == alone.events.tolist()
            assert np.array_equal(trace.states, alone.states)
            assert np.array_equal(trace.samples, alone.samples)

    @pytest.mark.parametrize("make", [batch_reactor, cubic_oscillator])
    def test_verify_members_match_separate_runs(self, make):
        scenario = make()
        members = _same_step_members(scenario, design_scenario(scenario))
        assert len(members) == (5 if scenario.certificate is None else 4)
        batched = run_members(scenario, members.values())
        for member, trace in zip(members.values(), batched):
            assert len(trace.events) > 0
            _assert_same_run(trace, run(scenario, **member))

    @pytest.mark.parametrize("make", [batch_reactor, cubic_oscillator])
    def test_unequal_horizons_keep_member_order(self, make):
        scenario = make()
        design = design_scenario(scenario)
        members = [dict(design=design, horizon=0.05),
                   dict(design=design, horizon=0.2, mode="centralized"),
                   dict(design=design, horizon=0.1, scale=0.5),
                   dict(design=design, horizon=0.2)]
        traces = run_members(scenario, members)
        assert [t.meta["boundaries"] for t in traces] == [501, 2001, 1001, 2001]
        for member, trace in zip(members, traces):
            _assert_same_run(trace, run(scenario, **member))

    def test_feedback_runs_only_alone(self):
        scenario = cubic_oscillator()
        with pytest.raises(ValueError, match="single member"):
            run_members(scenario, [dict(horizon=0.1), dict(mode="feedback", horizon=0.1)])
        alone = run_members(scenario, [dict(mode="feedback", horizon=0.5)])[0]
        assert alone.meta["step"] == scenario.feedback_step
        assert len(alone.containment) == alone.meta["boundaries"]

    def test_members_are_validated_like_run(self):
        scenario = cubic_oscillator()
        with pytest.raises(ValueError, match="at least one member"):
            run_members(scenario, [])
        for bad, error, match in [
                (dict(mode="sporadic"), ValueError, "mode"),
                (dict(scale=0.0), ValueError, "scale"),
                (dict(horizon=np.inf), ValueError, "finite"),
                (dict(horizon=1e-6), ValueError, "one step"),
                (dict(scale=2.0), DesignError, "exceeds the design")]:
            with pytest.raises(error, match=match):
                run(scenario, **bad)
            with pytest.raises(error, match=match):
                run_members(scenario, [dict(horizon=0.1), bad])

    def test_diverging_member_names_its_time(self):
        # Scaled close to the largest float, one member overflows in its
        # first step while the other stays finite.
        scenario = batch_reactor()
        members = [dict(horizon=0.05), dict(horizon=0.05, scale=1e307)]
        with pytest.raises(SimulationError, match="non-finite at t=") as batched:
            run_members(scenario, members)
        with pytest.raises(SimulationError) as alone:
            run(scenario, **members[1])
        assert str(batched.value) == str(alone.value)


class TestTraceColumns:
    def test_record_array_contract(self, batch_short, fb):
        _, _, trace = batch_short
        _, fb_trace = fb
        events = trace.events
        assert isinstance(events, np.recarray)
        assert events.dtype == EVENT_DTYPE
        assert [(name, events.dtype[name]) for name in events.dtype.names] == [
            ("sensor", np.dtype(np.int64)), ("time", np.dtype(float)),
            ("value", np.dtype(float)), ("gap", np.dtype(float))]
        balls = fb_trace.containment
        assert isinstance(balls, np.recarray)
        assert [(name, balls.dtype[name]) for name in balls.dtype.names] == [
            ("center", np.dtype((float, (2,)))), ("radius", np.dtype(float)),
            ("level", np.dtype(float))]
        assert len(balls) == fb_trace.times.size
        assert balls.center.shape == (fb_trace.times.size, 2)
        assert len(trace.containment) == 0

    def test_events_sorted_by_time_then_sensor(self, batch_short):
        _, _, trace = batch_short
        events = trace.events
        order = np.lexsort((events.sensor, events.time))
        npt.assert_array_equal(order, np.arange(len(events)))

    def test_gap_and_value_columns(self, batch_short):
        _, _, trace = batch_short
        events = trace.events
        for i in range(4):
            rows = events.sensor == i
            npt.assert_array_equal(events.gap[rows][1:], np.diff(events.time[rows]))
        boundary = np.searchsorted(trace.times, events.time)
        npt.assert_array_equal(trace.times[boundary], events.time)
        npt.assert_array_equal(events.value, trace.states[boundary, events.sensor])


class TestRunCubic:
    def test_certificate_decreases(self, cubic_short):
        scenario, trace = cubic_short
        assert trace.lyapunov[0] == pytest.approx(8.574, abs=1e-6)
        assert trace.lyapunov[-1] < 0.05 * trace.lyapunov[0]

    def test_decay_bound_holds_at_two_steps(self, cubic_short):
        scenario, trace = cubic_short
        tol = 1e-6 * trace.lyapunov[0]
        assert decay_excess(trace, scenario.sigma, Q=scenario.Q).max() <= tol
        halved = run(scenario, horizon=2.0, step=5e-5)
        assert decay_excess(halved, scenario.sigma, Q=scenario.Q).max() <= tol

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

    def test_update_levels_are_the_bound_at_their_boundary(self, fb):
        scenario, trace = fb
        balls = trace.containment
        for update in trace.updates:
            k = int(np.searchsorted(trace.times, update.time))
            assert trace.times[k] == update.time
            fresh = QuadraticBound(scenario.certificate.quadratic)
            assert update.level == fresh(balls.center[k], balls.radius[k])
            assert balls.level[k] == update.level
        margins = containment_margins(trace)
        assert margins["distance_excess"] <= 0.0
        assert margins["level_excess"] <= 0.0

    def test_containment_rows_are_fresh_balls(self, fb):
        # Each row is the ball of that boundary's samples under the aggregate
        # threshold in force before the boundary's update, if any.
        _, trace = fb
        W = np.full(trace.times.size, trace.meta["threshold_norm"])
        quiet_after_update = 0
        for update in trace.updates:
            k = int(np.searchsorted(trace.times, update.time))
            W[k + 1:] = update.config.threshold_norm
            quiet_after_update += trace.times[k + 1] not in trace.events.time
        assert quiet_after_update > 0
        balls = trace.containment
        for k in range(trace.times.size):
            center, radius = containment_sphere(trace.samples[k], W[k])
            npt.assert_array_equal(balls.center[k], center)
            assert balls.radius[k] == radius

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
            times = _sensor_times(trace, i)
            for prev, cur in zip(times, times[1:]):
                active = max(
                    (j for j, ct in enumerate(config_times) if ct <= cur),
                    default=0)
                assert cur - prev >= dwells[active][i] - 1e-12


class TestSummarize:
    def test_synthetic_gap_statistics(self):
        times = np.linspace(0.0, 6.0, 7)
        zeros = np.zeros((7, 2))
        events = _synthetic_events([0, 0, 1, 0, 0], [0.0, 1.0, 2.0, 3.0, 6.0])
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
        events = _synthetic_events([0, 0, 0], [0.0, 1.0, 3.0])
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


class TestSummaryFromEvents:
    def test_feedback_event_log_reproduces_summary(self, fb, tmp_path):
        _, trace = fb
        write_events_json(trace, tmp_path / "events.json")
        records = json.loads((tmp_path / "events.json").read_text())["events"]
        assert any(r["type"] == "param_update" for r in records)
        recomputed = summary_from_events(records, trace.meta["dwells"])
        assert dump_json(recomputed) == dump_json(summarize(trace)["sensors"])

    def test_param_updates_are_skipped(self):
        transmissions = [{"type": "transmission", "t": t, "sensor": 0}
                         for t in (0.0, 1.0, 3.0)]
        update = {"type": "param_update", "t": 2.0, "V_sampled": 1.0,
                  "w": [0.1], "T": [0.5]}
        assert (summary_from_events(transmissions + [update], [0.5])
                == summary_from_events(transmissions, [0.5]))

    def test_unknown_sensor_is_named(self):
        records = [{"type": "transmission", "t": 0.0, "sensor": 2}]
        with pytest.raises(ValueError, match="sensor 2"):
            summary_from_events(records, [0.5, 0.5])


class TestDiagnostics:
    def test_containment_requires_records(self, cubic_short):
        _, trace = cubic_short
        with pytest.raises(ValueError, match="containment"):
            containment_margins(trace)


def _csv_outcome(writer, trace, path):
    """The bytes a trace writer leaves, or the type of error it raises."""
    try:
        writer(trace, path)
    except Exception as exc:
        return type(exc)
    return path.read_bytes()


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

    @pytest.mark.parametrize("boundaries", [1, 2, 1023, 1024, 1025, 2049])
    def test_csv_matches_row_oracle(self, boundaries, tmp_path):
        rng = np.random.default_rng(boundaries)
        shape = (boundaries, 3)
        states = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, shape)
        samples = np.round(states, int(rng.integers(0, 4)))
        states[0, :] = (-0.0, 0.1, 5e-324)
        lyapunov = np.abs(rng.normal(size=boundaries)) * 10.0 ** rng.integers(
            -100, 100, boundaries)
        trace = SimulationTrace(times=np.arange(boundaries) * 1e-4, states=states,
                                samples=samples, lyapunov=lyapunov)
        assert _csv_outcome(write_trace_csv, trace, tmp_path / "a.csv") == \
            _csv_outcome(_write_trace_csv_rows, trace, tmp_path / "b.csv")

    @pytest.mark.parametrize("held", ["runs_across_block_edges", "signed_zero_flip",
                                      "non_finite", "non_contiguous"])
    def test_csv_held_samples_match_row_oracle(self, held, tmp_path):
        # Held samples are piecewise constant, so the writer formats each
        # run of equal rows once; these runs end at and next to the block
        # edges, flip a zero's sign, hold NaN and inf, or sit in a strided
        # array.
        boundaries = 2100
        rng = np.random.default_rng(7)
        states = rng.normal(size=(boundaries, 3))
        ends = [1, 1022, 1023, 1024, 1025, 1030, 2047, 2048, 2049, boundaries]
        values = rng.normal(size=(len(ends), 3)) * 10.0 ** rng.integers(-5, 5, (len(ends), 3))
        run_of_row = np.searchsorted(ends, np.arange(boundaries), side="right")
        samples = values[run_of_row]
        if held == "runs_across_block_edges":
            samples[1024:1030, 1] = values[3, 1]  # one component changes alone
        elif held == "signed_zero_flip":
            samples[:, 2] = 0.0
            samples[5:1024, 2] = -0.0
            samples[1025, 2] = -0.0
            samples[2048:, 2] = -0.0
        elif held == "non_finite":
            negative_nan = -np.float64(np.nan)
            samples[3:1023, 0] = np.nan
            samples[1023:1025, 0] = negative_nan
            samples[1024:2048, 1] = np.inf
            samples[2048:, 2] = -np.inf
        else:
            wide = np.empty((boundaries, 6))
            wide[:, ::2] = samples
            wide[:, 1::2] = -1.0
            samples = wide[:, ::2]
            states = np.asfortranarray(states)
            assert not samples.flags.c_contiguous and not states.flags.c_contiguous
        lyapunov = np.abs(rng.normal(size=boundaries))
        trace = SimulationTrace(times=np.arange(boundaries) * 1e-4, states=states,
                                samples=samples, lyapunov=lyapunov)
        written = _csv_outcome(write_trace_csv, trace, tmp_path / "a.csv")
        assert isinstance(written, bytes)
        assert written == _csv_outcome(_write_trace_csv_rows, trace, tmp_path / "b.csv")

    def test_feedback_csv_matches_row_oracle(self, fb, tmp_path):
        _, trace = fb
        write_trace_csv(trace, tmp_path / "a.csv")
        _write_trace_csv_rows(trace, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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
        assert trace.events.size == 0
        npt.assert_array_equal(trace.states, 0.0)
        npt.assert_array_equal(trace.lyapunov, 0.0)
