"""Tests for trigger design.

Frozen design values were computed by an independent prototype (scipy
Lyapunov solve, hand-assembled comparison-ODE coefficients, closed-form
integrals) before this module was written.
"""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from etcontrol import design as design_module
from etcontrol.design import (
    DesignResult,
    LipschitzData,
    LyapunovCertificate,
    TriggerConfig,
    design_lti,
    design_nonlinear,
    dwell_times,
    validate_weights,
)
from etcontrol.errors import DesignError
from etcontrol.models import cubic_oscillator, peak_cubic_gain
from etcontrol.simulate import run
from etcontrol.riccati import RiccatiCoefficients, crossing_time, crossing_time_numeric

A = np.array([
    [1.38, -0.20, 6.71, -5.67],
    [-0.58, -4.29, 0.0, 0.67],
    [1.06, 4.27, -6.65, 5.89],
    [0.04, 4.27, 1.34, -2.10],
])
B = np.array([[0.0, 0.0], [5.67, 0.0], [1.13, -3.14], [1.13, 0.0]])
K = np.array([
    [0.1006, -0.2469, -0.0952, -0.2447],
    [1.4099, -0.1966, 0.0139, 0.0823],
])
THETA = np.array([0.6, 0.17, 0.08, 0.15])
SIGMA = 0.95

# Frozen prototype outputs for the reactor design.
REACTOR_W = np.array([0.10597553, 0.10965028, 0.15928293, 0.11401593])
REACTOR_T = np.array([0.01097912, 0.01541145, 0.01262211, 0.01993348])
REACTOR_P = np.array([
    [0.5780676, -0.0267212, 0.3803137, -0.39481326],
    [-0.0267212, 0.28085206, 0.06291172, 0.20114357],
    [0.3803137, 0.06291172, 0.40243469, -0.22792363],
    [-0.39481326, 0.20114357, -0.22792363, 0.57804682],
])
# Published dwell times for the same design, coarser precision.
REACTOR_T_PUBLISHED = np.array([0.011, 0.0154, 0.0126, 0.0199])

# Frozen prototype outputs for the cubic-oscillator design at level 10.
CUBIC_W10 = np.array([0.00445167, 0.08320503])
CUBIC_W25 = np.array([0.01729268, 0.08320503])
CUBIC_POLY10 = 504.65007135476606


class TestValidateWeights:
    def test_linear_sum_accepts_reactor_weights(self):
        npt.assert_array_equal(validate_weights(THETA), THETA)

    def test_linear_sum_rejects_oversized(self):
        with pytest.raises(DesignError, match="sum"):
            validate_weights([0.8, 0.6])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(DesignError, match="strictly inside"):
            validate_weights([0.5, 1.0])
        with pytest.raises(DesignError, match="strictly inside"):
            validate_weights([0.5, -0.1])


class TestTriggerConfig:
    def test_aggregate_norms(self):
        config = TriggerConfig(thresholds=np.array([3.0, 4.0]), dwells=np.array([1.0, 1.0]))
        assert config.threshold_norm == pytest.approx(5.0)

    def test_excluded_sensor_ignored_in_norms(self):
        config = TriggerConfig(
            thresholds=np.array([3.0, np.inf, 4.0]),
            dwells=np.array([1.0, np.inf, 1.0]),
        )
        assert config.threshold_norm == pytest.approx(5.0)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError, match="thresholds"):
            TriggerConfig(thresholds=np.array([0.0, 1.0]), dwells=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="dwell"):
            TriggerConfig(thresholds=np.array([1.0, 1.0]), dwells=np.array([1.0, -2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            TriggerConfig(thresholds=np.array([1.0, 1.0]), dwells=np.array([1.0]))


class TestDesignLti:
    def test_reactor_design_matches_frozen_values(self):
        result = design_lti(A, B, K, np.eye(4), THETA, SIGMA)
        npt.assert_allclose(result.config.thresholds, REACTOR_W, rtol=1e-6)
        npt.assert_allclose(result.config.dwells, REACTOR_T, rtol=1e-5)
        npt.assert_allclose(result.P, REACTOR_P, rtol=1e-6, atol=1e-9)
        assert result.q_min == pytest.approx(1.0)

    def test_reactor_dwells_match_published_values(self):
        result = design_lti(A, B, K, np.eye(4), THETA, SIGMA)
        npt.assert_allclose(result.config.dwells, REACTOR_T_PUBLISHED, rtol=0.05)
        assert result.config.dwells[0] == pytest.approx(0.011, rel=5e-3)

    def test_scaling_q_leaves_design_unchanged(self):
        base = design_lti(A, B, K, np.eye(4), THETA, SIGMA)
        scaled = design_lti(A, B, K, 7.5 * np.eye(4), THETA, SIGMA)
        npt.assert_allclose(scaled.config.thresholds, base.config.thresholds, rtol=1e-10)
        npt.assert_allclose(scaled.config.dwells, base.config.dwells, rtol=1e-10)
        npt.assert_allclose(scaled.P, 7.5 * base.P, rtol=1e-10)

    def test_zero_column_sensor_excluded(self):
        # Second input column of 2PBK vanishes: sensor 2 never transmits.
        A2 = np.array([[-2.0, 0.0], [0.0, -1.0]])
        B2 = np.array([[1.0], [0.0]])
        K2 = np.array([[1.0, 0.0]])
        result = design_lti(A2, B2, K2, np.eye(2), [0.3, 0.3], 0.5)
        w = result.config.thresholds
        assert math.isinf(w[1]) and math.isinf(result.config.dwells[1])
        assert w[0] == pytest.approx(0.15, rel=1e-12)
        assert result.config.threshold_norm == pytest.approx(w[0], rel=1e-12)
        assert np.isfinite(result.config.dwells[0])

    def test_scalar_system_with_zero_gain(self):
        # x' = -x, u = 0, Q = 2: P = 1 and the only sensor never matters.
        result = design_lti([[-1.0]], [[1.0]], [[0.0]], [[2.0]], [0.5], 0.5)
        npt.assert_allclose(result.P, [[1.0]], rtol=1e-12)
        assert math.isinf(result.config.thresholds[0])
        assert result.config.threshold_norm == 0.0

    def test_rejects_non_hurwitz(self):
        with pytest.raises(DesignError, match="Hurwitz"):
            design_lti(A, B, np.zeros_like(K), np.eye(4), THETA, SIGMA)

    def test_stiff_ten_state_design(self):
        # Upper-triangular closed loop with eigenvalues -1 .. -1e4 on its
        # diagonal; sensor 0 feeds no input and is excluded.
        A10 = np.diag(-np.logspace(0, 4, 10))
        K10 = 0.1 * np.eye(10, k=1)
        Q10 = np.eye(10)
        result = design_lti(A10, np.eye(10), K10, Q10, np.full(10, 0.1), 0.5)
        A_cl = A10 + K10
        residual = np.linalg.norm(result.P @ A_cl + A_cl.T @ result.P + Q10)
        assert residual <= 1e-10 * np.linalg.norm(Q10)
        T = result.config.dwells
        assert math.isinf(T[0])
        assert np.all(np.isfinite(T[1:])) and np.all(T[1:] > 0.0)

    @pytest.mark.parametrize("level", [1.0, 1e6, math.inf])
    def test_certificate_caps_match_closed_form_at_every_level(self, level):
        # The caps sigma theta_i Q_min / |column_i(2 P B K)| do not depend
        # on the level; the stiff plant's sensor 0 has a zero column.
        A10 = np.diag(-np.logspace(0, 4, 10))
        K10 = 0.1 * np.eye(10, k=1)
        theta10 = np.full(10, 0.1)
        for Ai, Bi, Ki, thetai in ((A, B, K, THETA), (A10, np.eye(10), K10, theta10)):
            result = design_lti(Ai, Bi, Ki, np.eye(len(Ai)), thetai, SIGMA)
            column_norms = np.linalg.norm(2.0 * result.P @ Bi @ Ki, axis=0)
            with np.errstate(divide="ignore"):
                expected = np.where(column_norms > 0.0,
                                    SIGMA * thetai * result.q_min / column_norms, np.inf)
            caps = result.certificate.threshold_bounds(level)
            assert np.array_equal(caps, expected)
            assert np.array_equal(result.config.thresholds, expected)
            assert result.level == math.inf
        assert math.isinf(caps[0])

    def test_certificate_caps_do_not_alias_thresholds(self):
        result = design_lti(A, B, K, np.eye(4), THETA, SIGMA)
        kept = result.config.thresholds.copy()
        caps = result.certificate.threshold_bounds(math.inf)
        assert not np.shares_memory(caps, result.config.thresholds)
        caps[:] = 1e9
        assert np.array_equal(result.config.thresholds, kept)
        assert np.array_equal(result.certificate.threshold_bounds(1.0), kept)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DesignError, match="sigma"):
            design_lti(A, B, K, np.eye(4), THETA, 1.0)

    def test_rejects_indefinite_q(self):
        with pytest.raises(DesignError, match="positive definite"):
            design_lti(A, B, K, np.diag([1.0, 1.0, 1.0, -1.0]), THETA, SIGMA)

    def test_refuses_indefinite_lyapunov_solution(self, monkeypatch):
        # solve_lyapunov leaves definiteness to the certificate, the one
        # definiteness check of a design.
        monkeypatch.setattr(design_module, "solve_lyapunov",
                            lambda A_cl, Q: np.diag([1.0, 1.0, 1.0, -1.0]))
        with pytest.raises(DesignError, match="positive definite"):
            design_lti(A, B, K, np.eye(4), THETA, SIGMA)

    def test_rejects_wrong_theta_length(self):
        with pytest.raises(DesignError, match="one weight per sensor"):
            design_lti(A, B, K, np.eye(4), [0.5, 0.5], SIGMA)

    def test_rejects_scalar_a(self):
        with pytest.raises(DesignError, match="A must be square"):
            design_lti(5.0, B, K, np.eye(4), THETA, SIGMA)

    def test_dwells_agree_with_numeric_oracle(self):
        result = design_lti(A, B, K, np.eye(4), THETA, SIGMA)
        w = result.config.thresholds
        others = np.sqrt(np.sum(w**2) - w**2)
        A_cl = A + B @ K
        BK = B @ K
        norm_A_cl = np.linalg.norm(A_cl, 2)
        norm_BK = np.linalg.norm(BK, 2)
        for i in range(4):
            coeffs = RiccatiCoefficients(
                np.linalg.norm(A_cl[i]) + np.linalg.norm(BK[i]) * others[i],
                norm_A_cl + np.linalg.norm(BK[i]) + norm_BK * others[i],
                norm_BK,
            )
            assert result.config.dwells[i] == pytest.approx(
                crossing_time_numeric(w[i], coeffs), rel=1e-6)

    def test_to_dict_shape(self):
        result = design_lti(A, B, K, np.eye(4), THETA, SIGMA)
        doc = result.to_dict()
        assert set(doc) == {"sensors", "W", "P", "Q_m", "sigma", "theta", "c"}
        assert len(doc["sensors"]) == 4
        assert set(doc["sensors"][0]) == {"w", "T"}
        assert doc["c"] is None
        assert doc["W"] == pytest.approx(result.config.threshold_norm)
        npt.assert_allclose(doc["P"], result.P)


def _cubic_with_bounds(second_cap):
    """The cubic oscillator with its second threshold cap replaced."""
    scenario = cubic_oscillator()
    cert = scenario.certificate
    forged = LyapunovCertificate(
        cert.quadratic,
        lambda level: np.array([cert.threshold_bounds(level)[0], second_cap]))
    return dataclasses.replace(scenario, certificate=forged)


class TestDesignNonlinear:
    def test_infinite_cap_designs_sensor_out(self):
        scenario = _cubic_with_bounds(math.inf)
        config = design_nonlinear(scenario.certificate, scenario.lipschitz, 10.0)
        assert math.isinf(config.thresholds[1]) and math.isinf(config.dwells[1])
        assert np.isfinite(config.thresholds[0]) and np.isfinite(config.dwells[0])
        trace = run(scenario, horizon=0.5)
        assert trace.meta["thresholds"][1] == math.inf
        assert not np.any(trace.events.sensor == 1)
        assert np.any(trace.events.sensor == 0)

    @pytest.mark.parametrize("cap", [math.nan, 0.0, -0.1])
    def test_rejects_nan_or_nonpositive_cap(self, cap):
        scenario = _cubic_with_bounds(cap)
        with pytest.raises(DesignError, match="thresholds must be positive"):
            design_nonlinear(scenario.certificate, scenario.lipschitz, 10.0)


class TestDwellTimes:
    def _constant_lip(self, state, error, per_state, per_error):
        return LipschitzData(state, error, np.asarray(per_state, dtype=float),
                             np.asarray(per_error, dtype=float))

    def test_no_error_gain_reduces_to_logarithm(self):
        # With D = D_i = 0 the comparison ODE is phi' = L_i + L phi.
        lip = self._constant_lip(2.0, 0.0, [1.0, 3.0], [0.0, 0.0])
        w = np.array([0.5, 0.25])
        T = dwell_times(w, lip)
        expected = [math.log1p(2.0 * 0.5 / 1.0) / 2.0, math.log1p(2.0 * 0.25 / 3.0) / 2.0]
        npt.assert_allclose(T, expected, rtol=1e-12)

    def test_matches_direct_assembly(self):
        lip = self._constant_lip(3.0, 1.5, [1.0, 2.0], [0.5, 1.0])
        w = np.array([0.4, 0.3])
        T = dwell_times(w, lip)
        total = float(np.sum(w**2))
        for i in range(2):
            other = math.sqrt(total - w[i] ** 2)
            coeffs = RiccatiCoefficients(
                [1.0, 2.0][i] + [0.5, 1.0][i] * other,
                3.0 + [0.5, 1.0][i] + 1.5 * other,
                1.5,
            )
            assert T[i] == pytest.approx(crossing_time(w[i], coeffs), rel=1e-14)

    def test_infinite_threshold_excludes_sensor(self):
        lip = self._constant_lip(3.0, 1.5, [1.0, 2.0, 0.5], [0.5, 1.0, 0.7])
        T = dwell_times([0.4, np.inf, 0.3], lip)
        assert T[1] == np.inf
        alone = self._constant_lip(3.0, 1.5, [1.0, 0.5], [0.5, 0.7])
        npt.assert_array_equal(T[[0, 2]], dwell_times([0.4, 0.3], alone))

    def test_rejects_negative_constants(self):
        lip = self._constant_lip(1.0, -0.5, [1.0], [0.0])
        with pytest.raises(DesignError, match="non-negative"):
            dwell_times([0.5], lip)

    def test_rejects_bad_thresholds(self):
        lip = self._constant_lip(1.0, 0.0, [1.0], [0.0])
        with pytest.raises(DesignError, match="positive"):
            dwell_times([0.0], lip)
        with pytest.raises(DesignError, match="positive"):
            dwell_times([np.nan], lip)


class TestCubicThresholdBounds:
    def _bounds(self, level):
        return cubic_oscillator().certificate.threshold_bounds(level)

    def test_level_10_matches_frozen(self):
        npt.assert_allclose(self._bounds(10.0), CUBIC_W10, rtol=1e-6)

    def test_level_10_matches_published(self):
        npt.assert_allclose(self._bounds(10.0), [0.0045, 0.0832], rtol=0.05)

    def test_sensor_2_cap_is_level_independent(self):
        assert self._bounds(2.5)[1] == self._bounds(10.0)[1]
        # Analytic value: sigma*theta2*Q_m / (|2PB| * |k2|).
        assert self._bounds(10.0)[1] == pytest.approx(
            0.09 / (math.sqrt(0.13) * 3.0), rel=1e-12)

    def test_sensor_1_cap_decreases_with_level(self):
        npt.assert_allclose(self._bounds(2.5), CUBIC_W25, rtol=1e-6)
        assert self._bounds(2.5)[0] > self._bounds(10.0)[0]

    def test_zero_level_limit(self):
        # mu = 0 leaves only the peak-gain term in the polynomial.
        bounds = self._bounds(0.0)
        assert bounds[0] == pytest.approx(0.81 / (math.sqrt(0.13) * 5.0), rel=1e-12)

    def test_rejects_negative_level(self):
        with pytest.raises(DesignError, match="level"):
            self._bounds(-1.0)


class TestPeakCubicGain:
    def test_closed_form_matches_grid(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            mu1 = rng.uniform(0.0, 12.0)
            k1 = rng.uniform(-8.0, 8.0)
            grid = np.linspace(-mu1, mu1, 200_001)
            expected = np.abs(3.0 * grid**2 - k1).max()
            assert peak_cubic_gain(mu1, k1) == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_interval_interior_case(self):
        # 3 mu1^2 < 2 k1: the center dominates.
        assert peak_cubic_gain(1.0, 5.0) == 5.0
        # 3 mu1^2 > 2 k1: the endpoints dominate.
        assert peak_cubic_gain(2.0, 5.0) == 7.0

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="mu1"):
            peak_cubic_gain(-1.0, 5.0)


class TestDesignResultSerialization:
    def test_nonlinear_document_carries_level(self):
        config = TriggerConfig(thresholds=np.array([0.1, 0.2]), dwells=np.array([0.5, 0.6]))
        doc = DesignResult(
            config=config, certificate=cubic_oscillator().certificate, q_min=1.0, sigma=0.9,
            theta=np.array([0.9, 0.1]), level=10.0,
        ).to_dict()
        assert doc["c"] == 10.0
        assert doc["sensors"][1] == {"w": 0.2, "T": 0.6}
        assert doc["theta"] == [0.9, 0.1]
