"""Tests for the bundled scenarios, their certificates, and Lipschitz data."""

import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from etcontrol.design import LyapunovCertificate, validate_certificate
from etcontrol.errors import DesignError
from etcontrol.models import (
    BATCH_A,
    BATCH_B,
    BATCH_K,
    CUBIC_K1,
    CUBIC_K2,
    CUBIC_P,
    SCENARIO_NAMES,
    batch_reactor,
    cubic_error_injection,
    cubic_oscillator,
    design_scenario,
    lipschitz_bounds_cubic,
    load_lti,
    scenario_by_name,
)

# Frozen prototype outputs.
CUBIC_W10 = np.array([0.00445167, 0.08320503])
CUBIC_T10 = np.array([0.00401995, 0.00340147])
CUBIC_W25 = np.array([0.01729268, 0.08320503])
CUBIC_D2_AT_10 = 504.65898834596265
CUBIC_PMIN = (1.3 - math.sqrt(1.04)) / 2.0
NOMINAL_CUBIC = np.array([[0.0, 1.0], [-5.0, -4.0]])
# Published closed-loop eigenvalues of the reactor benchmark.
REACTOR_EIGS = np.array([
    -2.98301657 + 1.19131507j,
    -2.98301657 - 1.19131507j,
    -3.62577782 + 0.0j,
    -3.89584505 + 0.0j,
])


class TestBatchReactor:
    def test_closed_loop_spectrum(self):
        scenario = batch_reactor()
        model = scenario.model
        eigs = np.linalg.eigvals(model.A + model.B @ model.K)
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
        expected = REACTOR_EIGS[np.lexsort((REACTOR_EIGS.imag, REACTOR_EIGS.real))]
        npt.assert_allclose(eigs, expected, atol=1e-6)

    def test_matrices_are_exposed(self):
        scenario = batch_reactor()
        npt.assert_array_equal(scenario.model.A, BATCH_A)
        npt.assert_array_equal(scenario.model.B, BATCH_B)
        npt.assert_array_equal(scenario.model.K, BATCH_K)
        assert scenario.model.state_dim == 4
        assert scenario.model.input_dim == 2

    def test_dynamics_match_matrices(self):
        scenario = batch_reactor()
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(4)
            xs = rng.standard_normal(4)
            u = scenario.model.controller(xs)
            npt.assert_allclose(u, BATCH_K @ xs, rtol=1e-15)
            npt.assert_allclose(
                scenario.model.f(x, u), BATCH_A @ x + BATCH_B @ u, rtol=1e-15)

    def test_design_matches_lti_path(self):
        scenario = batch_reactor()
        result = design_scenario(scenario)
        assert result.level is None
        assert result.config.thresholds.size == 4
        assert result.sigma == 0.95


class TestCubicOscillator:
    def test_certificate_value_at_initial_state(self):
        scenario = cubic_oscillator()
        assert scenario.certificate.value(scenario.x0) == pytest.approx(8.574, abs=1e-6)

    def test_certificate_envelopes(self):
        cert = cubic_oscillator().certificate
        assert cert.level_radius(10.0) == pytest.approx(
            math.sqrt(10.0 / CUBIC_PMIN), rel=1e-10)
        assert len(cert.error_gains) == 2
        npt.assert_array_equal(cert.quadratic, CUBIC_P)

    def test_design_matches_frozen_values(self):
        result = design_scenario(cubic_oscillator())
        npt.assert_allclose(result.config.thresholds, CUBIC_W10, rtol=1e-6)
        npt.assert_allclose(result.config.dwells, CUBIC_T10, rtol=1e-5)
        assert result.level == 10.0
        assert result.q_min == pytest.approx(1.0)

    def test_design_matches_published_values(self):
        result = design_scenario(cubic_oscillator())
        npt.assert_allclose(result.config.thresholds, [0.0045, 0.0832], rtol=0.05)
        npt.assert_allclose(result.config.dwells, [0.004, 0.0034], rtol=0.10)

    def test_design_at_lower_level(self):
        result = design_scenario(cubic_oscillator(level=2.5))
        npt.assert_allclose(result.config.thresholds, CUBIC_W25, rtol=1e-6)
        assert result.level == 2.5
        assert result.to_dict()["c"] == 2.5

    def test_nominal_matrix_contracts_at_unit_rate(self):
        residual = CUBIC_P @ NOMINAL_CUBIC + NOMINAL_CUBIC.T @ CUBIC_P + np.eye(2)
        npt.assert_allclose(residual, np.zeros((2, 2)), atol=1e-14)

    def test_error_injection_identity(self):
        model = cubic_oscillator().model
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=2)
            e = rng.uniform(-1.0, 1.0, size=2)
            lhs = model.f(x, model.controller(x + e))
            rhs = NOMINAL_CUBIC @ x + cubic_error_injection(x, e)
            npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_controller_cancels_cubic_term(self):
        model = cubic_oscillator().model
        x = np.array([1.7, -0.4])
        npt.assert_allclose(
            model.f(x, model.controller(x)), NOMINAL_CUBIC @ x, rtol=1e-12, atol=1e-15)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(DesignError, match="level"):
            cubic_oscillator(level=0.0)


class TestLipschitzBoundsCubic:
    def test_constants_match_frozen_values(self):
        lip = lipschitz_bounds_cubic(10.0)
        npt.assert_allclose(lip.state_gains, [1.0, math.sqrt(41.0)], rtol=1e-12)
        npt.assert_allclose(lip.error_gains, [0.0, CUBIC_D2_AT_10], rtol=1e-9)
        assert lip.state_gain == pytest.approx(math.sqrt(42.0), rel=1e-12)
        assert lip.error_gain == pytest.approx(CUBIC_D2_AT_10, rel=1e-9)

    def test_error_gain_grows_with_level(self):
        gains = [lipschitz_bounds_cubic(c).error_gain for c in (2.5, 10.0, 40.0)]
        assert gains[0] < gains[1] < gains[2]

    def test_rejects_negative_level(self):
        with pytest.raises(DesignError, match="level"):
            lipschitz_bounds_cubic(-1.0)

    def test_growth_bounds_hold_on_samples(self):
        # Monte-Carlo check of |f_i(x, k(x+e))| <= L_i |x| + D_i |e| and the
        # whole-vector analogue over the operating region of level 10.
        lip = lipschitz_bounds_cubic(10.0)
        mu = math.sqrt(10.0 / CUBIC_PMIN)
        L1, L2 = lip.state_gains
        D1, D2 = lip.error_gains
        L, D = lip.state_gain, lip.error_gain
        rng = np.random.default_rng(41)
        n = 10_000
        x = rng.standard_normal((n, 2))
        x *= (mu * rng.uniform(0.0, 1.0, n) / np.linalg.norm(x, axis=1))[:, None]
        e = rng.standard_normal((n, 2))
        e *= (mu * rng.uniform(0.0, 1.0, n) / np.linalg.norm(e, axis=1))[:, None]
        xs = x + e
        u = CUBIC_K1 * xs[:, 0] + CUBIC_K2 * xs[:, 1] - xs[:, 0] ** 3
        f1 = x[:, 1]
        f2 = -x[:, 1] + x[:, 0] ** 3 + u
        norm_x = np.linalg.norm(x, axis=1)
        norm_e = np.linalg.norm(e, axis=1)
        slack = 1.0 + 1e-12
        assert np.all(np.abs(f1) <= (L1 * norm_x + D1 * norm_e) * slack)
        assert np.all(np.abs(f2) <= (L2 * norm_x + D2 * norm_e) * slack)
        assert np.all(np.hypot(f1, f2) <= (L * norm_x + D * norm_e) * slack)

    def test_vectorized_samples_match_model(self):
        model = cubic_oscillator().model
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=2)
            e = rng.uniform(-0.5, 0.5, size=2)
            u = model.controller(x + e)
            expected = np.array([x[1], -x[1] + x[0] ** 3 + u[0]])
            npt.assert_allclose(model.f(x, u), expected, rtol=1e-15)


class TestValidateCertificate:
    def test_cubic_certificate_passes(self):
        scenario = cubic_oscillator()
        validate_certificate(scenario.certificate, 10.0)

    def test_rejects_caps_above_admissible(self):
        cert = cubic_oscillator().certificate
        loose = dataclasses.replace(
            cert, threshold_bounds=lambda c: 2.0 * np.asarray(cert.threshold_bounds(c)))
        with pytest.raises(DesignError, match="linear bound"):
            validate_certificate(loose, 10.0)

    def test_rejects_flat_error_gain(self):
        cert = cubic_oscillator().certificate
        flat = dataclasses.replace(
            cert, error_gains=(lambda r: 0.0, cert.error_gains[1]))
        with pytest.raises(DesignError, match="strictly increasing"):
            validate_certificate(flat, 10.0)

    def test_rejects_offset_error_gain(self):
        cert = cubic_oscillator().certificate
        offset = dataclasses.replace(
            cert, error_gains=(lambda r: r + 0.1, cert.error_gains[1]))
        with pytest.raises(DesignError, match="vanish"):
            validate_certificate(offset, 10.0)

    def test_rejects_indefinite_quadratic(self):
        cert = cubic_oscillator().certificate
        with pytest.raises(DesignError, match="positive definite"):
            LyapunovCertificate(np.diag([1.0, -1.0]), cert.error_gains,
                                cert.threshold_bounds)
        with pytest.raises(ValueError, match="symmetric"):
            dataclasses.replace(cert, quadratic=np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestLoadLti:
    def _document(self):
        return {
            "A": BATCH_A.tolist(),
            "B": BATCH_B.tolist(),
            "K": BATCH_K.tolist(),
            "Q": np.eye(4).tolist(),
            "theta": [0.6, 0.17, 0.08, 0.15],
            "sigma": 0.95,
            "x0": [4.0, 7.0, -4.0, 3.0],
            "xs0": [4.1, 7.2, -4.5, 2.0],
            "horizon": 10.0,
        }

    def test_dict_round_trip_matches_bundled_scenario(self):
        loaded = load_lti(self._document())
        bundled = batch_reactor()
        npt.assert_array_equal(loaded.model.A, bundled.model.A)
        npt.assert_array_equal(loaded.Q, bundled.Q)
        npt.assert_array_equal(loaded.x0, bundled.x0)
        assert loaded.sigma == bundled.sigma
        assert loaded.step == 1e-4
        assert loaded.name == "custom_lti"
        loaded_design = design_scenario(loaded)
        bundled_design = design_scenario(bundled)
        npt.assert_array_equal(
            loaded_design.config.thresholds, bundled_design.config.thresholds)
        npt.assert_array_equal(loaded_design.config.dwells, bundled_design.config.dwells)

    def test_file_round_trip(self, tmp_path):
        doc = self._document()
        doc["name"] = "reactor_copy"
        doc["step"] = 5e-4
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        loaded = load_lti(str(path))
        assert loaded.name == "reactor_copy"
        assert loaded.step == 5e-4
        npt.assert_array_equal(loaded.model.K, BATCH_K)

    def test_missing_key_is_reported(self):
        doc = self._document()
        del doc["sigma"]
        with pytest.raises(ValueError, match="sigma"):
            load_lti(doc)

    def test_rejects_bad_state_shapes(self):
        doc = self._document()
        doc["x0"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="state-dimension"):
            load_lti(doc)

    def test_rejects_nonpositive_horizon(self):
        doc = self._document()
        doc["horizon"] = 0.0
        with pytest.raises(ValueError, match="horizon"):
            load_lti(doc)


class TestScenarioLookup:
    def test_names_are_registered(self):
        assert set(SCENARIO_NAMES) == {"batch_reactor", "cubic_oscillator"}
        for name in SCENARIO_NAMES:
            assert scenario_by_name(name).name == name

    def test_level_passthrough(self):
        assert scenario_by_name("cubic_oscillator", level=2.5).level == 2.5
        assert scenario_by_name("cubic_oscillator").level == 10.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_by_name("pendulum")
