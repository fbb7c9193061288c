"""Tests for containment balls, sphere maximization, and on-line updates."""

import numpy as np
import numpy.testing as npt
import pytest

from etcontrol.errors import DesignError
from etcontrol.feedback import (
    QuadraticBound,
    UpdateSchedule,
    apply_update,
    containment_sphere,
    max_on_sphere_grid,
    update_due,
)
from etcontrol.models import cubic_oscillator

# Frozen prototype outputs for the cubic-oscillator redesign at level 2.5.
CUBIC_W25 = np.array([0.01729268, 0.08320503])
CUBIC_T25 = np.array([0.01498122, 0.00602527])


def _secular_oracle(P, c, R):
    """Trust-region multiplier by companion-matrix root finding.

    The stationarity multiplier solves ``sum g_i^2 / (lam - l_i)^2 = R^2``
    in the eigenbasis; clearing denominators gives a polynomial whose
    largest real root above the top eigenvalue yields the maximum.
    """
    vals, vecs = np.linalg.eigh(P)
    ghat = vecs.T @ (P @ c)
    poly = -(R**2) * np.poly(np.repeat(vals, 2))
    for i in range(len(vals)):
        term = ghat[i] ** 2 * np.poly(np.repeat(np.delete(vals, i), 2))
        poly = np.polyadd(poly, term)
    roots = np.roots(poly)
    spread = max(np.abs(roots).max(), 1.0)
    real = roots[np.abs(roots.imag) < 1e-8 * spread].real
    lam = real[real > vals[-1] + 1e-10 * spread].max()
    return float(c @ P @ c + np.sum(ghat**2 / (lam - vals)) + lam * R**2)


class TestContainmentSphere:
    def test_closed_form(self):
        center, radius = containment_sphere([3.0, 4.0], 0.5)
        npt.assert_allclose(center, [4.0, 16.0 / 3.0], rtol=1e-15)
        assert radius == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_zero_threshold_degenerates_to_sample(self):
        center, radius = containment_sphere([1.0, -2.0, 0.5], 0.0)
        npt.assert_array_equal(center, [1.0, -2.0, 0.5])
        assert radius == 0.0

    def test_rejects_threshold_at_or_above_one(self):
        with pytest.raises(DesignError, match="below 1"):
            containment_sphere([1.0, 2.0], 1.0)
        with pytest.raises(DesignError, match="non-negative"):
            containment_sphere([1.0, 2.0], -0.1)

    def test_true_state_is_contained(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            W = rng.uniform(0.05, 0.9)
            e = rng.standard_normal(n)
            e *= rng.uniform(0.0, 1.0) * W * np.linalg.norm(x) / np.linalg.norm(e)
            center, radius = containment_sphere(x + e, W)
            assert np.linalg.norm(x - center) <= radius * (1.0 + 1e-12) + 1e-12

    def test_boundary_error_reaches_sphere(self):
        x = np.array([2.0, -1.0, 0.5])
        W = 0.3
        direction = np.array([1.0, 2.0, -2.0]) / 3.0
        e = W * np.linalg.norm(x) * direction
        center, radius = containment_sphere(x + e, W)
        assert np.linalg.norm(x - center) == pytest.approx(radius, rel=1e-9)


class TestMaxQuadraticOnSphere:
    def test_hard_case_axis_aligned(self):
        assert QuadraticBound(np.diag([1.0, 4.0]))(
            [1.0, 0.0], 0.5) == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert QuadraticBound(np.diag([4.0, 1.0]))(
            [0.0, 1.0], 2.0) == pytest.approx(52.0 / 3.0, rel=1e-12)

    def test_hard_case_three_dimensional(self):
        # max 2x^2 + 2y^2 + z^2 on x^2 + y^2 + (z-1)^2 = 4 is 10 at z = 2.
        assert QuadraticBound(np.diag([2.0, 2.0, 1.0]))(
            [0.0, 0.0, 1.0], 2.0) == pytest.approx(10.0, rel=1e-12)

    def test_isotropic_matrix(self):
        assert QuadraticBound(np.eye(2))([1.0, 0.0], 2.0) == pytest.approx(9.0, rel=1e-12)

    def test_zero_radius_returns_center_value(self):
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = np.array([1.0, -1.0])
        assert QuadraticBound(P)(c, 0.0) == pytest.approx(float(c @ P @ c))

    def test_centered_ball(self):
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        lam_max = np.linalg.eigvalsh(P)[-1]
        assert QuadraticBound(P)([0.0, 0.0], 3.0) == pytest.approx(
            9.0 * lam_max, rel=1e-12)

    def test_rejects_negative_radius(self):
        for radius in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                QuadraticBound(np.eye(2))([0.0, 0.0], radius)

    def test_repeated_queries_match_fresh_solves(self):
        P = np.diag([1.0, 4.0])
        c = np.array([0.3, -0.7])
        nudged = c.copy()
        nudged[-1] = np.nextafter(nudged[-1], np.inf)
        hard = (np.array([1.0, 0.0]), 0.5)
        queries = [
            (c, 1.1), (c, 1.1), hard, hard, (c, 1.1), (c, 0.0), (c, 0.0),
            (nudged, 0.0), (nudged, 0.0), (c, 0.0), (nudged, 1.1),
            (c, np.nextafter(1.1, 2.0)), hard, (c, 1.1),
        ]
        # The last-bit center change must not be served from the memo.
        assert QuadraticBound(P)(nudged, 0.0) != QuadraticBound(P)(c, 0.0)
        bound = QuadraticBound(P)
        solves = []
        solve = bound._maximize

        def counted(*args):
            solves.append(args)
            return solve(*args)

        bound._maximize = counted
        for center, radius in queries:
            assert bound(center, radius) == QuadraticBound(P)(center, radius)
        distinct = sum(1 for a, b in zip(queries, queries[1:])
                       if a[0].tobytes() != b[0].tobytes() or a[1] != b[1])
        assert len(solves) == 1 + distinct

    def test_negative_radius_raises_after_cached_query(self):
        bound = QuadraticBound(np.eye(2))
        bound([1.0, 2.0], 0.5)
        bound([1.0, 2.0], 0.5)
        with pytest.raises(ValueError, match="radius"):
            bound([1.0, 2.0], -1.0)
        assert bound([1.0, 2.0], 0.5) == QuadraticBound(np.eye(2))([1.0, 2.0], 0.5)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(19)
        P = np.diag([3.0, 1.0, 0.5])
        c = np.array([0.7, -0.2, 1.1])
        base = QuadraticBound(P)(c, 0.8)
        for _ in range(10):
            U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rotated = QuadraticBound(U.T @ P @ U)(U.T @ c, 0.8)
            assert rotated == pytest.approx(base, rel=1e-10)

    def test_against_planar_grid_scan(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            M = rng.standard_normal((2, 2))
            P = M @ M.T + 0.1 * np.eye(2)
            c = rng.standard_normal(2)
            R = rng.uniform(0.1, 3.0)
            exact = QuadraticBound(P)(c, R)
            scan = max_on_sphere_grid(lambda x: float(x @ P @ x), c, R)
            assert exact == pytest.approx(scan, rel=1e-9)

    def test_against_polynomial_root_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            P = M @ M.T + 0.1 * np.eye(3)
            c = rng.standard_normal(3)
            R = rng.uniform(0.2, 2.0)
            assert QuadraticBound(P)(c, R) == pytest.approx(
                _secular_oracle(P, c, R), rel=1e-7)

    def test_dominates_sampled_ball_points(self):
        rng = np.random.default_rng(37)
        M = rng.standard_normal((4, 4))
        P = M @ M.T + 0.2 * np.eye(4)
        c = rng.standard_normal(4)
        R = 1.3
        bound = QuadraticBound(P)(c, R)
        for _ in range(300):
            y = rng.standard_normal(4)
            y *= rng.uniform(0.0, R) / np.linalg.norm(y)
            assert float((c + y) @ P @ (c + y)) <= bound * (1.0 + 1e-9)


class TestMaxOnSphereGrid:
    def test_zero_radius(self):
        assert max_on_sphere_grid(lambda x: float(np.sum(x)), [2.0, 3.0], 0.0) == 5.0

    def test_rejects_non_planar_center(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            max_on_sphere_grid(lambda x: 0.0, [1.0, 2.0, 3.0], 1.0)

    def test_rejects_negative_or_non_finite_radius(self):
        for radius in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                max_on_sphere_grid(lambda x: 0.0, [0.0, 0.0], radius)

    def test_linear_field(self):
        # max of x + y on the unit circle around the origin is sqrt(2).
        value = max_on_sphere_grid(lambda x: float(x[0] + x[1]), [0.0, 0.0], 1.0)
        assert value == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_scan_visits_each_angle_as_one_point(self):
        # The coarse scan hands the scalar field one planar point for each
        # of its 4096 angles k * 2 pi / 4096, in order, then the 2 + 90
        # refinements.
        seen = []

        def field(x):
            seen.append(np.array(x))
            return float(x[0] - 2.0 * x[1])

        center, radius, samples = np.array([0.3, -1.2]), 1.7, 4096
        max_on_sphere_grid(field, center, radius)
        assert len(seen) == samples + 92
        assert all(point.shape == (2,) for point in seen)
        step = 2.0 * np.pi / samples
        expected = [center + radius * np.array([np.cos(k * step), np.sin(k * step)])
                    for k in range(samples)]
        npt.assert_allclose(seen[:samples], expected, rtol=1e-15, atol=1e-15)


class TestEstimateContainment:
    def test_bound_is_sound_for_consistent_states(self):
        cert = cubic_oscillator().certificate
        rng = np.random.default_rng(43)
        x_s = np.array([2.9, -2.7])
        W = 0.0833
        center, radius = containment_sphere(x_s, W)
        value = QuadraticBound(cert.quadratic)(center, radius)
        for _ in range(200):
            y = rng.standard_normal(2)
            y *= rng.uniform(0.0, radius) / np.linalg.norm(y)
            assert cert.value(center + y) <= value * (1.0 + 1e-9)


class TestUpdateSchedule:
    def test_validation(self):
        with pytest.raises(ValueError, match="dwell"):
            UpdateSchedule(dwell=0.0, decay=0.5)
        with pytest.raises(ValueError, match="decay"):
            UpdateSchedule(dwell=0.5, decay=1.0)
        with pytest.raises(ValueError, match="decay"):
            UpdateSchedule(dwell=0.5, decay=0.0)

    def test_update_due_truth_table(self):
        schedule = UpdateSchedule(dwell=0.5, decay=0.5)
        # Too early, even with a small bound.
        assert not update_due(schedule, 0.4, 0.0, 1.0, 10.0)
        # Late enough but the bound has not decayed.
        assert not update_due(schedule, 0.6, 0.0, 6.0, 10.0)
        # Both conditions met; boundary cases count as met.
        assert update_due(schedule, 0.6, 0.0, 4.0, 10.0)
        assert update_due(schedule, 0.5, 0.0, 5.0, 10.0)


class TestApplyUpdate:
    def test_redesign_matches_frozen_values(self):
        scenario = cubic_oscillator()
        update = apply_update(
            scenario.certificate, scenario.lipschitz, 2.5, 1.23, 10.0)
        npt.assert_allclose(update.config.thresholds, CUBIC_W25, rtol=1e-6)
        npt.assert_allclose(update.config.dwells, CUBIC_T25, rtol=1e-5)
        assert update.level == 2.5
        assert update.time == 1.23

    def test_rejects_growing_level(self):
        scenario = cubic_oscillator()
        with pytest.raises(DesignError, match="shrink"):
            apply_update(scenario.certificate, scenario.lipschitz, 12.0, 0.0, 10.0)

    def test_rejects_nonpositive_level(self):
        scenario = cubic_oscillator()
        with pytest.raises(DesignError, match="positive"):
            apply_update(scenario.certificate, scenario.lipschitz, 0.0, 0.0, 10.0)
