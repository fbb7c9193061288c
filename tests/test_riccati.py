"""Tests for the comparison-ODE crossing-time solver.

Every closed-form branch is pinned to an analytically integrable case:
the integrand 1/(a0 + a1 phi + a2 phi^2) has elementary antiderivatives
whose values below were computed by hand.
"""

import math
import warnings

import numpy as np
import pytest

from etcontrol.riccati import (
    RiccatiCoefficients,
    _closed_form,
    crossing_time,
    crossing_time_numeric,
)

# Frozen regression values, independently computed from the integral form.
TIME_MIXED_DISTINCT = 0.04652001563489291  # w=0.1, (2, 3, 1): log((11/10)*2 / (21/10))
TIME_MIXED_COMPLEX = 0.18033751700125764  # w=0.2, (1, 1, 1): arctan branch

# Exact integrals at coefficients far from 1, evaluated once in 60-digit
# arithmetic from the factored integrand and rounded to the nearest float.
TIME_TINY_LINEAR = 6.931471805599453e+169  # w=1, (1e-170, 1e-170, 0): ln 2 / a1
TIME_HUGE_A1 = 4.6051701859880914e-198  # w=1, (1, 1e200, 1): ~log1p(1e200) / 1e200
TIME_WIDE_SPREAD = 1.0822149937072015e-157  # w=1e10, (1e-300, 1e160, 1)
TIME_WIDE_COMPLEX = 1.2091995761561452e+150  # w=1, (1e-300, 1e-150, 1): arctan branch
# w=2^120, (2^-120, 2^-118, 2^-120), on the edge of the float range, and the
# same tuple with w, a0 and a2 one float outside it both round to this value.
TIME_BOX_EDGE = 1.010673184766192e+36


def coeffs(a0, a1, a2):
    return RiccatiCoefficients(a0, a1, a2)


class TestCoefficients:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="a1"):
            coeffs(1.0, -0.5, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="a2"):
            coeffs(1.0, 0.0, math.nan)

    def test_coerces_to_float(self):
        c = coeffs(1, 2, 3)
        assert c.a0 == 1.0 and c.a1 == 2.0 and c.a2 == 3.0


class TestClosedForm:
    def test_zero_level(self):
        assert crossing_time(0.0, coeffs(1.0, 2.0, 3.0)) == 0.0

    def test_unreachable_when_flow_stays_at_zero(self):
        assert crossing_time(0.3, coeffs(0.0, 2.0, 1.0)) == math.inf

    def test_constant_growth(self):
        # phi(t) = a0 t.
        assert crossing_time(0.5, coeffs(1.0, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-15)

    def test_logarithmic_branch(self):
        # integral 0..1 of dphi/(1 + phi) = log 2.
        assert crossing_time(1.0, coeffs(1.0, 1.0, 0.0)) == pytest.approx(
            math.log(2.0), rel=1e-14)

    def test_arctangent_branch(self):
        # integral 0..1 of dphi/(1 + phi^2) = pi/4.
        assert crossing_time(1.0, coeffs(1.0, 0.0, 1.0)) == pytest.approx(
            math.pi / 4.0, rel=1e-14)

    def test_distinct_roots_branch(self):
        # 2 + 3 phi + phi^2 = (phi + 1)(phi + 2): t = log((w+1)*2/(w+2)).
        assert crossing_time(1.0, coeffs(2.0, 3.0, 1.0)) == pytest.approx(
            math.log(4.0 / 3.0), rel=1e-14)
        assert crossing_time(0.1, coeffs(2.0, 3.0, 1.0)) == pytest.approx(
            TIME_MIXED_DISTINCT, rel=1e-12)

    def test_complex_roots_regression(self):
        assert crossing_time(0.2, coeffs(1.0, 1.0, 1.0)) == pytest.approx(
            TIME_MIXED_COMPLEX, rel=1e-12)

    def test_double_root_exact(self):
        # (1 + phi)^2: t = w/(1 + w) exactly, discriminant zero.
        assert crossing_time(0.3, coeffs(1.0, 2.0, 1.0)) == pytest.approx(
            0.3 / 1.3, rel=1e-9)

    def test_near_degenerate_matches_double_root_limit(self):
        # Perturbing a2 by 1e-12 must not move the answer at the 1e-9 level.
        exact = 0.3 / 1.3
        assert crossing_time(0.3, coeffs(1.0, 2.0, 1.0 + 1e-12)) == pytest.approx(
            exact, rel=1e-8)

    def test_tiny_root_product_matches_oracle(self):
        # a0 a2 << a1^2: the textbook formula rounds the root near -a0/a1 to 0.
        w = 0.020963670921860876
        c = coeffs(1.0146773716758175e-07, 4112.385511608493, 2.536799761286353e-07)
        assert crossing_time(w, c) == pytest.approx(crossing_time_numeric(w, c), rel=1e-8)

    def test_double_root_with_long_crossing(self):
        # (1e-9)(1 + phi)^2: t = w / (a0 (1 + w)) = 5e8, beyond the numeric
        # integrator's 1e7 horizon; the result must be finite and warning-free.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = crossing_time(1.0, coeffs(1e-9, 2e-9, 1e-9))
        assert t == pytest.approx(5e8, rel=1e-12)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError, match="level"):
            crossing_time(-0.1, coeffs(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="level"):
            crossing_time(math.inf, coeffs(1.0, 0.0, 0.0))

    def test_positive_for_positive_level(self):
        assert crossing_time(1e-9, coeffs(5.0, 1.0, 1.0)) > 0.0


class TestFloatRange:
    def test_tiny_coefficients(self):
        # In floats a1 * a1 underflows to 0, giving 2 w / d, 4% off.
        assert crossing_time(1.0, coeffs(1e-170, 1e-170, 0.0)) == pytest.approx(
            TIME_TINY_LINEAR, rel=1e-15)

    def test_huge_linear_coefficient(self):
        # In floats a1 * a1 overflows to inf, and g divides by zero.
        assert crossing_time(1.0, coeffs(1.0, 1e200, 1.0)) == pytest.approx(
            TIME_HUGE_A1, rel=1e-15)

    def test_spread_beyond_one_scaling(self):
        # The rate terms span 1e300 and more, beyond what any one
        # power-of-two scaling keeps in the normal float range.
        assert crossing_time(1e10, coeffs(1e-300, 1e160, 1.0)) == pytest.approx(
            TIME_WIDE_SPREAD, rel=1e-15)
        assert crossing_time(1.0, coeffs(1e-300, 1e-150, 1.0)) == pytest.approx(
            TIME_WIDE_COMPLEX, rel=1e-15)

    def test_time_beyond_largest_float_is_inf(self):
        # w / a0 = 1e600 s, which rounds to inf.
        assert crossing_time(1e300, coeffs(1e-300, 0.0, 0.0)) == math.inf

    def test_box_edge(self):
        # The first tuple takes the float closed form, the second decimals.
        inside = (2.0 ** 120, 2.0 ** -120, 2.0 ** -118, 2.0 ** -120)
        outside = (math.nextafter(2.0 ** 120, math.inf), math.nextafter(2.0 ** -120, 0.0),
                   2.0 ** -118, math.nextafter(2.0 ** -120, 0.0))
        for w, *a in (inside, outside):
            assert crossing_time(w, coeffs(*a)) == pytest.approx(TIME_BOX_EDGE, rel=1e-15)

    def test_in_range_inputs_take_the_unscaled_closed_form(self):
        # Inputs well inside the float range get the float closed form's bits.
        rng = np.random.default_rng(41)
        for _ in range(500):
            a = 10.0 ** rng.uniform(-6.0, 6.0, size=3)
            a[1:][rng.uniform(size=2) < 0.15] = 0.0
            w = 10.0 ** rng.uniform(-6.0, 3.0)
            assert crossing_time(w, coeffs(*a)) == _closed_form(w, *a)


class TestMonotonicity:
    def test_monotone_in_level_and_coefficients(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = rng.uniform(0.05, 20.0, size=3)
            w = rng.uniform(0.01, 5.0)
            base = crossing_time(w, coeffs(*a))
            assert crossing_time(1.5 * w, coeffs(*a)) >= base
            for j in range(3):
                bumped = a.copy()
                bumped[j] *= 1.5
                assert crossing_time(w, coeffs(*bumped)) <= base + 1e-15


class TestNumericOracle:
    def test_agrees_with_closed_form_across_branches(self):
        cases = [
            (0.5, (1.0, 0.0, 0.0)),
            (1.0, (1.0, 1.0, 0.0)),
            (1.0, (1.0, 0.0, 1.0)),
            (1.0, (2.0, 3.0, 1.0)),
            (0.2, (1.0, 1.0, 1.0)),
            (0.3, (1.0, 2.0, 1.0)),
        ]
        for w, a in cases:
            closed = crossing_time(w, coeffs(*a))
            numeric = crossing_time_numeric(w, coeffs(*a))
            assert numeric == pytest.approx(closed, rel=1e-6)

    def test_randomized_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            a = rng.uniform(0.01, 30.0, size=3)
            if rng.uniform() < 0.3:
                a[int(rng.integers(1, 3))] = 0.0
            w = rng.uniform(1e-3, 8.0)
            closed = crossing_time(w, coeffs(*a))
            numeric = crossing_time_numeric(w, coeffs(*a))
            assert numeric == pytest.approx(closed, rel=1e-6)

    def test_unreachable_level(self):
        assert crossing_time_numeric(0.3, coeffs(0.0, 1.0, 1.0)) == math.inf

    def test_horizon_abandonment_warns(self):
        with pytest.warns(RuntimeWarning, match="horizon"):
            result = crossing_time_numeric(1.0, coeffs(1e-12, 0.0, 0.0))
        assert result == math.inf
