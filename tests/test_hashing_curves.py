"""Unit tests for the equal-area hash-curve family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.lune import sample_lune
from repro.hashing import curves
from repro.hashing.curves import (QUARTER_AREA, HashCurveFamily, curve_area,
                                  curve_area_derivative,
                                  solve_curve_parameters)


class TestCurveArea:
    def test_boundary_values(self):
        assert curve_area(0.0) == pytest.approx(0.0)
        assert curve_area(1.0) == pytest.approx(QUARTER_AREA)

    def test_monotone_increasing(self):
        xs = np.linspace(0, 1, 101)
        values = [curve_area(x) for x in xs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_continuous(self):
        """E is continuous, including at the kink x = 1/4 (2x = 1/2)."""
        for x0 in (0.25, 0.5, 0.75):
            left = curve_area(x0 - 1e-8)
            right = curve_area(x0 + 1e-8)
            assert left == pytest.approx(right, abs=1e-6)

    def test_derivative_positive(self):
        for x in np.linspace(0.05, 0.95, 19):
            assert curve_area_derivative(float(x)) > 0

    def test_derivative_continuous_at_kink(self):
        """Figure 5: dE/dx is continuous on [0, 1]."""
        left = curve_area_derivative(0.25 - 1e-5)
        right = curve_area_derivative(0.25 + 1e-5)
        assert left == pytest.approx(right, abs=1e-2)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            curve_area(-0.1)
        with pytest.raises(ValueError):
            curve_area(1.1)

    def test_matches_numerical_integration(self):
        from scipy.integrate import quad
        for x in (0.2, 0.4, 0.7):
            upper = min(2 * x, 0.5)
            numeric, _ = quad(
                lambda t: math.sqrt(1 - (t - x) ** 2) - math.sqrt(1 - x * x),
                0.0, upper)
            assert curve_area(x) == pytest.approx(numeric, abs=1e-9)


class TestSolver:
    def test_equal_area_fractions(self):
        k = 25
        xs = solve_curve_parameters(k)
        for i, x in enumerate(xs, start=1):
            assert curve_area(float(x)) == \
                pytest.approx(QUARTER_AREA * i / k, abs=1e-9)

    def test_strictly_increasing(self):
        xs = solve_curve_parameters(40)
        assert (np.diff(xs) > 0).all()

    def test_last_is_one(self):
        assert solve_curve_parameters(10)[-1] == pytest.approx(1.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            solve_curve_parameters(0)

    def test_k_one(self):
        xs = solve_curve_parameters(1)
        assert xs[0] == pytest.approx(1.0)


def scipy_curve_parameters(k):
    """The family as ``scipy.optimize.brentq`` solves it (the reference
    the port must equal bit for bit)."""
    from scipy.optimize import brentq
    xs = [brentq(lambda x: curve_area(x) - QUARTER_AREA * i / k, 0.0, 1.0,
                 xtol=1e-12) for i in range(1, k)]
    return np.array(xs + [1.0])


class TestBrentqPort:
    """``curves.brentq`` is scipy's ``brentq.c`` operation for operation:
    every root it finds is ``==`` scipy's, so no curve center, signature
    or snapshot byte depends on which of the two solved it."""

    @pytest.mark.parametrize("k", [*range(1, 65), 100, 128, 200, 257])
    def test_every_root_equals_scipy(self, k):
        from scipy.optimize import brentq as scipy_brentq
        for i in range(1, k):
            target = QUARTER_AREA * i / k

            def f(x):
                return curve_area(x) - target

            assert curves.brentq(f, 0.0, 1.0, xtol=1e-12) == \
                scipy_brentq(f, 0.0, 1.0, xtol=1e-12)

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x * x - 2.0, 2.0, 0.0),
        (lambda x: math.exp(x) - 3.0, 0.0, 2.0),
    ])
    @pytest.mark.parametrize("xtol", [1e-3, 2e-12, 5e-324])
    def test_other_functions_and_tolerances_equal_scipy(self, f, a, b, xtol):
        from scipy.optimize import brentq as scipy_brentq
        assert curves.brentq(f, a, b, xtol=xtol) == \
            scipy_brentq(f, a, b, xtol=xtol)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            curves.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    def test_root_at_an_end_is_returned(self):
        assert curves.brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert curves.brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_convergence_raises_as_scipy_does(self):
        from scipy.optimize import brentq as scipy_brentq
        for solve in (curves.brentq, scipy_brentq):
            with pytest.raises(RuntimeError, match="converge"):
                solve(lambda x: math.exp(x) - 2.0, 0.0, 1.0, xtol=1e-15,
                      maxiter=2)

    def test_default_family_equals_scipy(self):
        xs = solve_curve_parameters(50)
        assert xs.tolist() == scipy_curve_parameters(50).tolist()


class TestHashCurveFamily:
    def test_centers_on_unit_circle(self):
        family = HashCurveFamily(20)
        for quarter in (1, 2, 3, 4):
            anchor = (0.0, 0.0) if quarter in (1, 3) else (1.0, 0.0)
            for index in range(1, 21):
                cx, cy = family.center(quarter, index)
                # Circle radius 1 through the anchor: center at
                # distance 1 from it.
                assert math.hypot(cx - anchor[0], cy - anchor[1]) == \
                    pytest.approx(1.0)

    def test_center_vertical_side(self):
        family = HashCurveFamily(10)
        assert family.center(1, 5)[1] < 0       # below axis for q1
        assert family.center(3, 5)[1] > 0       # above axis for q3

    def test_validation(self):
        family = HashCurveFamily(5)
        with pytest.raises(ValueError):
            family.center(0, 1)
        with pytest.raises(ValueError):
            family.center(1, 6)

    def test_distance_zero_on_curve(self):
        family = HashCurveFamily(10)
        cx, cy = family.center(1, 3)
        theta = math.pi / 3
        point = np.array([[cx + math.cos(theta), cy + math.sin(theta)]])
        assert family.distance_to_curve(point, 1, 3)[0] == \
            pytest.approx(0.0, abs=1e-12)

    def test_ternary_matches_exhaustive(self, rng):
        family = HashCurveFamily(60)
        from repro.geometry.lune import quarters_of
        points = sample_lune(200, rng)
        quarters = quarters_of(points)
        for quarter in (1, 2, 3, 4):
            subset = points[quarters == quarter]
            if len(subset) == 0:
                continue
            fast = family.closest_curve(subset, quarter)
            exact = family.closest_curve_exhaustive(subset, quarter)
            assert family.average_distance(subset, quarter, fast) == \
                pytest.approx(
                    family.average_distance(subset, quarter, exact),
                    abs=1e-9)

    @given(st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_single_point_search(self, seed):
        rng = np.random.default_rng(seed)
        family = HashCurveFamily(30)
        point = sample_lune(1, rng)
        from repro.geometry.lune import quarter_of
        quarter = quarter_of(point[0, 0], point[0, 1])
        fast = family.closest_curve(point, quarter)
        exact = family.closest_curve_exhaustive(point, quarter)
        assert family.average_distance(point, quarter, fast) == \
            pytest.approx(family.average_distance(point, quarter, exact),
                          abs=1e-9)
