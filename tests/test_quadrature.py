import math

import numpy as np
import pytest

from ncusp.errors import NonIntegrable, RangeViolation, UnsupportedOrder
from ncusp.geometry import BoundaryFace
from ncusp.quadrature import (
    _tensor_cube_nodes,
    boundary_integral,
    gauss_nodes_01,
    graded_interval_rule,
    triangle_rule,
    volume_integral,
)

from oracles import adaptive_quad


class TestGradedRule:
    def test_constant_weight_sum(self):
        rule = graded_interval_rule(-0.5)
        assert rule.integrate(lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-13)

    def test_polynomial_exactness(self):
        rule = graded_interval_rule(-0.5)
        assert rule.integrate(lambda t: t**2) == pytest.approx(1 / 3, abs=1e-13)

    def test_inverse_sqrt_probe(self):
        rule = graded_interval_rule(-0.5)
        val = rule.integrate(lambda t: t**-0.5)
        assert abs(val - 2.0) / 2.0 < 1e-8

    def test_nodes_interior_and_sorted(self):
        rule = graded_interval_rule(-0.5, panels=8)
        assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    def test_threshold_rejected(self):
        with pytest.raises(NonIntegrable):
            graded_interval_rule(-1.0)
        with pytest.raises(RangeViolation):
            graded_interval_rule(-0.5, panels=3)

    def test_refinement_monotone_until_floor(self):
        errs = []
        for panels in (4, 8, 16, 32, 64):
            rule = graded_interval_rule(-0.5, panels=panels)
            errs.append(abs(rule.integrate(lambda t: t**-0.5) - 2.0) / 2.0)
        for a, b in zip(errs, errs[1:]):
            assert b <= a * (1 + 1e-12) or b < 1e-12
        assert errs[0] > 1e-4 and errs[-1] < 1e-12

    def test_divergence_rate_at_threshold(self, p1_params):
        # integral of t**(-1+delta) over the flat face grows like 1/delta
        vals = []
        deltas = (0.1, 0.05, 0.025)
        for delta in deltas:
            theta = -1.0 + delta
            rule = graded_interval_rule(theta)
            vals.append(boundary_integral(
                lambda x: np.ones(x.shape[0]), theta,
                [BoundaryFace.flat(1)], p1_params, rule=rule))
        for v, delta in zip(vals, deltas):
            assert v == pytest.approx(1.0 / delta, rel=1e-6)
        for a, b in zip(vals, vals[1:]):
            assert b / a == pytest.approx(2.0, rel=0.1)

    def test_deterministic(self):
        r1 = graded_interval_rule(-0.5, panels=12)
        r2 = graded_interval_rule(-0.5, panels=12)
        assert np.array_equal(r1.nodes, r2.nodes)
        assert np.array_equal(r1.weights, r2.weights)

    def test_scaled_interval(self):
        rule = graded_interval_rule(-0.5)
        val = rule.integrate(lambda t: t**-0.5, upper=0.25)
        assert val == pytest.approx(1.0, rel=1e-10)


class TestTriangleRule:
    def test_unit_integral(self):
        for order in range(1, 6):
            rule = triangle_rule(order)
            assert np.all(rule.weights > 0)
            val = rule.integrate(lambda p: np.ones(p.shape[0]), (0, 0), (1, 0), (0, 1))
            assert val == pytest.approx(0.5, abs=1e-15)

    def test_centroid_identity(self):
        rule = triangle_rule(2)
        val = rule.integrate(lambda p: p[:, 0], (0, 0), (1, 0), (0, 1))
        assert val == pytest.approx(1 / 6, abs=1e-15)

    def test_monomial_exactness(self):
        # reference-triangle integral of x^a y^b is a! b! / (a+b+2)!
        for order in range(1, 6):
            rule = triangle_rule(order)
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    exact = (math.factorial(a) * math.factorial(b)
                             / math.factorial(a + b + 2))
                    val = rule.integrate(lambda p: p[:, 0]**a * p[:, 1]**b,
                                         (0, 0), (1, 0), (0, 1))
                    assert val == pytest.approx(exact, rel=1e-14), (order, a, b)

    def test_x2y_value(self):
        val = triangle_rule(3).integrate(lambda p: p[:, 0]**2 * p[:, 1],
                                         (0, 0), (1, 0), (0, 1))
        assert val == pytest.approx(1 / 60, rel=1e-14)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            triangle_rule(6)
        with pytest.raises(UnsupportedOrder):
            triangle_rule(0)


@pytest.mark.parametrize("build,args", [
    (gauss_nodes_01, (8,)),
    (graded_interval_rule, (-0.5, 12)),
    (graded_interval_rule, (0.0,)),
    (triangle_rule, (5,)),
    (_tensor_cube_nodes, (2, 8)),
    (_tensor_cube_nodes, (0, 8)),
])
def test_rules_are_cached_and_read_only(build, args):
    rule = build(*args)
    assert build(*args) is rule
    arrays = rule if isinstance(rule, tuple) else tuple(vars(rule).values())
    assert arrays
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0.0


class TestBoundaryIntegral:
    def test_flat_face_quadratic_weight(self, p1_params):
        val = boundary_integral(lambda x: np.ones(x.shape[0]), 2.0,
                                [BoundaryFace.flat(1)], p1_params)
        assert val == pytest.approx(1 / 3, rel=1e-12)

    def test_top_face(self, p1_params):
        val = boundary_integral(lambda x: np.ones(x.shape[0]), 0.0,
                                [BoundaryFace.top()], p1_params)
        assert val == pytest.approx(1.0, rel=1e-13)

    def test_slanted_face_against_adaptive(self, p1_params):
        val = boundary_integral(lambda x: np.ones(x.shape[0]), 2.0,
                                [BoundaryFace.slanted(1)], p1_params)
        ref = adaptive_quad(lambda t: t**2 * math.sqrt(1 + 4 * t * t), 0, 1)
        assert val == pytest.approx(ref, rel=1e-8)

    def test_non_integrable_threshold(self, p1_params):
        with pytest.raises(NonIntegrable):
            boundary_integral(lambda x: np.ones(x.shape[0]), -1.0,
                              [BoundaryFace.flat(1)], p1_params)

    def test_point_dependent_integrand_3d(self, p2_params):
        # f = x1 on the flat face {x2 = 0}: cross integral of x1 over
        # (0, t^alpha) gives t^(2 alpha)/2; total = 1/(2(2 alpha + 1))
        alpha = p2_params.alpha
        val = boundary_integral(lambda x: x[:, 0], 0.0,
                                [BoundaryFace.flat(2)], p2_params)
        assert val == pytest.approx(0.5 / (2 * alpha + 1), rel=1e-10)


class TestVolumeIntegral:
    def test_reduced_volume_identity(self, p1_params, p2_params):
        for params in (p1_params, p2_params):
            val = volume_integral(lambda t: np.ones_like(t), params)
            assert val == pytest.approx(1.0 / params.gamma, rel=1e-12)

    def test_height_moment(self, p1_params):
        val = volume_integral(lambda t: t, p1_params)
        assert val == pytest.approx(0.25, rel=1e-12)
