import math

import numpy as np
import pytest

from ncusp.errors import (
    SIZE_BUDGET,
    DivergentIntegral,
    MapParameterTooLarge,
    RangeViolation,
)
from ncusp import operators
from ncusp.geometry import BoundaryFace, cusp_map, validate_params
from ncusp.operators import (
    K_pp_estimate,
    K_ps_estimate,
    area_formula_check,
    change_of_variables_check,
    dphi_spectral_norm,
    embedding_ranges,
    sobolev_norm,
    weighted_boundary_norm,
)
from ncusp.quadrature import graded_interval_rule
from ncusp.verify import measure_suite

from oracles import adaptive_quad


class TestKpp:
    def test_p1_bound_value_and_domination(self, p1_map):
        est = K_pp_estimate(p1_map, samples=20000)
        assert est.analytic_bound == pytest.approx(
            3 ** (2 / 3) * math.sqrt(11 / 9), rel=1e-12)
        assert est.sampled <= est.analytic_bound + 1e-12
        # the sampled sup is a genuine estimate, not degenerate
        assert est.sampled > 0.5 * est.analytic_bound

    def test_simplex_is_unit(self, simplex_map):
        est = K_pp_estimate(simplex_map, samples=5000)
        assert est.sampled == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("samples", [0, 2.5, -3, SIZE_BUDGET + 1,
                                         pytest.param(10**400, id="10**400")])
    def test_bad_sample_count_rejected(self, p1_map, samples):
        with pytest.raises(RangeViolation) as err:
            K_pp_estimate(p1_map, samples=samples)
        assert err.value.field == "samples"

    def test_oversized_parameter_rejected(self, p1_params):
        with pytest.raises(MapParameterTooLarge):
            cusp_map(p1_params, a=1 / 3 + 1e-6)

    def test_below_amax_still_bounded(self, p1_params):
        m = cusp_map(p1_params, a=0.2)
        est = K_pp_estimate(m, samples=5000)
        assert est.sampled <= est.analytic_bound + 1e-12

    def test_spectral_norm_against_dense(self, p2_map, rng):
        from ncusp.geometry import jacobi_matrix, quasi_random_model_interior
        y = quasi_random_model_interior(3, 50)
        D = jacobi_matrix(p2_map, y)
        ref = np.linalg.norm(D, ord=2, axis=(1, 2))
        assert dphi_spectral_norm(p2_map, y) == pytest.approx(ref, rel=1e-12)


class TestKps:
    def test_simplex_closed_form(self, simplex_map):
        p, s = 1.5, 1.2
        val = K_ps_estimate(simplex_map, p, s)
        assert val == pytest.approx(0.5 ** ((p - s) / (p * s)), rel=1e-10)

    def test_limit_s_to_p(self, simplex_map):
        val = K_ps_estimate(simplex_map, 1.5, 1.5 - 1e-9)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_p1_against_adaptive(self, p1_map):
        p, s = 1.5, 1.2
        val = K_ps_estimate(p1_map, p, s)
        a, gamma = p1_map.a, p1_map.params.gamma
        expo = s / (p - s)
        xg, wg = np.polynomial.legendre.leggauss(64)
        xg = 0.5 * (xg + 1.0)
        wg = 0.5 * wg

        def integrand(t):
            # 1-D reduction for n = 2 via the closed-form spectral norm
            y = np.stack([xg * t, np.full_like(xg, t)], axis=-1)
            sig = dphi_spectral_norm(p1_map, y)
            jac = a * t ** (a * gamma - 2)
            return t * np.dot(wg, (sig**p / jac) ** expo)

        ref = adaptive_quad(integrand, 1e-13, 1)
        assert val == pytest.approx(ref ** ((p - s) / (p * s)), rel=1e-6)

    def test_invalid_s(self, p1_map):
        with pytest.raises(RangeViolation):
            K_ps_estimate(p1_map, 1.5, 1.6)
        with pytest.raises(RangeViolation):
            K_ps_estimate(p1_map, 1.5, 1.0)

    def test_divergent_tip_rejected(self, p1_map):
        # a = 1/3: the tip exponent (p(a-1) - (a*gamma-n)) s/(p-s) + n-1 is
        # -0.9333... * 28 + 1
        with pytest.raises(DivergentIntegral) as err:
            K_ps_estimate(p1_map, 2.9, 2.8)
        assert err.value.exponent == pytest.approx(-25.1333333333, rel=1e-9)


class TestChangeOfVariables:
    def test_unit_density(self, p1_map):
        assert change_of_variables_check(
            lambda x: np.ones(x.shape[0]), p1_map) < 1e-8

    def test_simplex_any_f(self, simplex_map):
        f = lambda x: np.cos(3 * x[:, 0]) + x[:, 1] ** 2
        assert change_of_variables_check(f, simplex_map) < 1e-10

    def test_height_moment(self, p1_map):
        assert change_of_variables_check(lambda x: x[:, -1], p1_map) < 1e-8

    def test_refinement_decreases(self, p1_map):
        f = lambda x: np.sqrt(x[:, -1])
        coarse = change_of_variables_check(f, p1_map, panels=(5, 4))
        fine = change_of_variables_check(f, p1_map, panels=(48, 40))
        assert fine <= coarse * (1 + 1e-12)
        assert fine < 1e-8


class TestAreaFormula:
    @pytest.mark.parametrize("probe", ["const", "height", "first"])
    def test_p1_probes(self, p1_map, probe):
        g = {
            "const": lambda y: np.ones(y.shape[0]),
            "height": lambda y: y[:, -1],
            "first": lambda y: y[:, 0],
        }[probe]
        assert area_formula_check(g, p1_map) < 1e-6

    def test_simplex_identity(self, simplex_map):
        g = lambda y: y[:, 0] ** 2 + 1.0
        assert area_formula_check(g, simplex_map) < 1e-12

    def test_p2_const(self, p2_map):
        assert area_formula_check(lambda y: np.ones(y.shape[0]), p2_map) < 1e-6

    def test_probes_share_their_face_points(self, p1_map, monkeypatch):
        # one measure suite at n = 2 pulls each side face's points back once,
        # and each discrepancy is bitwise the one of a single-probe check
        calls = []
        unmap = operators.unmap_points
        monkeypatch.setattr(operators, "unmap_points",
                            lambda *args: calls.append(1) or unmap(*args))
        report = measure_suite(p1_map)
        assert len(calls) == 2
        probes = {"const": lambda y: np.ones(y.shape[0]), "height": lambda y: y[:, -1],
                  "first": lambda y: y[:, 0]}
        for name, g in probes.items():
            assert getattr(report, f"area_discrepancy_{name}") \
                == area_formula_check(g, p1_map)

    def test_refinement_decreases(self, p1_map):
        g = lambda y: np.sqrt(y[:, -1])
        coarse = area_formula_check(g, p1_map, rule=graded_interval_rule(0.0, panels=4))
        fine = area_formula_check(g, p1_map, rule=graded_interval_rule(0.0, panels=40))
        assert fine <= coarse * (1 + 1e-12) or fine < 1e-12


class TestEmbeddingRanges:
    def test_p1_empty(self, p1_params):
        rep = embedding_ranges(p1_params)
        assert rep.unweighted_r_range is None
        assert rep.r_max == pytest.approx(1.0)

    def test_shallower_cusp_nonempty(self):
        params = validate_params(2, 2.5, 1.5, 2.0, usage="steklov")
        rep = embedding_ranges(params)
        assert rep.unweighted_r_range == pytest.approx((1.0, 1.5))

    def test_holder_threshold(self, p2_params):
        rep = embedding_ranges(p2_params)
        assert rep.holder_q_min(2.4) == pytest.approx(3.84, rel=1e-12)
        assert rep.holder_q_min(2.4) < rep.p_star
        assert rep.holder_q_min(2.5) == pytest.approx(4.0, rel=1e-12)

    def test_equivalence_with_r_max(self, rng):
        # holder_q_min(r) < p_star exactly when r < r_max
        for _ in range(300):
            n = int(rng.integers(2, 5))
            p = float(rng.uniform(1.1, n - 0.25))
            gamma = float(rng.uniform(n + 0.1, n + 2.5))
            params = validate_params(n, gamma, p, p * (n - 1) / (n - p),
                                     usage="trace")
            rep = embedding_ranges(params)
            r = float(rng.uniform(0.5, 2.0) * rep.r_max)
            if abs(r - rep.r_max) < 1e-9:
                continue
            assert (rep.holder_q_min(r) < rep.p_star) == (r < rep.r_max)


class TestNorms:
    def test_simplex_perimeter(self, simplex_params):
        traces = {f: 1.0 for f in
                  (BoundaryFace.flat(1), BoundaryFace.slanted(1), BoundaryFace.top())}
        nv = weighted_boundary_norm(traces, 2.0, 0.0, simplex_params)
        assert nv == pytest.approx(math.sqrt(2 + math.sqrt(2)), rel=1e-12)

    def test_zero_trace(self, p1_params):
        traces = {BoundaryFace.flat(1): 0.0, BoundaryFace.top(): 0.0}
        nv = weighted_boundary_norm(traces, 2.0, 2.0, p1_params)
        assert nv == 0.0

    def test_weighted_against_adaptive(self, p1_params):
        traces = {f: 1.0 for f in
                  (BoundaryFace.flat(1), BoundaryFace.slanted(1), BoundaryFace.top())}
        nv = weighted_boundary_norm(traces, 3.0, 2.0, p1_params)
        ref = (1 / 3 + adaptive_quad(
            lambda t: t * t * math.sqrt(1 + 4 * t * t), 0, 1) + 1.0) ** (1 / 3)
        assert nv == pytest.approx(ref, rel=1e-8)

    def test_homogeneity(self, p1_params):
        for c in (-2.0, 0.5):
            traces = {BoundaryFace.flat(1): lambda t: np.sin(3 * t) + 2,
                      BoundaryFace.top(): 1.5}
            scaled = {BoundaryFace.flat(1): lambda t: c * (np.sin(3 * t) + 2),
                      BoundaryFace.top(): c * 1.5}
            n1 = weighted_boundary_norm(traces, 2.5, 2.0, p1_params)
            n2 = weighted_boundary_norm(scaled, 2.5, 2.0, p1_params)
            assert n2 == pytest.approx(abs(c) * n1, rel=1e-12)

    @pytest.mark.parametrize("cfg", [dict(n=2, gamma=3.0, p=1.5),
                                     dict(n=3, gamma=4.0, p=2.0)])
    def test_top_face_callable_of_x1(self, cfg):
        # the L^2 norm of x_1 over the top face (0, 1)^(n-1) is sqrt(1/3)
        params = validate_params(q=2.0, usage="trace", **cfg)
        nv = weighted_boundary_norm({BoundaryFace.top(): lambda t: t}, 2.0, 0.0,
                                    params)
        assert nv == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)

    def test_sobolev_constant_on_cusp(self, p1_params):
        for p in (1.5, 2.0):
            nv = sobolev_norm(lambda t: np.ones_like(t), lambda t: np.zeros_like(t),
                              p, p1_params)
            assert nv == pytest.approx((1 / 3) ** (1 / p), rel=1e-12)

    def test_sobolev_zero(self, p1_params):
        zero = lambda t: np.zeros_like(t)
        assert sobolev_norm(zero, zero, 1.5, p1_params) == 0.0

    def test_sobolev_linear_on_simplex(self, simplex_params):
        for p in (1.5, 2.0):
            nv = sobolev_norm(lambda t: t, lambda t: np.ones_like(t), p, simplex_params)
            exact = 0.5 ** (1 / p) + (1.0 / (p + 2.0)) ** (1 / p)
            assert nv == pytest.approx(exact, rel=1e-12)

    def test_sobolev_homogeneity(self, simplex_params):
        for c in (-2.0, 0.5):
            n1 = sobolev_norm(lambda t: t, lambda t: np.ones_like(t), 1.5, simplex_params)
            n2 = sobolev_norm(lambda t: c * t, lambda t: c * np.ones_like(t), 1.5,
                              simplex_params)
            assert n2 == pytest.approx(abs(c) * n1, rel=1e-12)
