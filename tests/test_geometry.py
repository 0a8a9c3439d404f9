import math
import tracemalloc

import numpy as np
import pytest

from ncusp.errors import (
    FaceMismatch,
    MapParameterTooLarge,
    OutsideDomain,
    RangeViolation,
    SimplexModeRequired,
)
from ncusp.geometry import (
    BoundaryFace,
    _halton,
    boundary_faces,
    cusp_map,
    derived_exponents,
    face_parametrization,
    face_pullback_weight,
    forward_map,
    inverse_map,
    jacobi_matrix,
    jacobian_forward,
    jacobian_inverse,
    map_jacobian,
    map_points,
    powt,
    quasi_random_interior,
    quasi_random_model_interior,
    tangential_bound_constant,
    tangential_jacobian,
    unmap_points,
    tangential_jacobian_bounds,
    validate_params,
)
from ncusp.operators import K_pp_estimate, dphi_spectral_norm
from ncusp.verify import FD_STEP, _determinant, _fd_jacobi_matrix, jacobian_suite

from oracles import fd_tangential_jacobian

# one map per dimension; n = 4 has more than one cross coordinate to loop over
MAPS_BY_N = {n: cusp_map(validate_params(n, gamma, p))
             for n, gamma, p in ((2, 3.0, 1.5), (3, 4.0, 2.0), (4, 5.0, 2.5))}


class TestValidateParams:
    def test_reference_config_valid(self):
        p = validate_params(2, 3.0, 1.5, 2.0)
        assert p.n == 2 and p.theta == 2.0  # theta defaults to beta

    def test_p_equals_n_rejected(self):
        with pytest.raises(RangeViolation) as err:
            validate_params(2, 3.0, 2.0, 2.0)
        assert err.value.field == "p"

    def test_critical_q_rejected_for_steklov(self):
        with pytest.raises(RangeViolation) as err:
            validate_params(3, 4.0, 2.0, 4.0, usage="steklov")
        assert err.value.field == "q"
        # the same q is fine for trace checks
        validate_params(3, 4.0, 2.0, 4.0, usage="trace")

    def test_simplex_needs_flag(self):
        with pytest.raises(SimplexModeRequired):
            validate_params(2, 2.0, 1.5, 2.0)
        p = validate_params(2, 2.0, 1.5, 2.0, simplex=True)
        assert p.simplex and p.theta == 0.0

    def test_gamma_below_n(self):
        with pytest.raises(RangeViolation):
            validate_params(3, 2.5, 1.5, 2.0)

    def test_discrete_mode_allows_linear_testbed(self):
        p = validate_params(2, 3.0, 2.0, 2.0, theta=2.0, usage="discrete")
        assert p.p == p.q == 2.0

    def test_trace_q_defaults_to_critical_exponent(self):
        assert validate_params(2, 3.0, 1.5).q == 3.0
        assert validate_params(3, 4.0, 2.0).q == 4.0
        for usage in ("steklov", "discrete"):
            with pytest.raises(RangeViolation) as err:
                validate_params(2, 3.0, 1.5, usage=usage)
            assert err.value.field == "q"
        with pytest.raises(RangeViolation) as err:
            validate_params(2, 3.0, 2.0)  # p = n leaves p* undefined
        assert err.value.field == "p"

    @pytest.mark.parametrize("key", ["n", "gamma", "p", "q", "theta"])
    def test_non_numeric_value_names_the_key(self, key):
        args = dict(n=2, gamma=3.0, p=1.5, q=2.0, theta=None)
        args[key] = "x"
        with pytest.raises(RangeViolation) as err:
            validate_params(**args)
        assert err.value.field == key

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_simplex_must_be_a_boolean(self, value):
        with pytest.raises(RangeViolation) as err:
            validate_params(2, 2.0, 1.5, simplex=value)
        assert err.value.field == "simplex"

    def test_default_theta_is_beta_bit_for_bit(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            p = float(rng.uniform(1.01, n - 0.01))
            gamma = float(rng.uniform(n + 1e-3, n + 50.0))
            params = validate_params(n, gamma, p)
            assert params.theta == derived_exponents(params).beta

    def test_discrete_mode_requires_explicit_theta_at_p_ge_n(self):
        with pytest.raises(RangeViolation):
            validate_params(2, 3.0, 2.0, 2.0, usage="discrete")


class TestDerivedExponents:
    def test_p1_values(self, p1_params):
        e = derived_exponents(p1_params)
        assert e.alpha == pytest.approx(2.0, abs=1e-15)
        assert e.a_max == pytest.approx(1 / 3, abs=1e-15)
        assert e.beta == pytest.approx(2.0, abs=1e-15)
        assert e.p_star == pytest.approx(3.0, abs=1e-15)
        assert e.r_max == pytest.approx(1.0, abs=1e-15)
        assert e.d_gamma == pytest.approx(1 / 3, abs=1e-15)
        assert e.gv_q_min == pytest.approx(1.5, abs=1e-15)

    def test_p2_values(self, p2_params):
        e = derived_exponents(p2_params)
        assert (e.alpha, e.a_max, e.beta) == pytest.approx((1.5, 0.5, 1.5))
        assert (e.p_star, e.r_max, e.d_gamma) == pytest.approx((4.0, 2.5, 1.25))
        assert e.gv_q_min == pytest.approx(2.0)

    def test_simplex_degenerates(self, simplex_params):
        e = derived_exponents(simplex_params)
        assert e.alpha == 1.0 and e.a_max == 1.0 and e.beta == 0.0
        assert e.r_max == pytest.approx(e.p_star)

    def test_equal_parameters_share_one_set(self, p1_params):
        again = validate_params(q=2.0, usage="steklov", n=2, gamma=3.0, p=1.5)
        assert again is not p1_params
        assert derived_exponents(again) is derived_exponents(p1_params)

    def test_identities_over_random_tuples(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            p = float(rng.uniform(1.1, n - 0.25))
            gamma = float(rng.uniform(n + 0.1, n + 2.5))
            q = p * (n - 1) / (n - p)
            params = validate_params(n, gamma, p, q, usage="trace")
            e = derived_exponents(params)
            scale = max(1.0, abs(e.beta))
            assert abs(e.theta_min(e.p_star) - e.beta) <= 1e-12 * scale
            assert abs(p * e.d_gamma / (n - p) - e.r_max) <= 1e-12 * max(1.0, e.r_max)

    def test_weight_ordering(self, p2_params, rng):
        # smaller map parameter -> larger weight exponent -> smaller weight
        e = derived_exponents(p2_params)
        for _ in range(200):
            a2 = float(rng.uniform(0.05, e.a_max))
            a1 = float(rng.uniform(0.02, a2))
            t = float(rng.uniform(1e-6, 1 - 1e-9))
            assert powt(t, e.weight_exponent(a1)) <= powt(t, e.weight_exponent(a2)) * (1 + 1e-12)


class TestMap:
    def test_forward_reference_point(self, p2_params):
        m = cusp_map(p2_params, a=0.5)
        x = forward_map(m, np.array([0.1, 0.1, 0.25]))
        assert x == pytest.approx([0.1 * math.sqrt(2), 0.1 * math.sqrt(2), 0.5],
                                  rel=1e-14)

    def test_simplex_identity(self, simplex_map, rng):
        y = quasi_random_model_interior(2, 50)
        assert forward_map(simplex_map, y) == pytest.approx(y, rel=1e-14)
        assert inverse_map(simplex_map, y) == pytest.approx(y, rel=1e-14)

    def test_top_scaling(self, p1_map):
        y = np.array([0.5, 1.0 - 1e-9])
        x = forward_map(p1_map, y)
        assert x[-1] == pytest.approx(1.0, abs=1e-8)

    def test_inverse_reference_point(self, p2_params):
        m = cusp_map(p2_params, a=0.5)
        y = inverse_map(m, np.array([0.1 * math.sqrt(2), 0.1 * math.sqrt(2), 0.5]))
        assert y == pytest.approx([0.1, 0.1, 0.25], rel=1e-13)

    def test_inverse_fixes_top_slice(self, p1_map):
        # approaching the top face, the inverse tends to the identity there
        x = np.array([0.3, 1.0 - 1e-12])
        y = inverse_map(p1_map, x)
        assert y[-1] == pytest.approx(x[-1], abs=1e-11)
        assert y[0] == pytest.approx(x[0], rel=1e-10)

    def test_roundtrip_bulk(self, p1_map, p2_map, simplex_map):
        for m in (p1_map, p2_map, simplex_map):
            y = quasi_random_model_interior(m.n, 10000)
            back = inverse_map(m, forward_map(m, y))
            err = np.abs(back - y).max(axis=1) / (1.0 + np.abs(y).max(axis=1))
            assert err.max() < 1e-12

    def test_ungated_helpers_match_the_gated_maps(self, p1_map, p2_map):
        for cmap in (p1_map, p2_map):
            y = quasi_random_model_interior(cmap.n, 200)
            x = forward_map(cmap, y)
            assert map_points(cmap, y).tobytes() == x.tobytes()
            assert unmap_points(cmap, x).tobytes() == inverse_map(cmap, x).tobytes()
            assert map_jacobian(cmap, y[:, -1]).tobytes() \
                == jacobian_forward(cmap, y).tobytes()

    def test_ungated_helpers_reach_the_boundary(self, p1_map):
        # the top corner (1, 1) lies on two faces and is fixed by the map
        corner = np.array([[1.0, 1.0]])
        assert np.array_equal(unmap_points(p1_map, corner), corner)
        assert np.array_equal(map_points(p1_map, corner), corner)
        with pytest.raises(OutsideDomain):
            inverse_map(p1_map, corner)

    def test_outside_domain_rejected(self, p1_map):
        with pytest.raises(OutsideDomain):
            forward_map(p1_map, np.array([0.9, 0.5]))  # y1 > y2
        with pytest.raises(OutsideDomain):
            inverse_map(p1_map, np.array([0.5, 1.5]))

    def test_map_parameter_validation(self, p1_params):
        with pytest.raises(MapParameterTooLarge):
            cusp_map(p1_params, a=0.34)
        for a in (0.0, "x", float("nan")):
            with pytest.raises(RangeViolation) as err:
                cusp_map(p1_params, a=a)
            assert err.value.field == "a"


class TestJacobians:
    def test_forward_value(self, p2_params):
        m = cusp_map(p2_params, a=0.5)
        y = np.array([0.1, 0.1, 0.25])
        assert jacobian_forward(m, y) == pytest.approx(2.0, rel=1e-14)

    def test_simplex_unit(self, simplex_map):
        y = quasi_random_model_interior(2, 20)
        assert jacobian_forward(simplex_map, y) == pytest.approx(np.ones(20))
        x = forward_map(simplex_map, y)
        assert jacobian_inverse(simplex_map, x) == pytest.approx(np.ones(20))

    def test_inverse_value_and_reciprocity(self, p2_params):
        m = cusp_map(p2_params, a=0.5)
        x = np.array([0.14, 0.14, 0.5])
        assert jacobian_inverse(m, x) == pytest.approx(0.5, rel=1e-14)
        y = quasi_random_model_interior(3, 2000)
        prod = jacobian_forward(m, y) * jacobian_inverse(m, forward_map(m, y))
        assert np.abs(prod - 1.0).max() < 1e-10

    def test_inverse_sup_at_top(self, p1_map):
        # positive exponent: supremum 1/a approached as the height tends to 1
        xs = np.array([[1e-6, 1.0 - 1e-12], [1e-9, 0.9], [1e-4, 0.5]])
        vals = jacobian_inverse(p1_map, xs)
        assert np.all(vals <= 1.0 / p1_map.a + 1e-12)
        assert vals[0] == pytest.approx(1.0 / p1_map.a, rel=1e-9)

    def test_fd_determinant(self, p1_map, p2_map, rng):
        for m in (p1_map, p2_map):
            u = rng.uniform(0.2, 0.8, size=(10, m.n))
            y = np.empty_like(u)
            y[:, -1] = u[:, -1]
            y[:, :-1] = u[:, :-1] * u[:, -1][:, None]
            h = FD_STEP
            D = np.empty((10, m.n, m.n))
            for j in range(m.n):
                step = np.zeros(m.n)
                step[j] = h
                D[:, :, j] = (forward_map(m, y + step) - forward_map(m, y - step)) / (2 * h)
            det = np.linalg.det(D)
            assert det == pytest.approx(jacobian_forward(m, y), rel=1e-6)

    def test_jacobi_matrix_determinant_matches(self, p2_map):
        y = quasi_random_model_interior(3, 100)
        D = jacobi_matrix(p2_map, y)
        assert np.linalg.det(D) == pytest.approx(jacobian_forward(p2_map, y), rel=1e-12)


class TestColumnKernels:
    """Column kernels equal the broadcast form bit for bit; the gates reject every face."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_maps_and_samples_equal_the_broadcast_form(self, n):
        cmap = MAPS_BY_N[n]
        a, alpha = cmap.a, cmap.alpha
        u = _halton(n, 3000, 5)
        ref = np.empty_like(u)
        ref[:, -1] = u[:, -1]
        ref[:, :-1] = u[:, :-1] * u[:, -1][:, None]
        y = quasi_random_model_interior(n, 3000, skip=5)
        assert np.array_equal(y, ref)
        ref[:, :-1] = u[:, :-1] * powt(u[:, -1], alpha)[:, None]
        assert np.array_equal(quasi_random_interior(cmap.params, 3000, skip=5), ref)

        yn = y[:, -1]
        x = np.empty_like(y)
        x[:, :-1] = y[:, :-1] * powt(yn, a * alpha - 1.0)[:, None]
        x[:, -1] = powt(yn, a)
        assert np.array_equal(map_points(cmap, y), x)
        xn = x[:, -1]
        back = np.empty_like(x)
        back[:, -1] = powt(xn, 1.0 / a)
        back[:, :-1] = x[:, :-1] * powt(xn, (1.0 - a * alpha) / a)[:, None]
        assert np.array_equal(unmap_points(cmap, x), back)

        D = np.zeros((len(y), n, n))
        for i in range(n - 1):
            D[:, i, i] = powt(yn, a * alpha - 1.0)
        D[:, :-1, -1] = (a * alpha - 1.0) * y[:, :-1] * powt(yn, a * alpha - 2.0)[:, None]
        D[:, -1, -1] = a * powt(yn, a - 1.0)
        assert np.array_equal(jacobi_matrix(cmap, y), D)

        d = powt(yn, a * alpha - 1.0)
        b = a * powt(yn, a - 1.0)
        v2 = (a * alpha - 1.0) ** 2 * np.sum(y[:, :-1] ** 2, axis=1) \
            * powt(yn, 2.0 * (a * alpha - 2.0))
        trace = d * d + v2 + b * b
        disc = np.sqrt(np.maximum(trace * trace - 4.0 * (d * b) ** 2, 0.0))
        norm = np.sqrt(np.maximum(0.5 * (trace + disc), d * d))
        assert np.array_equal(dphi_spectral_norm(cmap, y), norm)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_suite_maxima_equal_the_broadcast_form(self, n):
        # the suite's four maxima from the public maps on whole point arrays
        cmap, m = MAPS_BY_N[n], 3000
        y = quasi_random_model_interior(n, m)
        x = forward_map(cmap, y)
        err = np.max(np.abs(inverse_map(cmap, x) - y), axis=1)
        roundtrip = np.max(err / (1.0 + np.max(np.abs(y), axis=1)))
        reciprocity = np.max(np.abs(
            map_jacobian(cmap, y[:, -1]) * jacobian_inverse(cmap, x) - 1.0))

        y = _suite_fd_points(n, m)
        D = np.empty((m, n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = FD_STEP
            D[:, :, j] = (forward_map(cmap, y + step)
                          - forward_map(cmap, y - step)) / (2 * FD_STEP)
        exact = jacobian_forward(cmap, y)
        fd_rel = np.max(np.abs(_determinant(np.moveaxis(D, 0, -1)) - exact) / np.abs(exact))

        xg = quasi_random_interior(cmap.params, m)
        t = xg[:, -1]
        lo, hi = tangential_jacobian_bounds(cmap, t)
        val = np.array([tangential_jacobian(cmap, face, t,
                                            xhat=np.delete(xg[:, :-1], face.index - 1, 1))
                        for face in boundary_faces(n) if face.is_side])
        sandwich = np.max(np.maximum(lo - val, val - hi) / np.maximum(1.0, np.abs(val)),
                          initial=0.0)

        report = jacobian_suite(cmap, m)
        got = (report.max_roundtrip, report.max_reciprocity, report.max_fd_rel,
               report.max_sandwich_violation)
        want = (roundtrip, reciprocity, fd_rel, sandwich)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_points_are_stored_column_major(self, n):
        # each coordinate column is contiguous for the column kernels
        cmap = MAPS_BY_N[n]
        y = quasi_random_model_interior(n, 300)
        x = quasi_random_interior(cmap.params, 300)
        for pts in (y, x, forward_map(cmap, y), inverse_map(cmap, x)):
            assert pts.flags.f_contiguous and not pts.flags.c_contiguous

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_point_on_any_face_is_rejected(self, n):
        cmap = MAPS_BY_N[n]
        y = quasi_random_model_interior(n, 50)
        x = quasi_random_interior(cmap.params, 50)
        for gated, pts, width in ((forward_map, y, y[-1, -1]),
                                  (inverse_map, x, powt(x[-1, -1], cmap.alpha))):
            gated(cmap, pts)
            for i in range(n - 1):
                for value in (0.0, width):  # flat face, slanted face
                    bad = pts.copy()
                    bad[-1, i] = value
                    with pytest.raises(OutsideDomain, match="cross coordinates"):
                        gated(cmap, bad)
            for height in (0.0, 1.0):  # tip and top face
                bad = pts.copy()
                bad[-1, -1] = height
                with pytest.raises(OutsideDomain, match="height coordinate"):
                    gated(cmap, bad)

    def test_model_points_on_the_slanted_face_are_rejected(self, p1_map):
        # heights where exp(log(y_n)) rounds above y_n, so a profile width
        # taken through powt would let the face point y_1 = y_n pass
        yn = quasi_random_model_interior(2, 2000)[:, -1]
        rounded_up = yn[powt(yn, 1.0) > yn][:50]
        assert len(rounded_up) == 50
        for h in rounded_up:
            with pytest.raises(OutsideDomain, match="cross coordinates"):
                forward_map(p1_map, np.array([h, h]))


def _suite_fd_points(n, samples=10000):
    # the finite-difference points of jacobian_suite
    u = quasi_random_model_interior(n, samples, skip=samples + 1)
    y = np.empty_like(u)
    y[:, -1] = 0.05 + 0.9 * u[:, -1]
    y[:, :-1] = (0.05 + 0.9 * u[:, :-1]) * y[:, -1][:, None]
    return y


class TestFdDeterminant:
    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_matches_lu(self, n, rng):
        D = _fd_jacobi_matrix(MAPS_BY_N[n], _suite_fd_points(n))
        lu = np.linalg.det(np.moveaxis(D, -1, 0))
        assert np.abs(_determinant(D) / lu - 1.0).max() < 1e-13
        # and on full, well-conditioned matrices
        D = np.eye(n)[:, :, None] + 0.3 * rng.uniform(-1, 1, size=(n, n, 500))
        lu = np.linalg.det(np.moveaxis(D, -1, 0))
        assert np.abs(_determinant(D) / lu - 1.0).max() < 1e-13

    def test_fd_matrix_entries(self):
        cmap = MAPS_BY_N[3]
        y = _suite_fd_points(3, 200)
        D = _fd_jacobi_matrix(cmap, y)
        for j in range(3):
            step = np.zeros(3)
            step[j] = FD_STEP
            col = (forward_map(cmap, y + step) - forward_map(cmap, y - step)) / (2 * FD_STEP)
            assert np.array_equal(D[:, j], col.T)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_height_power_is_taken_once(self, n, monkeypatch):
        # a step in a cross coordinate leaves y_n alone: the two powers of the
        # heights y_n are taken once, and each of the two steps in y_n its own
        import ncusp.geometry
        import ncusp.verify

        calls = []
        exact = ncusp.geometry.powt

        def counted(t, exponent):
            calls.append((np.asarray(t).tobytes(), exponent))
            return exact(t, exponent)

        monkeypatch.setattr(ncusp.geometry, "powt", counted)
        monkeypatch.setattr(ncusp.verify, "powt", counted, raising=False)
        _fd_jacobi_matrix(MAPS_BY_N[n], _suite_fd_points(n, 300))
        assert len(calls) == len(set(calls)) == 6

    def test_lu_only_from_four_dimensions(self, monkeypatch):
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda A: calls.append(A.shape) or det(A))
        for n in (2, 3):
            _determinant(_fd_jacobi_matrix(MAPS_BY_N[n], _suite_fd_points(n, 300)))
        assert calls == []
        cmap = MAPS_BY_N[4]
        D = _fd_jacobi_matrix(cmap, _suite_fd_points(4, 300))
        assert np.array_equal(_determinant(D), det(np.moveaxis(D, -1, 0)))
        assert calls == [(300, 4, 4)]
        assert jacobian_suite(cmap, 300).ok
        assert calls[1:] == [(300, 4, 4)]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name, field, factor", [
        ("inverse_map", "max_roundtrip", 1 + 1e-5),
        ("jacobian_inverse", "max_reciprocity", 1 + 1e-5),
        ("jacobian_forward", "max_fd_rel", 1 + 1e-5),
        # the upper bound is at most sqrt(2n - 1) < 4 times a slanted face's
        # Jacobian, so 4 times that Jacobian lies above it
        ("tangential_jacobian", "max_sandwich_violation", 4.0),
    ], ids=["roundtrip", "reciprocity", "fd", "sandwich"])
    def test_a_wrong_determinant_fails_the_check(self, n, name, field, factor, monkeypatch):
        # each check compares its own map: a wrong one fails that check alone
        import ncusp.verify

        cmap = MAPS_BY_N[n]
        assert jacobian_suite(cmap, 2000).ok
        exact = getattr(ncusp.verify, name)
        monkeypatch.setattr(ncusp.verify, name,
                            lambda *args, **kwargs: exact(*args, **kwargs) * factor)
        report = jacobian_suite(cmap, 2000)
        assert [line.split(" = ")[0] for line in report.unmet] == [field]
        if name == "jacobian_forward":
            assert report.max_fd_rel == pytest.approx(1e-5, rel=1e-3)


class TestAllocationBudget:
    """Traced peaks of the two longest trace ops, after a warm-up call that
    makes the cached Halton points; tracemalloc sees numpy's buffers."""

    @pytest.mark.parametrize("op, budget_mib", [
        (lambda: jacobian_suite(MAPS_BY_N[3], 10_000), 2.0),
        (lambda: K_pp_estimate(MAPS_BY_N[3], 20_000), 1.5),
    ], ids=["jacobian_suite", "K_pp_estimate"])
    def test_peak_stays_in_budget(self, op, budget_mib):
        op()
        tracemalloc.start()
        try:
            op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget_mib * 2**20


class TestTangential:
    def test_flat_value(self, p2_params):
        m = cusp_map(p2_params, a=0.5)
        val = tangential_jacobian(m, BoundaryFace.flat(1), 0.5)
        assert val == pytest.approx(2.0 * 0.5 ** 1.5, rel=1e-14)

    def test_slanted_zero_cross_terms(self, p2_params):
        m = cusp_map(p2_params, a=0.5)
        t = 0.3
        val = tangential_jacobian(m, BoundaryFace.slanted(1), t,
                                  xhat=np.array([1e-300]))
        a, alpha = m.a, m.alpha
        expo = (m.n - 1) / a - (m.n - 2) * alpha - 1.0
        assert val == pytest.approx(t ** expo * math.sqrt(1 / a**2 + alpha**2),
                                    rel=1e-12)

    def test_simplex_flat_is_one(self, simplex_map):
        assert tangential_jacobian(simplex_map, BoundaryFace.flat(1), 0.37) \
            == pytest.approx(1.0, abs=1e-15)

    def test_bound_constants(self, p1_map, p2_params, simplex_map):
        assert tangential_bound_constant(p1_map) == pytest.approx(math.sqrt(14))
        m2 = cusp_map(p2_params, a=0.5)
        assert tangential_bound_constant(m2) == pytest.approx(math.sqrt(6.75))
        assert tangential_bound_constant(simplex_map) == pytest.approx(math.sqrt(2))

    def test_sandwich(self, p1_map, p2_map, simplex_map, rng):
        for m in (p1_map, p2_map, simplex_map):
            t = rng.uniform(1e-4, 1 - 1e-6, size=500)
            lo, hi = tangential_jacobian_bounds(m, t)
            flat = tangential_jacobian(m, BoundaryFace.flat(1), t)
            assert np.all(lo <= flat * (1 + 1e-12))
            assert np.all(flat <= hi * (1 + 1e-12))
            xhat = rng.uniform(0, 1, size=(500, m.n - 2)) * powt(t, m.alpha)[:, None]
            sl = tangential_jacobian(m, BoundaryFace.slanted(1), t, xhat=xhat)
            assert np.all(lo <= sl * (1 + 1e-12))
            assert np.all(sl <= hi * (1 + 1e-12))

    def test_top_face_fixed(self, p1_map):
        assert tangential_jacobian(p1_map, BoundaryFace.top(), 1.0) == 1.0

    def test_face_mismatch(self, p2_map):
        with pytest.raises(FaceMismatch):
            tangential_jacobian(p2_map, BoundaryFace.slanted(1), 0.5,
                                xhat=np.array([0.9]))  # exceeds width 0.5**1.5

    def test_pullback_weight_against_fd_gram(self, p1_map, p2_map, simplex_map):
        # the chart-density used by the area formula must match the
        # finite-difference Gram determinant of the composed parametrization
        for m in (p1_map, p2_map, simplex_map):
            for face in boundary_faces(m.n):
                if not face.is_side:
                    continue
                for t in (0.3, 0.7):
                    xhat = None
                    chart_el = 1.0
                    if face.kind == "slanted":
                        chart_el = math.sqrt(
                            1.0 + m.alpha**2 * t ** (2 * m.alpha - 2.0))
                    if m.n == 3:
                        xhat = np.array([0.4 * t ** m.alpha])
                    ref = fd_tangential_jacobian(m, face, t, xhat=xhat)
                    val = face_pullback_weight(m, face, t) / chart_el
                    assert val == pytest.approx(ref, rel=1e-6)


class TestFacesAndWeights:
    def test_face_set(self):
        faces = boundary_faces(3)
        kinds = [(f.kind, f.index) for f in faces]
        assert kinds == [("flat", 1), ("flat", 2), ("slanted", 1),
                         ("slanted", 2), ("top", 0)]

    def test_chart_densities(self, p1_params, p2_params):
        sl = face_parametrization(BoundaryFace.slanted(1), p1_params)
        t = np.array([0.5])
        assert sl.density(t) == pytest.approx(math.sqrt(1 + 4 * 0.25))
        fl = face_parametrization(BoundaryFace.flat(1), p1_params)
        assert fl.density(t) == pytest.approx(1.0)
        fl3 = face_parametrization(BoundaryFace.flat(2), p2_params)
        assert fl3.density(t) == pytest.approx(0.5 ** 1.5)
        top = face_parametrization(BoundaryFace.top(), p1_params)
        assert top.density(t) == pytest.approx(1.0)

    def test_weight_value(self):
        assert powt(0.5, 2.0) == pytest.approx(0.25)
        assert powt(0.123, 0.0) == 1.0
        with pytest.raises(RangeViolation):
            powt(0.0, 1.0)

    def test_simplex_weight_trivial(self, simplex_params):
        t = np.linspace(0.1, 1.0, 7)
        assert powt(t, derived_exponents(simplex_params).beta) \
            == pytest.approx(np.ones(7))


def test_quasi_random_points_strictly_interior(p1_params):
    y = quasi_random_model_interior(2, 4096)
    assert np.all(y > 0) and np.all(y[:, 0] < y[:, 1]) and np.all(y[:, 1] < 1)
    x = quasi_random_interior(p1_params, 4096)
    assert np.all(x > 0) and np.all(x[:, 0] < powt(x[:, 1], 2.0))


class TestHalton:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("skip", [0, 1, 7, 10001])
    def test_equals_scipy_unscrambled_sequence(self, dim, skip):
        from scipy.stats import qmc

        for m in (1, 7, 10_000):
            sampler = qmc.Halton(d=dim, scramble=False)
            sampler.fast_forward(max(1, skip))
            assert _halton(dim, m, skip).tobytes() == sampler.random(m).tobytes()

    def test_cached_points_are_read_only(self):
        u = _halton(3, 500, 1)
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.5
        assert np.array_equal(_halton(3, 500, 1), u)
