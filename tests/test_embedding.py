import numpy as np
import pytest

from ncusp import embedding
from ncusp.embedding import (
    DEFAULT_EPS_GRID,
    _band_nodes,
    _band_sum,
    _cubic_derivative,
    _cubic_value,
    scaling_slopes,
    sharpness_scan,
)
from ncusp.embedding import test_function_norms as cutoff_norms
from ncusp.errors import NonIntegrable, NumericalError, RangeViolation
from ncusp.geometry import (
    BoundaryFace,
    derived_exponents,
    face_parametrization,
    powt,
    validate_params,
)
from ncusp.quadrature import gauss_nodes_01, graded_interval_rule, side_exponent


class TestCutoff:
    def test_plateau(self):
        val, der = _cubic_value(0.5), _cubic_derivative(0.5)
        assert val == 1.0 and der == 0.0

    def test_outer_zero(self):
        val, der = _cubic_value(2.0), _cubic_derivative(2.0)
        assert val == 0.0 and der == 0.0
        assert _cubic_value(5.0) == 0.0

    def test_midpoint_symmetry(self):
        assert _cubic_value(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_derivative_consistent(self):
        s = np.linspace(0.0, 2.5, 501)
        der = _cubic_derivative(s)
        h = 1e-6
        fd = (_cubic_value(s + h) - _cubic_value(np.maximum(s - h, 0))) / (2 * h)
        interior = (s > 1 + 1e-3) & (s < 2 - 1e-3)
        assert der[interior] == pytest.approx(fd[interior], abs=1e-8)
        assert np.max(np.abs(der)) <= 1.5 + 1e-12


def _panel_loop(fn, eps, order=16, panels=4):
    # reference: one fn call per panel of (eps, 2*eps)
    xg, wg = gauss_nodes_01(order)
    edges = np.linspace(eps, 2.0 * eps, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += (hi - lo) * float(np.dot(wg, fn(lo + (hi - lo) * xg)))
    return total


EPS = np.array([*DEFAULT_EPS_GRID, 0.003, 0.01, 0.03])


@pytest.mark.parametrize("eps", EPS)
def test_transition_integral_matches_panel_loop(eps):
    # the row of eps in the band sums over all of EPS at once; its Gauss sums
    # are not added in the loop's order, so it agrees to rounding, not bitwise
    integrands = [
        lambda t, e: powt(t, 1.7),
        lambda t, e: _cubic_value(t / e) ** 3.0 * powt(t, -0.4),
        lambda t, e: e ** -1.5 * np.abs(_cubic_derivative(t / e)) ** 1.5
        * powt(t, 2.0),
    ]
    row = list(EPS).index(eps)
    for fn in integrands:
        nodes, widths = _band_nodes(EPS)
        rows = _band_sum(fn(nodes, EPS[:, None, None]), widths)
        ref = _panel_loop(lambda t: fn(t, eps), eps)
        assert rows[row] == pytest.approx(ref, rel=1e-14, abs=0.0)


def _reference_norms(params, theta, q, eps):
    # one eps at a time, every term on the graded-rule plateau plus the band
    n, p = params.n, params.p
    sigma = side_exponent(theta, params)
    nu = params.alpha * (n - 1)
    rule = graded_interval_rule(min(0.0, sigma))
    slant = face_parametrization(BoundaryFace.slanted(1), params).slant_factor

    def term(e, eta_pow, extra=lambda t: 1.0):
        plateau = rule.integrate(lambda t: powt(t, e) * extra(t), upper=eps)
        return plateau + _panel_loop(lambda t: eta_pow(t / eps) * powt(t, e) * extra(t),
                                     eps)

    def eta_q(s):
        return _cubic_value(s) ** q

    boundary = (n - 1) * (term(sigma, eta_q) + term(sigma, eta_q, slant))
    val = term(nu, lambda s: _cubic_value(s) ** p)
    grad = _panel_loop(lambda t: eps ** -p * np.abs(_cubic_derivative(t / eps)) ** p
                       * powt(t, nu), eps)
    return boundary ** (1.0 / q), grad ** (1.0 / p) + val ** (1.0 / p)


@pytest.mark.parametrize("n,gamma,p,q", [(2, 3.0, 1.5, 3.0), (3, 4.0, 2.0, 4.0)])
@pytest.mark.parametrize("sigma,rel", [(-0.95, 1e-9), (-0.5, 1e-13), (0.0, 1e-13),
                                       (2.0, 1e-13), (10.0, 1e-13)])
def test_grid_norms_match_per_eps_reference(n, gamma, p, q, sigma, rel):
    # at sigma -0.95 the reference's graded-rule tail (truncated near 1e-9)
    # is the error; the exact plateau 1/(sigma+1) is not
    params = validate_params(n, gamma, p, q, usage="trace")
    theta = sigma - params.alpha * (n - 2)
    boundary, sobolev = cutoff_norms(params, theta, q, DEFAULT_EPS_GRID)
    ref = np.array([_reference_norms(params, theta, q, eps) for eps in DEFAULT_EPS_GRID])
    assert boundary == pytest.approx(ref[:, 0], rel=rel, abs=0.0)
    assert sobolev == pytest.approx(ref[:, 1], rel=1e-13, abs=0.0)


class TestNorms:
    def test_scalar_call_is_its_grid_entry(self, p1_trace):
        boundary, sobolev = cutoff_norms(p1_trace, 2.0, 3.0, EPS)
        for k, eps in enumerate(EPS):
            b, s = cutoff_norms(p1_trace, 2.0, 3.0, float(eps))
            assert type(b) is float and type(s) is float
            assert (b, s) == (boundary[k], sobolev[k])

    def test_boundary_halving_ratio(self, p1_trace):
        # exponent (theta + 1)/q = 1 at theta=2, q=3: halving eps halves the norm
        b1, _ = cutoff_norms(p1_trace, 2.0, 3.0, 2.0 ** -7)
        b2, _ = cutoff_norms(p1_trace, 2.0, 3.0, 2.0 ** -8)
        assert b2 / b1 == pytest.approx(0.5, abs=2e-4)

    def test_eps_precondition(self, p1_trace):
        with pytest.raises(RangeViolation):
            cutoff_norms(p1_trace, 2.0, 3.0, 0.5)
        with pytest.raises(RangeViolation):
            cutoff_norms(p1_trace, 2.0, 3.0, 0.0)
        with pytest.raises(RangeViolation):
            cutoff_norms(p1_trace, 2.0, 3.0, [0.01, np.nan])

    def test_integrability_precondition(self, p1_trace):
        with pytest.raises(NonIntegrable):
            cutoff_norms(p1_trace, -1.5, 3.0, 0.01)

    def test_gradient_part_halving(self, p1_trace):
        # ratio of the gradient p-th powers tends to 2**-(alpha(n-1)+1-p)
        p = p1_trace.p
        eps = 2.0 ** -9
        _, s1 = cutoff_norms(p1_trace, 2.0, 3.0, eps)
        _, s2 = cutoff_norms(p1_trace, 2.0, 3.0, eps / 2)
        # at small eps the norm is dominated by the gradient term
        assert (s2 / s1) ** p == pytest.approx(2.0 ** -1.5, rel=2e-2)

    def test_monotone_in_eps(self, p1_trace):
        eps = 2.0 ** -np.arange(4, 13)
        vals = [cutoff_norms(p1_trace, 2.0, 3.0, e)[0] for e in eps]
        assert np.all(np.diff(vals) < 0)  # decreasing eps shrinks the support


class TestScalingSlopes:
    def test_p1_sharp_case(self, p1_trace):
        res = scaling_slopes(p1_trace, 2.0, 3.0)
        assert res.predicted_lhs == 1.0 and res.predicted_rhs == 1.0
        assert res.lhs_slope == pytest.approx(1.0, abs=0.02)
        assert res.rhs_slope == pytest.approx(1.0, abs=0.02)

    def test_p2_sharp_case(self, p2_params):
        res = scaling_slopes(p2_params, 1.5, 4.0)
        assert res.predicted_lhs == pytest.approx(1.0)
        assert res.predicted_rhs == pytest.approx(1.0)
        assert res.lhs_slope == pytest.approx(res.rhs_slope, abs=0.02)

    def test_subcritical_weight_diverges(self, p1_trace):
        res = scaling_slopes(p1_trace, 0.2, 2.0)
        assert res.lhs_slope == pytest.approx(0.6, abs=0.02)
        assert res.rhs_slope == pytest.approx(1.0, abs=0.02)
        assert res.lhs_slope < res.rhs_slope  # trace ratio diverges

    def test_slope_fidelity_all_thetas(self, p1_trace, p2_params):
        for params, q in ((p1_trace, 3.0), (p2_params, 4.0)):
            beta = derived_exponents(params).beta
            for theta in (beta - 0.5, beta, beta + 0.5):
                res = scaling_slopes(params, theta, q)
                assert res.lhs_slope == pytest.approx(res.predicted_lhs, abs=0.02)
                assert res.rhs_slope == pytest.approx(res.predicted_rhs, abs=0.02)

    def test_norms_computed_once_per_theta(self, p1_trace, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return cutoff_norms(*args, **kwargs)

        monkeypatch.setattr(embedding, "test_function_norms", counted)
        scaling_slopes(p1_trace, 2.0, 3.0)
        assert len(calls) == 1 and np.array_equal(calls[0], DEFAULT_EPS_GRID)

    def test_slope_is_the_least_squares_fit(self, rng):
        # the fixed weights against np.polyfit, within a rounding bound of the
        # weighted sum: norms spread over many orders of magnitude
        x = np.log2(DEFAULT_EPS_GRID)
        weights = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
        bound = 8.0 * np.finfo(float).eps
        for _ in range(2000):
            norms = np.exp(rng.uniform(-300.0, 300.0) + rng.normal(0.0, 5.0, x.size)
                           - rng.uniform(0.0, 3.0) * x)
            y = np.log2(norms)
            fit = np.polyfit(x, y, 1)[0]
            assert abs(embedding._slope(norms, "k", "s") - fit) \
                <= bound * np.sum(np.abs(weights) * np.abs(y))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_slope_needs_finite_positive_norms(self, bad):
        norms = DEFAULT_EPS_GRID.copy()
        norms[3] = bad
        with pytest.raises(NumericalError, match="theta = 1: the boundary norm"):
            embedding._slope(norms, "theta = 1", "boundary")

    def test_theta_min_matches_beta_randomized(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            p = float(rng.uniform(1.1, n - 0.25))
            gamma = float(rng.uniform(n + 0.1, n + 2.5))
            params = validate_params(n, gamma, p, p * (n - 1) / (n - p),
                                     usage="trace")
            e = derived_exponents(params)
            assert abs(e.theta_min(e.p_star) - e.beta) <= 1e-12 * max(1.0, abs(e.beta))


class TestSharpnessScan:
    def test_p1_sign_table(self, p1_trace):
        scan = sharpness_scan(p1_trace, 2.0, [0.5, 1.0, 1.5])
        assert scan.theta_min == pytest.approx(1.0)
        signs = np.sign(scan.rows[:, 1])
        assert signs[0] == -1 and signs[2] == 1
        assert abs(scan.rows[1, 1]) < 0.02  # at threshold the gap vanishes

    def test_p2_q3(self, p2_params):
        scan = sharpness_scan(p2_params, 3.0, [0.2, 0.5, 0.8])
        assert scan.theta_min == pytest.approx(0.5)
        assert np.sign(scan.rows[0, 1]) == -1
        assert np.sign(scan.rows[2, 1]) == 1

    def test_simplex_threshold_is_zero(self, simplex_params):
        e = derived_exponents(simplex_params)
        scan = sharpness_scan(simplex_params, e.p_star, [-0.3, 0.0, 0.3])
        assert scan.theta_min == pytest.approx(0.0, abs=1e-14)
        assert np.sign(scan.rows[0, 1]) == -1
        assert np.sign(scan.rows[2, 1]) == 1

    def test_grid_must_straddle(self, p1_trace):
        with pytest.raises(RangeViolation):
            sharpness_scan(p1_trace, 2.0, [1.5, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_rejects_non_finite_theta(self, p1_trace, bad):
        with pytest.raises(RangeViolation) as err:
            sharpness_scan(p1_trace, 2.0, [0.0, bad, 2.0])
        assert err.value.field == "theta_grid"

    @pytest.mark.parametrize("case", ["p1", "p2"])
    def test_rows_are_the_scaling_gaps_with_one_sobolev_half(self, case, p1_trace,
                                                             p2_params, monkeypatch):
        params, q, grid = {"p1": (p1_trace, 2.0, [1.3, 0.5, 0.95, 1.0, 1.05]),
                           "p2": (p2_params, 3.0, [0.2, 0.5, 0.8])}[case]
        calls = []
        sobolev, norms = embedding._sobolev_norms, embedding.test_function_norms
        monkeypatch.setattr(embedding, "_sobolev_norms",
                            lambda *args: calls.append("sobolev") or sobolev(*args))
        monkeypatch.setattr(embedding, "test_function_norms",
                            lambda *args: calls.append("both") or norms(*args))
        scan = sharpness_scan(params, q, grid)
        assert calls == ["sobolev"]
        assert np.array_equal(scan.rows[:, 0], np.sort(grid))
        for theta, gap, _ in scan.rows:
            res = scaling_slopes(params, theta, q)
            assert gap == res.lhs_slope - res.rhs_slope

    @pytest.mark.parametrize("gamma,low,extra", [
        (1e200, 0.0, []),       # the Sobolev norm underflows: gamma is named
        (1e200, -1.5, []),      # but the smallest theta is not integrable
        (3.0, 0.5, [200.0]),    # the boundary norm at theta 200 underflows
    ])
    def test_errors_are_those_of_scaling_slopes(self, gamma, low, extra):
        # the scan raises what scaling_slopes raises at its first theta that fails
        params = validate_params(2, gamma, 1.5)
        theta_min = derived_exponents(params).theta_min(2.0)
        grid = [low, theta_min, 2.0 * theta_min, *extra]
        with pytest.raises(Exception) as scan_err:
            sharpness_scan(params, 2.0, grid)
        with pytest.raises(type(scan_err.value)) as ref_err:
            for theta in sorted(grid):
                scaling_slopes(params, theta, 2.0)
        assert str(scan_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("case", ["p1", "p2"])
    def test_cutoff_is_evaluated_once_per_scan(self, case, p1_trace, p2_params,
                                               monkeypatch):
        # the cutoff's powers are theta-free: as many evaluations for 5
        # thetas as for 2
        params, q, grid = {"p1": (p1_trace, 2.0, [0.5, 0.9, 1.0, 1.1, 1.5]),
                           "p2": (p2_params, 3.0, [0.2, 0.4, 0.5, 0.6, 0.8])}[case]
        calls = []
        cubic = embedding._cubic_value
        monkeypatch.setattr(embedding, "_cubic_value",
                            lambda s: calls.append(1) or cubic(s))
        counts = []
        for thetas in (grid[::4], grid):
            calls.clear()
            sharpness_scan(params, q, thetas)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_sign_agreement_away_from_threshold(self, p1_trace):
        scan = sharpness_scan(p1_trace, 2.0, [0.7, 0.95, 1.0, 1.05, 1.3])
        for theta, gap, dist in scan.rows:
            if abs(dist) >= 0.05:
                assert np.sign(gap) == np.sign(dist)
