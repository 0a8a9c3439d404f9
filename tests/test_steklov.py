import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from ncusp.cli import main
from ncusp.errors import IterationStall, NumericalError, RangeViolation, ZeroTrace
from ncusp.geometry import validate_params
from ncusp.operators import weighted_boundary_norm
from ncusp.geometry import BoundaryFace
from ncusp.steklov.fem import (
    FemWorkspace,
    assemble_functionals,
    rayleigh_quotient,
    weak_residual,
    workspace_for,
)
from ncusp.quadrature import gauss_nodes_01, graded_interval_rule
from ncusp.steklov.mesh import TriMesh, generate_cusp_mesh, mesh_area
from ncusp.steklov import fem, solve
from ncusp.steklov.solve import (
    LU_OPTIONS,
    SolverOptions,
    _BandCholesky,
    _PatternLU,
    linear_oracle,
    minimize_rayleigh,
    trace_constant,
)

from oracles import (
    dense_smallest_pencil_eigenvalue,
    fd_gradient,
    previous_fem_formulas,
    previous_matrices,
)


@pytest.fixture(scope="module")
def small_mesh(p1_params):
    return generate_cusp_mesh(p1_params, levels=4, rows_per_strip=6)


@pytest.fixture(scope="module")
def simplex_mesh(simplex_params):
    return generate_cusp_mesh(simplex_params, levels=4, rows_per_strip=6)


def _discrete(theta, p=2.0, q=2.0):
    return validate_params(2, 3.0, p, q, theta=theta, usage="discrete")


def _hessians(ws, u, reg_eps):
    """H_E and H_B at u as CSR matrices of the workspace's pattern."""
    vals = ws.at(u, reg_eps)
    return ws._csr(vals.hessian_data()), ws._csr(vals.boundary_hessian_data())


class TestAssemble:
    def test_zero_function(self, small_mesh):
        params = _discrete(2.0)
        z = np.zeros(small_mesh.num_vertices)
        E, gE, B, gB = assemble_functionals(small_mesh, z, params, reg_eps=0.0)
        assert E == 0.0 and B == 0.0
        assert not gE.any() and not gB.any()

    def test_constant_function_p2(self, small_mesh):
        params = _discrete(2.0)
        u = np.ones(small_mesh.num_vertices)
        E, _, B, _ = assemble_functionals(small_mesh, u, params, reg_eps=0.0)
        assert E == pytest.approx(mesh_area(small_mesh), rel=1e-13)
        # boundary value approaches the exact weighted perimeter as the
        # polygonal boundary converges
        traces = {f: 1.0 for f in (BoundaryFace.flat(1), BoundaryFace.slanted(1),
                                   BoundaryFace.top())}
        exact = weighted_boundary_norm(traces, 1.0, 2.0, params)
        assert B == pytest.approx(exact, rel=5e-4)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_gradients_match_central_differences(self, small_mesh, rng, p):
        params = _discrete(2.0, p=p, q=2.0)
        nv = small_mesh.num_vertices
        for _ in range(3):
            u = rng.standard_normal(nv)
            _, gE, _, gB = assemble_functionals(small_mesh, u, params, reg_eps=1e-8)
            fE = fd_gradient(lambda v: assemble_functionals(
                small_mesh, v, params, reg_eps=1e-8)[0], u)
            fB = fd_gradient(lambda v: assemble_functionals(
                small_mesh, v, params, reg_eps=1e-8)[2], u)
            assert np.linalg.norm(fE - gE) / np.linalg.norm(gE) < 1e-5
            assert np.linalg.norm(fB - gB) / np.linalg.norm(gB) < 1e-5


    @pytest.mark.parametrize("p,q", [(1.5, 2.0), (2.0, 2.0), (1.25, 1.6), (1.8, 3.0)])
    def test_hessians_match_central_differences(self, small_mesh, rng, p, q):
        # columns of H_E and H_B against central differences of the exact
        # gradients as in criterion 6, on the one-signed states Newton sees:
        # near a zero of u the weights behave like |u|^(p-4) and |u|^(q-4),
        # which spoils the difference quotients, not the Hessians
        params = _discrete(2.0, p=p, q=q)
        ws = workspace_for(small_mesh, params)
        h = 1e-6
        for _ in range(2):
            u = 0.5 + rng.random(ws.num_dof)
            he, hb = (m.toarray() for m in _hessians(ws, u, 1e-8))
            fe, fb = np.empty_like(he), np.empty_like(hb)
            for k in range(ws.num_dof):
                d = np.zeros(ws.num_dof)
                d[k] = h
                fe[:, k] = (ws.energy(u + d, 1e-8)[1] - ws.energy(u - d, 1e-8)[1]) / (2 * h)
                fb[:, k] = (ws.boundary(u + d, 1e-8)[1]
                            - ws.boundary(u - d, 1e-8)[1]) / (2 * h)
            assert np.linalg.norm(fe - he) / np.linalg.norm(he) < 1e-6
            assert np.linalg.norm(fb - hb) / np.linalg.norm(hb) < 1e-6
            assert np.array_equal(he, he.T) and np.array_equal(hb, hb.T)

    def test_boundary_edge_off_the_triangles_rejected(self):
        # two triangles of a square split along (1, 2); (0, 3) is the other
        # diagonal, so it is no side of a triangle
        mesh = TriMesh(np.array([[0.0, 0.5], [1.0, 0.5], [0.0, 1.0], [1.0, 1.0]]),
                       np.array([[0, 1, 2], [1, 3, 2]]),
                       np.array([[0, 3]]), np.array(["TOP"]))
        with pytest.raises(RangeViolation) as exc:
            FemWorkspace(mesh, 0.0, 1.5, 2.0)
        assert exc.value.field == "boundary_edges"

    def test_p2_hessians_are_the_matrices(self, small_mesh, rng):
        ws = workspace_for(small_mesh, _discrete(2.0))
        u = rng.standard_normal(ws.num_dof)
        he, hb = _hessians(ws, u, 0.0)
        stiffness, mass, boundary_mass = previous_matrices(small_mesh, ws)
        a = 2.0 * (stiffness + mass)
        assert abs(he - a).max() <= 1e-13 * abs(a).max()
        assert abs(hb - 2.0 * boundary_mass).max() <= 1e-13 * abs(hb).max()


def _boundary_by_edges(mesh, theta, q, u):
    """Edge-by-edge reference of the unregularized boundary functional:
    Gauss points on edges away from the origin, the graded rule on tip edges."""
    xg, wg = gauss_nodes_01(10)
    tip = graded_interval_rule(min(0.0, theta), panels=30)
    total = 0.0
    for i, j in mesh.boundary_edges:
        vi, vj = mesh.vertices[i], mesh.vertices[j]
        length = np.linalg.norm(vj - vi)
        if vi.any() and vj.any():
            vals = (1.0 - xg) * u[i] + xg * u[j]
            weight = wg * length * ((1.0 - xg) * vi[1] + xg * vj[1]) ** theta
        else:
            origin, far = (i, j) if not vi.any() else (j, i)
            s = tip.nodes
            vals = (1.0 - s) * u[origin] + s * u[far]
            weight = tip.weights * length * (s * mesh.vertices[far, 1]) ** theta
        total += np.dot(weight, np.abs(vals) ** q)
    return total


class TestOperators:
    """The P1 evaluations against the assembled matrices."""

    @pytest.mark.parametrize("grid, theta", [
        ("small_mesh", 0.0), ("small_mesh", 2.0), ("simplex_mesh", 0.0), ("p1_mesh", 0.5),
        ("gamma4_levels8", 0.0)])
    def test_matrices_are_the_operator_construction(self, request, grid, theta,
                                                    monkeypatch):
        # the p = q = 2 oracle factors half the metric, K + M, and applies
        # half the boundary Hessian at u = 1, M_b: both agree with the sparse
        # operators' matrices to rounding; gamma 4, theta 0 is oracle-check's
        # closest call (test_cli.py, `test_oracle_check_at_gamma_4`)
        if grid == "gamma4_levels8":
            mesh = generate_cusp_mesh(
                validate_params(2, 4.0, 2.0, 2.0, theta=0.0, usage="discrete"), levels=8)
        else:
            mesh = request.getfixturevalue(grid)
        ws = fem._cached_workspace(mesh, theta, 2.0, 2.0)
        ones = ws.at(np.ones(ws.num_dof), 0.0)
        a = ws._csr(0.5 * ones.metric_data())
        mb = ws._csr(0.5 * ones.boundary_hessian_data())
        stiffness, mass, boundary_mass = previous_matrices(mesh, ws)
        for name, got, ref in (("K + M", a, stiffness + mass), ("M_b", mb, boundary_mass)):
            assert abs(got - ref).max() <= 1e-13 * abs(ref).max(), name
        # the matrix the oracle factors is that half of the metric
        factored = []
        splu = solve.spla.splu

        def keep(m, **kwargs):
            factored.append(m)
            return splu(m, **kwargs)

        monkeypatch.setattr(solve.spla, "splu", keep)
        linear_oracle(mesh, theta=theta)
        assert len(factored) == 1 and abs(factored[0] - a).max() == 0.0

    @pytest.mark.parametrize("theta", [0.0, 2.0, -0.5])
    def test_boundary_matches_edge_loop(self, small_mesh, rng, theta):
        params = validate_params(2, 3.0, 1.5, 3.0, theta=theta, usage="discrete")
        ws = workspace_for(small_mesh, params)
        u = rng.standard_normal(ws.num_dof)
        b, _ = ws.boundary(u, 0.0)
        assert b == pytest.approx(_boundary_by_edges(small_mesh, theta, 3.0, u),
                                  rel=1e-13)

    def test_p2_functionals_are_matrix_quadratic_forms(self, small_mesh, rng):
        ws = workspace_for(small_mesh, _discrete(2.0))
        stiffness, mass, boundary_mass = previous_matrices(small_mesh, ws)
        for _ in range(3):
            u = rng.standard_normal(ws.num_dof)
            e, _ = ws.energy(u, 0.0)
            b, _ = ws.boundary(u, 0.0)
            assert e == pytest.approx(u @ ((stiffness + mass) @ u), rel=1e-13)
            assert b == pytest.approx(u @ (boundary_mass @ u), rel=1e-13)

    def test_metric_times_u_is_energy_gradient(self, small_mesh, rng):
        # inverse iteration relies on grad E(u) = metric(u) @ u
        ws = workspace_for(small_mesh, _discrete(2.0, p=1.5))
        for _ in range(3):
            u = rng.standard_normal(ws.num_dof)
            _, ge = ws.energy(u, 1e-8)
            mu = ws.metric_matrix(u, 1e-8) @ u
            assert np.max(np.abs(mu - ge)) <= 1e-12 * np.max(np.abs(ge))

    def test_pattern_lu_orders_once(self, small_mesh, rng, monkeypatch):
        # the first matrix is factored with the order it finds, and every later
        # one in that order; the matrix is [[A, -g], [-g^T, 0]], and every
        # factor runs without relaxed supernodes or panels
        specs = []
        splu = solve.spla.splu

        def recording_splu(a, **kwargs):
            specs.append((kwargs["permc_spec"], kwargs["relax"], kwargs["panel_size"]))
            return splu(a, **kwargs)

        monkeypatch.setattr(solve.spla, "splu", recording_splu)
        ws = workspace_for(small_mesh, _discrete(2.0, p=1.5))
        border = np.unique(ws.edge_ends)
        lu = _PatternLU(ws, border)
        for _ in range(3):
            a = ws.metric_matrix(1.0 + rng.random(ws.num_dof), 1e-8)
            g = np.zeros(ws.num_dof)
            g[border] = 0.5 + rng.random(border.size)
            col = sp.csr_matrix(-g[:, None])
            full = sp.bmat([[a, col], [col.T, None]], format="csc")
            b = rng.standard_normal(ws.num_dof + 1)
            lu.factor(a.data, g)
            x = lu.solve(b)
            ref = splu(full, **LU_OPTIONS).solve(b)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert specs == [(LU_OPTIONS["permc_spec"], 1, 1)] + [("NATURAL", 1, 1)] * 2

    def test_workspace_cache_releases_dropped_meshes(self, p1_params):
        grid = generate_cusp_mesh(p1_params, levels=4, rows_per_strip=6)
        workspace_for(grid, p1_params)
        alive = weakref.ref(grid)
        del grid
        gc.collect()
        assert alive() is None


def _renumbered(mesh, perm):
    """The same mesh with vertex k of the result being vertex perm[k]."""
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    return TriMesh(mesh.vertices[perm], new_id[mesh.triangles],
                   new_id[mesh.boundary_edges], mesh.boundary_tags)


class TestBandCholesky:
    """The inverse-iteration metric on a banded Cholesky in height order."""

    def test_solve_matches_superlu(self, p1_params):
        # the metric at u = 1 has condition number about 2e10 at levels 8, so
        # two backward-stable solves differ by up to about 1e-9 relative (the
        # ordered SuperLU solve itself lies 1.4e-9 from an iteratively refined
        # solution); the backward error is what pins the factorization
        grid = generate_cusp_mesh(p1_params, levels=8)
        ws = workspace_for(grid, p1_params)
        band = _BandCholesky(ws, grid.vertices)
        sol = minimize_rayleigh(grid, p1_params)
        for u in (np.ones(ws.num_dof), sol.u.values):
            a = ws.metric_matrix(u, 1e-8)
            rhs = ws.boundary(u, 1e-8)[1]
            x = band.solve(a.data, rhs)
            ref = solve.spla.splu(a.tocsc(), **LU_OPTIONS).solve(rhs)
            assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))
            scale = abs(a) @ np.abs(x) + np.abs(rhs)
            assert np.max(np.abs(rhs - a @ x) / scale) <= 1e-14

    def test_numbering_does_not_widen_the_band(self, p1_params):
        grid = generate_cusp_mesh(p1_params, levels=6)
        perm = np.random.default_rng(7).permutation(grid.num_vertices)
        shuffled = _renumbered(grid, perm)
        widths = [_BandCholesky(workspace_for(m, p1_params), m.vertices).width
                  for m in (grid, shuffled)]
        assert widths[0] == widths[1] < 0.05 * grid.num_vertices
        lam = [minimize_rayleigh(m, p1_params).lam for m in (grid, shuffled)]
        assert abs(lam[1] - lam[0]) <= 1e-12 * lam[0]

    def test_built_at_the_first_inverse_iteration_step(self, p1_params, monkeypatch):
        # the reference takes no inverse-iteration step and builds no band
        # index; on this mesh both random starts take one, on a single index
        log = []
        init, cholesky = _BandCholesky.__init__, solve.sla.cholesky_banded
        monkeypatch.setattr(_BandCholesky, "__init__",
                            lambda self, *args: log.append("build") or init(self, *args))
        monkeypatch.setattr(solve.sla, "cholesky_banded",
                            lambda *args, **kwargs: log.append("factor")
                            or cholesky(*args, **kwargs))
        minimize_rayleigh(generate_cusp_mesh(p1_params, levels=10), p1_params)
        assert log == []
        grid = generate_cusp_mesh(p1_params, levels=4, rows_per_strip=6)
        sol = minimize_rayleigh(grid, p1_params, SolverOptions(restarts=3))
        assert sol.converged
        assert log.count("build") == 1 and log.count("factor") >= 2
        assert log[0] == "build"


class TestNewtonLU:
    """The bordered Newton matrix on SuperLU, ordered once per solve."""

    @pytest.mark.parametrize("case", ["cusp", "simplex"])
    def test_solve_backward_error(self, case, small_mesh, simplex_mesh, p1_params,
                                  simplex_params, rng, monkeypatch):
        # at the converged eigenpair, componentwise: an LU solve returns x
        # with (M + dM) x = rhs, |dM| <= gamma(3k) |L||U| in the factored order
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        # Thm 9.4), k the longest row or column of L and U, which bounds the
        # terms of every inner product; the residual rhs - M x is itself
        # evaluated within gamma(r + 1) (|M||x| + |rhs|), r the longest row of
        # M, the border row that holds every boundary node
        grid, params = {"cusp": (small_mesh, p1_params),
                        "simplex": (simplex_mesh, simplex_params)}[case]
        ws = workspace_for(grid, params)
        sol = minimize_rayleigh(grid, params)
        assert sol.converged
        u, eps = sol.u.values, sol.reg_eps
        he, hb = _hessians(ws, u, eps)
        a = he - sol.mu * hb
        g = ws.boundary(u, eps)[1]
        col = sp.csr_matrix(-g[:, None])
        full = sp.bmat([[a, col], [col.T, None]], format="csr")
        factors = []
        splu = solve.spla.splu

        def keep(m, **kwargs):
            factors.append(splu(m, **kwargs))
            return factors[-1]

        monkeypatch.setattr(solve.spla, "splu", keep)
        newton_lu = _PatternLU(ws, np.unique(ws.edge_ends))
        n = ws.num_dof + 1
        r = np.diff(full.indptr).max()

        def gamma(j):
            return j * 2.0 ** -53 / (1.0 - j * 2.0 ** -53)

        # the first factor is of M in the order SuperLU finds, a later one of
        # M[order][:, order] in NATURAL order
        for first in (True, False):
            newton_lu.factor(a.data, g)
            lu = factors[-1]
            order = np.arange(n) if first else newton_lu._order
            L, U = abs(lu.L), abs(lu.U)
            pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))))
            pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)))
            k = max(np.bincount(m.indices).max() for m in (L, U))
            k = max(k, *(np.diff(m.indptr).max() for m in (L, U)))

            def within_bound(rhs, x):
                # the matrix factored is pr^T L U pc^T
                lu_part = pr.T @ (L @ (U @ (pc.T @ np.abs(x[order]))))
                bound = gamma(3 * k) * lu_part \
                    + gamma(r + 1) * (abs(full) @ np.abs(x) + np.abs(rhs))[order]
                return bool(np.all(np.abs(rhs - full @ x)[order] <= bound))

            for _ in range(2):
                rhs = rng.standard_normal(n)
                x = newton_lu.solve(rhs)
                assert within_bound(rhs, x)
                # a solution off by 1e-10, relative, is rejected
                assert not within_bound(rhs, x * (1.0 + 1e-10 * rng.choice([-1.0, 1.0], n)))
        assert len(factors) == 2

    def test_reference_solve_factorization_counts(self, p1_params, monkeypatch):
        # 8 Newton steps on 5 SuperLU factors, the first of which finds the
        # order, 3 of them chord steps, and no inverse-iteration step on the
        # band; a second solve on the mesh does the same
        calls = {"band": 0, "splu": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solve.sla, "cholesky_banded",
                            counted("band", solve.sla.cholesky_banded))
        monkeypatch.setattr(solve.spla, "splu", counted("splu", solve.spla.splu))
        grid = generate_cusp_mesh(p1_params, levels=10)
        sol = minimize_rayleigh(grid, p1_params)
        assert sol.converged and sol.iterations == 8
        assert calls == {"band": 0, "splu": 5}
        sol = minimize_rayleigh(grid, p1_params)
        assert sol.converged and sol.iterations == 8
        assert calls == {"band": 0, "splu": 10}

    def test_restarts_order_once(self, small_mesh, p1_params, monkeypatch):
        specs = []
        splu = solve.spla.splu

        def recording_splu(a, **kwargs):
            specs.append(kwargs["permc_spec"])
            return splu(a, **kwargs)

        monkeypatch.setattr(solve.spla, "splu", recording_splu)
        sol = minimize_rayleigh(small_mesh, p1_params, SolverOptions(restarts=3))
        assert sol.converged
        # each of the three starts takes Newton steps; only the first orders
        assert len(specs) >= 3
        assert specs.count(LU_OPTIONS["permc_spec"]) == 1
        assert specs[0] == LU_OPTIONS["permc_spec"]


class TestReuse:
    """Values taken once per iterate; no factor outlives a solve."""

    def test_second_solve_is_bitwise_equal(self, p1_params):
        # a second solve on the workspace, and a solve on an equal mesh built
        # apart, repeat the first one
        grid = generate_cusp_mesh(p1_params, levels=6)
        runs = [minimize_rayleigh(grid, p1_params) for _ in range(2)]
        runs.append(minimize_rayleigh(generate_cusp_mesh(p1_params, levels=6), p1_params))
        for sol in runs[1:]:
            assert sol.lam == runs[0].lam
            assert np.array_equal(sol.u.values, runs[0].u.values)

    def test_workspace_holds_element_arrays(self, p1_params):
        # u is gathered per element and per boundary point, and every matrix
        # is made from element data when it is needed: after a solve and an
        # oracle call neither workspace holds a sparse matrix
        grid = generate_cusp_mesh(p1_params, levels=6)
        minimize_rayleigh(grid, p1_params)
        linear_oracle(grid, p1_params.theta)
        spaces = list(fem._WORKSPACES[grid].values())
        assert len(spaces) == 2
        held = [name for ws in spaces for name, value in vars(ws).items()
                if sp.issparse(value)]
        assert held == []

    def test_rescaled_iterate_is_not_gathered_again(self, small_mesh, p1_params):
        # the per-triangle values u[triangles] are rescaled with u
        ws = workspace_for(small_mesh, p1_params)
        pt = ws.at(1.0 + np.arange(ws.num_dof) / ws.num_dof, 1e-8)
        assert pt.E > 0.0
        out = solve._normalize(ws, pt)
        assert "U" in out.__dict__
        assert np.array_equal(out.U, out.u[ws.triangles])

    def test_no_factor_outlives_a_solve(self, p1_params, monkeypatch):
        factors = []
        splu = solve.spla.splu

        def keep(a, **kwargs):
            factors.append(splu(a, **kwargs))
            return factors[-1]

        monkeypatch.setattr(solve.spla, "splu", keep)
        grid = generate_cusp_mesh(p1_params, levels=4, rows_per_strip=6)
        minimize_rayleigh(grid, p1_params, SolverOptions(restarts=2))
        assert len(factors) >= 2
        # SuperLU objects take no weakref: nothing but the list above refers
        # to a factor after the solve
        gc.collect()
        assert [r for r in gc.get_referrers(*factors) if r is not factors] == []

    def test_factor_released_before_the_hessian(self, p1_params, monkeypatch):
        # a rejected chord step gives up its factor before the next Hessian
        # is assembled, so the two never take memory at once
        factors, held = [], []
        splu, hessian_data = solve.spla.splu, fem.QuadValues.hessian_data

        def keep(a, **kwargs):
            factors.append(splu(a, **kwargs))
            return factors[-1]

        def checked(self):
            gc.collect()
            held.append([r for r in gc.get_referrers(*factors) if r is not factors])
            return hessian_data(self)

        monkeypatch.setattr(solve.spla, "splu", keep)
        monkeypatch.setattr(fem.QuadValues, "hessian_data", checked)
        minimize_rayleigh(generate_cusp_mesh(p1_params, levels=6), p1_params)
        assert len(held) >= 3 and not any(held)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_wrappers_match_the_previous_formulas(self, small_mesh, rng, p):
        ws = workspace_for(small_mesh, _discrete(2.0, p=p, q=2.0))
        for _ in range(2):
            u = rng.standard_normal(ws.num_dof)
            ref = previous_fem_formulas(small_mesh, ws, u, 1e-8)
            (e, ge), (b, gb) = ws.energy(u, 1e-8), ws.boundary(u, 1e-8)
            he, hb = _hessians(ws, u, 1e-8)
            got = {
                "energy": e, "energy_grad": ge, "boundary": b, "boundary_grad": gb,
                "metric": ws.metric_matrix(u, 1e-8),
                "hessian": he,
                "boundary_hessian": hb,
            }
            for name, value in got.items():
                want = ref[name]
                if sp.issparse(want):
                    assert np.array_equal(value.indices, want.indices), name
                    value, want = value.data, want.data
                assert np.max(np.abs(value - want)) <= 1e-13 * np.max(np.abs(want)), name


class TestRayleigh:
    def test_scaling_invariance(self, small_mesh, rng):
        params = validate_params(2, 3.0, 1.5, 2.0, usage="steklov")
        u = rng.standard_normal(small_mesh.num_vertices)
        base = rayleigh_quotient(small_mesh, u, params)
        for c in (-2.0, 0.5):
            assert rayleigh_quotient(small_mesh, c * u, params) \
                == pytest.approx(base, rel=1e-12)

    def test_constant_on_simplex(self, simplex_mesh, simplex_params):
        params = validate_params(2, 2.0, 2.0, 2.0, theta=0.0, simplex=True,
                                 usage="discrete")
        u = np.ones(simplex_mesh.num_vertices)
        val = rayleigh_quotient(simplex_mesh, u, params)
        assert val == pytest.approx(0.5 / (2 + math.sqrt(2)), rel=1e-12)

    def test_zero_trace_raises(self, small_mesh):
        params = _discrete(2.0)
        boundary = np.unique(small_mesh.boundary_edges.ravel())
        u = np.zeros(small_mesh.num_vertices)
        interior = np.setdiff1d(np.arange(small_mesh.num_vertices), boundary)
        u[interior] = 1.0
        with pytest.raises(ZeroTrace):
            rayleigh_quotient(small_mesh, u, params)


def _one_triangle():
    # every vertex is on the boundary, and ARPACK's basis is the whole space
    return TriMesh(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
                   np.array([[0, 1], [1, 2], [2, 0]]), np.array(["SLANTED", "TOP", "FLAT"]))


class TestLinearOracle:
    @pytest.mark.parametrize("grid, theta", [
        ("small_mesh", 0.0), ("small_mesh", 2.0), ("simplex_mesh", 0.0),
        ("one_triangle", 0.0)])
    def test_against_dense_solve(self, request, grid, theta):
        mesh = _one_triangle() if grid == "one_triangle" else request.getfixturevalue(grid)
        ws = workspace_for(mesh, _discrete(theta))
        lam, _ = linear_oracle(mesh, theta=theta)
        stiffness, mass, boundary_mass = previous_matrices(mesh, ws)
        ref = dense_smallest_pencil_eigenvalue(stiffness + mass, boundary_mass)
        assert lam == pytest.approx(ref, rel=1e-10)

    def test_repeat_is_bitwise_equal(self, p1_params):
        # two equal meshes built apart share no cached workspace
        runs = [linear_oracle(generate_cusp_mesh(p1_params, levels=6), theta=2.0)
                for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1].values, runs[1][1].values)

    def test_shares_the_p2_workspace(self, p1_params):
        mesh = generate_cusp_mesh(p1_params, levels=4)
        linear_oracle(mesh, theta=2.0)
        ws = workspace_for(mesh, _discrete(2.0))
        assert list(fem._WORKSPACES[mesh].values()) == [ws]

    def test_arpack_failure_is_a_stall(self, small_mesh, monkeypatch, tmp_path, capsys):
        def no_convergence(*args, **kwargs):
            raise solve.spla.ArpackNoConvergence("no convergence", np.empty(0),
                                                 np.empty((0, 0)))

        monkeypatch.setattr(solve.spla, "eigs", no_convergence)
        with pytest.raises(IterationStall):
            linear_oracle(small_mesh, theta=2.0)
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({
            "params": {"n": 2, "p": 2.0, "gamma": 3.0, "q": 2.0, "theta": 2.0},
            "mesh": {"levels": 4, "rows_per_strip": 6}}))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.count("numerical failure:") == 1

    def test_positive(self, small_mesh, simplex_mesh):
        for grid, theta in ((small_mesh, 0.0), (small_mesh, 2.0),
                            (simplex_mesh, 0.0)):
            lam, _ = linear_oracle(grid, theta=theta)
            assert lam > 0

    def test_refinement_differences_decrease(self, p1_params):
        lams = []
        for lv in (4, 6, 8, 10):
            grid = generate_cusp_mesh(p1_params, levels=lv)
            lams.append(linear_oracle(grid, theta=2.0)[0])
        diffs = np.abs(np.diff(lams))
        assert diffs[0] > diffs[1] > diffs[2]


class TestMinimize:
    def test_oracle_equivalence(self, small_mesh):
        for theta in (0.0, 2.0):
            params = _discrete(theta)
            lam_o, _ = linear_oracle(small_mesh, theta=theta)
            sol = minimize_rayleigh(small_mesh, params,
                                    SolverOptions(tol_rel=1e-9, restarts=2))
            assert abs(sol.lam - lam_o) / lam_o < 1e-6
            assert sol.converged

    def test_warm_start_terminates_immediately(self, small_mesh):
        # a converged start needs no inverse-iteration and no Newton step
        params = _discrete(2.0)
        lam_o, u_o = linear_oracle(small_mesh, theta=2.0)
        sol = minimize_rayleigh(small_mesh, params,
                                SolverOptions(tol_rel=1e-9, restarts=1,
                                              initial=u_o.values))
        assert sol.iterations == 0 and sol.history == ()
        assert sol.converged
        assert abs(sol.lam - lam_o) <= 1e-10 * lam_o

    def test_lagrange_identity_and_mu(self, small_mesh):
        params = validate_params(2, 3.0, 1.5, 2.0, usage="steklov")
        sol = minimize_rayleigh(small_mesh, params, SolverOptions(restarts=2))
        assert abs(sol.lam - sol.energy) < 1e-8 * max(1.0, sol.energy)
        assert sol.boundary_norm == pytest.approx(1.0, abs=1e-12)
        assert sol.mu == pytest.approx(sol.lam * params.p / params.q, rel=1e-15)
        assert sol.lam > 0

    def test_residual_history(self, small_mesh):
        # one residual per step, and the solve stops at the first residual
        # below 10 tol_rel; every step here is a Newton step, and the
        # residual falls at each
        params = validate_params(2, 3.0, 1.5, 2.0, usage="steklov")
        sol = minimize_rayleigh(small_mesh, params,
                                SolverOptions(restarts=1))
        hist = np.asarray(sol.history)
        assert hist.size == sol.iterations > 1
        assert hist[-1] < 1e-7 <= hist[-2] and sol.residual < 1e-7
        assert np.all(np.diff(hist) < 0)

    @staticmethod
    def _newton_steps(mesh, params, monkeypatch):
        """(residual before, after, merit before, after, fresh factor, factor
        held after) of every Newton step of a solve; none may fall back to
        inverse iteration."""
        steps, factored = [], [0]
        newton_step, factor = solve._newton_step, solve._PatternLU.factor

        def counted(self, *args):
            factored[0] += 1
            return factor(self, *args)

        def recording(ws, newton_lu, pt, mu):
            before = factored[0]
            out = newton_step(ws, newton_lu, pt, mu)
            assert out is not None
            steps.append((pt.res, out[0].res, solve._kkt(pt, mu), solve._kkt(*out),
                          factored[0] > before, newton_lu.held))
            return out

        monkeypatch.setattr(solve._PatternLU, "factor", counted)
        monkeypatch.setattr(solve, "_newton_step", recording)
        sol = minimize_rayleigh(mesh, params, SolverOptions(tol_rel=1e-10))
        assert sol.converged
        return steps

    @staticmethod
    def _newton_path_holds(steps):
        # right after a fresh factorization each residual is at most
        # C * (previous residual)^2; a chord step at least halves the merit
        return all(nxt <= 1e3 * prev ** 2 if fresh else k_nxt <= 0.5 * k_prev
                   for prev, nxt, k_prev, k_nxt, fresh, _ in steps)

    def test_newton_converges_quadratically(self, p1_mesh, p1_params, monkeypatch):
        steps = self._newton_steps(p1_mesh, p1_params, monkeypatch)
        assert sum(s[4] for s in steps) >= 1 and sum(not s[4] for s in steps) >= 2
        assert self._newton_path_holds(steps)
        # a factor is held for chord steps only while its last step halved
        # the merit; the early fresh steps here do not
        assert all(held == (k_nxt <= 0.5 * k_prev) for _, _, k_prev, k_nxt, _, held in steps)
        assert not all(s[5] for s in steps)

    def test_fresh_newton_steps_are_quadratic(self, p1_mesh, p1_params, monkeypatch):
        # with no chord step every Newton step factors the exact Hessian
        monkeypatch.setattr(solve, "CHORD_CONTRACTION", 0.0)
        steps = self._newton_steps(p1_mesh, p1_params, monkeypatch)
        assert len(steps) >= 2 and all(s[4] for s in steps)
        assert self._newton_path_holds(steps)

    def test_wrong_hessian_is_seen(self, p1_mesh, p1_params, monkeypatch):
        # a Hessian off by 10% converges linearly, which the check rejects
        hessian_data = fem.QuadValues.hessian_data
        monkeypatch.setattr(fem.QuadValues, "hessian_data",
                            lambda self: 1.1 * hessian_data(self))
        monkeypatch.setattr(solve, "CHORD_CONTRACTION", 0.0)
        steps = self._newton_steps(p1_mesh, p1_params, monkeypatch)
        assert not self._newton_path_holds(steps)

    def test_linear_case_at_gamma_4_matches_the_oracle(self):
        # gamma 4, theta 0, p = q = 2 at levels 7: twice Newton finds no
        # descent and the step is one of inverse iteration; the tolerance is
        # the default oracle.rtol of oracle-check
        params = validate_params(2, 4.0, 2.0, 2.0, theta=0.0, usage="discrete")
        grid = generate_cusp_mesh(params, levels=7)
        sol = minimize_rayleigh(grid, params)
        lam_o, _ = linear_oracle(grid, theta=0.0)
        assert sol.converged
        assert abs(sol.lam - lam_o) <= 1e-6 * lam_o

    def test_random_start_does_not_climb(self):
        # a random start on the criterion-7 cusp mesh: a Newton step that
        # raised the quotient would climb towards a critical point near
        # lambda 0.37 while inverse-iteration steps go back down, and the
        # start would end at max_iter
        params = validate_params(2, 2.5, 1.25, 1.6, usage="steklov")
        grid = generate_cusp_mesh(params, levels=7, rows_per_strip=20)
        start = np.random.default_rng(2).random(grid.num_vertices)
        sol = minimize_rayleigh(grid, params, SolverOptions(initial=start))
        assert sol.converged and sol.iterations < 100
        assert sol.lam < 0.2

    def test_sign_normalization(self, small_mesh):
        params = _discrete(2.0)
        ws = workspace_for(small_mesh, params)
        sol = minimize_rayleigh(small_mesh, params, SolverOptions(restarts=2))
        assert ws.trace_integral(sol.u.values) >= 0.0


class TestOptions:
    @pytest.mark.parametrize("key,value", [
        ("max_iter", 0), ("max_iter", 2.5), ("max_iter", "abc"), ("max_iter", True),
        ("tol_rel", 0.0), ("tol_rel", -1.0), ("tol_rel", float("nan")),
        ("reg_eps", 0), ("reg_eps", float("inf")), ("reg_eps", "1e-8"),
        ("restarts", 0), ("seed", -1), ("initial", np.array([1.0, -1.0])),
        ("reg_eps", 1.0), ("reg_eps", 1e300),
        ("initial", "abc"), ("initial", [1.0, [2.0, 3.0]]), ("initial", np.ones((2, 2))),
        ("initial", np.full(3, np.nan)), ("initial", []),
    ])
    def test_invalid_values_name_the_key(self, key, value):
        with pytest.raises(RangeViolation) as exc:
            SolverOptions(**{key: value})
        assert exc.value.field == key

    def test_start_of_wrong_length_names_initial(self, p1_params):
        grid = generate_cusp_mesh(p1_params, levels=4)
        with pytest.raises(RangeViolation) as exc:
            minimize_rayleigh(grid, p1_params, SolverOptions(initial=[1.0, 2.0]))
        assert exc.value.field == "initial"
        assert str(grid.num_vertices) in str(exc.value)

    def test_zero_start_raises_zero_trace(self, small_mesh, p1_params):
        start = np.zeros(small_mesh.num_vertices)
        with pytest.raises(ZeroTrace):
            minimize_rayleigh(small_mesh, p1_params, SolverOptions(initial=start))


class TestPackageNames:
    FEM = ("FemFunction", "FemWorkspace", "assemble_functionals",
           "rayleigh_quotient", "weak_residual")
    SOLVE = ("SolverOptions", "SteklovSolution", "TraceConstantBound",
             "linear_oracle", "minimize_rayleigh", "trace_constant")

    def test_lazy_names_are_the_module_objects(self):
        import ncusp.steklov as st
        for module, names in ((fem, self.FEM), (solve, self.SOLVE)):
            for name in names:
                assert getattr(st, name) is getattr(module, name)
        assert set(st.__all__) == {"TriMesh", "generate_cusp_mesh", "load_mesh",
                                   "save_mesh", *self.FEM, *self.SOLVE}

    def test_unknown_name_raises_attribute_error(self):
        import ncusp.steklov as st
        with pytest.raises(AttributeError, match="no_such_name"):
            st.no_such_name


class TestHardInputs:
    """p = 1.1 at gamma 4 and 5: the flattest energies of the exponent sweep."""

    @pytest.mark.parametrize("gamma", [4.0, 5.0])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_converges_or_fails_naming_p(self, gamma, frac):
        p = 1.1
        q = p + frac * (p / (2.0 - p) - p)
        params = validate_params(2, gamma, p, q, usage="steklov")
        grid = generate_cusp_mesh(params, levels=6)
        try:
            sol = minimize_rayleigh(grid, params)
        except NumericalError as exc:
            assert "p = 1.1" in str(exc)
            return
        assert sol.converged and sol.residual < 1e-7
        assert sol.u.values.min() > 0.0


class TestExponentSweep:
    """The 36-point exponent sweep at levels 6: gamma in {2.5, 3, 4, 5}, p in
    {1.1, 1.5, 1.8}, and q at 10/50/90% of the window p < q < p/(2-p)."""

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("p", [1.1, 1.5, 1.8])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_converges_or_fails_naming_p(self, gamma, p, frac):
        q = p + frac * (p / (2.0 - p) - p)
        params = validate_params(2, gamma, p, q, usage="steklov")
        sol = minimize_rayleigh(generate_cusp_mesh(params, levels=6), params)
        assert sol.converged and sol.residual < 1e-7
        assert sol.u.values.min() > 0.0


class TestStarts:
    """One start from u = 1 is the default; random starts are opt-in."""

    # coarse copies of the benchmark inputs: the reference, the criterion-7
    # pair, gamma 4 / p 1.8 / q 3, and the linear testbed p = q = 2
    CASES = {
        "ref": dict(n=2, gamma=3.0, p=1.5, q=2.0, usage="steklov"),
        "c7-cusp": dict(n=2, gamma=2.5, p=1.25, q=1.6, usage="steklov"),
        "c7-simplex": dict(n=2, gamma=2.0, p=1.25, q=1.6, theta=0.0,
                           simplex=True, usage="steklov"),
        "g4": dict(n=2, gamma=4.0, p=1.8, q=3.0, usage="steklov"),
        "pq2": dict(n=2, gamma=3.0, p=2.0, q=2.0, theta=2.0, usage="discrete"),
    }

    def test_default_is_one_start(self, small_mesh, p1_params):
        assert SolverOptions().restarts == 1
        sol = minimize_rayleigh(small_mesh, p1_params)
        assert sol.restarts == 1
        assert sol.start_spread is None

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_start_matches_four(self, case):
        params = validate_params(**self.CASES[case])
        grid = generate_cusp_mesh(params, levels=5, rows_per_strip=8)
        one = minimize_rayleigh(grid, params, SolverOptions(restarts=1))
        four = minimize_rayleigh(grid, params, SolverOptions(restarts=4))
        assert one.converged and four.converged
        assert abs(one.lam - four.lam) <= 1e-10 * four.lam
        assert four.restarts == 4
        assert 0.0 <= four.start_spread <= 1e-10


class TestWeakResidual:
    def test_oracle_pair_is_stationary(self, small_mesh):
        params = _discrete(2.0)
        lam, u = linear_oracle(small_mesh, theta=2.0)
        assert weak_residual(small_mesh, (u, lam), params) < 1e-10

    def test_perturbation_raises_residual(self, small_mesh, rng):
        params = _discrete(2.0)
        lam, u = linear_oracle(small_mesh, theta=2.0)
        base = weak_residual(small_mesh, (u, lam), params)
        noisy = u.values * (1.0 + 0.01 * rng.standard_normal(u.values.size))
        noisy_res = weak_residual(small_mesh, (noisy, lam), params)
        assert noisy_res > 10 * max(base, 1e-12)

    def test_solver_pair_matches_reported_residual(self, small_mesh):
        # the default reg_eps is the solver's, so the pair the solver returns
        # has the residual the solver reports
        params = _discrete(2.0)
        sol = minimize_rayleigh(small_mesh, params,
                                SolverOptions(tol_rel=1e-9, restarts=1))
        assert weak_residual(small_mesh, (sol.u, sol.lam), params) == pytest.approx(
            sol.residual, rel=1e-9)

    def test_zero_function_rejected(self, small_mesh):
        params = _discrete(2.0)
        with pytest.raises(ZeroTrace):
            weak_residual(small_mesh,
                          (np.zeros(small_mesh.num_vertices), 1.0), params)


class TestTraceConstant:
    def test_direct_power(self):
        params = validate_params(2, 3.0, 1.5, 2.0, usage="steklov")
        out = trace_constant(16.0, validate_params(3, 4.0, 2.0, 3.0,
                                                   usage="steklov"))
        assert out.c_tr == pytest.approx(16.0 ** -0.5, rel=1e-15)

    def test_p2_factor(self):
        params = validate_params(3, 4.0, 2.0, 3.0, usage="steklov")
        out = trace_constant(1.0, params)
        assert out.bound_factor == pytest.approx(2 ** (1 / 6) * math.sqrt(2.375),
                                                 rel=1e-12)
        assert out.bound_factor == pytest.approx(1.72983, abs=5e-6)

    def test_p1_factor(self):
        params = validate_params(2, 3.0, 1.5, 2.0, usage="steklov")
        out = trace_constant(1.0, params)
        assert out.bound_factor == pytest.approx(3 ** (1 / 6) * math.sqrt(11 / 9),
                                                 rel=1e-12)
        assert out.bound_factor == pytest.approx(1.32770, abs=2e-5)
