"""P1 finite elements on graded cusp meshes: functionals, gradients, matrices.

The energy is the regularized p-Dirichlet integrand plus the zero-order
term,

    E(u) = sum_T area_T * (|grad u|^2 + eps^2)^(p/2)
         + sum_T area_T * sum_q w_q (u(x_q)^2 + eps^2)^(p/2),

and the boundary functional integrates the matching regularization of
|u|^q against the weight x2**theta along boundary edges. The same edge
quadrature builds the weighted boundary mass matrix, so the p = q = 2
functionals agree with the assembled matrices to machine precision. Edges
touching the origin use the graded interval rule so the power weight is
integrated accurately along the two tip edges. The values of u per triangle
and at the boundary quadrature points are taken once per u (`QuadValues`)
and shared by every functional, gradient and matrix at it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..errors import RangeViolation, ZeroTrace
from ..geometry import DomainParams
from ..quadrature import gauss_nodes_01, graded_interval_rule, triangle_rule
from .mesh import TriMesh, p1_geometry
from .options import SolverOptions

__all__ = [
    "FemFunction",
    "FemWorkspace",
    "workspace_for",
    "assemble_functionals",
    "rayleigh_quotient",
    "weak_residual",
]

# Gauss points per boundary edge, the triangle rule's order, and the graded
# rule's panels on the (at most two) edges that end at the origin
EDGE_ORDER = 10
TRI_ORDER = 5
TIP_RULE_PANELS = 30


@dataclass(frozen=True)
class FemFunction:
    """Piecewise-linear nodal function on a triangulation."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.mesh.num_vertices,):
            raise RangeViolation("values", "one value per mesh vertex")


def _over(s_pow: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s**(e - 1) from s_pow = s**e, as s_pow / s without a second power.

    It is 0 where s vanishes (only possible with reg_eps = 0); there it
    multiplies a zero gradient or value, so the product is 0 either way.
    """
    return np.divide(s_pow, s, out=np.zeros_like(s), where=s > 0.0)


def _power(s: np.ndarray, e: float) -> np.ndarray:
    """s**e, and 0 where s vanishes and e < 0 (only possible with reg_eps = 0):
    as in `_over`, it multiplies a zero gradient or value there."""
    with np.errstate(divide="ignore"):
        out = s ** e
    if e < 0.0:
        out[s == 0.0] = 0.0
    return out


def _with_transpose(op: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    return op, op.T.tocsr()


class FemWorkspace:
    """Precomputed P1 operators and quadrature for one (mesh, theta, p, q) setup.

    Three sparse operators take nodal values to the values every functional
    integrates:

    grad_op    (2 nt, nv)     both gradient components, x1 rows then x2 rows
    interp_op  (nt kq, nv)    values at the kq triangle quadrature points
    edge_op    (ne_q, nv)     values at the boundary quadrature points

    The transposes scatter pointwise derivatives back to nodal gradients.
    Those of grad_op and edge_op are stored, which makes the product about
    twice as fast. That of interp_op is not: it would be the largest array of
    the workspace (1.9 MB at levels 10), and the product through
    ``interp_op.T`` gives the same bits, 0.15 ms slower at levels 10.
    Element matrices (stiffness, mass, the metric, both Hessians) are summed
    into one fixed CSR pattern, so the matrices built from it share indices
    and indptr and can be combined through their data arrays; the boundary
    mass is edge_op^T diag(edge_wf) edge_op.
    """

    def __init__(self, mesh: TriMesh, theta: float, p: float, q: float):
        # no reference to the mesh is kept: the cache below is keyed weakly
        # on it, and a reference from its value would keep both alive forever
        self.theta = float(theta)
        if not self.theta > -1.0:
            raise RangeViolation("theta", "theta > -1, so that the boundary weight "
                                 "x_2**theta is integrable at the tip")
        self.p = float(p)
        self.q = float(q)

        verts = mesh.vertices
        tris = mesh.triangles
        nt, nv = mesh.num_triangles, mesh.num_vertices
        self.num_dof = nv
        self.areas, self._grads = p1_geometry(mesh)
        grads = self._grads
        rule = triangle_rule(TRI_ORDER)
        kq = rule.weights.size

        # flattened boundary quadrature: Gauss points on every edge away
        # from the origin, the graded rule on the (at most two) tip edges
        xg, wg = gauss_nodes_01(EDGE_ORDER)
        tip_rule = graded_interval_rule(min(0.0, self.theta), panels=TIP_RULE_PANELS)
        ends = mesh.boundary_edges
        vi, vj = verts[ends[:, 0]], verts[ends[:, 1]]
        length = np.linalg.norm(vj - vi, axis=1)
        at_origin_i = (vi == 0.0).all(axis=1)
        at_origin_j = (vj == 0.0).all(axis=1)
        away = ~(at_origin_i | at_origin_j)
        heights = vi[away, 1][:, None] * (1.0 - xg) + vj[away, 1][:, None] * xg
        qp_i = [np.repeat(ends[away, 0], xg.size)]
        qp_j = [np.repeat(ends[away, 1], xg.size)]
        qp_lam = [np.tile(xg, int(away.sum()))]
        qp_wf = [(wg * length[away][:, None] * heights ** self.theta).ravel()]
        for k in np.flatnonzero(~away):
            # parametrize from the origin towards the other endpoint
            s = tip_rule.nodes
            far_end = vj[k] if at_origin_i[k] else vi[k]
            qp_i.append(np.full(s.shape, ends[k, 0]))
            qp_j.append(np.full(s.shape, ends[k, 1]))
            # lam is the fraction of endpoint j
            qp_lam.append(s if at_origin_i[k] else 1.0 - s)
            qp_wf.append(tip_rule.weights * length[k] * (s * far_end[1]) ** self.theta)
        edge_i = np.concatenate(qp_i)
        edge_j = np.concatenate(qp_j)
        edge_lam = np.concatenate(qp_lam)
        self.edge_wf = np.concatenate(qp_wf)
        ne = edge_lam.size

        self.grad_op, self._grad_op_t = _with_transpose(sp.csr_matrix(
            (np.concatenate([grads[:, :, 0], grads[:, :, 1]]).ravel(),
             (np.repeat(np.arange(2 * nt), 3), np.tile(tris, (2, 1)).ravel())),
            shape=(2 * nt, nv)))
        self.interp_op = sp.csr_matrix(
            (np.tile(rule.barycentric.ravel(), nt),
             (np.repeat(np.arange(nt * kq), 3), np.repeat(tris, kq, axis=0).ravel())),
            shape=(nt * kq, nv))
        self.edge_op, self._edge_op_t = _with_transpose(sp.csr_matrix(
            (np.stack([1.0 - edge_lam, edge_lam], axis=1).ravel(),
             (np.repeat(np.arange(ne), 2), np.stack([edge_i, edge_j], axis=1).ravel())),
            shape=(ne, nv)))
        # quadrature weight of every row of interp_op
        self.interp_w = (self.areas[:, None] * rule.weights[None, :]).ravel()

        # _slot maps every entry of the element matrices (nt, 9) to its
        # place in the data of the fixed CSR pattern
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        keys, self._slot = np.unique(rows * nv + cols, return_inverse=True)
        self._indices = keys % nv
        self._indptr = np.searchsorted(keys, np.arange(nv + 1) * nv)
        self._grad_gram = np.einsum("tid,tjd->tij", grads, grads).reshape(nt, 9) \
            * self.areas[:, None]
        self._bary_outer = np.einsum("qi,qj->qij", rule.barycentric,
                                     rule.barycentric).reshape(kq, 9)
        # the same for the 2x2 element matrices of the boundary quadrature
        # points, which couple the two ends of a boundary edge
        pair = np.stack([edge_i, edge_j], axis=1)
        edge_keys = (np.repeat(pair, 2, axis=1) * nv + np.tile(pair, (1, 2))).ravel()
        self._edge_slot = np.searchsorted(keys, edge_keys)
        if not np.array_equal(keys[np.minimum(self._edge_slot, keys.size - 1)],
                              edge_keys):
            raise RangeViolation("boundary_edges", "every boundary edge is a triangle edge")
        lam_pair = np.stack([1.0 - edge_lam, edge_lam], axis=1)
        self._edge_outer = (lam_pair[:, :, None] * lam_pair[:, None, :]).reshape(ne, 4)
        self.stiffness = self._csr(self._sum(self._grad_gram))

    # -- matrices ----------------------------------------------------------

    # the two mass matrices serve the p = q = 2 oracle, and are made on first use
    @cached_property
    def mass(self) -> sp.csr_matrix:
        return self._csr(self._sum(
            self.areas[:, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0).ravel()))

    @cached_property
    def boundary_mass(self) -> sp.csr_matrix:
        return (self._edge_op_t @ sp.diags(self.edge_wf) @ self.edge_op).tocsr()

    def _sum(self, local: np.ndarray, slot: np.ndarray | None = None) -> np.ndarray:
        """Sum element matrices, (nt, 9) or with their own slot map, into the
        data of the fixed nodal CSR pattern."""
        return np.bincount(self._slot if slot is None else slot,
                           weights=local.ravel(), minlength=self._indices.size)

    def _csr(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(self.num_dof, self.num_dof))

    def at(self, u: np.ndarray, reg_eps: float) -> "QuadValues":
        """u with its values at the quadrature points, computed on first use."""
        return QuadValues(self, u, reg_eps)

    def metric_matrix(self, u: np.ndarray, reg_eps: float) -> sp.csr_matrix:
        """Lagged-diffusivity metric at u (see `QuadValues.metric_data`)."""
        return self._csr(self.at(u, reg_eps).metric_data())

    # -- functionals ---------------------------------------------------------

    def energy(self, u: np.ndarray, reg_eps: float) -> tuple[float, np.ndarray]:
        """Regularized energy and its exact nodal gradient."""
        vals = self.at(u, reg_eps)
        return vals.E, vals.grad_E

    def boundary(self, u: np.ndarray, reg_eps: float) -> tuple[float, np.ndarray]:
        """Regularized weighted boundary functional and its nodal gradient."""
        vals = self.at(u, reg_eps)
        return vals.B, vals.grad_B

    def trace_integral(self, u: np.ndarray) -> float:
        """Weighted trace integral of u (sign-normalization functional)."""
        return float(np.dot(self.edge_wf, self.edge_op @ u))

    def residual(self, e: float, ge: np.ndarray, gb: np.ndarray, lam: float) -> float:
        """Scaled sup-norm of the weak-form residual over nodal test functions,
        from the energy e, its gradient ge and the boundary gradient gb at u."""
        r = ge / self.p - lam * gb / self.q
        return float(np.max(np.abs(r)) / max(1.0, e))


class QuadValues:
    """A nodal function u with its values at a workspace's quadrature points.

    Every part is computed on first use and kept, so all functionals,
    gradients and matrices at u share one product with each operator and one
    power per quadrature point:

    gu        (2, nt)     grad u per triangle, x1 row then x2 row
    uv        (ne_q,)     u at the boundary quadrature points
    s, b                  |grad u|^2 + eps^2 and uv^2 + eps^2
    s_pow, b_pow          s^(p/2-1) and b^(q/2-1)
    m_pow     (nt kq,)    m^(p/2-1), m = uq^2 + eps^2 with uq the values at
                          the triangle quadrature points

    and from them the energy ``E``, the boundary functional ``B``, their
    nodal gradients, the quotient ``lam`` and the weak residual ``res``.
    uq and m themselves are not kept (`_interior`): there are kq per
    triangle, and keeping them on the two iterates that a chord step holds
    next to its factor raised the peak memory of a solve. The energy and its
    gradient take them in one pass with m_pow; the Hessian takes them again.
    """

    def __init__(self, ws: FemWorkspace, u: np.ndarray, reg_eps: float):
        self.ws = ws
        self.u = u
        self.reg_eps = reg_eps
        self.eps2 = reg_eps * reg_eps

    def scaled(self, c: float) -> "QuadValues":
        """The values of u / c: u and the operator products taken so far are
        divided by c, and no operator is applied again."""
        out = QuadValues(self.ws, self.u / c, self.reg_eps)
        # a cached_property keeps its value in the instance __dict__, and an
        # attribute set there is what it returns
        for name in ("gu", "uv"):
            if name in self.__dict__:
                setattr(out, name, self.__dict__[name] / c)
        return out

    # -- values at the quadrature points -------------------------------------

    @cached_property
    def gu(self) -> np.ndarray:
        return (self.ws.grad_op @ self.u).reshape(2, -1)

    @cached_property
    def uv(self) -> np.ndarray:
        return self.ws.edge_op @ self.u

    @cached_property
    def s(self) -> np.ndarray:
        gu = self.gu
        return gu[0] * gu[0] + gu[1] * gu[1] + self.eps2

    @cached_property
    def b(self) -> np.ndarray:
        return self.uv * self.uv + self.eps2

    @cached_property
    def s_pow(self) -> np.ndarray:
        return _power(self.s, 0.5 * self.ws.p - 1.0)

    @cached_property
    def b_pow(self) -> np.ndarray:
        return _power(self.b, 0.5 * self.ws.q - 1.0)

    def _interior(self) -> tuple[np.ndarray, np.ndarray]:
        """uq and m at the triangle quadrature points, taken afresh."""
        uq = self.ws.interp_op @ self.u
        return uq, uq * uq + self.eps2

    # -- functionals and gradients -------------------------------------------

    @cached_property
    def _energy(self) -> tuple[float, np.ndarray, np.ndarray]:
        """E, grad E and m_pow, from one pass over the triangle quadrature
        points."""
        ws, p = self.ws, self.ws.p
        uq, m = self._interior()
        m_pow = _power(m, 0.5 * p - 1.0)
        # m is overwritten by m^(p/2) and then dropped, to hold fewer arrays
        # of this size at once
        m *= m_pow
        value = float(np.dot(ws.areas, self.s * self.s_pow)) + float(np.dot(ws.interp_w, m))
        del m
        grad = ws._grad_op_t @ ((p * ws.areas * self.s_pow) * self.gu).ravel()
        grad += ws.interp_op.T @ (p * ws.interp_w * m_pow * uq)
        return value, grad, m_pow

    @property
    def m_pow(self) -> np.ndarray:
        return self._energy[2]

    @property
    def E(self) -> float:
        """Regularized energy."""
        return self._energy[0]

    @property
    def grad_E(self) -> np.ndarray:
        """Exact nodal gradient of the energy."""
        return self._energy[1]

    @cached_property
    def B(self) -> float:
        """Regularized weighted boundary functional."""
        return float(np.dot(self.ws.edge_wf, self.b * self.b_pow))

    @cached_property
    def grad_B(self) -> np.ndarray:
        """Exact nodal gradient of the boundary functional."""
        ws = self.ws
        return ws._edge_op_t @ (ws.q * ws.edge_wf * self.b_pow * self.uv)

    @cached_property
    def lam(self) -> float:
        """Rayleigh quotient E / B^(p/q)."""
        return self.E / self.B ** (self.ws.p / self.ws.q)

    @cached_property
    def res(self) -> float:
        """Weak residual at the quotient (`FemWorkspace.residual`)."""
        return self.ws.residual(self.E, self.grad_E, self.grad_B, self.lam)

    # -- matrices, as data of the workspace's fixed CSR pattern --------------

    def metric_data(self) -> np.ndarray:
        """Lagged-diffusivity metric: stiffness and mass weighted by the
        regularized p-Laplacian coefficients p s_pow and p m_pow, so that
        metric @ u = grad_E."""
        ws, p = self.ws, self.ws.p
        mw = p * self.m_pow * ws.interp_w
        return ws._sum((p * self.s_pow)[:, None] * ws._grad_gram
                       + mw.reshape(self.s.size, -1) @ ws._bary_outer)

    def hessian_data(self) -> np.ndarray:
        """Exact Hessian of the regularized energy.

        The element matrix is the metric's gradient part plus the rank-one
        term area p (p-2) s^(p/2-2) (G grad u)(G grad u)^T, G the P1 basis
        gradients, and the mass weight is p m^(p/2-2) ((p-1) u^2 + eps^2).
        """
        ws, p = self.ws, self.ws.p
        s = self.s
        v = np.einsum("tid,dt->ti", ws._grads, self.gu)
        # summed in place: fewer arrays of this size at once lower a solve's peak memory
        local = (v[:, :, None] * v[:, None, :]).reshape(s.size, 9)
        local *= (p * (p - 2.0) * ws.areas * _over(self.s_pow, s))[:, None]
        local += (p * self.s_pow)[:, None] * ws._grad_gram
        uq, m = self._interior()
        local += (p * _over(self.m_pow, m) * ((p - 1.0) * (uq * uq) + self.eps2)
                  * ws.interp_w).reshape(s.size, -1) @ ws._bary_outer
        return ws._sum(local)

    def boundary_hessian_data(self) -> np.ndarray:
        """Exact Hessian of the boundary functional:
        edge_op^T diag(w) edge_op with w = edge_wf q b^(q/2-2) ((q-1) u^2 + eps^2)
        at each boundary quadrature point."""
        ws, q = self.ws, self.ws.q
        w = q * ws.edge_wf * _over(self.b_pow, self.b) * ((q - 1.0) * self.uv * self.uv
                                                          + self.eps2)
        return ws._sum(w[:, None] * ws._edge_outer, ws._edge_slot)


_WORKSPACES: "weakref.WeakKeyDictionary[TriMesh, dict]" = weakref.WeakKeyDictionary()


def _cached_workspace(mesh: TriMesh, theta: float, p: float, q: float) -> FemWorkspace:
    key = (float(theta), float(p), float(q))
    per_mesh = _WORKSPACES.setdefault(mesh, {})
    ws = per_mesh.get(key)
    if ws is None:
        ws = FemWorkspace(mesh, theta, p, q)
        per_mesh[key] = ws
    return ws


def workspace_for(mesh: TriMesh, params: DomainParams) -> FemWorkspace:
    """Cached workspace for the mesh and the (theta, p, q) of params."""
    return _cached_workspace(mesh, params.theta, params.p, params.q)


def _values_of(u) -> np.ndarray:
    return u.values if isinstance(u, FemFunction) else np.asarray(u, dtype=float)


def assemble_functionals(mesh: TriMesh, u, params: DomainParams,
                         reg_eps: float = SolverOptions.reg_eps):
    """Energy, boundary functional, and their exact gradients at u.

    Returns (E, grad_E, B, grad_B) of the regularized discrete functionals;
    the gradients differentiate exactly what the values integrate, so
    central differences of the values reproduce them.
    """
    vals = workspace_for(mesh, params).at(_values_of(u), reg_eps)
    return vals.E, vals.grad_E, vals.B, vals.grad_B


def rayleigh_quotient(mesh: TriMesh, u, params: DomainParams) -> float:
    """Unregularized Rayleigh quotient E(u) / B(u)^(p/q); exactly homogeneous."""
    vals = workspace_for(mesh, params).at(_values_of(u), 0.0)
    if vals.B <= 0.0:
        raise ZeroTrace("boundary trace vanishes; Rayleigh quotient undefined")
    return vals.lam


def weak_residual(mesh: TriMesh, pair, params: DomainParams,
                  reg_eps: float = SolverOptions.reg_eps) -> float:
    """Weak-form residual of an eigenpair candidate ``pair = (u, lambda)``,
    normalized by max(1, E).

    The residual uses the same regularized integrands as
    assemble_functionals, and the solver's default ``reg_eps``.
    """
    u, lam = pair
    ws = workspace_for(mesh, params)
    u = _values_of(u)
    if ws.at(u, 0.0).B <= 0.0:
        raise ZeroTrace("residual is defined for unit-boundary-norm candidates")
    vals = ws.at(u, reg_eps)
    return ws.residual(vals.E, vals.grad_E, vals.grad_B, float(lam))
