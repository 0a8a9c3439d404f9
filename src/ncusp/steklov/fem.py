"""P1 finite elements on graded cusp meshes: functionals, gradients, matrices.

The energy is the regularized p-Dirichlet integrand plus the zero-order
term,

    E(u) = sum_T area_T * (|grad u|^2 + eps^2)^(p/2)
         + sum_T area_T * sum_q w_q (u(x_q)^2 + eps^2)^(p/2),

and the boundary functional integrates the matching regularization of
|u|^q against the weight x2**theta along boundary edges. Every matrix is
summed from element data into one fixed CSR pattern; at p = q = 2, half the
metric is K + M and half the boundary Hessian at u = 1 is the weighted
boundary mass, the pencil of the linear problem. Edges touching the origin
use the graded interval rule so the power weight is integrated accurately
along the two tip edges. The values of u per triangle
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


class FemWorkspace:
    """Precomputed P1 element arrays and quadrature for one (mesh, theta, p, q) setup.

    A nodal vector u is gathered per triangle, ``u[triangles]``, and per
    boundary quadrature point, ``u[edge_ends.T]``; nodal gradients are
    scattered back with one ``np.bincount`` over the same indices. The element
    arrays hold one row per local vertex or quadrature point, so that every
    operation runs along rows of nt or ne_q entries:

    triangles     (3, nt)     vertex indices of every triangle
    _gx, _gy      (3, nt)     x1 and x2 components of the P1 basis gradients
    _bary         (kq, 3)     barycentric coordinates of the triangle rule
    tri_w         (kq, nt)    weight of every triangle quadrature point
    edge_ends     (ne_q, 2)   the ends of the edge of every boundary point
    edge_lam      (2, ne_q)   their weights 1 - lam and lam at the point
    edge_wf       (ne_q,)     the point's weight times x2**theta

    No sparse matrix or operator is kept: the workspace holds 3.4 MB at
    levels 10, and the gradient, interpolation and edge operators with the
    transposes that make their products fast would take 7.1 MB.
    Element matrices (the metric and the Hessian, (9, nt); the boundary
    Hessian, (4, ne_q)) are summed element by element into one fixed CSR
    pattern, ``_indices`` and ``_indptr``, so the matrices built from it share
    them and can be combined through their data arrays.
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
        self.triangles = np.ascontiguousarray(tris.T)
        nt, nv = mesh.num_triangles, mesh.num_vertices
        self.num_dof = nv
        self.areas, self._gx, self._gy = p1_geometry(mesh)
        rule = triangle_rule(TRI_ORDER)
        self._bary = rule.barycentric
        self.tri_w = rule.weights[:, None] * self.areas

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
        qp_ends = [np.repeat(ends[away], xg.size, axis=0)]
        qp_lam = [np.tile(xg, int(away.sum()))]
        qp_wf = [(wg * length[away][:, None] * heights ** self.theta).ravel()]
        for k in np.flatnonzero(~away):
            # parametrize from the origin towards the other endpoint
            s = tip_rule.nodes
            far_end = vj[k] if at_origin_i[k] else vi[k]
            qp_ends.append(np.repeat(ends[k:k + 1], s.size, axis=0))
            # lam is the fraction of endpoint j
            qp_lam.append(s if at_origin_i[k] else 1.0 - s)
            qp_wf.append(tip_rule.weights * length[k] * (s * far_end[1]) ** self.theta)
        self.edge_ends = np.concatenate(qp_ends)
        edge_lam = np.concatenate(qp_lam)
        self.edge_lam = np.stack([1.0 - edge_lam, edge_lam])
        self.edge_wf = np.concatenate(qp_wf)

        # _slot maps every entry of the element matrices, triangle by triangle,
        # to its place in the data of the fixed CSR pattern
        keys, self._slot = np.unique((tris[:, :, None] * nv + tris[:, None, :]).ravel(),
                                     return_inverse=True)
        self._indices = keys % nv
        self._indptr = np.searchsorted(keys, np.arange(nv + 1) * nv)
        gx, gy = self._gx, self._gy
        self._grad_gram = ((gx[:, None] * gx[None, :] + gy[:, None] * gy[None, :])
                           * self.areas).reshape(9, nt)
        self._bary_outer = np.einsum("qi,qj->ijq", self._bary, self._bary).reshape(9, -1)
        # the same for the 2x2 element matrices of the boundary quadrature
        # points, which couple the two ends of a boundary edge
        pair = self.edge_ends
        edge_keys = (np.repeat(pair, 2, axis=1) * nv + np.tile(pair, (1, 2))).ravel()
        self._edge_slot = np.searchsorted(keys, edge_keys)
        if not np.array_equal(keys[np.minimum(self._edge_slot, keys.size - 1)],
                              edge_keys):
            raise RangeViolation("boundary_edges", "every boundary edge is a triangle edge")
        self._edge_outer = (self.edge_lam[:, None] * self.edge_lam[None, :]).reshape(4, -1)

    # -- matrices ----------------------------------------------------------

    def _sum(self, local: np.ndarray, slot: np.ndarray | None = None) -> np.ndarray:
        """Sum element matrices, (9, nt) or with their own slot map, into the
        data of the fixed nodal CSR pattern, element by element."""
        return np.bincount(self._slot if slot is None else slot,
                           weights=local.T.ravel(), minlength=self._indices.size)

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
        return float(np.dot(self.edge_wf, self.at(u, 0.0).uv))

    def residual(self, e: float, ge: np.ndarray, gb: np.ndarray, lam: float) -> float:
        """Scaled sup-norm of the weak-form residual over nodal test functions,
        from the energy e, its gradient ge and the boundary gradient gb at u."""
        r = ge / self.p - lam * gb / self.q
        return float(np.max(np.abs(r)) / max(1.0, e))


class QuadValues:
    """A nodal function u with its values at a workspace's quadrature points.

    Every part is computed on first use and kept, so all functionals,
    gradients and matrices at u share one gather of u and one power per
    quadrature point:

    U         (3, nt)     u at the vertices of every triangle
    gu        (2, nt)     grad u per triangle, x1 row then x2 row
    uv        (ne_q,)     u at the boundary quadrature points
    s, b                  |grad u|^2 + eps^2 and uv^2 + eps^2
    s_pow, b_pow          s^(p/2-1) and b^(q/2-1)
    m_pow     (kq, nt)    m^(p/2-1), m = uq^2 + eps^2 with uq = bary U the
                          values at the triangle quadrature points

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
        """The values of u / c: u and the values gathered or derived so far
        are divided by c, and u is not gathered again."""
        out = QuadValues(self.ws, self.u / c, self.reg_eps)
        # a cached_property keeps its value in the instance __dict__, and an
        # attribute set there is what it returns
        for name in ("U", "gu", "uv"):
            if name in self.__dict__:
                setattr(out, name, self.__dict__[name] / c)
        return out

    # -- values at the quadrature points -------------------------------------

    @cached_property
    def U(self) -> np.ndarray:
        return self.u[self.ws.triangles]

    @cached_property
    def gu(self) -> np.ndarray:
        ws, U = self.ws, self.U
        gx, gy = ws._gx, ws._gy
        return np.stack([gx[0] * U[0] + gx[1] * U[1] + gx[2] * U[2],
                         gy[0] * U[0] + gy[1] * U[1] + gy[2] * U[2]])

    @cached_property
    def uv(self) -> np.ndarray:
        ue, lam = self.u[self.ws.edge_ends.T], self.ws.edge_lam
        return ue[0] * lam[0] + ue[1] * lam[1]

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
        """uq and m at the triangle quadrature points, (kq, nt), taken afresh."""
        uq = self.ws._bary @ self.U
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
        value = (float(np.dot(ws.areas, self.s * self.s_pow))
                 + float(np.dot(ws.tri_w.ravel(), m.ravel())))
        del m
        a = p * ws.areas * self.s_pow
        local = ws._bary.T @ (p * ws.tri_w * m_pow * uq)
        local += (a * self.gu[0]) * ws._gx
        local += (a * self.gu[1]) * ws._gy
        grad = np.bincount(ws.triangles.ravel(), weights=local.ravel(), minlength=ws.num_dof)
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
        w = ws.q * ws.edge_wf * self.b_pow * self.uv
        return np.bincount(ws.edge_ends.ravel(), weights=(w * ws.edge_lam).T.ravel(),
                           minlength=ws.num_dof)

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
        return ws._sum((p * self.s_pow) * ws._grad_gram
                       + ws._bary_outer @ (p * self.m_pow * ws.tri_w))

    def hessian_data(self) -> np.ndarray:
        """Exact Hessian of the regularized energy.

        The element matrix is the metric's gradient part plus the rank-one
        term area p (p-2) s^(p/2-2) (G grad u)(G grad u)^T, G the P1 basis
        gradients, and the mass weight is p m^(p/2-2) ((p-1) u^2 + eps^2).
        """
        ws, p = self.ws, self.ws.p
        s = self.s
        v = ws._gx * self.gu[0] + ws._gy * self.gu[1]
        # summed in place: fewer arrays of this size at once lower a solve's peak memory
        local = (v[:, None] * v[None, :]).reshape(9, s.size)
        local *= p * (p - 2.0) * ws.areas * _over(self.s_pow, s)
        local += (p * self.s_pow) * ws._grad_gram
        uq, m = self._interior()
        local += ws._bary_outer @ (p * _over(self.m_pow, m) * ((p - 1.0) * (uq * uq) + self.eps2)
                                   * ws.tri_w)
        return ws._sum(local)

    def boundary_hessian_data(self) -> np.ndarray:
        """Exact Hessian of the boundary functional: w (1 - lam, lam)^T
        (1 - lam, lam) on the ends of each boundary quadrature point, with
        w = edge_wf q b^(q/2-2) ((q-1) u^2 + eps^2)."""
        ws, q = self.ws, self.ws.q
        w = q * ws.edge_wf * _over(self.b_pow, self.b) * ((q - 1.0) * self.uv * self.uv
                                                          + self.eps2)
        return ws._sum(w * ws._edge_outer, ws._edge_slot)


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
