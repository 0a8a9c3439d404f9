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
integrated accurately along the two tip edges.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import RangeViolation, ZeroTrace
from ..geometry import DomainParams
from ..quadrature import gauss_nodes_01, graded_interval_rule, triangle_rule
from .mesh import TriMesh, p1_geometry

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


def _with_transpose(op: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    return op, op.T.tocsr()


class FemWorkspace:
    """Precomputed P1 operators and quadrature for one (mesh, theta, p, q) setup.

    Three sparse operators, each stored with its transpose, take nodal values
    to the values every functional integrates:

    grad_op    (2 nt, nv)     both gradient components, x1 rows then x2 rows
    interp_op  (nt kq, nv)    values at the kq triangle quadrature points
    edge_op    (ne_q, nv)     values at the boundary quadrature points

    The transposes scatter pointwise derivatives back to nodal gradients.
    Element matrices (stiffness, mass, the metric, both Hessians) are summed
    into one fixed CSR pattern, so the matrices built from it share indices
    and indptr and can be combined through their data arrays; the boundary
    mass is edge_op^T diag(edge_wf) edge_op.
    """

    def __init__(self, mesh: TriMesh, theta: float, p: float, q: float):
        # no reference to the mesh is kept: the cache below is keyed weakly
        # on it, and a reference from its value would keep both alive forever
        self.theta = float(theta)
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
        self.interp_op, self._interp_op_t = _with_transpose(sp.csr_matrix(
            (np.tile(rule.barycentric.ravel(), nt),
             (np.repeat(np.arange(nt * kq), 3), np.repeat(tris, kq, axis=0).ravel())),
            shape=(nt * kq, nv)))
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
        self.stiffness = self._assemble(self._grad_gram)
        self.mass = self._assemble(
            self.areas[:, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0).ravel())
        self.boundary_mass = (self._edge_op_t @ sp.diags(self.edge_wf)
                              @ self.edge_op).tocsr()

    # -- matrices ----------------------------------------------------------

    def _assemble(self, local: np.ndarray, slot: np.ndarray | None = None) -> sp.csr_matrix:
        """Sum element matrices, (nt, 9) or with their own slot map, into the
        fixed nodal CSR pattern."""
        data = np.bincount(self._slot if slot is None else slot,
                           weights=local.ravel(), minlength=self._indices.size)
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(self.num_dof, self.num_dof))

    def metric_matrix(self, u: np.ndarray, reg_eps: float) -> sp.csr_matrix:
        """Lagged-diffusivity metric: stiffness and mass weighted by the
        current iterate's regularized p-Laplacian coefficients."""
        p = self.p
        eps2 = reg_eps * reg_eps
        gu = (self.grad_op @ u).reshape(2, -1)
        wk = p * (gu[0] * gu[0] + gu[1] * gu[1] + eps2) ** (0.5 * p - 1.0)
        uq = self.interp_op @ u
        mw = p * (uq * uq + eps2) ** (0.5 * p - 1.0) * self.interp_w
        return self._assemble(wk[:, None] * self._grad_gram
                              + mw.reshape(wk.size, -1) @ self._bary_outer)

    def hessian(self, u: np.ndarray, reg_eps: float) -> sp.csr_matrix:
        """Exact Hessian of the regularized energy at u.

        With s = |grad u|^2 + eps^2 on a triangle and m = u^2 + eps^2 at a
        quadrature point, the element matrix is the metric's gradient part
        plus the rank-one term area p (p-2) s^(p/2-2) (G grad u)(G grad u)^T,
        G the P1 basis gradients, and the mass weight is
        p m^(p/2-2) ((p-1) u^2 + eps^2).
        """
        p = self.p
        eps2 = reg_eps * reg_eps
        gu = (self.grad_op @ u).reshape(2, -1)
        s = gu[0] * gu[0] + gu[1] * gu[1] + eps2
        s_pow = s ** (0.5 * p - 1.0)
        v = np.einsum("tid,dt->ti", self._grads, gu)
        rank_one = (p * (p - 2.0) * self.areas * _over(s_pow, s))[:, None] \
            * (v[:, :, None] * v[:, None, :]).reshape(s.size, 9)
        uq = self.interp_op @ u
        m = uq * uq + eps2
        mw = p * _over(m ** (0.5 * p - 1.0), m) * ((p - 1.0) * uq * uq + eps2) \
            * self.interp_w
        return self._assemble((p * s_pow)[:, None] * self._grad_gram + rank_one
                              + mw.reshape(s.size, -1) @ self._bary_outer)

    def boundary_hessian(self, u: np.ndarray, reg_eps: float) -> sp.csr_matrix:
        """Exact Hessian of the boundary functional at u:
        edge_op^T diag(w) edge_op with w = edge_wf q b^(q/2-2) ((q-1) u^2 + eps^2),
        b = u^2 + eps^2 at each boundary quadrature point."""
        q = self.q
        eps2 = reg_eps * reg_eps
        uv = self.edge_op @ u
        b = uv * uv + eps2
        w = q * self.edge_wf * _over(_over(b ** (0.5 * q), b), b) \
            * ((q - 1.0) * uv * uv + eps2)
        return self._assemble(w[:, None] * self._edge_outer, self._edge_slot)

    # -- functionals ---------------------------------------------------------

    def energy(self, u: np.ndarray, reg_eps: float, with_grad: bool = True):
        """Regularized energy and (optionally) its exact nodal gradient."""
        p = self.p
        eps2 = reg_eps * reg_eps
        gu = (self.grad_op @ u).reshape(2, -1)               # (2, nt)
        g2 = gu[0] * gu[0] + gu[1] * gu[1] + eps2
        uq = self.interp_op @ u                             # (nt kq,)
        m2 = uq * uq + eps2
        g2p = g2 ** (0.5 * p)
        m2p = m2 ** (0.5 * p)
        value = float(np.dot(self.areas, g2p)) + float(np.dot(self.interp_w, m2p))
        if not with_grad:
            return value, None
        grad = self._grad_op_t @ ((p * self.areas * _over(g2p, g2)) * gu).ravel()
        grad += self._interp_op_t @ (p * self.interp_w * _over(m2p, m2) * uq)
        return value, grad

    def boundary(self, u: np.ndarray, reg_eps: float, with_grad: bool = True):
        """Regularized weighted boundary functional and its nodal gradient."""
        q = self.q
        uv = self.edge_op @ u
        b2 = uv * uv + reg_eps * reg_eps
        b2q = b2 ** (0.5 * q)
        value = float(np.dot(self.edge_wf, b2q))
        if not with_grad:
            return value, None
        return value, self._edge_op_t @ (q * self.edge_wf * _over(b2q, b2) * uv)

    def trace_integral(self, u: np.ndarray) -> float:
        """Weighted trace integral of u (sign-normalization functional)."""
        return float(np.dot(self.edge_wf, self.edge_op @ u))

    def residual(self, e: float, ge: np.ndarray, gb: np.ndarray, lam: float) -> float:
        """Scaled sup-norm of the weak-form residual over nodal test functions,
        from the energy e, its gradient ge and the boundary gradient gb at u."""
        r = ge / self.p - lam * gb / self.q
        return float(np.max(np.abs(r)) / max(1.0, e))


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
                         reg_eps: float = 1e-8):
    """Energy, boundary functional, and their exact gradients at u.

    Returns (E, grad_E, B, grad_B) of the regularized discrete functionals;
    the gradients differentiate exactly what the values integrate, so
    central differences of the values reproduce them.
    """
    ws = workspace_for(mesh, params)
    vals = _values_of(u)
    e, ge = ws.energy(vals, reg_eps)
    b, gb = ws.boundary(vals, reg_eps)
    return e, ge, b, gb


def rayleigh_quotient(mesh: TriMesh, u, params: DomainParams) -> float:
    """Unregularized Rayleigh quotient E(u) / B(u)^(p/q); exactly homogeneous."""
    ws = workspace_for(mesh, params)
    vals = _values_of(u)
    e, _ = ws.energy(vals, 0.0, with_grad=False)
    b, _ = ws.boundary(vals, 0.0, with_grad=False)
    if b <= 0.0:
        raise ZeroTrace("boundary trace vanishes; Rayleigh quotient undefined")
    return e / b ** (ws.p / ws.q)


def weak_residual(mesh: TriMesh, solution, params: DomainParams,
                  reg_eps: float | None = None) -> float:
    """Weak-form residual of an eigenpair candidate, normalized by max(1, E).

    ``solution`` is a SteklovSolution or an (u, lambda) pair; the residual
    uses the same regularized integrands as assemble_functionals.
    """
    if hasattr(solution, "u") and hasattr(solution, "lam"):
        u, lam = solution.u, solution.lam
        if reg_eps is None:
            reg_eps = solution.reg_eps
    else:
        u, lam = solution
        if reg_eps is None:
            reg_eps = 1e-8
    ws = workspace_for(mesh, params)
    vals = _values_of(u)
    b, _ = ws.boundary(vals, 0.0, with_grad=False)
    if b <= 0.0:
        raise ZeroTrace("residual is defined for unit-boundary-norm candidates")
    e, ge = ws.energy(vals, reg_eps)
    _, gb = ws.boundary(vals, reg_eps)
    return ws.residual(e, ge, gb, float(lam))
