"""Independent reference computations the library is tested against.

Everything here deliberately avoids the code paths under test: adaptive
quadrature comes from scipy, eigenvalues from a dense Schur-complement
solve, tangential Jacobians from finite-difference Gram determinants, and
the P1 functionals and matrices from sparse operators that the workspace's
element arrays replaced.
"""

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse

from ncusp.quadrature import triangle_rule
from ncusp.steklov.fem import TRI_ORDER


def adaptive_quad(f, a, b, **kw):
    """Adaptive scalar quadrature (scipy.integrate.quad wrapper)."""
    val, _ = scipy.integrate.quad(f, a, b, limit=400, **kw)
    return val


def dense_smallest_pencil_eigenvalue(A, Mb):
    """Smallest lambda of A u = lambda Mb u with singular Mb.

    Eliminates the null space of Mb by a dense Schur complement onto the
    degrees of freedom where Mb acts, then solves the reduced symmetric
    generalized problem.
    """
    A = np.asarray(A.todense())
    Mb = np.asarray(Mb.todense())
    active = np.where(np.abs(Mb).sum(axis=1) > 0)[0]
    inactive = np.setdiff1d(np.arange(A.shape[0]), active)
    Abb = A[np.ix_(active, active)]
    Abi = A[np.ix_(active, inactive)]
    Aii = A[np.ix_(inactive, inactive)]
    S = Abb - Abi @ np.linalg.solve(Aii, Abi.T)
    Mbb = Mb[np.ix_(active, active)]
    vals = scipy.linalg.eigh(S, Mbb, eigvals_only=True)
    return float(vals[0])


def fd_tangential_jacobian(cmap, face, t, xhat=None, h=1e-6):
    """Tangential Jacobian of the inverse map on a face via Gram determinants.

    Builds the chart of the face, differentiates both the chart and the
    composed map numerically, and returns
    sqrt(det G_composed) / sqrt(det G_chart) at the chart point.
    """
    n, alpha, a = cmap.n, cmap.alpha, cmap.a
    i = face.index - 1
    cross = [j for j in range(n - 1) if j != i]
    if xhat is None:
        xhat = np.zeros(len(cross))

    def chart(u):
        # u = (xhat..., t)
        x = np.zeros(n)
        x[-1] = u[-1]
        if face.kind == "slanted":
            x[i] = u[-1] ** alpha
        for col, val in zip(cross, u[:-1]):
            x[col] = val
        return x

    def mapped(u):
        x = chart(u)
        y = np.empty(n)
        y[-1] = x[-1] ** (1.0 / a)
        y[:-1] = x[:-1] * x[-1] ** ((1.0 - a * alpha) / a)
        return y

    u0 = np.append(np.asarray(xhat, dtype=float), t)
    dim = u0.size

    def gram_sqrt(fn):
        cols = []
        for k in range(dim):
            step = np.zeros(dim)
            step[k] = h * max(1.0, abs(u0[k]))
            cols.append((fn(u0 + step) - fn(u0 - step)) / (2 * step[k]))
        J = np.stack(cols, axis=1)
        return np.sqrt(np.linalg.det(J.T @ J))

    return gram_sqrt(mapped) / gram_sqrt(chart)


def fd_gradient(fn, x, h=1e-6):
    """Dense central-difference gradient of a scalar function of a vector."""
    g = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        g[k] = (fn(x + step) - fn(x - step)) / (2 * h)
    return g


def two_pointer_triangles(mesh):
    """The mesh's triangles rebuilt row by row with the monotone two-pointer
    sweep, the rows and their np.linspace fractions read off the mesh."""
    heights = mesh.vertices[:-1, 1]                     # the origin comes last
    starts = np.concatenate(([0], np.flatnonzero(np.diff(heights)) + 1,
                             [heights.size]))
    rows = [range(a, b) for a, b in zip(starts[:-1], starts[1:])]
    fracs = [np.linspace(0.0, 1.0, len(r)) for r in rows]
    tris = []
    for top_idx, bot_idx, top_frac, bot_frac in zip(rows, rows[1:], fracs, fracs[1:]):
        ia = ib = 0
        na, nb = len(top_idx) - 1, len(bot_idx) - 1
        while ia < na or ib < nb:
            if ib == nb or (ia < na and top_frac[ia + 1] <= bot_frac[ib + 1]):
                tris.append((top_idx[ia], bot_idx[ib], top_idx[ia + 1]))
                ia += 1
            else:
                tris.append((top_idx[ia], bot_idx[ib], bot_idx[ib + 1]))
                ib += 1
    origin = heights.size
    tris.append((origin, origin - 1, origin - 2))
    return np.asarray(tris, dtype=np.int64), [f * mesh.vertices[r[-1], 0]
                                              for r, f in zip(rows, fracs)]


def _edge_assembled(ws, local):
    """The boundary element matrices local (ne_q, 4) summed into the
    workspace's pattern, which takes one element matrix per column."""
    return ws._csr(ws._sum(local.T, ws._edge_slot))


def _element_sum(mesh, local):
    """CSR matrix of the element matrices local (nt, 9), summed entry by
    entry in triangle order into the sorted nodal pattern."""
    tris, nv = mesh.triangles, mesh.num_vertices
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    keys, slot = np.unique(rows * nv + cols, return_inverse=True)
    data = np.bincount(slot, weights=local.ravel(), minlength=keys.size)
    indptr = np.searchsorted(keys, np.arange(nv + 1) * nv)
    return scipy.sparse.csr_matrix((data, keys % nv, indptr), shape=(nv, nv))


def p1_gradients(mesh):
    """P1 basis gradients (nt, 3, 2): row k of a triangle's is the gradient
    of the hat function at its local vertex k."""
    v = mesh.vertices[mesh.triangles]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    opposite = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]       # edge opposite vertex k
    grads = np.stack([-opposite[:, :, 1], opposite[:, :, 0]], axis=2)
    return grads / det[:, None, None]


def fem_operators(mesh, ws):
    """The sparse operators from nodal values to the values the functionals
    integrate, built from the mesh and the workspace's public arrays:
    gradients (2 nt, nv), x1 rows then x2 rows; values at the triangle
    quadrature points (nt kq, nv); values at the boundary quadrature points
    (ne_q, nv)."""
    tris, nt, nv = mesh.triangles, mesh.num_triangles, mesh.num_vertices
    grads = p1_gradients(mesh)
    bary = triangle_rule(TRI_ORDER).barycentric
    kq = bary.shape[0]
    ne = ws.edge_wf.size
    grad_op = scipy.sparse.csr_matrix(
        (np.concatenate([grads[:, :, 0], grads[:, :, 1]]).ravel(),
         (np.repeat(np.arange(2 * nt), 3), np.tile(tris, (2, 1)).ravel())), shape=(2 * nt, nv))
    interp_op = scipy.sparse.csr_matrix(
        (np.tile(bary.ravel(), nt), (np.repeat(np.arange(nt * kq), 3),
                                     np.repeat(tris, kq, axis=0).ravel())), shape=(nt * kq, nv))
    edge_op = scipy.sparse.csr_matrix(
        (ws.edge_lam.T.ravel(), (np.repeat(np.arange(ne), 2), ws.edge_ends.ravel())),
        shape=(ne, nv))
    return grads, grad_op, interp_op, edge_op


def previous_matrices(mesh, ws):
    """Reference stiffness, mass and boundary mass, assembled apart from the
    workspace's element data: element sums of the gradient Gram matrices and
    of the closed-form P1 mass matrices, and edge_op^T diag(edge_wf) edge_op
    through the sparse edge operator of `fem_operators`."""
    grads, _, _, edge_op = fem_operators(mesh, ws)
    areas = ws.areas[:, None]
    gram = np.einsum("tid,tjd->tij", grads, grads).reshape(-1, 9) * areas
    mass = areas * ((np.ones((3, 3)) + np.eye(3)) / 12.0).ravel()
    boundary = edge_op.T.tocsr() @ scipy.sparse.diags(ws.edge_wf) @ edge_op
    return _element_sum(mesh, gram), _element_sum(mesh, mass), boundary.tocsr()


def previous_fem_formulas(mesh, ws, u, reg_eps):
    """Energy, boundary functional, their gradients and the three matrices
    at u, each integrand evaluated on its own through the sparse operators of
    `fem_operators` (a power per quantity and per call). Returns a dict of
    values, arrays and CSR matrices."""
    p, q = ws.p, ws.q
    eps2 = reg_eps * reg_eps
    grads, grad_op, interp_op, edge_op = fem_operators(mesh, ws)
    rule = triangle_rule(TRI_ORDER)
    interp_w = (ws.areas[:, None] * rule.weights).ravel()
    gram = np.einsum("tid,tjd->tij", grads, grads).reshape(-1, 9) * ws.areas[:, None]
    bary_outer = np.einsum("qi,qj->qij", rule.barycentric, rule.barycentric).reshape(-1, 9)
    lam = ws.edge_lam.T

    def over(num, den):
        return np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)

    gu = (grad_op @ u).reshape(2, -1)
    s = gu[0] * gu[0] + gu[1] * gu[1] + eps2
    uq = interp_op @ u
    m = uq * uq + eps2
    uv = edge_op @ u
    b = uv * uv + eps2
    sp_, mp_, bq_ = s ** (0.5 * p), m ** (0.5 * p), b ** (0.5 * q)
    out = {
        "energy": np.dot(ws.areas, sp_) + np.dot(interp_w, mp_),
        "energy_grad": grad_op.T @ ((p * ws.areas * over(sp_, s)) * gu).ravel()
        + interp_op.T @ (p * interp_w * over(mp_, m) * uq),
        "boundary": np.dot(ws.edge_wf, bq_),
        "boundary_grad": edge_op.T @ (q * ws.edge_wf * over(bq_, b) * uv),
    }
    nt = s.size
    s_pow = s ** (0.5 * p - 1.0)
    mass = p * m ** (0.5 * p - 1.0) * interp_w
    out["metric"] = _element_sum(mesh, p * s_pow[:, None] * gram
                                 + mass.reshape(nt, -1) @ bary_outer)
    v = np.einsum("tid,dt->ti", grads, gu)
    rank_one = (p * (p - 2.0) * ws.areas * over(s_pow, s))[:, None] \
        * (v[:, :, None] * v[:, None, :]).reshape(nt, 9)
    mass = p * over(m ** (0.5 * p - 1.0), m) * ((p - 1.0) * uq * uq + eps2) * interp_w
    out["hessian"] = _element_sum(mesh, p * s_pow[:, None] * gram + rank_one
                                  + mass.reshape(nt, -1) @ bary_outer)
    w = q * ws.edge_wf * over(over(bq_, b), b) * ((q - 1.0) * uv * uv + eps2)
    out["boundary_hessian"] = _edge_assembled(
        ws, w[:, None] * (lam[:, :, None] * lam[:, None, :]).reshape(-1, 4))
    return out
