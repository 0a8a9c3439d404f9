"""Independent reference computations the library is tested against.

Everything here deliberately avoids the code paths under test: adaptive
quadrature comes from scipy, eigenvalues from a dense Schur-complement
solve, tangential Jacobians from finite-difference Gram determinants.
"""

import numpy as np
import scipy.integrate
import scipy.linalg


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


def _assembled(ws, local, slot=None):
    return ws._csr(ws._sum(local, slot))


def previous_fem_formulas(ws, u, reg_eps):
    """Energy, boundary functional, their gradients and the three matrices
    at u, each integrand evaluated on its own from the workspace's operators
    (a power per quantity and per call). Returns a dict of values, arrays and
    CSR matrices."""
    p, q = ws.p, ws.q
    eps2 = reg_eps * reg_eps

    def over(num, den):
        return np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)

    gu = (ws.grad_op @ u).reshape(2, -1)
    s = gu[0] * gu[0] + gu[1] * gu[1] + eps2
    uq = ws.interp_op @ u
    m = uq * uq + eps2
    uv = ws.edge_op @ u
    b = uv * uv + eps2
    sp_, mp_, bq_ = s ** (0.5 * p), m ** (0.5 * p), b ** (0.5 * q)
    out = {
        "energy": np.dot(ws.areas, sp_) + np.dot(ws.interp_w, mp_),
        "energy_grad": ws.grad_op.T @ ((p * ws.areas * over(sp_, s)) * gu).ravel()
        + ws.interp_op.T @ (p * ws.interp_w * over(mp_, m) * uq),
        "boundary": np.dot(ws.edge_wf, bq_),
        "boundary_grad": ws.edge_op.T @ (q * ws.edge_wf * over(bq_, b) * uv),
    }
    nt = s.size
    s_pow = s ** (0.5 * p - 1.0)
    mass = p * m ** (0.5 * p - 1.0) * ws.interp_w
    out["metric"] = _assembled(ws, p * s_pow[:, None] * ws._grad_gram
                               + mass.reshape(nt, -1) @ ws._bary_outer)
    v = np.einsum("tid,dt->ti", ws._grads, gu)
    rank_one = (p * (p - 2.0) * ws.areas * over(s_pow, s))[:, None] \
        * (v[:, :, None] * v[:, None, :]).reshape(nt, 9)
    mass = p * over(m ** (0.5 * p - 1.0), m) * ((p - 1.0) * uq * uq + eps2) * ws.interp_w
    out["hessian"] = _assembled(ws, p * s_pow[:, None] * ws._grad_gram + rank_one
                                + mass.reshape(nt, -1) @ ws._bary_outer)
    w = q * ws.edge_wf * over(over(bq_, b), b) * ((q - 1.0) * uv * uv + eps2)
    out["boundary_hessian"] = _assembled(ws, w[:, None] * ws._edge_outer, ws._edge_slot)
    return out
