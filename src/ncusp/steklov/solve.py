"""First-eigenvalue solvers: Newton with an inverse-iteration fallback, and the linear oracle.

The eigenvalue is the minimum of E(u) / B(u)^(p/q). `minimize_rayleigh` runs
Newton on the bordered system grad E = mu grad B, B = 1 (Ruhe, SIAM J. Numer.
Anal. 10, 1973) from a one-signed start, on SuperLU without relaxed
supernodes. Each step first tries the chord step (the last factor, the
right-hand side at the current point), else a fresh factor with a damped
step; where Newton finds no descent, the step is one of nonlinear inverse
iteration (Biezuner, Ercole & Martins, J. Funct. Anal. 257, 2009): as
grad E(u) = metric(u) @ u, it factors the lagged-diffusivity metric, a banded
Cholesky in height order, and maps u to metric(u)^{-1} grad B(u),
renormalized (globalization as in Deuflhard, Newton Methods for Nonlinear
Problems, 2004). A Newton step must not raise the quotient, or Newton can
climb towards a higher critical point while inverse iteration goes back down.
Each iterate carries its values at the quadrature points (`QuadValues`), so it
is evaluated once; no factor outlives a solve.
The first eigenfunction does not change sign, so an iterate that does, or a
metric that is numerically not positive definite, ends the solve with an error:
near p = 1 the discrete map can lose positivity and settle in another basin.
`linear_oracle` solves p = q = 2 as one ARPACK call on the matrix pencil,
taken from the solver's element data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import IterationStall, NumericalError, RangeViolation, ZeroTrace
from ..geometry import DomainParams, derived_exponents
from .fem import FemFunction, FemWorkspace, QuadValues, _cached_workspace, workspace_for
from .mesh import TriMesh
from .options import SolverOptions, _changes_sign

__all__ = [
    "SolverOptions",
    "SteklovSolution",
    "TraceConstantBound",
    "minimize_rayleigh",
    "linear_oracle",
    "trace_constant",
]

# step halvings a fresh Newton step may take before inverse iteration steps in
MAX_HALVINGS = 4
# a chord step (the last Newton factor, the right-hand side at the current
# point) is kept while it at least halves the KKT merit: the contraction bound
# Theta <= 1/2 of the simplified Newton method (Deuflhard, Newton Methods for
# Nonlinear Problems, 2004). Accepting any decrease took the levels-9 exponent
# sweep from 301 to 1021 steps
CHORD_CONTRACTION = 0.5
# the bordered Newton matrix is symmetric: order on A + A^T. SuperLU's relaxed
# supernodes and wide panels (its built-in relax and panel_size) leave the fill
# and the pivots of these matrices as they are and only slow the factorization
# down: with 1 and 1, one in the fill-reducing order takes 4.9 ms instead of
# 9.6 ms at levels 10, and 2.4 ms instead of 21 ms on a graded simplex mesh of
# 2124 dof (one BLAS thread)
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 1,
              "options": {"SymmetricMode": True}}
# linear_oracle: the size of ARPACK's Arnoldi basis. scipy's default of 20 is
# slower on these pencils: 17.6 against 11.6 ms at gamma 3, theta 2, levels 8,
# and 29.5 against 21.0 ms at theta 0, levels 10 (one BLAS thread)
ORACLE_NCV = 6


@dataclass(frozen=True)
class SteklovSolution:
    """Eigenpair candidate with diagnostics.

    ``lam`` is the eigenvalue estimate (equal to the energy at the unit
    boundary norm), ``mu`` the Lagrange multiplier lam * p / q.
    ``iterations`` counts the steps, Newton or inverse iteration, over the
    starts that returned, and ``history`` the weak residual after each step of the
    returned start.
    ``start_spread`` is (max - min) / min of the eigenvalues reached by the
    converged starts of a multi-start solve, and None for a single start.
    """

    lam: float
    u: FemFunction
    energy: float
    boundary_norm: float
    residual: float
    mu: float
    iterations: int
    restarts: int
    converged: bool
    reg_eps: float
    dof: int
    history: tuple[float, ...]
    start_spread: float | None = None


def _normalize(ws: FemWorkspace, pt: QuadValues) -> QuadValues:
    """pt scaled to B = 1, in two passes because reg_eps breaks the
    q-homogeneity of B; each pass rescales the values already taken."""
    # the regularization floor is the boundary value of u == 0; reaching it
    # means the trace collapsed
    floor = (pt.reg_eps ** ws.q) * float(np.sum(ws.edge_wf))
    for _ in range(2):
        if pt.B <= max(floor * (1.0 + 1e-6), 1e-280):
            raise ZeroTrace("iterate has vanishing boundary trace")
        pt = pt.scaled(pt.B ** (1.0 / ws.q))
    return pt


def _kkt(pt: QuadValues, mu: float) -> float:
    return float(np.max(np.abs(pt.grad_E - mu * pt.grad_B))) + abs(1.0 - pt.B)


class _BandCholesky:
    """Cholesky factors of a sequence of symmetric positive definite matrices
    A in the fixed nodal pattern of ``ws``, held as a lower band (LAPACK pbtrf).

    The vertices are ordered by (height, x). The generated meshes come in rows
    of vertices, and each vertex couples only to its own row and the rows next
    to it, so in this order the band is about one row wide however the
    vertices are numbered. One integer index scatters A.data into the band
    storage, column-major as LAPACK keeps it so that it is factored in place.
    """

    def __init__(self, ws: FemWorkspace, vertices: np.ndarray):
        order = np.lexsort((vertices[:, 0], vertices[:, 1]))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        rows = rank[np.repeat(np.arange(ws.num_dof), np.diff(ws._indptr))]
        cols = rank[ws._indices]
        depth = rows - cols
        lower = depth >= 0
        self.width = int(depth.max())
        self._order = order
        self._source = np.flatnonzero(lower)
        # band entry A[i, j], i >= j, sits at (i - j, j) of a
        # (width + 1) x n column-major array
        self._target = cols[lower] * (self.width + 1) + depth[lower]

    def solve(self, a_data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs through a fresh factorization of the matrix A with
        data ``a_data`` in the nodal pattern; LinAlgError if it is not
        numerically positive definite."""
        n = self._order.size
        band = np.zeros(n * (self.width + 1))
        band[self._target] = a_data[self._source]
        factor = sla.cholesky_banded(band.reshape((self.width + 1, n), order="F"),
                                     overwrite_ab=True, lower=True, check_finite=False)
        x = np.empty_like(rhs)
        x[self._order] = sla.cho_solve_banded((factor, True), rhs[self._order],
                                              overwrite_b=True, check_finite=False)
        return x


class _PatternLU:
    """LU factors of a sequence of bordered matrices [[A, -g], [-g^T, 0]],
    with A in the fixed nodal pattern of ``ws`` and g zero off ``border``.

    One integer index gathers [A.data, -g[border]] into the CSC data that is
    factored. The first matrix is factored with LU_OPTIONS, which finds a
    fill-reducing order, and the index is rebuilt once in that order; each
    later one, from any start of the solve that shares the instance, is one
    gather and a factorization with NATURAL ordering. Every factorization
    takes LU_OPTIONS' relax and panel_size. The instance holds the last
    factor until the next one is made or it is released.
    """

    def __init__(self, ws: FemWorkspace, border: np.ndarray):
        # 1-based ids of the data entries, so that none is a structural zero
        n, nnz = ws.num_dof, ws._indices.size
        ids = sp.csr_matrix((np.arange(1.0, nnz + 1.0), ws._indices, ws._indptr),
                            shape=(n, n))
        k = border.size
        col = sp.csr_matrix((np.arange(nnz + 1.0, nnz + k + 1.0),
                             (border, np.zeros(k, dtype=int))), shape=(n, 1))
        self._border = border
        self._order = None
        self._lu = None
        # the order of the index and of every factor after the first
        self._lu_order = None
        self._index(sp.bmat([[ids, col], [col.T, None]]).tocsc())

    def _index(self, ids: sp.csc_matrix) -> None:
        ids.sort_indices()
        self._gather = ids.data.astype(np.intp) - 1
        self._pattern = (ids.indices, ids.indptr)
        self._shape = ids.shape

    def factor(self, a_data: np.ndarray, g: np.ndarray) -> None:
        """Factor the matrix M with data ``a_data`` in the nodal pattern,
        bordered by ``g``; release the last factor first to keep memory low."""
        if self._order is not None and self._lu_order is None:
            # the index is rebuilt in the order only now, with the first factor
            # released: building it while that factor was held raised the peak RSS
            ids = sp.csc_matrix((self._gather + 1.0, *self._pattern), shape=self._shape)
            self._index(ids[self._order][:, self._order])
            self._lu_order = self._order
        data = np.concatenate([a_data, -g[self._border]])
        m = sp.csc_matrix((data[self._gather], *self._pattern), shape=self._shape)
        if self._order is None:
            self._lu = spla.splu(m, **LU_OPTIONS)
            # column j of the ordered matrix is column order[j] of M
            self._order = np.argsort(self._lu.perm_c)
        else:
            self._lu = spla.splu(m, **{**LU_OPTIONS, "permc_spec": "NATURAL"})

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs with the last factor."""
        order = self._lu_order
        if order is None:
            return self._lu.solve(rhs)
        x = np.empty_like(rhs)
        x[order] = self._lu.solve(rhs[order])
        return x

    @property
    def held(self) -> bool:
        return self._lu is not None

    def release(self) -> None:
        self._lu = None


def _newton_step(ws: FemWorkspace, newton_lu: _PatternLU, pt: QuadValues, mu: float):
    """One step on the bordered system from pt with multiplier mu: the new
    point and multiplier, or None where Newton finds no descent. A candidate
    must lower the KKT merit (the chord step: at least halve it), not raise
    the quotient and keep the sign.
    """
    rhs = np.append(mu * pt.grad_B - pt.grad_E, pt.B - 1.0)
    kkt = _kkt(pt, mu)

    def trial(step, t, bound):
        cand = _normalize(ws, ws.at(pt.u + t * step[:-1], pt.reg_eps))
        cand_mu = mu + t * step[-1]
        ok = _kkt(cand, cand_mu) < bound and cand.lam <= pt.lam and not _changes_sign(cand.u)
        return (cand, cand_mu) if ok else None

    if newton_lu.held:
        taken = trial(newton_lu.solve(rhs), 1.0, CHORD_CONTRACTION * kkt)
        if taken:
            return taken
        # the held factor is released before the Hessian is assembled
        newton_lu.release()
    # both Hessians are data of the workspace's fixed pattern
    newton_lu.factor(pt.hessian_data() - mu * pt.boundary_hessian_data(), pt.grad_B)
    step = newton_lu.solve(rhs)
    for k in range(MAX_HALVINGS + 1):
        taken = trial(step, 0.5 ** k, kkt)
        if taken:
            break
    # held for chord steps only if its own step halved the merit: after a
    # weaker step the chord step was rejected every time on the reference
    if taken is None or _kkt(*taken) > CHORD_CONTRACTION * kkt:
        newton_lu.release()
    return taken


def _solve_start(ws: FemWorkspace, metric: Callable[[], _BandCholesky],
                 newton_lu: _PatternLU, u: np.ndarray, opts: SolverOptions):
    """Newton from one start, with an inverse-iteration step where it finds no descent.

    Every iterate is renormalized to B(u) = 1 before its weak residual is
    taken, so the last point returned is the one the stop test judged. Returns
    it and the weak residual after each step. The last Newton factor lives
    only as long as this call.
    """
    eps, p, q = opts.reg_eps, ws.p, ws.q
    why = f"(p = {p:g}, q = {q:g}, reg_eps = {eps:g})"
    pt = _normalize(ws, ws.at(u, eps))
    mu = pt.lam * p / q
    history = []
    try:
        while pt.res >= 10.0 * opts.tol_rel and len(history) < opts.max_iter:
            step = _newton_step(ws, newton_lu, pt, mu)
            if step is None:
                try:
                    z = metric().solve(pt.metric_data(), pt.grad_B)
                except np.linalg.LinAlgError:
                    raise NumericalError(
                        f"inverse-iteration step {len(history) + 1}: the metric is not "
                        f"numerically positive definite {why}") from None
                pt = _normalize(ws, ws.at(z, eps))
                if _changes_sign(pt.u):
                    raise NumericalError(
                        f"inverse-iteration step {len(history) + 1} changed sign (min u "
                        f"/ max u = {pt.u.min() / pt.u.max():.3g}) and no longer "
                        f"tracks the first eigenfunction {why}")
                step = pt, pt.lam * p / q
            pt, mu = step
            history.append(pt.res)
    finally:
        newton_lu.release()
    return pt, history


def minimize_rayleigh(mesh: TriMesh, params: DomainParams,
                      options: SolverOptions | None = None) -> SteklovSolution:
    """First eigenpair: minimize the Rayleigh quotient over B(u) = 1.

    Starts from u = 1 (or ``options.initial``, one value per mesh vertex, else
    a RangeViolation naming ``initial``) and, with ``restarts > 1``,
    keeps the smallest eigenvalue over the starts that returned; u is signed
    so its weighted trace integral is >= 0. A start that used up max_iter
    steps returns with converged=False. An inverse-iteration step that changes
    sign or meets a metric that is not positive definite raises a
    NumericalError naming p unless another start returned.
    """
    opts = options or SolverOptions()
    ws = workspace_for(mesh, params)
    p, q = ws.p, ws.q
    if opts.initial is not None and len(opts.initial) != ws.num_dof:
        raise RangeViolation("initial", f"one value per mesh vertex ({ws.num_dof})")

    # every start shares the Newton pattern's ordering, and the band index,
    # which is built at the first inverse-iteration step: most solves take none
    metric = functools.cache(lambda: _BandCholesky(ws, mesh.vertices))
    newton_lu = _PatternLU(ws, np.unique(ws.edge_ends))
    results, failures = [], []
    total_iters = 0
    for restart in range(opts.restarts):
        if restart:
            u = np.random.default_rng(opts.seed + restart).random(ws.num_dof)
        else:
            u = np.ones(ws.num_dof) if opts.initial is None else np.asarray(opts.initial, float)
        try:
            pt, history = _solve_start(ws, metric, newton_lu, u, opts)
            total_iters += len(history)
        except NumericalError as exc:
            failures.append(exc)
            continue
        results.append((pt, pt.res < 10.0 * opts.tol_rel, history))

    if not results:
        raise failures[0]
    pt, converged, history = min(results, key=lambda r: r[0].lam)
    converged_lams = [r[0].lam for r in results if r[1]]
    spread = None
    if opts.restarts > 1 and converged_lams:
        low = min(converged_lams)
        spread = float((max(converged_lams) - low) / low)
    return SteklovSolution(
        lam=float(pt.lam),
        u=FemFunction(mesh=mesh, values=pt.u if ws.trace_integral(pt.u) >= 0.0 else -pt.u),
        energy=float(pt.E),
        boundary_norm=float(pt.B ** (1.0 / q)),
        residual=float(pt.res),
        mu=float(pt.lam * p / q),
        iterations=total_iters,
        restarts=opts.restarts,
        converged=bool(converged),
        reg_eps=opts.reg_eps,
        dof=ws.num_dof,
        history=tuple(history),
        start_spread=spread,
    )


def linear_oracle(mesh: TriMesh, theta: float) -> tuple[float, FemFunction]:
    """Smallest eigenvalue of (K + M) u = lambda * M_boundary u.

    ARPACK's implicitly restarted Arnoldi method (Lehoucq, Sorensen & Yang,
    1998) finds the largest eigenvalue 1 / lambda of x -> (K + M)^{-1} M_b x,
    with K + M factored once; the boundary mass is singular (interior nodes),
    and its null space belongs to the eigenvalue 0 of that operator. The fixed
    start vector makes the result reproducible. u is scaled to u^T M_b u = 1
    and lambda is its Rayleigh quotient rather than 1 / mu, because callers
    pass (u, lambda) to the weak residual, which is not scale-free. An ARPACK
    failure, or an eigenvector without a finite positive boundary norm, raises
    IterationStall.

    The pencil is taken from the workspace that p = q = 2 solves share: at
    p = 2 half the metric is K + M for any u, and half the boundary Hessian at
    u = 1, reg_eps = 0 is M_b. The pencils assembled apart that check it are
    `previous_matrices` in tests/oracles.py and the bench's `pencil_eigenvalue`.
    """
    ws = _cached_workspace(mesh, theta, 2.0, 2.0)
    ones = ws.at(np.ones(ws.num_dof), 0.0)
    A = ws._csr(0.5 * ones.metric_data()).tocsc()
    Mb = ws._csr(0.5 * ones.boundary_hessian_data())
    solver = spla.splu(A, **LU_OPTIONS)
    n = ws.num_dof
    op = spla.LinearOperator((n, n), matvec=lambda x: solver.solve(Mb @ x), dtype=float)
    try:
        _, vecs = spla.eigs(op, k=1, which="LM", v0=np.ones(n), tol=1e-14, ncv=ORACLE_NCV)
    except spla.ArpackNoConvergence:
        raise IterationStall("ARPACK did not converge on the p = q = 2 pencil") from None
    x = vecs[:, 0].real
    b = float(x @ (Mb @ x))
    if not (np.isfinite(b) and b > 0.0):
        raise IterationStall("the ARPACK eigenvector has no boundary component")
    u = x / np.sqrt(b)
    if ws.trace_integral(u) < 0.0:
        u = -u
    return float(u @ (A @ u)), FemFunction(mesh=mesh, values=u)


@dataclass(frozen=True)
class TraceConstantBound:
    """Trace constant from an eigenvalue with its factorized upper bound."""

    c_tr: float
    bound_factor: float
    reference_c_tr: float | None = None


def trace_constant(lam: float, params: DomainParams,
                   ctr_reference: float | None = None) -> TraceConstantBound:
    """C_tr = lam^(-1/p) and the explicit cusp-vs-simplex bound factor.

    ``ctr_reference``, the simplex trace constant at the same exponents, is
    returned as ``reference_c_tr`` for comparing C_tr with bound_factor times it.
    """
    if lam <= 0.0:
        raise RangeViolation("lam", "lam > 0")
    p, q = params.p, params.q
    exps = derived_exponents(params)
    a = exps.a_max
    factor = a ** (1.0 / q - 1.0 / p) * exps.distortion(a)
    c_tr = lam ** (-1.0 / p)
    return TraceConstantBound(c_tr=float(c_tr), bound_factor=float(factor),
                              reference_c_tr=ctr_reference)
