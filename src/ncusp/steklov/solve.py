"""First-eigenvalue solvers: Newton with an inverse-iteration fallback, and the linear oracle.

The eigenvalue is the minimum of E(u) / B(u)^(p/q). `minimize_rayleigh` runs
Newton on the bordered system grad E = mu grad B, B = 1 (Ruhe, SIAM J. Numer.
Anal. 10, 1973) from a one-signed start. The vertices are taken in (height, x)
order, where every matrix of the mesh is a band about one row wide; the
bordered matrix is solved by block elimination, a banded Cholesky of all rows
but the highest and a dense Schur complement for that row and the multiplier,
with a banded LU in place of the Cholesky where that leading block is not
positive definite. Each step first tries the chord step (the last factor, the
right-hand side at the current point), else a fresh factor with a damped
step; where Newton finds no descent, the step is one of nonlinear inverse
iteration (Biezuner, Ercole & Martins, J. Funct. Anal. 257, 2009): as
grad E(u) = metric(u) @ u, it factors the lagged-diffusivity metric, a banded
Cholesky on the same index, and maps u to metric(u)^{-1} grad B(u),
renormalized (globalization as in Deuflhard, Newton Methods for Nonlinear
Problems, 2004). A Newton step must not raise the quotient, or Newton can
climb towards a higher critical point while inverse iteration goes back down.
Each iterate carries its values at the quadrature points (`QuadValues`), so it
is evaluated once; no factor outlives a solve.
The first eigenfunction does not change sign, so an iterate that does, or a
metric that is numerically not positive definite, ends the solve with an error:
near p = 1 the discrete map can lose positivity and settle in another basin.
`linear_oracle` solves p = q = 2 as one ARPACK call on the matrix pencil,
taken from the solver's element data and factored by SuperLU.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack, lapack

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
# SuperLU, for the oracle's K + M, which is symmetric: order on A + A^T.
# SuperLU's relaxed supernodes and wide panels (its built-in relax and
# panel_size) leave the fill as it is and only slow the factorization down:
# with 1 and 1, K + M took 4.9 ms instead of 6.8 ms at theta 0, levels 10
# (one BLAS thread)
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


@functools.cache
def _blas_threads_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS behind scipy's LAPACK
    (0.3.27 and later): it sets the calling thread's BLAS thread count and
    returns the one before. None where that LAPACK does not export it."""
    try:
        lib = ctypes.CDLL(cython_lapack.__file__)
    except OSError:
        return None
    return (getattr(lib, "scipy_openblas_set_num_threads_local", None)
            or getattr(lib, "openblas_set_num_threads_local", None))


@contextlib.contextmanager
def _one_blas_thread():
    """The calling thread's calls into scipy's OpenBLAS held to one thread.

    pbtrf calls level-3 BLAS on blocks of 32 columns, too small to share.
    Under OPENBLAS_NUM_THREADS=2 the levels-10 band factor took 4.1 ms, and
    11.6 ms after a threaded numpy product, whose own OpenBLAS threads were
    still spinning, against 2.7 ms held to one thread; a reference solve took
    2.5 times as long.
    """
    setter = _blas_threads_setter()
    if setter is None:
        yield
        return
    count = setter(1)
    try:
        yield
    finally:
        setter(count)


class _BandCholesky:
    """The fixed nodal pattern of ``ws`` as a lower band (LAPACK pbtrf) in one
    buffer, and Cholesky solves of symmetric positive definite matrices in it.

    The vertices are ordered by (height, x). The generated meshes come in rows
    of vertices, and each vertex couples only to its own row and the rows next
    to it, so in this order the band is about one row wide however the
    vertices are numbered. One integer index scatters A.data into the band
    storage, column-major as LAPACK keeps it so that it is factored in place.
    A second one gathers the rows of the highest vertex row, the last
    n - ``lead`` in this order, from column ``reach`` on, the first they
    couple to: block elimination leaves them out of the band.
    """

    def __init__(self, ws: FemWorkspace, vertices: np.ndarray):
        n = ws.num_dof
        order = np.lexsort((vertices[:, 0], vertices[:, 1]))
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        rows = rank[np.repeat(np.arange(n), np.diff(ws._indptr))]
        cols = rank[ws._indices]
        depth = rows - cols
        lower = depth >= 0
        self.width = int(depth.max())
        self._order = order
        self._source = np.flatnonzero(lower)
        # band entry A[i, j], i >= j, sits at (i - j, j) of a
        # (width + 1) x n column-major array
        self._target = cols[lower] * (self.width + 1) + depth[lower]
        self._flat = np.empty((self.width + 1) * n)
        heights = vertices[order, 1]
        self.lead = int(np.searchsorted(heights, heights[-1]))
        top = rows >= self.lead
        self.reach = int(cols[top].min())
        self._top_source = np.flatnonzero(top)
        self._top_target = (rows[top] - self.lead) * (n - self.reach) + cols[top] - self.reach

    def band(self, a_data: np.ndarray) -> np.ndarray:
        """The lower band of the matrix with data ``a_data``, in the buffer."""
        self._flat.fill(0.0)
        self._flat[self._target] = a_data[self._source]
        return self._flat.reshape((self.width + 1, -1), order="F")

    def top_rows(self, a_data: np.ndarray) -> np.ndarray:
        """A[lead:, reach:] of the matrix with data ``a_data``, dense."""
        n = self._order.size
        top = np.zeros((n - self.lead, n - self.reach))
        top.ravel()[self._top_target] = a_data[self._top_source]
        return top

    def solve(self, a_data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs through a fresh factorization of the matrix A with
        data ``a_data`` in the nodal pattern; LinAlgError if it is not
        numerically positive definite."""
        with _one_blas_thread():
            factor, info = lapack.dpbtrf(self.band(a_data), lower=1, overwrite_ab=1)
        if info:
            raise np.linalg.LinAlgError("the band matrix is not positive definite")
        x = np.empty_like(rhs)
        x[self._order] = lapack.dpbtrs(factor, rhs[self._order], lower=1)[0]
        return x


class _BorderedNewton:
    """Factors of a sequence of bordered Newton matrices
    M = [[A, -g], [-g^T, 0]], with A in the fixed nodal pattern of the band,
    by block elimination in the band's order (Keller's bordering; Govaerts,
    Numerical Methods for Bifurcations of Dynamical Equilibria, 2000, ch. 3).

    M is indefinite, but with the highest row of vertices left out A was
    positive definite at every Newton factor of the benchmark inputs. So the
    leading block A11, the rows below the highest, gets a band Cholesky L L^T
    in place in the band's buffer, and the highest row with the multiplier a
    dense Schur complement, factored by LU. That row couples only to the
    columns from ``reach`` on, so its part of the Schur complement needs only
    the trailing block of L, and the border one forward solve. Where A11 is
    not numerically positive definite, as at every Newton factor of gamma 4,
    theta 0, p = q = 2, it gets a band LU with partial pivoting instead
    (`_band_lu`) and the same Schur complement. The instance holds the last
    factor until the next one is made or it is released; the metric shares
    the band's buffer and is factored only while no Newton factor is held.
    """

    def __init__(self, band: _BandCholesky):
        self._band = band
        self._factor = None

    def factor(self, a_data: np.ndarray, g: np.ndarray) -> None:
        """Factor the matrix M with data ``a_data`` in the nodal pattern,
        bordered by ``g``; release the last factor first to keep memory low.
        LinAlgError, with no factor held, where A11 is exactly singular."""
        self.release()
        band, lead, reach = self._band, self._band.lead, self._band.reach
        with _one_blas_thread():
            chol, info = lapack.dpbtrf(band.band(a_data)[:, :lead], lower=1, overwrite_ab=1)
        g = g[band._order]
        top = band.top_rows(a_data)
        if info:
            self._factor = self._band_lu(a_data, g, top)
            return
        k = lead - reach
        # y = L^-1 g[:lead], and w = L^-1 A[:lead, lead:] on its rows from reach on
        y = lapack.dtbtrs(chol, g[:lead], uplo="L")[0]
        w = lapack.dtbtrs(chol[:, reach:], top[:, :k].T, uplo="L")[0]
        m = top.shape[0]
        schur = np.empty((m + 1, m + 1))
        schur[:m, :m] = top[:, k:] - w.T @ w
        schur[:m, m] = w.T @ y[reach:] - g[lead:]
        schur[m, :m] = schur[:m, m]
        schur[m, m] = -(y @ y)
        self._factor = (chol, y, w, sla.lu_factor(schur, overwrite_a=True, check_finite=False))

    def _band_lu(self, a_data: np.ndarray, g: np.ndarray, top: np.ndarray) -> tuple:
        """The factor of M where A11 is not positive definite: A11 = P L U by
        band LU with partial pivoting (LAPACK gbtrf; Golub & Van Loan, Matrix
        Computations, 2013, sec. 4.3), X = A11^-1 [A12 | -g1], and the Schur
        complement S = D - [A12 | -g1]^T X of the rows from ``lead`` on.
        Pivoting widens U to 2 width superdiagonals, which the storage holds.
        Near the eigenpair of p = q, where A u = 0, A11 is nearly singular and
        this elimination is not backward stable: its backward error reached
        1e-8 at gamma 4, theta 0, levels 8, against 4e-16 for SuperLU on all
        of M. The merit test still took each step there.
        """
        band, lead, reach, width = self._band, self._band.lead, self._band.reach, self._band.width
        # the failed pbtrf overwrote the buffer: refill it, and copy A11 into
        # general band storage, A[i, j] at (2 width + i - j, j)
        lower = band.band(a_data)
        ab = np.zeros((3 * width + 1, lead))
        for d in range(width + 1):
            ab[2 * width + d, :lead - d] = lower[d, :lead - d]
            ab[2 * width - d, d:] = lower[d, :lead - d]
        k, m = lead - reach, top.shape[0]
        x = np.zeros((lead, m + 1))
        x[reach:, :m] = top[:, :k].T
        x[:, m] = -g[:lead]
        with _one_blas_thread():
            lu, piv, info = lapack.dgbtrf(ab, width, width, overwrite_ab=1)
            if info:
                raise np.linalg.LinAlgError("the leading block is exactly singular")
            x = lapack.dgbtrs(lu, width, width, x, piv, overwrite_b=1)[0]
        schur = np.zeros((m + 1, m + 1))
        schur[:m, :m] = top[:, k:]
        schur[:m, m] = schur[m, :m] = -g[lead:]
        schur[:m] -= top[:, :k] @ x[reach:]
        schur[m] += g[:lead] @ x
        return (lu, piv, x, top[:, :k], g[:lead],
                sla.lu_factor(schur, overwrite_a=True, check_finite=False))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs with the last factor: A11 forward, the Schur complement,
        A11 backward. The Cholesky factor is held as (L, y, w, S), the band
        LU one as (LU, pivots, X, A21, g1, S)."""
        order, lead, reach = self._band._order, self._band.lead, self._band.reach
        r = rhs[:-1][order]
        c = np.append(r[lead:], rhs[-1])
        x = np.empty_like(rhs)
        if len(self._factor) == 4:
            chol, y, w, schur = self._factor
            z = lapack.dtbtrs(chol, r[:lead], uplo="L")[0]
            c[:-1] -= w.T @ z[reach:]
            c[-1] += y @ z
            tail = sla.lu_solve(schur, c, overwrite_b=True, check_finite=False)
            z[reach:] -= w @ tail[:-1]
            z += tail[-1] * y
            x[order[:lead]] = lapack.dtbtrs(chol, z, uplo="L", trans="T", overwrite_b=1)[0]
        else:
            lu, piv, coupled, a21, g1, schur = self._factor
            width = self._band.width
            z = lapack.dgbtrs(lu, width, width, r[:lead], piv)[0]
            c[:-1] -= a21 @ z[reach:]
            c[-1] += g1 @ z
            tail = sla.lu_solve(schur, c, overwrite_b=True, check_finite=False)
            x[order[:lead]] = z - coupled @ tail
        x[order[lead:]] = tail[:-1]
        x[-1] = tail[-1]
        return x

    @property
    def held(self) -> bool:
        return self._factor is not None

    def release(self) -> None:
        self._factor = None


def _newton_step(ws: FemWorkspace, newton: _BorderedNewton, pt: QuadValues, mu: float):
    """One step on the bordered system from pt with multiplier mu: the new
    point and multiplier, or None where Newton finds no descent. A candidate
    must lower the KKT merit, not raise the quotient and keep the sign; a
    fresh factor of an exactly singular leading block finds no descent. The
    chord step is taken if it at least halves the merit, and otherwise only
    where the fresh step finds no descent: near the merit's rounding floor at
    p = 1.1 an inverse-iteration step from there raised the residual tenfold
    and went on to a metric that is not positive definite.
    No factor is held after None.
    """
    rhs = np.append(mu * pt.grad_B - pt.grad_E, pt.B - 1.0)
    kkt = _kkt(pt, mu)

    def trial(step, t, bound):
        cand = _normalize(ws, ws.at(pt.u + t * step[:-1], pt.reg_eps))
        cand_mu = mu + t * step[-1]
        ok = _kkt(cand, cand_mu) < bound and cand.lam <= pt.lam and not _changes_sign(cand.u)
        return (cand, cand_mu) if ok else None

    chord = None
    if newton.held:
        chord = trial(newton.solve(rhs), 1.0, kkt)
        if chord and _kkt(*chord) < CHORD_CONTRACTION * kkt:
            return chord
        # the held factor is released before the Hessian is assembled
        newton.release()
    try:
        # both Hessians are data of the workspace's fixed pattern
        newton.factor(pt.hessian_data() - mu * pt.boundary_hessian_data(), pt.grad_B)
    except np.linalg.LinAlgError:
        # A11 exactly singular: the fresh step finds no descent
        return chord
    step = newton.solve(rhs)
    for k in range(MAX_HALVINGS + 1):
        taken = trial(step, 0.5 ** k, kkt)
        if taken:
            break
    # held for chord steps only if its own step halved the merit: after a
    # weaker step the chord step was rejected every time on the reference
    if taken is None or _kkt(*taken) > CHORD_CONTRACTION * kkt:
        newton.release()
    return taken or chord


def _solve_start(ws: FemWorkspace, band: _BandCholesky, newton: _BorderedNewton,
                 u: np.ndarray, opts: SolverOptions):
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
            step = _newton_step(ws, newton, pt, mu)
            if step is None:
                try:
                    z = band.solve(pt.metric_data(), pt.grad_B)
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
        newton.release()
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

    # every start shares the band index and its buffer, for the Newton factors
    # and the inverse-iteration metric
    band = _BandCholesky(ws, mesh.vertices)
    newton = _BorderedNewton(band)
    results, failures = [], []
    total_iters = 0
    for restart in range(opts.restarts):
        if restart:
            u = np.random.default_rng(opts.seed + restart).random(ws.num_dof)
        else:
            u = np.ones(ws.num_dof) if opts.initial is None else np.asarray(opts.initial, float)
        try:
            pt, history = _solve_start(ws, band, newton, u, opts)
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
