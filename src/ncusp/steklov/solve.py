"""First-eigenvalue solvers: constrained descent and the linear oracle.

The eigenvalue is the minimum of the Rayleigh quotient E(u) / B(u)^(p/q).
Descent runs on the unit-boundary-norm sphere: each step preconditions the
constrained gradient with a lagged-diffusivity metric (the weighted
stiffness plus mass of the current iterate), walks a backtracking step
ladder until the quotient decreases, and renormalizes; near stationarity a
residual-driven Picard polish takes over. For p = q = 2 the same discrete
problem is solved independently by inverse power iteration on the matrix
pencil, which is the reference the descent path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from ..errors import IterationStall, RangeViolation, ZeroTrace
from ..geometry import DomainParams, derived_exponents
from .fem import FemFunction, FemWorkspace, linear_workspace, workspace_for
from .mesh import TriMesh

__all__ = [
    "SolverOptions",
    "SteklovSolution",
    "TraceConstantBound",
    "minimize_rayleigh",
    "linear_oracle",
    "trace_constant",
]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the projected descent solver."""

    max_iter: int = 500
    tol_rel: float = 1e-8
    reg_eps: float = 1e-8
    restarts: int = 1
    seed: int = 0
    initial: np.ndarray | None = None
    armijo_c: float = 1e-4
    max_backtracks: int = 40
    metric_refresh: int = 20
    track_history: bool = False


@dataclass(frozen=True)
class SteklovSolution:
    """Eigenpair candidate with diagnostics.

    ``lam`` is the eigenvalue estimate (equal to the energy at the unit
    boundary norm), ``mu`` the Lagrange multiplier lam * p / q.
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
    history: tuple[float, ...] | None = None
    start_spread: float | None = None


def _normalize(ws: FemWorkspace, u: np.ndarray, reg_eps: float) -> np.ndarray:
    # the regularization floor is the boundary value of u == 0; reaching it
    # means the trace collapsed
    floor = (reg_eps ** ws.q) * float(np.sum(ws.edge_wf))
    for _ in range(2):
        b, _ = ws.boundary(u, reg_eps, with_grad=False)
        if b <= max(floor * (1.0 + 1e-6), 1e-280):
            raise ZeroTrace("iterate has vanishing boundary trace")
        u = u / b ** (1.0 / ws.q)
    return u


def _quotient(ws: FemWorkspace, u: np.ndarray, reg_eps: float) -> float:
    e, _ = ws.energy(u, reg_eps, with_grad=False)
    b, _ = ws.boundary(u, reg_eps, with_grad=False)
    return e / b ** (ws.p / ws.q)


def _step_ladder(ws: FemWorkspace, u: np.ndarray, d: np.ndarray, lam: float,
                 step: float, opts: "SolverOptions"):
    """Walk a geometric step ladder and keep the best point found.

    Accepting the first sufficient decrease would favor overlong steps that
    merely reflect stiff modes instead of damping them.
    """
    best_t, best_u, best_r = None, None, lam
    t = min(4.0, 4.0 * step)
    for _ in range(opts.max_backtracks):
        try:
            cand = _normalize(ws, u + t * d, opts.reg_eps)
        except ZeroTrace:
            t *= 0.5
            continue
        r_new = _quotient(ws, cand, opts.reg_eps)
        if r_new < best_r:
            best_t, best_u, best_r = t, cand, r_new
        elif best_t is not None and r_new > best_r:
            break
        t *= 0.5
    return best_t, best_u, best_r


def _picard_polish(ws: FemWorkspace, u: np.ndarray, opts: "SolverOptions",
                   max_steps: int = 60):
    """Residual-driven fixed-point polish of a near-stationary iterate.

    The energy gradient is exactly metric(u) @ u, so stationary points obey
    u proportional to metric(u)^{-1} grad B(u). Iterating that map drives
    the weak residual below what quotient-comparison line searches can
    resolve. Steps that increase the quotient are rejected.
    """
    lam = _quotient(ws, u, opts.reg_eps)
    res = ws.residual(u, lam, opts.reg_eps)
    target = 10.0 * opts.tol_rel
    for _ in range(max_steps):
        if res < target:
            break
        solver = spla.splu(ws.metric_matrix(u, opts.reg_eps).tocsc())
        _, gb = ws.boundary(u, opts.reg_eps)
        try:
            cand = _normalize(ws, solver.solve(gb), opts.reg_eps)
        except ZeroTrace:
            break
        lam_new = _quotient(ws, cand, opts.reg_eps)
        res_new = ws.residual(cand, lam_new, opts.reg_eps)
        if res_new >= res or lam_new > lam * (1.0 + 1e-10):
            break
        u, lam, res = cand, lam_new, res_new
    return u, lam, res


def minimize_rayleigh(mesh: TriMesh, params: DomainParams,
                      options: SolverOptions | None = None) -> SteklovSolution:
    """Minimize the Rayleigh quotient over the unit-boundary-norm sphere.

    Preconditioned projected gradient descent with Armijo backtracking from
    u = 1 (or ``options.initial``). With ``restarts > 1`` further starts are
    drawn at random from ``seed`` and the best (smallest) eigenvalue over
    all starts is returned. The result is sign-normalized so the weighted
    trace integral of u is >= 0. A solution that exhausted max_iter is
    returned with converged=False.
    """
    opts = options or SolverOptions()
    ws = workspace_for(mesh, params)
    p, q = ws.p, ws.q

    best = None
    converged_lams = []
    total_iters = 0
    restarts_done = 0
    for restart in range(max(1, opts.restarts)):
        if restart == 0 and opts.initial is not None:
            u = np.asarray(opts.initial, dtype=float).copy()
        elif restart == 0:
            u = np.ones(ws.num_dof)
        else:
            rng = np.random.default_rng(opts.seed + restart)
            u = rng.standard_normal(ws.num_dof)
        try:
            u = _normalize(ws, u, opts.reg_eps)
        except ZeroTrace:
            continue
        restarts_done += 1

        converged = False
        step = 1.0
        precond = None
        stale_metric = True
        history = [] if opts.track_history else None
        for it in range(opts.max_iter):
            total_iters += 1
            if precond is None or it % opts.metric_refresh == 0:
                precond = spla.splu(ws.metric_matrix(u, opts.reg_eps).tocsc())
                stale_metric = False
            e, ge = ws.energy(u, opts.reg_eps)
            b, gb = ws.boundary(u, opts.reg_eps)
            lam = e / b ** (p / q)
            g = ge - (p / q) * (e / b) * gb
            d = -precond.solve(g)
            descent = float(np.dot(g, d))
            best_t, best_u, best_r = None, None, math.inf
            if descent < 0.0:
                best_t, best_u, best_r = _step_ladder(ws, u, d, lam, step, opts)
            if best_t is None or best_r > lam + opts.armijo_c * best_t * descent:
                if stale_metric:
                    # one retry with a metric rebuilt at the current iterate
                    precond = spla.splu(ws.metric_matrix(u, opts.reg_eps).tocsc())
                    stale_metric = False
                    d = -precond.solve(g)
                    descent = float(np.dot(g, d))
                    if descent < 0.0:
                        best_t, best_u, best_r = _step_ladder(ws, u, d, lam, step, opts)
                if best_t is None or best_r > lam + opts.armijo_c * best_t * descent:
                    converged = ws.residual(u, lam, opts.reg_eps) < 10.0 * opts.tol_rel
                    break
            u = best_u
            step = best_t
            stale_metric = True
            if history is not None:
                history.append(float(best_r))
            rel_drop = (lam - best_r) / max(abs(best_r), 1e-300)
            if rel_drop < opts.tol_rel:
                res = ws.residual(u, best_r, opts.reg_eps)
                if res < 10.0 * opts.tol_rel:
                    converged = True
                    break

        if not converged:
            u, lam, res = _picard_polish(ws, u, opts)
            converged = res < 10.0 * opts.tol_rel
        u = _normalize(ws, u, opts.reg_eps)
        e, _ = ws.energy(u, opts.reg_eps, with_grad=False)
        b, _ = ws.boundary(u, opts.reg_eps, with_grad=False)
        lam = e / b ** (p / q)
        if converged:
            converged_lams.append(lam)
        if best is None or lam < best[0]:
            best = (lam, u, e, b, converged, history)

    if best is None:
        raise ZeroTrace("all restarts produced trace-free iterates")
    lam, u, e, b, converged, history = best
    if ws.trace_integral(u) < 0.0:
        u = -u
    residual = ws.residual(u, lam, opts.reg_eps)
    spread = None
    if opts.restarts > 1 and converged_lams:
        low = min(converged_lams)
        spread = float((max(converged_lams) - low) / low)
    return SteklovSolution(
        lam=float(lam),
        u=FemFunction(mesh=mesh, values=u),
        energy=float(e),
        boundary_norm=float(b ** (1.0 / q)),
        residual=float(residual),
        mu=float(lam * p / q),
        iterations=total_iters,
        restarts=restarts_done,
        converged=bool(converged),
        reg_eps=opts.reg_eps,
        dof=ws.num_dof,
        history=tuple(history) if history is not None else None,
        start_spread=spread,
    )


def linear_oracle(mesh: TriMesh, theta: float, tol: float = 1e-13,
                  max_iter: int = 400) -> tuple[float, FemFunction]:
    """Smallest eigenvalue of (K + M) u = lambda * M_boundary u.

    Shifted inverse power iteration on the pencil; the boundary mass is
    singular (interior nodes), which the iteration handles naturally since
    its null space belongs to the infinite eigenvalue. Independent of the
    descent path.
    """
    ws = linear_workspace(mesh, theta)
    A = (ws.stiffness + ws.mass).tocsc()
    Mb = ws.boundary_mass
    solver = spla.splu(A)
    x = np.ones(ws.num_dof)
    lam_prev = lam_prev2 = math.inf
    stable = 0
    for it in range(max_iter):
        z = solver.solve(Mb @ x)
        nrm = math.sqrt(float(z @ (Mb @ z)))
        if nrm <= 0.0 or not math.isfinite(nrm):
            raise IterationStall("inverse iteration lost the boundary component")
        x = z / nrm
        Ax = A @ x
        Mx = Mb @ x
        lam = float(x @ Ax) / float(x @ Mx)
        # at the rounding floor the iterate can alternate between two
        # vectors whose quotients differ by more than tol; a quotient that
        # repeats the one two steps back is as converged as it can get
        step = min(abs(lam - lam_prev), abs(lam - lam_prev2))
        stable = stable + 1 if step <= tol * abs(lam) else 0
        if stable >= 3:
            u = x
            if ws.trace_integral(u) < 0.0:
                u = -u
            return lam, FemFunction(mesh=mesh, values=u)
        if it == 60 and abs(lam - lam_prev) > 1e-6 * abs(lam):
            # slow pencil: refactor close to the target and keep iterating
            solver = spla.splu((A - 0.95 * lam * Mb).tocsc())
        lam_prev, lam_prev2 = lam, lam_prev
    raise IterationStall(f"inverse power iteration did not converge in {max_iter} steps")


@dataclass(frozen=True)
class TraceConstantBound:
    """Trace constant from an eigenvalue with its factorized upper bound."""

    c_tr: float
    bound_factor: float
    bound_holds_hint: bool | None = None
    reference_c_tr: float | None = None


def trace_constant(lam: float, params: DomainParams,
                   ctr_reference: float | None = None) -> TraceConstantBound:
    """C_tr = lam^(-1/p) and the explicit cusp-vs-simplex bound factor.

    If ``ctr_reference`` (the simplex trace constant at the same exponents)
    is supplied, the hint reports whether C_tr <= bound_factor * reference.
    """
    if lam <= 0.0:
        raise RangeViolation("lam", "lam > 0")
    n, gamma, p, q = params.n, params.gamma, params.p, params.q
    exps = derived_exponents(params)
    a = exps.a_max
    inner = (n - 1) + (n - p) ** 2 / (gamma - p) ** 2 \
        + (p - 1) ** 2 * (gamma - n) ** 2 / ((gamma - p) ** 2 * (n - 1))
    factor = a ** (1.0 / q - 1.0 / p) * math.sqrt(inner)
    c_tr = lam ** (-1.0 / p)
    hint = None
    if ctr_reference is not None:
        hint = bool(c_tr <= factor * ctr_reference)
    return TraceConstantBound(c_tr=float(c_tr), bound_factor=float(factor),
                              bound_holds_hint=hint,
                              reference_c_tr=ctr_reference)
