"""Distortion constants, norms, and consistency checks for the straightening map.

The composition-operator distortion of the map is measured through the
spectral norm of its Jacobi matrix, available in closed form from the
matrix's diagonal-plus-last-column structure. Sampled suprema use an
unscrambled Halton sequence so every run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    SIZE_BUDGET,
    DivergentIntegral,
    MapParameterTooLarge,
    RangeViolation,
    check_number,
)
from .geometry import (
    BoundaryFace,
    CuspMap,
    DomainParams,
    boundary_faces,
    derived_exponents,
    face_parametrization,
    face_pullback_weight,
    map_jacobian,
    map_points,
    powt,
    quasi_random_model_interior,
    unmap_points,
)
from .quadrature import (
    CROSS_ORDER,
    GradedRule,
    _tensor_cube_nodes,
    gauss_nodes_01,
    graded_interval_rule,
    side_exponent,
)

__all__ = [
    "KDistortion",
    "RangeReport",
    "NormValue",
    "Profile1D",
    "dphi_spectral_norm",
    "K_pp_estimate",
    "K_ps_estimate",
    "change_of_variables_check",
    "area_formula_check",
    "embedding_ranges",
    "weighted_boundary_norm",
    "sobolev_norm",
]

_EPS_FLOOR = 1e-300
# Gauss points per cross-section axis in the change-of-variables and area
# formula checks (the distortion integral uses quadrature.CROSS_ORDER)
CHECK_CROSS_ORDER = 10


def dphi_spectral_norm(cmap: CuspMap, y) -> np.ndarray:
    """Spectral norm of the forward Jacobi matrix at interior model points.

    The matrix is diagonal except for its last column, so the norm is the
    largest singular value of an effective 2x2 block.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    yn = y[:, -1]
    a, alpha = cmap.a, cmap.alpha
    d = powt(yn, a * alpha - 1.0)
    b = a * powt(yn, a - 1.0)
    v2 = (a * alpha - 1.0) ** 2 * np.sum(y[:, :-1] ** 2, axis=1) \
        * powt(yn, 2.0 * (a * alpha - 2.0))
    trace = d * d + v2 + b * b
    disc = np.sqrt(np.maximum(trace * trace - 4.0 * (d * b) ** 2, 0.0))
    smax2 = 0.5 * (trace + disc)
    # the diagonal singular value can dominate only if it exceeds the block
    return np.sqrt(np.maximum(smax2, d * d))


@dataclass(frozen=True)
class KDistortion:
    """Sampled distortion estimate together with its analytic upper bound."""

    sampled: float
    analytic_bound: float
    samples: int


def K_pp_estimate(cmap: CuspMap, samples: int = 20000) -> KDistortion:
    """Sampled sup of (|D phi|^p / J)^(1/p) with the closed-form upper bound.

    The sup is a lower estimate taken over a deterministic low-discrepancy
    sample; the bound (1/a)^(1/p) * ((n-1)((a*alpha-1)^2+1) + a^2)^(1/2) is
    exact at a = (n-p)/(gamma-p) where the height power degenerates.
    """
    check_number("samples", samples, 1, SIZE_BUDGET, integer=True)
    exps = derived_exponents(cmap.params)
    if cmap.a > exps.a_max:
        raise MapParameterTooLarge(
            f"a = {cmap.a:g} exceeds (n-p)/(gamma-p) = {exps.a_max:g}")
    p = cmap.params.p
    y = quasi_random_model_interior(cmap.n, samples)
    vals = dphi_spectral_norm(cmap, y) / map_jacobian(cmap, y[:, -1]) ** (1.0 / p)
    a, alpha, n = cmap.a, cmap.alpha, cmap.n
    bound = (1.0 / a) ** (1.0 / p) * math.sqrt(
        (n - 1) * ((a * alpha - 1.0) ** 2 + 1.0) + a * a)
    return KDistortion(sampled=float(np.max(vals)), analytic_bound=bound,
                       samples=samples)


def K_ps_estimate(cmap: CuspMap, p: float, s: float) -> float:
    """Lebesgue-exponent distortion (integral branch) for 1 < s < p.

    Reduces along the height with tensor Gauss quadrature across the
    section, using the exact spectral norm of the Jacobi matrix. Divergence
    is detected from the tip exponent before integrating.
    """
    if not 1.0 < s < p:
        raise RangeViolation("s", "1 < s < p")
    a, alpha, n = cmap.a, cmap.alpha, cmap.n
    gamma = cmap.params.gamma
    expo = s / (p - s)
    tip = (p * (a - 1.0) - (a * gamma - n)) * expo + (n - 1)
    if tip <= -1.0:
        raise DivergentIntegral(tip)
    cpts, cwts = _tensor_cube_nodes(n - 1, CROSS_ORDER)

    def integrand(t):
        jac = map_jacobian(cmap, t)
        acc = np.zeros_like(t)
        for cp, cw in zip(cpts, cwts):
            y = np.empty((t.shape[0], n))
            y[:, -1] = t
            y[:, :-1] = cp[None, :] * t[:, None]
            acc += cw * (dphi_spectral_norm(cmap, y) ** p / jac) ** expo
        return powt(t, float(n - 1)) * acc

    integral = graded_interval_rule(min(0.0, tip)).integrate(integrand)
    return float(integral ** ((p - s) / (p * s)))


def change_of_variables_check(f, cmap: CuspMap, box=None,
                              panels: tuple[int, int] = (48, 40)) -> float:
    """Relative discrepancy between both sides of the change of variables.

    Compares the pullback integral of f * |J| over a region of the model
    domain against the direct integral of f over its image, with separately
    constructed quadratures on the two sides. ``box = (lo, hi)`` restricts
    to an axis box of the model domain (must satisfy hi_i <= lo_n so the box
    stays inside); ``box = None`` uses the whole domain.
    """
    n, a, alpha = cmap.n, cmap.a, cmap.alpha
    gamma = cmap.params.gamma
    xg, wg = gauss_nodes_01(CHECK_CROSS_ORDER)

    if box is None:
        rule_l = graded_interval_rule(min(0.0, a * gamma - 1.0), panels=panels[0])
        rule_r = graded_interval_rule(min(0.0, gamma - 1.0), panels=panels[1])
        cpts, cwts = _tensor_cube_nodes(n - 1, CHECK_CROSS_ORDER)

        def lhs_integrand(t):
            acc = np.zeros_like(t)
            for cp, cw in zip(cpts, cwts):
                y = np.empty((t.shape[0], n))
                y[:, -1] = t
                y[:, :-1] = cp[None, :] * t[:, None]
                acc += cw * np.asarray(f(map_points(cmap, y)), dtype=float)
            return powt(t, float(n - 1)) * map_jacobian(cmap, t) * acc

        def rhs_integrand(t):
            acc = np.zeros_like(t)
            for cp, cw in zip(cpts, cwts):
                x = np.empty((t.shape[0], n))
                x[:, -1] = t
                x[:, :-1] = cp[None, :] * powt(t, alpha)[:, None]
                acc += cw * np.asarray(f(x), dtype=float)
            return powt(t, alpha * (n - 1)) * acc

        lhs = rule_l.integrate(lhs_integrand)
        rhs = rule_r.integrate(rhs_integrand)
    else:
        lo = np.asarray(box[0], dtype=float)
        hi = np.asarray(box[1], dtype=float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise RangeViolation("box", f"bounds must have {n} coordinates")
        if np.any(lo < 0.0) or np.any(hi <= lo) or hi[-1] > 1.0 \
                or np.any(hi[:-1] > lo[-1]):
            raise RangeViolation("box", "box must sit inside the model domain")
        cpts, cwts = _tensor_cube_nodes(n - 1, CHECK_CROSS_ORDER)
        yn = lo[-1] + (hi[-1] - lo[-1]) * xg
        wyn = (hi[-1] - lo[-1]) * wg
        widths = hi[:-1] - lo[:-1]
        lhs = 0.0
        for t, wt in zip(yn, wyn):
            y = np.empty((cpts.shape[0], n))
            y[:, -1] = t
            y[:, :-1] = lo[:-1] + cpts * widths
            lhs += wt * np.prod(widths) * map_jacobian(cmap, t) \
                * float(np.dot(cwts, f(map_points(cmap, y))))
        # image: x_n in (lo_n**a, hi_n**a), cross scaled by x_n**((a*alpha-1)/a)
        xn = powt(lo[-1], a) + (powt(hi[-1], a) - powt(lo[-1], a)) * xg
        wxn = (powt(hi[-1], a) - powt(lo[-1], a)) * wg
        rhs = 0.0
        for t, wt in zip(xn, wxn):
            scale = powt(t, (a * alpha - 1.0) / a)
            x = np.empty((cpts.shape[0], n))
            x[:, -1] = t
            x[:, :-1] = (lo[:-1] + cpts * widths) * scale
            rhs += wt * np.prod(widths * scale) * float(np.dot(cwts, f(x)))
    return abs(lhs - rhs) / max(abs(rhs), _EPS_FLOOR)


def area_formula_check(g, cmap: CuspMap, rule: GradedRule | None = None) -> float:
    """Max per-face discrepancy of the boundary area formula.

    For every face, compares the direct surface integral of g over the
    model-domain boundary with the pulled-back chart integral over the
    matching face of the cuspidal boundary. Returns the worst relative
    mismatch across faces.
    """
    n, alpha = cmap.n, cmap.alpha
    params = cmap.params
    if rule is None:
        rule = graded_interval_rule(0.0)
    cpts, cwts = _tensor_cube_nodes(n - 2, CHECK_CROSS_ORDER)
    top_pts, top_wts = _tensor_cube_nodes(n - 1, CHECK_CROSS_ORDER)
    worst = 0.0
    for face in boundary_faces(n):
        if face.kind == "top":
            ys = np.ones((top_pts.shape[0], n))
            ys[:, :-1] = top_pts
            lhs = float(np.dot(top_wts, np.asarray(g(ys), dtype=float)))
            rhs_pts = ys  # top face is fixed by the map
            rhs = float(np.dot(top_wts, np.asarray(g(rhs_pts), dtype=float))
                        * face_pullback_weight(cmap, face, 1.0))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), _EPS_FLOOR))
            continue
        i = face.index - 1
        cross_cols = [j for j in range(n - 1) if j != i]

        def model_integrand(s):
            # direct chart of the model-domain face: cross width is s itself
            acc = np.zeros_like(s)
            for cp, cw in zip(cpts, cwts):
                y = np.zeros((s.shape[0], n))
                y[:, -1] = s
                if face.kind == "slanted":
                    y[:, i] = s
                if cross_cols:
                    y[:, cross_cols] = cp[None, :] * s[:, None]
                acc += cw * np.asarray(g(y), dtype=float)
            factor = math.sqrt(2.0) if face.kind == "slanted" else 1.0
            return factor * powt(s, float(n - 2)) * acc

        chart = face_parametrization(face, params)

        def pulled_back_integrand(t):
            width = powt(t, alpha)
            acc = np.zeros_like(t)
            for cp, cw in zip(cpts, cwts):
                x = chart.point(t, cp[None, :] * width[:, None])
                acc += cw * np.asarray(g(unmap_points(cmap, x)), dtype=float)
            return powt(t, alpha * (n - 2)) * face_pullback_weight(cmap, face, t) * acc

        lhs = rule.integrate(model_integrand)
        rhs = rule.integrate(pulled_back_integrand)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), _EPS_FLOOR))
    return worst


@dataclass(frozen=True)
class RangeReport:
    """Embedding ranges implied by the parameters."""

    unweighted_r_range: tuple[float, float] | None
    r_max: float
    d_gamma: float
    gv_q_min: float
    p_star: float
    holder_factor: float

    def holder_q_min(self, r: float) -> float:
        """Least q making the weighted-to-unweighted Holder step work at r."""
        return r * self.holder_factor


def embedding_ranges(params: DomainParams) -> RangeReport:
    """Unweighted trace range, effective dimension, and comparison threshold."""
    exps = derived_exponents(params)
    n = params.n
    holder = 1.0 + exps.beta / (exps.alpha * (n - 2) + 1.0)
    rng = (1.0, exps.r_max) if exps.r_max > 1.0 else None
    return RangeReport(
        unweighted_r_range=rng,
        r_max=exps.r_max,
        d_gamma=exps.d_gamma,
        gv_q_min=exps.gv_q_min,
        p_star=exps.p_star,
        holder_factor=holder,
    )


@dataclass(frozen=True)
class NormValue:
    """A computed norm."""

    value: float


def weighted_boundary_norm(traces: Mapping[BoundaryFace, Callable | float],
                           q: float, theta: float, params: DomainParams) -> NormValue:
    """Weighted L^q norm of per-face trace data.

    Side-face entries are functions of the height t (exact for traces that
    depend on x_n alone); the top-face entry is a function of the chart
    coordinate for n = 2, or a constant. Values may be plain constants.
    """
    if q < 1.0:
        raise RangeViolation("q", "q >= 1")
    n = params.n
    if any(face.is_side for face in traces):
        rule = graded_interval_rule(min(0.0, side_exponent(theta, params)))
    xg, wg = gauss_nodes_01(12)
    total = 0.0
    for face, tr in sorted(traces.items()):
        fn = tr if callable(tr) else (lambda t, c=float(tr): np.full_like(t, c))
        chart = face_parametrization(face, params)
        if face.kind == "top":
            if callable(tr) and n == 2:
                total += float(np.dot(wg, np.abs(np.asarray(fn(xg), float)) ** q))
            else:
                const = float(tr(np.array([0.5]))[0]) if callable(tr) else float(tr)
                total += abs(const) ** q
            continue
        total += rule.integrate(
            lambda t: np.abs(np.asarray(fn(t), float)) ** q
            * powt(t, theta) * chart.density(t))
    return NormValue(value=float(total ** (1.0 / q)))


@dataclass(frozen=True)
class Profile1D:
    """Height-only profile u(x) = value(x_n) with its derivative."""

    value: Callable
    derivative: Callable


def sobolev_norm(u, p: float, params: DomainParams | None = None) -> NormValue:
    """Sobolev norm: gradient p-norm plus function p-norm (sum of the two).

    Accepts a height-only :class:`Profile1D` (reduced exactly to 1-D using
    the cross-section volume) or a piecewise-linear mesh function.
    """
    if isinstance(u, Profile1D):
        if params is None:
            raise RangeViolation("params", "params required for 1-D profiles")
        rule = graded_interval_rule(0.0)
        sigma = params.alpha * (params.n - 1)
        gp = rule.integrate(
            lambda t: np.abs(np.asarray(u.derivative(t), float)) ** p * powt(t, sigma))
        vp = rule.integrate(
            lambda t: np.abs(np.asarray(u.value(t), float)) ** p * powt(t, sigma))
        return NormValue(value=float(gp ** (1.0 / p) + vp ** (1.0 / p)))
    # piecewise-linear mesh function
    from .steklov.fem import fem_pnorms
    gp, vp = fem_pnorms(u, p)
    return NormValue(value=float(gp + vp))
