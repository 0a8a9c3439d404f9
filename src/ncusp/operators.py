"""Distortion constants, norms, and consistency checks for the straightening map.

The composition-operator distortion of the map is measured through the
spectral norm of its Jacobi matrix, available in closed form from the
matrix's diagonal-plus-last-column structure. Sampled suprema use an
unscrambled Halton sequence so every run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    _section_points,
    _section_total,
    boundary_integral,
    graded_interval_rule,
    section_sum,
    volume_integral,
)

__all__ = [
    "KDistortion",
    "RangeReport",
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


def _with_height(cross, t) -> np.ndarray:
    """Rows (cross, t_k), one per height; cross broadcasts over the rows.

    Stored column-major, as geometry stores points: measured 8-10% faster
    on the n = 3 measure suite and in K_ps_estimate."""
    pts = np.empty((cross.shape[-1] + 1, t.shape[0])).T
    pts[:, -1] = t
    pts[:, :-1] = cross
    return pts


def dphi_spectral_norm(cmap: CuspMap, y) -> np.ndarray:
    """Spectral norm of the forward Jacobi matrix at interior model points.

    The matrix is diagonal except for its last column, so the norm is the
    largest singular value of an effective 2x2 block.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    yn = y[:, -1]
    a, alpha = cmap.a, cmap.alpha
    # the closed form's terms, each updated in place in its order of
    # operations, so that only a few vectors of heights are alive at once:
    # v2 = (a*alpha-1)**2 * |y'|**2 * y_n**(2(a*alpha-2)) is the last column's
    # squared length, d the diagonal and b the last diagonal entry
    v2 = np.square(y[:, 0])
    for i in range(1, y.shape[1] - 1):
        v2 += np.square(y[:, i])
    v2 *= (a * alpha - 1.0) ** 2
    v2 *= powt(yn, 2.0 * (a * alpha - 2.0))
    d = powt(yn, a * alpha - 1.0)
    b = powt(yn, a - 1.0)
    b *= a
    trace = np.multiply(d, d)  # d*d + v2 + b*b
    trace += v2
    trace += np.multiply(b, b, out=v2)
    disc = np.multiply(trace, trace, out=v2)  # trace*trace - 4.0*(d*b)**2
    np.square(np.multiply(d, b, out=b), out=b)
    b *= 4.0
    disc -= b
    np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    smax2 = trace  # 0.5 * (trace + disc)
    smax2 += disc
    smax2 *= 0.5
    # the diagonal singular value can dominate only if it exceeds the block
    return np.sqrt(np.maximum(smax2, np.square(d, out=d), out=smax2), out=smax2)


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
    vals = dphi_spectral_norm(cmap, y)
    jac = map_jacobian(cmap, y[:, -1])
    jac **= 1.0 / p
    vals /= jac
    bound = (1.0 / cmap.a) ** (1.0 / p) * exps.distortion(cmap.a)
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

    def integrand(t):
        jac = map_jacobian(cmap, t)
        acc = section_sum(lambda y: (dphi_spectral_norm(cmap, y) ** p / jac) ** expo,
                          t, lambda c: _with_height(c * t[:, None], t),
                          n - 1, CROSS_ORDER)
        return powt(t, float(n - 1)) * acc

    integral = graded_interval_rule(min(0.0, tip)).integrate(integrand)
    return float(integral ** ((p - s) / (p * s)))


def change_of_variables_check(f, cmap: CuspMap,
                              panels: tuple[int, int] = (48, 40)) -> float:
    """Relative discrepancy between both sides of the change of variables.

    Compares the pullback integral of f * |J| over the whole model domain
    against the direct integral of f over the cuspidal domain, with
    separately constructed graded quadratures on the two sides (``panels``
    panels each).
    """
    n, a, alpha = cmap.n, cmap.a, cmap.alpha
    gamma = cmap.params.gamma
    rule_l = graded_interval_rule(min(0.0, a * gamma - 1.0), panels=panels[0])
    rule_r = graded_interval_rule(min(0.0, gamma - 1.0), panels=panels[1])

    def lhs_integrand(t):
        acc = section_sum(lambda y: f(map_points(cmap, y)), t,
                          lambda c: _with_height(c * t[:, None], t),
                          n - 1, CHECK_CROSS_ORDER)
        return powt(t, float(n - 1)) * map_jacobian(cmap, t) * acc

    def rhs_integrand(t):
        width = powt(t, alpha)
        acc = section_sum(f, t, lambda c: _with_height(c * width[:, None], t),
                          n - 1, CHECK_CROSS_ORDER)
        return powt(t, alpha * (n - 1)) * acc

    lhs = rule_l.integrate(lhs_integrand)
    rhs = rule_r.integrate(rhs_integrand)
    return abs(lhs - rhs) / max(abs(rhs), _EPS_FLOOR)


def _area_discrepancies(probes, cmap: CuspMap,
                        rule: GradedRule | None = None) -> list[float]:
    """area_formula_check for each probe g, the face points taken once.

    Per side face, the model chart's points (with their weight at theta 0,
    as boundary_integral sums them) and the cusp chart's points pulled back
    by the inverse map (with the chart weight) are made once; each probe then
    sums over them in the order of one area_formula_check of its own.
    """
    n, alpha = cmap.n, cmap.alpha
    params = cmap.params
    model = replace(params, gamma=float(n), theta=0.0, simplex=True)
    if rule is None:
        rule = graded_interval_rule(0.0)
    t = rule.nodes
    worst = [0.0] * len(probes)
    for face in boundary_faces(n):
        if not face.is_side:
            continue
        model_chart = face_parametrization(face, model)
        model_width = powt(t, model.alpha)
        model_points = list(_section_points(
            lambda c: model_chart.point(t, c * model_width[:, None]), n - 2, CROSS_ORDER))
        model_weight = powt(t, 0.0) * model_chart.density(t)
        chart = face_parametrization(face, params)
        width = powt(t, alpha)
        cusp_points = [(w, unmap_points(cmap, x)) for w, x in _section_points(
            lambda c: chart.point(t, c * width[:, None]), n - 2, CHECK_CROSS_ORDER)]
        cusp_weight = powt(t, alpha * (n - 2)) * face_pullback_weight(cmap, face, t)
        for k, g in enumerate(probes):
            lhs = np.dot(rule.weights, model_weight * _section_total(g, t, model_points))
            rhs = np.dot(rule.weights, cusp_weight * _section_total(g, t, cusp_points))
            lhs, rhs = float(lhs), float(rhs)
            worst[k] = max(worst[k], abs(lhs - rhs) / max(abs(lhs), _EPS_FLOOR))
    return worst


def area_formula_check(g, cmap: CuspMap, rule: GradedRule | None = None) -> float:
    """Max per-face discrepancy of the boundary area formula.

    For every side face, compares the direct surface integral of g over the
    model-domain boundary (the simplex, the alpha = 1 chart) with the
    pulled-back chart integral over the matching face of the cuspidal
    boundary. Returns the worst relative mismatch across faces. The top face
    is left out: the map fixes it pointwise with weight 1, so both of its
    sides are the same sum.
    """
    return _area_discrepancies([g], cmap, rule)[0]


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


def weighted_boundary_norm(traces: Mapping[BoundaryFace, Callable | float],
                           q: float, theta: float, params: DomainParams) -> float:
    """Weighted L^q norm of per-face trace data.

    Every face is integrated with :func:`boundary_integral`. A callable entry
    is a function of one coordinate: the height x_n on a side face, x_1 on
    the top face (exact for side traces that depend on x_n alone). Values
    may be plain constants.
    """
    if q < 1.0:
        raise RangeViolation("q", "q >= 1")
    total = 0.0
    for face, tr in sorted(traces.items()):
        fn = tr if callable(tr) else (lambda t, c=float(tr): np.full_like(t, c))
        coord = 0 if face.kind == "top" else -1
        total += boundary_integral(
            lambda x: np.abs(np.asarray(fn(x[:, coord]), float)) ** q,
            theta, [face], params)
    return float(total ** (1.0 / q))


def sobolev_norm(value: Callable, derivative: Callable, p: float,
                 params: DomainParams) -> float:
    """Sobolev norm of the height-only profile u(x) = value(x_n), whose
    derivative is ``derivative``: gradient p-norm plus function p-norm, each
    reduced exactly to 1-D by :func:`volume_integral`."""
    gp = volume_integral(lambda t: np.abs(np.asarray(derivative(t), float)) ** p, params)
    vp = volume_integral(lambda t: np.abs(np.asarray(value(t), float)) ** p, params)
    return float(gp ** (1.0 / p) + vp ** (1.0 / p))
