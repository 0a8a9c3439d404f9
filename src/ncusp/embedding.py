"""Sharpness analysis for power-weight trace embeddings.

Builds the height-only test family u(x) = eta(x_n / eps) from one compactly
supported cubic cutoff eta, reduces both sides of the trace inequality
exactly to one-dimensional integrals, and fits log-log slopes on a fixed
dyadic eps grid against the predicted exponents

    boundary side:  (theta + alpha*(n-2) + 1) / q
    Sobolev side:   (alpha*(n-1) + 1 - p) / p.

All integrals split at the cutoff's plateau edge, so quadrature sees only
smooth pieces: the plateau (0, eps) is a pure power integral, exact for the
self-similar terms and on the graded rule for the slanted face, and the
transition band (eps, 2*eps) uses panel Gauss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RangeViolation
from .geometry import (
    BoundaryFace,
    DomainParams,
    derived_exponents,
    face_parametrization,
    powt,
)
from .quadrature import gauss_nodes_01, graded_interval_rule, side_exponent

__all__ = [
    "ScalingResult",
    "SharpnessScan",
    "test_function_norms",
    "scaling_slopes",
    "sharpness_scan",
]


def _cubic_value(s):
    """The cutoff eta: C^1, 1 on [0, 1], 0 on [2, inf), cubic and monotone
    between, with |eta'| <= 3/2."""
    s = np.asarray(s, dtype=float)
    u = np.clip(s - 1.0, 0.0, 1.0)
    return 1.0 - u * u * (3.0 - 2.0 * u)


def _cubic_derivative(s):
    s = np.asarray(s, dtype=float)
    u = s - 1.0
    inside = (u > 0.0) & (u < 1.0)
    return np.where(inside, -6.0 * u * (1.0 - u), 0.0)


# Gauss points per panel and panels of the transition band (eps, 2*eps)
TRANSITION_ORDER = 16
TRANSITION_PANELS = 4


def _transition_integral(fn, eps: np.ndarray) -> np.ndarray:
    # integral over (eps, 2*eps) for each entry of the 1-D array eps; the
    # integrand is smooth inside, mildly singular fractional powers only at
    # the panel endpoints. fn sees all nodes as one (eps, panel, node) array.
    xg, wg = gauss_nodes_01(TRANSITION_ORDER)
    edges = eps[:, None] * np.linspace(1.0, 2.0, TRANSITION_PANELS + 1)
    widths = np.diff(edges)
    values = fn(edges[:, :-1, None] + widths[..., None] * xg)
    return (widths * (values * wg).sum(axis=-1)).sum(axis=-1)


def _self_similar(grid: np.ndarray, e: float, plateau: float, band) -> np.ndarray:
    # eps**(e+1) * (plateau + integral of band over (1, 2)), multiplied in
    # log space so neither factor under- or overflows on its own
    total = plateau + _transition_integral(band, np.ones(1))
    return np.exp((e + 1.0) * np.log(grid) + np.log(total))


def _slant_factor(params: DomainParams):
    """The slanted face's surface factor at the heights t of `_boundary_norms`
    on one eps grid, once per key: the graded rule's exponent for the plateau
    heights, shared by the thetas of a scan whose rules agree, None for the
    transition band's, shared by all."""
    factor = face_parametrization(BoundaryFace.slanted(1), params).slant_factor
    taken = {}

    def at(t: np.ndarray, key: float | None) -> np.ndarray:
        if key not in taken:
            taken[key] = factor(t)
        return taken[key]
    return at


def _boundary_norms(params: DomainParams, theta: float, q: float,
                    grid: np.ndarray, slant) -> np.ndarray:
    """Boundary half of test_function_norms, one norm per entry of grid, with
    the surface factor ``slant`` of `_slant_factor` on that grid."""
    sigma_b = side_exponent(theta, params)
    flat = _self_similar(grid, sigma_b, 1.0 / (sigma_b + 1.0),
                         lambda s: _cubic_value(s) ** q * powt(s, sigma_b))

    lowest = min(0.0, sigma_b)
    rule = graded_interval_rule(lowest)
    t = grid[:, None] * rule.nodes
    slanted = grid * (powt(t, sigma_b) * slant(t, lowest) * rule.weights).sum(axis=-1)
    slanted += _transition_integral(
        lambda t: _cubic_value(t / grid[:, None, None]) ** q * powt(t, sigma_b)
        * slant(t, None), grid)
    return ((params.n - 1) * (flat + slanted)) ** (1.0 / q)


def _sobolev_norms(params: DomainParams, grid: np.ndarray) -> np.ndarray:
    """Sobolev half of test_function_norms, one norm per entry of grid."""
    p = params.p
    nu = params.alpha * (params.n - 1)
    val_p = _self_similar(grid, nu, 1.0 / (nu + 1.0),
                          lambda s: _cubic_value(s) ** p * powt(s, nu))
    grad_p = _self_similar(grid, nu - p, 0.0,
                           lambda s: np.abs(_cubic_derivative(s)) ** p * powt(s, nu))
    return grad_p ** (1.0 / p) + val_p ** (1.0 / p)


def test_function_norms(params: DomainParams, theta: float, q: float, eps):
    """Boundary and Sobolev norms of the cutoff test function at scale eps.

    eps is a number (floats out) or a 1-D array (one norm per entry). Both
    are exact one-dimensional reductions: the boundary norm sums the flat and
    slanted faces (the top face sees a vanished cutoff), and the Sobolev norm
    combines the gradient and function p-norms. Every term but the slanted
    face is self-similar, eps**(e+1) times an eps-free integral over (0, 2)
    whose plateau (0, 1) is 1/(e+1); only the slanted face, whose surface
    factor is not a power of t, is integrated at each eps.
    """
    grid = np.atleast_1d(np.asarray(eps, dtype=float))
    if grid.ndim != 1 or not np.all((0.0 < grid) & (grid < 0.5)):
        raise RangeViolation("eps", "0 < eps < 1/2, as a number or a 1-D array")
    boundary_norm = _boundary_norms(params, theta, q, grid, _slant_factor(params))
    sobolev = _sobolev_norms(params, grid)
    if np.ndim(eps) == 0:
        return float(boundary_norm[0]), float(sobolev[0])
    return boundary_norm, sobolev


DEFAULT_EPS_GRID = 2.0 ** (-np.arange(4, 13, dtype=float))


@dataclass(frozen=True)
class ScalingResult:
    """Fitted log-log slopes of the test-family norms against eps."""

    eps_grid: np.ndarray
    lhs_norms: np.ndarray
    rhs_norms: np.ndarray
    lhs_slope: float
    rhs_slope: float
    predicted_lhs: float
    predicted_rhs: float


def _slope(norms: np.ndarray, key: str, side: str) -> float:
    """Least-squares slope of log2(norms) against log2(DEFAULT_EPS_GRID);
    NumericalError naming key unless every norm is finite and positive."""
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise NumericalError(
            f"{key}: the {side} norm of the test function on the eps grid is not a "
            "finite positive number, so no slope can be fitted")
    return float(np.polyfit(np.log2(DEFAULT_EPS_GRID), np.log2(norms), 1)[0])


def _sobolev_slope(params: DomainParams, norms: np.ndarray) -> float:
    return _slope(norms, f"gamma = {params.gamma:g}", "Sobolev")


def _boundary_slope(params: DomainParams, theta: float, norms: np.ndarray) -> float:
    key = f"theta = {theta:g}"
    if params.p < params.n and theta == derived_exponents(params).beta:
        # the default theta is the sharp weight, which grows with gamma
        key += f" (the sharp weight at gamma = {params.gamma:g})"
    return _slope(norms, key, "boundary")


def scaling_slopes(params: DomainParams, theta: float, q: float) -> ScalingResult:
    """Least-squares slopes of both norms on the dyadic grid DEFAULT_EPS_GRID,
    eps = 2^-4 .. 2^-12.

    Raises NumericalError when a norm is not finite and positive: naming gamma
    for the Sobolev norm, whose exponents come from gamma, and theta for the
    boundary norm, whose power of eps is theta + alpha(n-2) + 1. For a large
    gamma or theta the norm at the smallest eps underflows.
    """
    n, p, alpha = params.n, params.p, params.alpha
    sigma_b = side_exponent(theta, params)
    # a norm that over- or underflows is reported below, not warned about
    with np.errstate(all="ignore"):
        lhs, rhs = test_function_norms(params, theta, q, DEFAULT_EPS_GRID)
    rhs_slope = _sobolev_slope(params, rhs)
    lhs_slope = _boundary_slope(params, theta, lhs)
    return ScalingResult(
        eps_grid=DEFAULT_EPS_GRID,
        lhs_norms=lhs,
        rhs_norms=rhs,
        lhs_slope=lhs_slope,
        rhs_slope=rhs_slope,
        predicted_lhs=(sigma_b + 1.0) / q,
        predicted_rhs=(alpha * (n - 1) + 1.0 - p) / p,
    )


@dataclass(frozen=True)
class SharpnessScan:
    """Sign comparison of slope gaps against the distance to theta_min."""

    theta_min: float
    rows: np.ndarray  # columns: theta, lhs_slope - rhs_slope, theta - theta_min


def sharpness_scan(params: DomainParams, q: float, theta_grid) -> SharpnessScan:
    """Scan weight exponents across the necessary threshold.

    For each theta, records the fitted slope gap; its sign matches the sign
    of theta - theta_min away from the threshold.
    """
    thetas = np.sort(np.asarray(theta_grid, dtype=float))
    if not np.all(np.isfinite(thetas)):
        raise RangeViolation("theta_grid", "finite entries")
    theta_min = derived_exponents(params).theta_min(q)
    if not thetas[0] <= theta_min <= thetas[-1]:
        raise RangeViolation("theta_grid", "grid must straddle theta_min")
    # the gaps scaling_slopes gives at each theta, with the theta-free Sobolev
    # slope fitted once and the surface factor taken once per set of heights;
    # scaling_slopes rejects a theta that is not integrable before it fits a
    # slope, so the smallest theta is checked first
    side_exponent(thetas[0], params)
    with np.errstate(all="ignore"):
        rhs = _sobolev_norms(params, DEFAULT_EPS_GRID)
    rhs_slope = _sobolev_slope(params, rhs)
    slant = _slant_factor(params)
    rows = np.empty((thetas.size, 3))
    for k, theta in enumerate(thetas):
        with np.errstate(all="ignore"):
            lhs = _boundary_norms(params, theta, q, DEFAULT_EPS_GRID, slant)
        rows[k] = (theta, _boundary_slope(params, theta, lhs) - rhs_slope,
                   theta - theta_min)
    return SharpnessScan(theta_min=theta_min, rows=rows)
