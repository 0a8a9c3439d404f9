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

Only the powers of the heights depend on theta. Everything else (the band's
nodes, the logarithms of every height, the cutoff's powers, the slanted
face's surface factor) is taken once per eps grid, so a theta of a sharpness
scan costs one exponential per set of heights. Slopes are one fixed weighted
sum of log2 of the norms: the least-squares weights of the eps grid.
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


def _band_nodes(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the transition band's Gauss nodes as one (eps, panel, node) array and
    # its panel widths as one (eps, panel) array, for the 1-D array eps
    xg, _ = gauss_nodes_01(TRANSITION_ORDER)
    edges = eps[:, None] * np.linspace(1.0, 2.0, TRANSITION_PANELS + 1)
    widths = np.diff(edges)
    return edges[:, :-1, None] + widths[..., None] * xg, widths


def _band_sum(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    # the Gauss sums of values on the nodes of _band_nodes, one per eps
    _, wg = gauss_nodes_01(TRANSITION_ORDER)
    return (widths * (values * wg).sum(axis=-1)).sum(axis=-1)


def _log_heights(t: np.ndarray) -> np.ndarray:
    # log t behind every powt(t, e) = exp(e * log t) taken below, with powt's
    # t > 0 gate run once per array
    if (t <= 0.0).any():
        raise RangeViolation("t", "t > 0")
    return np.log(t)


# the transition band (1, 2) of the self-similar terms and its log heights
_UNIT_BAND, _UNIT_WIDTHS = _band_nodes(np.ones(1))
_UNIT_LOG = np.log(_UNIT_BAND)


def _self_similar(log_grid: np.ndarray, e: float, plateau: float,
                  band: np.ndarray) -> np.ndarray:
    # eps**(e+1) * (plateau + integral over (1, 2) of the integrand whose
    # values on _UNIT_BAND are band), multiplied in log space so neither
    # factor under- or overflows on its own
    total = plateau + _band_sum(band, _UNIT_WIDTHS)
    return np.exp((e + 1.0) * log_grid + np.log(total))


class _BoundaryTerms:
    """The theta-free parts of the boundary norms on one eps grid at one q.

    Every height the norms integrate over is fixed by the grid alone, except
    the graded rule of the slanted face's plateau, which follows theta's side
    exponent; those heights are taken once per rule. A theta then costs one
    exp(sigma * log t) per set of heights, bitwise powt(t, sigma).
    """

    def __init__(self, params: DomainParams, q: float, grid: np.ndarray):
        self.params, self.q, self.grid = params, q, grid
        self.log_grid = np.log(grid)
        self.slant = face_parametrization(BoundaryFace.slanted(1), params).slant_factor
        self.unit_eta = _cubic_value(_UNIT_BAND) ** q
        band, self.band_widths = _band_nodes(grid)
        self.band_log = _log_heights(band)
        self.band_eta = _cubic_value(band / grid[:, None, None]) ** q
        self.band_slant = self.slant(band)
        self.plateaus = {}

    def _plateau(self, lowest: float):
        # log heights and surface factor of the slanted face's plateau on the
        # graded rule for exponents >= lowest, and the rule
        if lowest not in self.plateaus:
            rule = graded_interval_rule(lowest)
            t = self.grid[:, None] * rule.nodes
            self.plateaus[lowest] = _log_heights(t), self.slant(t), rule
        return self.plateaus[lowest]

    def norms(self, theta: float) -> np.ndarray:
        """Boundary half of test_function_norms, one norm per entry of grid."""
        sigma_b = side_exponent(theta, self.params)
        flat = _self_similar(self.log_grid, sigma_b, 1.0 / (sigma_b + 1.0),
                             self.unit_eta * np.exp(sigma_b * _UNIT_LOG))
        log_t, slant_t, rule = self._plateau(min(0.0, sigma_b))
        slanted = self.grid * (np.exp(sigma_b * log_t) * slant_t
                               * rule.weights).sum(axis=-1)
        slanted += _band_sum(self.band_eta * np.exp(sigma_b * self.band_log)
                             * self.band_slant, self.band_widths)
        return ((self.params.n - 1) * (flat + slanted)) ** (1.0 / self.q)


def _sobolev_norms(params: DomainParams, grid: np.ndarray) -> np.ndarray:
    """Sobolev half of test_function_norms, one norm per entry of grid."""
    p = params.p
    nu = params.alpha * (params.n - 1)
    log_grid, weight = np.log(grid), np.exp(nu * _UNIT_LOG)
    val_p = _self_similar(log_grid, nu, 1.0 / (nu + 1.0),
                          _cubic_value(_UNIT_BAND) ** p * weight)
    grad_p = _self_similar(log_grid, nu - p, 0.0,
                           np.abs(_cubic_derivative(_UNIT_BAND)) ** p * weight)
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
    boundary_norm = _BoundaryTerms(params, q, grid).norms(theta)
    sobolev = _sobolev_norms(params, grid)
    if np.ndim(eps) == 0:
        return float(boundary_norm[0]), float(sobolev[0])
    return boundary_norm, sobolev


DEFAULT_EPS_GRID = 2.0 ** (-np.arange(4, 13, dtype=float))
# least-squares slope weights on DEFAULT_EPS_GRID: for x = log2(eps), the slope
# of the fit to y is sum_i W_i y_i with W = (x - mean x) / sum (x - mean x)**2
_CENTRED = np.log2(DEFAULT_EPS_GRID) - np.log2(DEFAULT_EPS_GRID).mean()
_SLOPE_WEIGHTS = _CENTRED / (_CENTRED ** 2).sum()


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
    return float(np.dot(_SLOPE_WEIGHTS, np.log2(norms)))


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
    # slope fitted once and the theta-free parts of the boundary norms taken
    # once; scaling_slopes rejects a theta that is not integrable before it
    # fits a slope, so the smallest theta is checked first
    side_exponent(thetas[0], params)
    with np.errstate(all="ignore"):
        rhs = _sobolev_norms(params, DEFAULT_EPS_GRID)
        terms = _BoundaryTerms(params, q, DEFAULT_EPS_GRID)
    rhs_slope = _sobolev_slope(params, rhs)
    rows = np.empty((thetas.size, 3))
    for k, theta in enumerate(thetas):
        with np.errstate(all="ignore"):
            lhs = terms.norms(theta)
        rows[k] = (theta, _boundary_slope(params, theta, lhs) - rhs_slope,
                   theta - theta_min)
    return SharpnessScan(theta_min=theta_min, rows=rows)
