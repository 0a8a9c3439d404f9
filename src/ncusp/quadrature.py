"""Graded 1-D rules and triangle rules for power-weight integrands.

The interval rules are composite Gauss rules on panels graded geometrically
toward 0, where the integrands of interest behave like t**sigma with sigma
possibly negative. The tip itself is never a node. Grading depth is twice
the requested panel count (plus a closing panel), which puts the t**(-1/2)
probe below 1e-12 relative error at the default 40 panels while keeping the
error visibly convergent under panel doubling; exponents close to the -1
integrability threshold trigger an automatically deepened tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonIntegrable, RangeViolation, UnsupportedOrder
from .geometry import DomainParams, face_parametrization, powt

__all__ = [
    "GradedRule",
    "TriangleRule",
    "graded_interval_rule",
    "triangle_rule",
    "side_exponent",
    "boundary_integral",
    "volume_integral",
    "section_sum",
    "gauss_nodes_01",
]

_TAIL_TRIGGER = -0.6       # exponents below this get the deepened tail
_TAIL_TARGET = 1e-9        # truncation target for the deepened tail
_MIN_BREAKPOINT = 1e-250   # keep breakpoints well inside normal doubles
GRADING_RATIO = 0.5        # ratio of neighbouring breakpoints of a graded rule
GAUSS_ORDER = 8            # Gauss points per panel of a graded rule
CROSS_ORDER = 8            # Gauss points per cross-section axis of a face


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def gauss_nodes_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to (0, 1), read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


@dataclass(frozen=True)
class GradedRule:
    """Composite Gauss rule on (0, 1), graded toward 0.

    ``nodes`` includes the automatically extended tail. All nodes are
    strictly interior.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f, upper: float = 1.0) -> float:
        """Integrate f over (0, upper); grading scales with the interval."""
        if upper <= 0.0:
            raise RangeViolation("upper", "upper > 0")
        vals = np.asarray(f(upper * self.nodes), dtype=float)
        return float(upper * np.dot(self.weights, vals))


@lru_cache(maxsize=64)
def graded_interval_rule(min_exponent: float, panels: int = 40) -> GradedRule:
    """Graded rule accurate for integrands c * t**sigma, sigma >= min_exponent.

    Equal arguments return the same read-only rule. Raises NonIntegrable at
    or below the sigma = -1 threshold.
    """
    if not math.isfinite(min_exponent) or min_exponent <= -1.0:
        raise NonIntegrable(f"min_exponent = {min_exponent:g} is <= -1")
    if panels < 4:
        raise RangeViolation("panels", "panels >= 4")

    depth = 2 * panels - 1
    if min_exponent < _TAIL_TRIGGER:
        needed = math.log(_TAIL_TARGET) / (math.log(GRADING_RATIO) * (min_exponent + 1.0))
        depth = max(depth, int(math.ceil(needed)))
    depth = min(depth, int(math.log(_MIN_BREAKPOINT) / math.log(GRADING_RATIO)))

    breaks = GRADING_RATIO ** np.arange(depth + 1)
    lows = np.append(breaks[1:], 0.0)
    xg, wg = gauss_nodes_01(GAUSS_ORDER)
    widths = breaks - lows
    nodes = (lows[:, None] + widths[:, None] * xg[None, :]).ravel()
    weights = (widths[:, None] * wg[None, :]).ravel()
    order = np.argsort(nodes)
    return GradedRule(*_read_only(nodes[order], weights[order]))


# --------------------------------------------------------------------------
# triangle rules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleRule:
    """Symmetric quadrature rule on a triangle, weights normalized to sum 1."""

    barycentric: np.ndarray  # (k, 3)
    weights: np.ndarray      # (k,), sums to 1

    def integrate(self, f, v0, v1, v2) -> float:
        """Integrate f over one triangle with the given vertices."""
        verts = np.stack([np.asarray(v0, float), np.asarray(v1, float),
                          np.asarray(v2, float)])
        area = 0.5 * abs(
            (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
            - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1]))
        vals = np.asarray(f(self.barycentric @ verts), dtype=float)
        return float(area * np.dot(self.weights, vals))


def _sym_points(groups):
    bary, w = [], []
    for a, b, weight in groups:
        pts = {(a, b, b), (b, a, b), (b, b, a)}
        for pt in sorted(pts):
            bary.append(pt)
            w.append(weight)
    return np.array(bary), np.array(w)


def _triangle_tables():
    third = 1.0 / 3.0
    tables = {}
    tables[1] = (np.array([[third, third, third]]), np.array([1.0]))
    tables[2] = _sym_points([(2.0 / 3.0, 1.0 / 6.0, third)])
    # degree-4 six-point rule (positive weights); also serves order 3
    b4, w4 = _sym_points([
        (0.108103018168070, 0.445948490915965, 0.223381589678011),
        (0.816847572980459, 0.091576213509771, 0.109951743655322),
    ])
    tables[3] = (b4, w4)
    tables[4] = (b4, w4)
    b5, w5 = _sym_points([
        (0.059715871789770, 0.470142064105115, 0.132394152788506),
        (0.797426985353087, 0.101286507323456, 0.125939180544827),
    ])
    bary5 = np.vstack([np.array([[third, third, third]]), b5])
    wts5 = np.concatenate([[0.225], w5])
    tables[5] = (bary5, wts5)
    return {order: _read_only(*table) for order, table in tables.items()}


_TRI_TABLES = _triangle_tables()


@lru_cache(maxsize=None)
def triangle_rule(order: int) -> TriangleRule:
    """Rule exact for polynomials up to ``order`` on a triangle, order in 1..5.

    Equal orders return the same read-only rule.
    """
    if order not in _TRI_TABLES:
        raise UnsupportedOrder(f"triangle rule order must be in 1..5, got {order}")
    return TriangleRule(*_TRI_TABLES[order])


# --------------------------------------------------------------------------
# boundary and volume integrals
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tensor_cube_nodes(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tensor Gauss nodes/weights on (0, 1)^dim; dim = 0 yields one
    unit point."""
    if dim == 0:
        return _read_only(np.zeros((1, 0)), np.array([1.0]))
    x, w = gauss_nodes_01(order)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.ones(pts.shape[0])
    for g in wgrids:
        wts *= g.ravel()
    return _read_only(pts, wts)


def _section_points(point, dim: int, order: int):
    """(w_k, point(c_k)) over the nodes c_k and weights w_k of the
    order-``order`` tensor Gauss rule on (0, 1)^dim, in node order, each rows
    set made when it is reached."""
    nodes, weights = _tensor_cube_nodes(dim, order)
    return ((w, point(c)) for c, w in zip(nodes, weights))


def _section_total(f, t, points) -> np.ndarray:
    """sum_k w_k * f(rows_k) over the pairs (w_k, rows_k) of points, in order."""
    acc = np.zeros_like(t)
    for w, rows in points:
        acc += w * np.asarray(f(rows), dtype=float)
    return acc


def section_sum(f, t, point, dim: int, order: int) -> np.ndarray:
    """Tensor Gauss sum over a cross section, one value per height in t.

    Returns sum_k w_k * f(point(c_k)) over the nodes c_k and weights w_k of
    the order-``order`` tensor Gauss rule on (0, 1)^dim, added in node order.
    ``point`` maps one node (shape (dim,)) to the rows, one per height, at
    which f is evaluated.
    """
    return _section_total(f, t, _section_points(point, dim, order))


def side_exponent(theta: float, params: DomainParams) -> float:
    """theta + alpha(n-2), the power of t in a weighted side-face integral once
    the cross section is integrated out; NonIntegrable unless it is > -1."""
    sigma = theta + params.alpha * (params.n - 2)
    if sigma <= -1.0:
        raise NonIntegrable(f"theta + alpha(n-2) = {sigma:g} fails the > -1 threshold")
    return sigma


def boundary_integral(f, theta: float, faces, params: DomainParams,
                      rule: GradedRule | None = None) -> float:
    """Weighted boundary integral sum of f * x_n**theta over the given faces.

    f is called with points of shape (m, n). Side faces are reduced through
    their charts (graded rule in the height, :func:`section_sum` across); the
    top face uses tensor Gauss alone. Requires theta + alpha*(n-2) > -1
    whenever a side face is present.
    """
    faces = list(faces)
    n, alpha = params.n, params.alpha
    if any(face.is_side for face in faces):
        sigma = side_exponent(theta, params)
        rule = graded_interval_rule(min(0.0, sigma)) if rule is None else rule

    total = 0.0
    for face in faces:
        chart = face_parametrization(face, params)
        if face.kind == "top":
            pts, wts = _tensor_cube_nodes(n - 1, CROSS_ORDER)
            xs = chart.point(np.ones(pts.shape[0]), pts)
            total += float(np.dot(wts, np.asarray(f(xs), dtype=float)))
            continue
        t = rule.nodes
        width = powt(t, alpha)
        face_sum = section_sum(f, t, lambda c: chart.point(t, c * width[:, None]),
                               n - 2, CROSS_ORDER)
        total += float(np.dot(rule.weights, powt(t, theta) * chart.density(t) * face_sum))
    return total


def volume_integral(f, params: DomainParams) -> float:
    """Integral over the cuspidal domain of f, a function of the height alone.

    f is called as f(t); the cross section contributes the exact factor
    t**(alpha*(n-1)).
    """
    sigma = params.alpha * (params.n - 1)
    return graded_interval_rule(0.0).integrate(
        lambda t: np.asarray(f(t), float) * powt(t, sigma))
