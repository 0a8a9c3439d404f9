"""Self-check suites for the straightening map and the measure identities.

These power the command-line ``verify-geometry`` run and the acceptance
tests: map roundtrips, Jacobian reciprocity, finite-difference consistency
of the analytic Jacobian determinant, the tangential-Jacobian sandwich, the
volume identity, and the boundary area formula.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .errors import SIZE_BUDGET, NumericalError, check_number
from .geometry import (
    CuspMap,
    _scaled_cross,
    boundary_faces,
    forward_map,
    inverse_map,
    jacobian_forward,
    jacobian_inverse,
    map_jacobian,
    map_points,
    powt,
    quasi_random_interior,
    quasi_random_model_interior,
    tangential_jacobian,
    tangential_jacobian_bounds,
)
from .operators import _area_discrepancies, change_of_variables_check
from .quadrature import volume_integral

__all__ = ["JacobianSuiteReport", "MeasureSuiteReport",
           "jacobian_suite", "measure_suite"]

ROUNDTRIP_TOL = 1e-12
RECIPROCITY_TOL = 1e-10
FD_TOL = 1e-6
FD_STEP = 1e-6
SANDWICH_SLACK = 1e-12


class _SuiteReport:
    """A suite's maxima, each checked against its bound in the class's BOUNDS."""

    BOUNDS: ClassVar[dict[str, float]]

    @property
    def unmet(self) -> tuple[str, ...]:
        """The checks that fail, each with its value and bound."""
        # a check holds when its field lies below its bound; NaN fails
        return tuple(f"{name} = {getattr(self, name):.3g} is not below {bound:g}"
                     for name, bound in self.BOUNDS.items()
                     if not getattr(self, name) < bound)

    @property
    def ok(self) -> bool:
        return not self.unmet

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


@dataclass(frozen=True)
class JacobianSuiteReport(_SuiteReport):
    BOUNDS: ClassVar[dict[str, float]] = {
        "max_roundtrip": ROUNDTRIP_TOL, "max_reciprocity": RECIPROCITY_TOL,
        "max_fd_rel": FD_TOL, "max_sandwich_violation": SANDWICH_SLACK}

    samples: int
    max_roundtrip: float
    max_reciprocity: float
    max_fd_rel: float
    max_sandwich_violation: float


def _fd_jacobi_matrix(cmap: CuspMap, y: np.ndarray) -> np.ndarray:
    """Central differences D[i, j] = dx_i/dy_j of the forward map, shape (n, n, m).

    The stencil points are mapped without the forward map's gate, so y must
    keep more than FD_STEP from every wall. A step in a cross coordinate
    leaves y_n, and with it both height powers of the map, unchanged.
    """
    m, n = y.shape
    yn = y[:, -1]
    scale, height = powt(yn, cmap.a * cmap.alpha - 1.0), powt(yn, cmap.a)
    D = np.empty((n, n, m))
    for j in range(n):
        # order "K": a plain copy() would turn column-major points into rows
        up, down = y.copy(order="K"), y.copy(order="K")
        up[:, j], down[:, j] = y[:, j] + FD_STEP, y[:, j] - FD_STEP
        if j < n - 1:
            up, down = _scaled_cross(up, scale, height), _scaled_cross(down, scale, height)
        else:
            up, down = map_points(cmap, up), map_points(cmap, down)
        D[:, j] = ((up - down) / (2.0 * FD_STEP)).T
    return D


def _determinant(D: np.ndarray) -> np.ndarray:
    """Determinants of the matrices D[:, :, k]; closed form for n <= 3."""
    if len(D) == 2:
        return D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
    if len(D) == 3:
        return D[0, 0] * (D[1, 1] * D[2, 2] - D[1, 2] * D[2, 1]) \
            - D[0, 1] * (D[1, 0] * D[2, 2] - D[1, 2] * D[2, 0]) \
            + D[0, 2] * (D[1, 0] * D[2, 1] - D[1, 1] * D[2, 0])
    return np.linalg.det(np.moveaxis(D, -1, 0))


def jacobian_suite(cmap: CuspMap, samples: int = 10000) -> JacobianSuiteReport:
    """Roundtrip, reciprocity, finite-difference, and sandwich checks.

    Raises NumericalError naming gamma and a when an image height y_n**a
    rounds to 1 (with n = 2, p = 1.5 and the default a = (n-p)/(gamma-p) and
    samples, already at gamma = 3e12): the map cannot then be inverted.
    """
    check_number("samples", samples, 1, SIZE_BUDGET, integer=True)
    n = cmap.n
    y = quasi_random_model_interior(n, samples)
    x = forward_map(cmap, y)
    if np.any(x[:, -1] >= 1.0):
        raise NumericalError(
            f"gamma = {cmap.params.gamma:g}, a = {cmap.a:g}: the image height "
            "y_n**a of a sample point rounds to 1, so the map cannot be inverted")
    back = inverse_map(cmap, x)
    # row maxima one column at a time: a reduction over rows of n is slow
    err, size = np.abs(back[:, 0] - y[:, 0]), np.abs(y[:, 0])
    for i in range(1, n):
        np.maximum(err, np.abs(back[:, i] - y[:, i]), out=err)
        np.maximum(size, np.abs(y[:, i]), out=size)
    rt = np.max(err / (1.0 + size))

    # forward_map has gated y
    jf = map_jacobian(cmap, y[:, -1])
    ji = jacobian_inverse(cmap, x)
    rec = np.max(np.abs(jf * ji - 1.0))

    # finite differences need headroom from the domain walls: jacobian_forward
    # gates y_fd, and the stencil keeps at least 0.05 * 0.05 - FD_STEP from
    # each wall, so it is not gated again
    y_fd = 0.05 + 0.9 * quasi_random_model_interior(n, samples, skip=samples + 1)
    for i in range(n - 1):
        y_fd[:, i] *= y_fd[:, -1]
    exact = jacobian_forward(cmap, y_fd)
    fd = _determinant(_fd_jacobi_matrix(cmap, y_fd))
    fd_rel = np.max(np.abs(fd - exact) / np.abs(exact))

    xg = quasi_random_interior(cmap.params, samples)
    t = xg[:, -1]
    lo, hi = tangential_jacobian_bounds(cmap, t)
    viols = []
    for face in boundary_faces(n):
        if not face.is_side:
            continue
        if face.kind == "flat":
            # a flat face's Jacobian, t**E / a, is the lower bound itself
            val = lo
        else:
            xhat = xg[:, [j for j in range(n - 1) if j != face.index - 1]]
            val = tangential_jacobian(cmap, face, t, xhat=xhat)
        viols.append(np.maximum(lo - val, val - hi) / np.maximum(1.0, np.abs(val)))
    return JacobianSuiteReport(
        samples=samples,
        max_roundtrip=float(rt),
        max_reciprocity=float(rec),
        max_fd_rel=float(fd_rel),
        # 0 when every Jacobian lies inside its bounds, NaN (which fails the
        # check) when one is NaN
        max_sandwich_violation=float(np.max(viols, initial=0.0)),
    )


@dataclass(frozen=True)
class MeasureSuiteReport(_SuiteReport):
    BOUNDS: ClassVar[dict[str, float]] = {
        "volume_rel_err": 1e-8, "area_discrepancy_const": 1e-6,
        "area_discrepancy_height": 1e-6, "area_discrepancy_first": 1e-6,
        "change_of_variables": 1e-8}

    volume_rel_err: float
    area_discrepancy_const: float
    area_discrepancy_height: float
    area_discrepancy_first: float
    change_of_variables: float


def measure_suite(cmap: CuspMap) -> MeasureSuiteReport:
    """Volume identity, area formula for three probes, change of variables.

    The three probes share one set of face points: each side face's chart
    points are made, and pulled back by the inverse map, once for all of
    them. Each discrepancy is bitwise the one area_formula_check gives.
    """
    params = cmap.params
    vol = volume_integral(lambda t: np.ones_like(t), params)
    vol_err = abs(vol - 1.0 / params.gamma) * params.gamma
    probes = [
        lambda yx: np.ones(yx.shape[0]),
        lambda yx: yx[:, -1],
        lambda yx: yx[:, 0],
    ]
    areas = _area_discrepancies(probes, cmap)
    chvf = change_of_variables_check(lambda xx: np.ones(xx.shape[0]), cmap)
    return MeasureSuiteReport(
        volume_rel_err=float(vol_err),
        area_discrepancy_const=float(areas[0]),
        area_discrepancy_height=float(areas[1]),
        area_discrepancy_first=float(areas[2]),
        change_of_variables=float(chvf),
    )
