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
    boundary_faces,
    forward_map,
    inverse_map,
    jacobian_forward,
    jacobian_inverse,
    map_jacobian,
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
    keep more than FD_STEP from every wall. Each entry is the difference of
    two stencil columns of the map's image, made one column at a time: a step
    in y_j moves y_j alone, so every other image column is the same on both
    sides of the stencil. A step in a cross coordinate leaves y_n, and with
    it both height powers of the map, unchanged.
    """
    m, n = y.shape
    e = cmap.a * cmap.alpha - 1.0
    yn = y[:, -1]
    D = np.empty((n, n, m))

    def entry(i, j, up, down):
        # D[i, j] = (up - down) / (2 FD_STEP); up may be D[i, j] itself
        np.subtract(up, down, out=D[i, j])
        D[i, j] /= 2.0 * FD_STEP

    scale, height = powt(yn, e), powt(yn, cmap.a)
    for j in range(n - 1):
        for i in range(n - 1):
            if i == j:
                np.multiply(y[:, i] + FD_STEP, scale, out=D[i, j])
                entry(i, j, D[i, j], (y[:, i] - FD_STEP) * scale)
            else:
                image = np.multiply(y[:, i], scale, out=D[i, j])
                entry(i, j, image, image)
        entry(n - 1, j, height, height)
    # a step in y_n moves every image column through the height powers: the
    # images of the upper stencil point go into column n - 1 first
    y_up = yn + FD_STEP
    scale = powt(y_up, e)
    for i in range(n - 1):
        np.multiply(y[:, i], scale, out=D[i, -1])
    D[-1, -1] = powt(y_up, cmap.a)
    y_down = np.subtract(yn, FD_STEP, out=y_up)
    scale = powt(y_down, e)
    for i in range(n - 1):
        entry(i, n - 1, D[i, -1], y[:, i] * scale)
    entry(n - 1, n - 1, D[-1, -1], powt(y_down, cmap.a))
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


# Each check below makes its own sample points and returns only its maxima,
# so one check's points are freed before the next check makes its own.

def _roundtrip_and_reciprocity(cmap: CuspMap, samples: int) -> tuple[float, float]:
    n = cmap.n
    y = quasi_random_model_interior(n, samples)
    x = forward_map(cmap, y)
    if np.any(x[:, -1] >= 1.0):
        raise NumericalError(
            f"gamma = {cmap.params.gamma:g}, a = {cmap.a:g}: the image height "
            "y_n**a of a sample point rounds to 1, so the map cannot be inverted")
    # forward_map has gated y
    rec = map_jacobian(cmap, y[:, -1])
    rec *= jacobian_inverse(cmap, x)
    rec -= 1.0
    rec = float(np.max(np.abs(rec, out=rec)))

    back = inverse_map(cmap, x)
    # row maxima one column at a time: a reduction over rows of n is slow
    err, size = np.abs(back[:, 0] - y[:, 0]), np.abs(y[:, 0])
    for i in range(1, n):
        np.maximum(err, np.abs(back[:, i] - y[:, i]), out=err)
        np.maximum(size, np.abs(y[:, i]), out=size)
    return float(np.max(err / (1.0 + size))), rec


def _fd_rel_error(cmap: CuspMap, samples: int) -> float:
    # finite differences need headroom from the domain walls: jacobian_forward
    # gates y, and the stencil keeps at least 0.05 * 0.05 - FD_STEP from
    # each wall, so it is not gated again
    y = quasi_random_model_interior(cmap.n, samples, skip=samples + 1)
    y *= 0.9
    y += 0.05
    for i in range(cmap.n - 1):
        y[:, i] *= y[:, -1]
    D = _fd_jacobi_matrix(cmap, y)
    exact = jacobian_forward(cmap, y)
    fd = _determinant(D)
    fd -= exact
    np.abs(fd, out=fd)
    fd /= np.abs(exact, out=exact)
    return float(np.max(fd))


def _sandwich_violation(cmap: CuspMap, samples: int) -> float:
    # 0 when every Jacobian lies inside its bounds, NaN (which fails the
    # check) when one is NaN
    n = cmap.n
    xg = quasi_random_interior(cmap.params, samples)
    t = xg[:, -1]
    lo, hi = tangential_jacobian_bounds(cmap, t)
    worst = 0.0
    for face in boundary_faces(n):
        if not face.is_side:
            continue
        if face.kind == "flat":
            # a flat face's Jacobian, t**E / a, is the lower bound itself
            val = lo
        else:
            xhat = xg[:, [j for j in range(n - 1) if j != face.index - 1]]
            val = tangential_jacobian(cmap, face, t, xhat=xhat)
        viol = lo - val
        np.maximum(viol, val - hi, out=viol)
        viol /= np.maximum(np.abs(val), 1.0)
        worst = np.maximum(worst, np.max(viol))
    return float(worst)


def jacobian_suite(cmap: CuspMap, samples: int = 10000) -> JacobianSuiteReport:
    """Roundtrip, reciprocity, finite-difference, and sandwich checks.

    Raises NumericalError naming gamma and a when an image height y_n**a
    rounds to 1 (with n = 2, p = 1.5 and the default a = (n-p)/(gamma-p) and
    samples, already at gamma = 3e12): the map cannot then be inverted.
    """
    check_number("samples", samples, 1, SIZE_BUDGET, integer=True)
    rt, rec = _roundtrip_and_reciprocity(cmap, samples)
    return JacobianSuiteReport(
        samples=samples,
        max_roundtrip=rt,
        max_reciprocity=rec,
        max_fd_rel=_fd_rel_error(cmap, samples),
        max_sandwich_violation=_sandwich_violation(cmap, samples),
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
