"""Model cuspidal domains, their straightening maps, and boundary charts.

The domain with cusp sharpness ``gamma`` in dimension ``n`` is

    { x : 0 < x_n < 1,  0 < x_i < x_n**alpha,  i = 1..n-1 },
    alpha = (gamma - 1) / (n - 1),

which degenerates to a simplex when ``gamma == n``. The straightening map
with parameter ``a`` sends the simplex onto the cuspidal domain,

    y  ->  (y_1 * y_n**(a*alpha - 1), ..., y_{n-1} * y_n**(a*alpha - 1), y_n**a),

and everything else here (Jacobians, tangential Jacobians on boundary faces,
power weights) is derived from it in closed form.

Points are rows, stored column-major: `_halton` fills one contiguous array per
coordinate and hands out its transpose, and every copy or allocation of points
keeps that layout (`empty_like`, `copy(order="K")`; a plain `copy()` turns it
back into rows). The kernels loop over the n - 1 cross coordinates and never
broadcast a per-point scalar across a row, so each coordinate they read or
write is one contiguous column: measured in one process on a shared 2-core
x86-64 host at one BLAS thread, the Jacobian suite at 10^4 samples ran 1.3x
and K_pp_estimate 1.15-1.2x faster than on row-major points. Functions still
accept rows in either order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    FaceMismatch,
    MapParameterTooLarge,
    OutsideDomain,
    RangeViolation,
    SimplexModeRequired,
    check_number,
)

__all__ = [
    "DomainParams",
    "ExponentSet",
    "CuspMap",
    "BoundaryFace",
    "FaceChart",
    "validate_params",
    "derived_exponents",
    "cusp_map",
    "forward_map",
    "inverse_map",
    "map_points",
    "unmap_points",
    "map_jacobian",
    "jacobian_forward",
    "jacobian_inverse",
    "jacobi_matrix",
    "tangential_jacobian",
    "tangential_jacobian_bounds",
    "tangential_bound_constant",
    "face_pullback_weight",
    "boundary_faces",
    "face_parametrization",
    "powt",
    "quasi_random_interior",
    "quasi_random_model_interior",
]


def powt(t, exponent):
    """t**exponent for t > 0, computed in log space.

    Keeps large negative exponents from underflowing prematurely and lets
    callers combine several power factors into a single exponent.
    """
    t = np.asarray(t, dtype=float)
    if (t <= 0.0).any():
        raise RangeViolation("t", "t > 0")
    out = np.exp(exponent * np.log(t))
    return out if out.ndim else float(out)


# --------------------------------------------------------------------------
# parameters and derived exponents
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainParams:
    """Validated (n, gamma, p, q, theta) tuple defining a problem instance.

    Use :func:`validate_params` to construct; it enforces the strict
    inequalities appropriate to the intended usage.
    """

    n: int
    gamma: float
    p: float
    q: float
    theta: float
    simplex: bool = False

    @property
    def alpha(self) -> float:
        return (self.gamma - 1.0) / (self.n - 1.0)


@dataclass(frozen=True)
class ExponentSet:
    """All exponents derived from (n, gamma, p).

    alpha      cusp profile exponent (gamma-1)/(n-1)
    a_max      largest admissible map parameter (n-p)/(gamma-p)
    beta       sharp boundary weight exponent
    p_star     critical boundary exponent p(n-1)/(n-p)
    r_max      upper endpoint of the unweighted trace range
    d_gamma    effective boundary dimension of the cusp
    gv_q_min   threshold exponent for domination of the x_n**alpha weight
    """

    n: int
    gamma: float
    p: float
    alpha: float
    a_max: float
    beta: float
    p_star: float
    r_max: float
    d_gamma: float
    gv_q_min: float

    def theta_min(self, q: float) -> float:
        """Least power-weight exponent admitting a bounded trace into L^q."""
        return (q / self.p) * (self.alpha * (self.n - 1) + 1.0 - self.p) \
            - self.alpha * (self.n - 2) - 1.0

    def weight_exponent(self, a: float) -> float:
        """Boundary weight exponent produced by map parameter a: the power of
        x_n common to every tangential Jacobian of the inverse map."""
        return (self.n - 1) / a - (self.n - 2) * self.alpha - 1.0

    def distortion(self, a: float) -> float:
        """sqrt((n-1)((a*alpha-1)^2+1) + a^2): the height-free factor of the
        map's distortion bound, which is sharp at a = a_max."""
        n, alpha = self.n, self.alpha
        return math.sqrt((n - 1) * ((a * alpha - 1.0) ** 2 + 1.0) + a * a)


def _sharp_weight(n: int, gamma: float, p: float) -> float:
    """The sharp boundary weight exponent beta, for p < n."""
    return (gamma - n) * (1.0 + p * (n - 2)) / ((n - p) * (n - 1))


def validate_params(n, gamma, p, q=None, theta=None, simplex=False, usage="trace"):
    """Validate a raw parameter tuple and return :class:`DomainParams`.

    ``usage`` selects the exponent window for q:

    - ``"trace"``:   1 < q <= p(n-1)/(n-p)   (trace-embedding checks)
    - ``"steklov"``: p < q < p(n-1)/(n-p)    (eigenvalue problem)
    - ``"discrete"``: only q > 1; also relaxes p < n. This admits the
      linear testbed p = q = 2 on two-dimensional domains, where the
      discrete problem is perfectly well posed even though the continuum
      trace theory needs p < n.

    q defaults to the critical p(n-1)/(n-p) for ``"trace"`` and is required
    otherwise; theta defaults to the sharp weight exponent beta.
    """
    for name, value in (("n", n), ("gamma", gamma), ("p", p)):
        check_number(name, value, -math.inf)
    if int(n) != n or n < 2:
        raise RangeViolation("n", "integer n >= 2")
    n = int(n)
    gamma, p = float(gamma), float(p)

    if usage not in ("trace", "steklov", "discrete"):
        raise RangeViolation("usage", "one of trace, steklov, discrete")
    if not isinstance(simplex, bool):
        raise RangeViolation("simplex", "true or false")

    if p <= 1.0:
        raise RangeViolation("p", "p > 1")
    if usage != "discrete" and p >= n:
        raise RangeViolation("p", "p < n")

    if simplex:
        if gamma != n:
            raise RangeViolation("gamma", "gamma == n in simplex mode")
    else:
        if gamma == n:
            raise SimplexModeRequired(
                "gamma == n is the simplex; pass simplex=True explicitly")
        if gamma < n:
            raise RangeViolation("gamma", "gamma > n")

    p_star = p * (n - 1) / (n - p) if p < n else math.inf
    if q is None:
        if usage != "trace":
            raise RangeViolation("q", f"an explicit q for usage {usage}")
        q = p_star
    q = float(check_number("q", q, 1.0))
    if usage == "steklov":
        if q <= p:
            raise RangeViolation("q", "q > p")
        if q >= p_star:
            raise RangeViolation("q", f"q < p(n-1)/(n-p) = {p_star:g}")
    elif usage == "trace" and q > p_star:
        raise RangeViolation("q", f"q <= p(n-1)/(n-p) = {p_star:g}")

    if theta is None:
        if p >= n:
            raise RangeViolation(
                "theta", "explicit theta required when p >= n (beta undefined)")
        theta = _sharp_weight(n, gamma, p)
        if not math.isfinite(theta):
            raise RangeViolation("gamma", "a gamma whose sharp weight exponent beta, "
                                 "the default theta, is finite")
    theta = float(check_number("theta", theta, -math.inf))

    return DomainParams(n=n, gamma=gamma, p=p, q=q, theta=theta, simplex=simplex)


@lru_cache(maxsize=64)
def derived_exponents(params: DomainParams) -> ExponentSet:
    """Populate every derived exponent for validated parameters.

    Equal parameters return the same (frozen) set."""
    n, gamma, p = params.n, params.gamma, params.p
    if p >= n:
        raise RangeViolation("p", "p < n required for derived exponents")
    return ExponentSet(
        n=n,
        gamma=gamma,
        p=p,
        alpha=params.alpha,
        a_max=(n - p) / (gamma - p),
        beta=_sharp_weight(n, gamma, p),
        p_star=p * (n - 1) / (n - p),
        r_max=p * (1.0 + (n - 2) * gamma) / ((gamma - p) * (n - 1)),
        d_gamma=(n - p) * (gamma * n - 2.0 * gamma + 1.0) / ((gamma - p) * (n - 1)),
        gv_q_min=p * (n - 1) * (gamma - p) / (gamma * (n - p)),
    )


# --------------------------------------------------------------------------
# the straightening map
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CuspMap:
    """Straightening homeomorphism from the simplex onto the cuspidal domain."""

    params: DomainParams
    a: float

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def alpha(self) -> float:
        return self.params.alpha


def cusp_map(params: DomainParams, a: float | None = None) -> CuspMap:
    """Build the map with parameter a; defaults to the sharp a = (n-p)/(gamma-p)."""
    exps = derived_exponents(params)
    if a is None:
        a = exps.a_max
    a = float(check_number("a", a, 0.0))
    if a > exps.a_max:
        raise MapParameterTooLarge(
            f"a = {a:g} exceeds (n-p)/(gamma-p) = {exps.a_max:g}")
    return CuspMap(params=params, a=a)


def _points(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise OutsideDomain(f"expected points with {n} coordinates")
    return np.atleast_2d(x)


def _require_inside(coords: np.ndarray, profile_exp: float, what: str) -> None:
    last = coords[:, -1]
    if np.any(last <= 0.0) or np.any(last >= 1.0):
        raise OutsideDomain(f"{what}: height coordinate must lie strictly in (0, 1)")
    # the model profile is y_n itself; exp(log(y_n)) can round above it
    width = last if profile_exp == 1.0 else powt(last, profile_exp)
    for i in range(coords.shape[1] - 1):
        if np.any(coords[:, i] <= 0.0) or np.any(coords[:, i] >= width):
            raise OutsideDomain(
                f"{what}: cross coordinates must lie strictly inside the profile")


def _scaled_cross(u: np.ndarray, scale: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Rows (u_1 * scale, ..., u_{n-1} * scale, last)."""
    out = np.empty_like(u)
    for i in range(u.shape[1] - 1):
        out[:, i] = u[:, i] * scale
    out[:, -1] = last
    return out


def map_points(cmap: CuspMap, y: np.ndarray) -> np.ndarray:
    """The straightening map on rows of model points, closure included."""
    yn = y[:, -1]
    return _scaled_cross(y, powt(yn, cmap.a * cmap.alpha - 1.0), powt(yn, cmap.a))


def unmap_points(cmap: CuspMap, x: np.ndarray) -> np.ndarray:
    """The inverse map on rows of cusp points, closure included (boundary charts)."""
    xn = x[:, -1]
    return _scaled_cross(x, powt(xn, (1.0 - cmap.a * cmap.alpha) / cmap.a),
                         powt(xn, 1.0 / cmap.a))


def map_jacobian(cmap: CuspMap, yn):
    """Jacobian determinant a * y_n**(a*gamma - n) at model heights yn."""
    return cmap.a * powt(yn, cmap.a * cmap.params.gamma - cmap.n)


def forward_map(cmap: CuspMap, y) -> np.ndarray:
    """Apply the straightening map to strictly interior model points."""
    yy = _points(y, cmap.n)
    _require_inside(yy, 1.0, "model point")
    return map_points(cmap, yy).reshape(np.shape(y))


def inverse_map(cmap: CuspMap, x) -> np.ndarray:
    """Invert the straightening map on strictly interior cusp points."""
    xx = _points(x, cmap.n)
    _require_inside(xx, cmap.alpha, "cusp point")
    return unmap_points(cmap, xx).reshape(np.shape(x))


def jacobian_forward(cmap: CuspMap, y):
    """Jacobian determinant a * y_n**(a*gamma - n) of the forward map."""
    yy = _points(y, cmap.n)
    _require_inside(yy, 1.0, "model point")
    val = map_jacobian(cmap, yy[:, -1])
    return val if np.ndim(y) > 1 else float(val[0])


def jacobian_inverse(cmap: CuspMap, x):
    """Jacobian determinant (1/a) * x_n**(n/a - gamma) of the inverse map."""
    xx = _points(x, cmap.n)
    _require_inside(xx, cmap.alpha, "cusp point")
    val = powt(xx[:, -1], cmap.n / cmap.a - cmap.params.gamma) / cmap.a
    return val if np.ndim(x) > 1 else float(val[0])


def jacobi_matrix(cmap: CuspMap, y) -> np.ndarray:
    """Jacobi matrix of the forward map at interior model points.

    Shape (..., n, n); upper-triangular with a scalar diagonal block and a
    rank-one last column.
    """
    n = cmap.n
    yy = _points(y, n)
    _require_inside(yy, 1.0, "model point")
    yn = yy[:, -1]
    m = yy.shape[0]
    D = np.zeros((m, n, n))
    diag = powt(yn, cmap.a * cmap.alpha - 1.0)
    column = powt(yn, cmap.a * cmap.alpha - 2.0)
    for i in range(n - 1):
        D[:, i, i] = diag
        D[:, i, -1] = (cmap.a * cmap.alpha - 1.0) * yy[:, i] * column
    D[:, -1, -1] = cmap.a * powt(yn, cmap.a - 1.0)
    if np.ndim(y) == 1:
        return D[0]
    return D.reshape(np.shape(y) + (n,))


# --------------------------------------------------------------------------
# boundary faces
# --------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class BoundaryFace:
    """Tagged boundary piece: flat {x_i = 0}, slanted {x_i = x_n**alpha}, or top.

    Ordering is (kind, index) with flat < slanted < top.
    """

    rank: int = field(repr=False)
    kind: str
    index: int  # 1-based for side faces, 0 for the top face

    @staticmethod
    def flat(i: int) -> "BoundaryFace":
        return BoundaryFace(rank=i, kind="flat", index=i)

    @staticmethod
    def slanted(i: int) -> "BoundaryFace":
        return BoundaryFace(rank=1000 + i, kind="slanted", index=i)

    @staticmethod
    def top() -> "BoundaryFace":
        return BoundaryFace(rank=2000, kind="top", index=0)

    @property
    def is_side(self) -> bool:
        return self.kind in ("flat", "slanted")


def boundary_faces(n: int) -> list[BoundaryFace]:
    """All faces of the boundary in deterministic tag order."""
    faces = [BoundaryFace.flat(i) for i in range(1, n)]
    faces += [BoundaryFace.slanted(i) for i in range(1, n)]
    faces.append(BoundaryFace.top())
    return faces


@dataclass(frozen=True)
class FaceChart:
    """Parametrization of one boundary face.

    Side faces are charted by (xhat, t) with xhat in (0, t**alpha)^(n-2) and
    t in (0, 1); the top face by xhat in (0, 1)^(n-1). ``density`` is the
    surface-measure factor per unit height after integrating out the cross
    section, so integrals of functions of x_n alone reduce exactly to 1-D.
    """

    face: BoundaryFace
    n: int
    alpha: float

    def slant_factor(self, t):
        """Pointwise surface element of the chart (1 except on slanted faces)."""
        if self.face.kind != "slanted":
            return np.ones_like(np.asarray(t, dtype=float))
        a2 = self.alpha * self.alpha
        return np.sqrt(1.0 + a2 * powt(t, 2.0 * self.alpha - 2.0))

    def density(self, t):
        """Cross-section-integrated surface density at height t."""
        if self.face.kind == "top":
            return np.ones_like(np.asarray(t, dtype=float))
        base = powt(t, self.alpha * (self.n - 2))
        return base * self.slant_factor(t)

    def point(self, t, xhat=None) -> np.ndarray:
        """Ambient coordinates of the chart point (vectorized over t)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        m = t.shape[0]
        x = np.zeros((m, self.n))
        if self.face.kind == "top":
            x[:, -1] = 1.0
            if xhat is not None:
                x[:, :-1] = xhat
            return x
        x[:, -1] = t
        i = self.face.index - 1
        if self.face.kind == "slanted":
            x[:, i] = powt(t, self.alpha)
        cross = [j for j in range(self.n - 1) if j != i]
        if cross:
            if xhat is None:
                raise FaceMismatch("cross-section coordinates required for n >= 3")
            x[:, cross] = np.atleast_2d(xhat)
        return x


def face_parametrization(face: BoundaryFace, params: DomainParams) -> FaceChart:
    """Chart of a face of the boundary of the cuspidal domain."""
    if face.is_side and not 1 <= face.index <= params.n - 1:
        raise FaceMismatch(f"face index {face.index} invalid for n = {params.n}")
    return FaceChart(face=face, n=params.n, alpha=params.alpha)


# --------------------------------------------------------------------------
# tangential Jacobians and weights
# --------------------------------------------------------------------------

def tangential_bound_constant(cmap: CuspMap) -> float:
    """C(a, n, alpha) bounding the tangential Jacobian from above."""
    a, alpha, n = cmap.a, cmap.alpha, cmap.n
    return math.sqrt(1.0 / a**2 + (1.0 / a - alpha) ** 2 * (n - 1) + alpha**2)


def tangential_jacobian(cmap: CuspMap, face: BoundaryFace, t, xhat=None):
    """Tangential Jacobian of the inverse map restricted to one face.

    Flat faces: (1/a) * t**E with E = (n-1)/a - (n-2)*alpha - 1. Slanted
    faces carry the square-root factor in the cross coordinates xhat (the
    n-2 coordinates other than the face's own); the top face is fixed.
    """
    t = np.asarray(t, dtype=float)
    if (t <= 0.0).any() or (t > 1.0).any():
        raise FaceMismatch("height t must lie in (0, 1]")
    if face.kind == "top":
        return np.ones_like(t) if t.ndim else 1.0
    base = powt(t, derived_exponents(cmap.params).weight_exponent(cmap.a))
    if face.kind == "flat":
        out = base / cmap.a
        return out if np.ndim(out) else float(out)
    a, alpha, n = cmap.a, cmap.alpha, cmap.n
    s = 0.0
    if n > 2:
        if xhat is None:
            xhat = np.zeros(n - 2)
        width = powt(t, alpha)
        for c in np.moveaxis(np.asarray(xhat, dtype=float), -1, 0):
            if np.any(c < -1e-14) or np.any(c > width * (1 + 1e-14)):
                raise FaceMismatch("cross coordinates exceed the face width t**alpha")
            s = s + (c / width) ** 2
    root = np.sqrt(1.0 / a**2 + alpha**2 + (1.0 / a - alpha) ** 2 * s)
    out = base * root
    return out if np.ndim(out) else float(out)


def tangential_jacobian_bounds(cmap: CuspMap, t):
    """Two-sided power bounds (lo, hi) for the tangential Jacobian at height t."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise RangeViolation("t", "0 < t < 1")
    base = powt(t, derived_exponents(cmap.params).weight_exponent(cmap.a))
    lo = base / cmap.a
    hi = tangential_bound_constant(cmap) * base
    return lo, hi


def face_pullback_weight(cmap: CuspMap, face: BoundaryFace, t):
    """Surface measure of the image of a face chart, per unit chart volume.

    For a chart (xhat, t) of a boundary face, returns the factor rho(t) with

        integral over the matching model-domain face of g dH^{n-1}
        = double integral of g(inverse_map(chart point)) * rho(t) dxhat dt.

    Flat faces and the top face coincide with the tangential Jacobian. On
    slanted faces the exact Gram determinant of the composed parametrization
    collapses to sqrt(2)/a times the common height power; the cross terms
    cancel identically (verified against a finite-difference Gram oracle in
    the test suite).
    """
    if face.kind != "slanted":
        return tangential_jacobian(cmap, face, t)
    base = powt(t, derived_exponents(cmap.params).weight_exponent(cmap.a))
    return base * (math.sqrt(2.0) / cmap.a)


# --------------------------------------------------------------------------
# deterministic interior sampling
# --------------------------------------------------------------------------

def _first_primes(k: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % prime for prime in primes):
            primes.append(candidate)
        candidate += 1
    return primes


@lru_cache(maxsize=8)
def _halton(dim: int, m: int, skip: int) -> np.ndarray:
    """Points max(1, skip) .. max(1, skip) + m - 1 of the unscrambled Halton
    sequence in the first ``dim`` prime bases (index 0 is the origin).

    Cached and read-only. The digit loop does scipy's ``van_der_corput``
    arithmetic in its order, so the points equal ``qmc.Halton(scramble=False)``
    after ``fast_forward(max(1, skip))`` bit for bit; a finished index adds
    ``0 * f``, which is exact.
    """
    start = max(1, skip)
    index = np.arange(start, start + m)
    # one row per coordinate, handed out transposed: rows stored column-major
    u = np.zeros((dim, m))
    for k, base in enumerate(_first_primes(dim)):
        q, acc, f = index, u[k], 1.0 / base
        while q.any():
            q, r = np.divmod(q, base)
            acc += r * f
            f /= base
    u.setflags(write=False)
    return u.T


def quasi_random_model_interior(n: int, m: int, skip: int = 1) -> np.ndarray:
    """m low-discrepancy points strictly inside the model simplex domain."""
    u = _halton(n, m, skip)
    return _scaled_cross(u, u[:, -1], u[:, -1])


def quasi_random_interior(params: DomainParams, m: int, skip: int = 1) -> np.ndarray:
    """m low-discrepancy points strictly inside the cuspidal domain."""
    u = _halton(params.n, m, skip)
    return _scaled_cross(u, powt(u[:, -1], params.alpha), u[:, -1])
