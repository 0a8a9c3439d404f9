"""Graded triangulations of two-dimensional cuspidal domains.

The mesh is built from horizontal rows of vertices: strip boundaries follow
the geometric grading ratio, every strip is split into equal sub-rows, and
each row carries enough columns to keep cells near unit aspect. Adjacent
rows with different column counts are stitched by a monotone two-pointer
sweep, done for all rows at once as one stable merge, and a single tip
triangle closes the mesh to the origin. Boundary
edges are tagged FLAT (x1 = 0), SLANTED (x1 = x2**alpha), and TOP (x2 = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import (
    SIZE_BUDGET,
    ConfigError,
    DegenerateTriangle,
    RangeViolation,
    check_number,
)
from ..geometry import DomainParams, powt

__all__ = ["TriMesh", "generate_cusp_mesh", "save_mesh", "load_mesh", "mesh_area",
           "p1_geometry"]

QUALITY_FLOOR = 1e-6

FLAT, SLANTED, TOP = "FLAT", "SLANTED", "TOP"


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable triangulation with face-tagged boundary edges.

    Stored, read-only, and exactly what the ncusp-mesh v1 file holds:
    vertices        (nv, 2) coordinates
    triangles       (nt, 3) CCW vertex indices
    boundary_edges  (ne, 2) vertex indices, chained per face
    boundary_tags   (ne,) strings FLAT / SLANTED / TOP

    Derived: ``num_vertices``, ``num_triangles``, ``tip_height`` (the lowest
    positive height on the boundary, i.e. the lowest row; the tip triangle
    sits below it) and ``min_quality`` (the smallest shortest-to-longest edge
    ratio of a triangle, computed once).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.boundary_edges,
                    self.boundary_tags):
            arr.flags.writeable = False

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def tip_height(self) -> float:
        heights = self.vertices[self.boundary_edges.ravel(), 1]
        heights = heights[heights > 0.0]
        return float(heights.min()) if heights.size else 0.0

    @cached_property
    def min_quality(self) -> float:
        v = self.vertices[self.triangles]
        lengths = np.stack([
            np.linalg.norm(v[:, 1] - v[:, 0], axis=1),
            np.linalg.norm(v[:, 2] - v[:, 1], axis=1),
            np.linalg.norm(v[:, 0] - v[:, 2], axis=1),
        ])
        # an edge below about 1e-162 has norm 0 (its square underflows), and a
        # triangle of three such edges has ratio NaN, which the mesher rejects
        with np.errstate(invalid="ignore"):
            return float(np.min(lengths.min(axis=0) / lengths.max(axis=0)))


def _doubled_areas(v: np.ndarray) -> np.ndarray:
    """Twice the signed areas of triangles v (nt, 3, 2); positive if counter-clockwise."""
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    return e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


def p1_geometry(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed areas (nt,) and the x1 and x2 components (3, nt) of the P1
    basis gradients of every triangle.

    Row k of both holds the gradients of the hat functions at the triangles'
    local vertex k. Areas are positive for counter-clockwise triangles.
    """
    det = _doubled_areas(mesh.vertices[mesh.triangles])
    x, y = (mesh.vertices[:, d][mesh.triangles.T] for d in (0, 1))
    # the edge opposite vertex k, turned by -90 degrees
    gx = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    gy = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    return 0.5 * det, gx / det, gy / det


def mesh_area(mesh: TriMesh) -> float:
    """Total area of the triangulation."""
    return float(np.sum(0.5 * _doubled_areas(mesh.vertices[mesh.triangles])))


def _stitch_rows(starts: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Triangles of the bands between adjacent vertex rows, band by band.

    Row r holds vertices starts[r] .. starts[r + 1] - 1 at the fractions
    ``fracs`` of its width. In the band below row r, the vertices of rows r
    and r + 1 after each row's first are merged by fraction, row r first on a
    tie; each one closes a triangle with the last vertex reached on either row
    (a monotone two-pointer sweep). One stable sort merges every band at once.
    """
    sizes = np.diff(starts)
    row = np.repeat(np.arange(sizes.size), sizes)
    later = np.ones(row.size, dtype=bool)
    later[starts[:-1]] = False
    top = np.flatnonzero(later & (row < sizes.size - 1))
    bottom = np.flatnonzero(later & (row > 0))
    vert = np.concatenate([top, bottom])
    band = np.concatenate([row[top], row[bottom] - 1])
    from_bottom = np.repeat([False, True], [top.size, bottom.size])
    merged = np.lexsort((from_bottom, fracs[vert], band))
    vert, band, from_bottom = vert[merged], band[merged], from_bottom[merged]
    from_top = ~from_bottom
    # the vertices of each row reached before a step: earlier steps of the
    # band, counted from all earlier steps less those of earlier bands
    cells = sizes - 1
    top_before = np.cumsum(from_top) - from_top \
        - np.concatenate(([0], np.cumsum(cells[:-2])))[band]
    bottom_before = np.cumsum(from_bottom) - from_bottom \
        - np.concatenate(([0], np.cumsum(cells[1:-1])))[band]
    return np.stack([starts[band] + top_before, starts[band + 1] + bottom_before, vert],
                    axis=1)


def generate_cusp_mesh(params: DomainParams, levels: int,
                       grading_ratio: float = 0.5,
                       rows_per_strip: int | None = None,
                       aspect: float = 1.0) -> TriMesh:
    """Structured graded triangulation of the n = 2 cuspidal domain.

    Strip boundaries sit at heights grading_ratio**k, k = 0..levels; rows
    within a strip are uniform and scale with ``levels`` so the polygonal
    boundary converges to the curved profile. The lowest row is forced to a
    single cell and one tip triangle closes the mesh at the origin.
    """
    if params.n != 2:
        raise RangeViolation("n", "mesh generation supports n = 2 only")
    check_number("levels", levels, 3, integer=True)
    check_number("grading_ratio", grading_ratio, 0.0, 1.0)
    check_number("aspect", aspect, 0.0)
    if rows_per_strip is None:
        rows_per_strip = max(4, 4 * levels)
    check_number("rows_per_strip", rows_per_strip, 1, integer=True)
    if levels * rows_per_strip + 1 > SIZE_BUDGET:
        raise RangeViolation("levels * rows_per_strip",
                             f"at most {SIZE_BUDGET} rows of vertices")
    # the tip height; below the normal doubles it is inexact or 0
    if float(grading_ratio) ** levels < np.finfo(float).tiny:
        raise RangeViolation("levels, grading_ratio",
                             "grading_ratio ** levels at least the smallest normal "
                             f"double, {np.finfo(float).tiny:.3g}")
    alpha = params.alpha

    heights = [1.0]
    for k in range(levels):
        seg = np.linspace(grading_ratio ** k, grading_ratio ** (k + 1),
                          rows_per_strip + 1)
        heights.extend(seg[1:])
    heights = np.asarray(heights)

    # columns per row: near-unit aspect against the local row spacing, kept
    # in floats until the vertex count they give is known to be in budget
    spacings = np.empty_like(heights)
    spacings[1:] = heights[:-1] - heights[1:]
    spacings[0] = spacings[1]
    widths = powt(heights, alpha)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cols = np.maximum(1.0, np.rint(widths / (aspect * spacings)))
    cols[-1] = 1.0
    if not np.sum(cols + 1.0) + 1.0 <= SIZE_BUDGET:
        raise RangeViolation("levels, grading_ratio, rows_per_strip, aspect",
                             f"a mesh of at most {SIZE_BUDGET} vertices")
    cols = cols.astype(int)

    # row r holds vertices starts[r] .. starts[r + 1] - 1; the origin comes last
    starts = np.concatenate(([0], np.cumsum(cols + 1)))
    origin = int(starts[-1])
    # vertex i of a row of m cells sits at fraction i * (1 / m) of its width,
    # the last at 1.0: np.linspace(0, 1, m + 1) bit for bit
    fracs = (np.arange(origin) - np.repeat(starts[:-1], cols + 1)) \
        * np.repeat(1.0 / cols, cols + 1)
    fracs[starts[1:] - 1] = 1.0
    vertices = np.zeros((origin + 1, 2))
    vertices[:origin, 0] = fracs * np.repeat(widths, cols + 1)
    vertices[:origin, 1] = np.repeat(heights, cols + 1)

    triangles = np.concatenate([
        _stitch_rows(starts, fracs),
        [[origin, origin - 1, origin - 2]],  # single tip triangle
    ]).astype(np.int64)

    # FLAT and SLANTED run down the first and last vertex of each row to the
    # origin; TOP runs along the first row
    chains = [np.append(starts[:-1], origin), np.append(starts[1:] - 1, origin),
              np.arange(starts[1])]
    edges = np.concatenate([np.stack([c[:-1], c[1:]], axis=1) for c in chains])
    tags = np.repeat([FLAT, SLANTED, TOP], [c.size - 1 for c in chains])

    mesh = TriMesh(vertices, triangles, edges, tags)
    # a NaN ratio fails too (see TriMesh.min_quality)
    if not mesh.min_quality >= QUALITY_FLOOR:
        raise DegenerateTriangle(f"minimum edge ratio {mesh.min_quality:.3e} "
                                 f"is not at least {QUALITY_FLOOR:g}")
    return mesh


# --------------------------------------------------------------------------
# text format "ncusp-mesh v1"
# --------------------------------------------------------------------------

def save_mesh(mesh: TriMesh, path) -> None:
    """Write the mesh in the ncusp-mesh v1 text format."""
    # tolist() hands out Python floats and ints, formatted without a
    # conversion per entry
    lines = ["ncusp-mesh v1"]
    lines += [f"v {x1!r} {x2!r}" for x1, x2 in mesh.vertices.tolist()]
    lines += [f"t {i} {j} {k}" for i, j, k in mesh.triangles.tolist()]
    lines += [f"b {i} {j} {tag}" for (i, j), tag in
              zip(mesh.boundary_edges.tolist(), mesh.boundary_tags.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> TriMesh:
    """Read a mesh in the ncusp-mesh v1 text format.

    Raises ConfigError naming the line, the triangle or the boundary edge for
    a number that does not parse, a vertex index outside [0, nv), a triangle
    whose signed area is not positive (every triangle must be
    counter-clockwise), or a boundary edge that is no side of a triangle.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != "ncusp-mesh v1":
        raise ConfigError("not an ncusp-mesh v1 file")
    verts, tris, edges, tags = [], [], [], []
    for k, ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "v" and len(parts) == 3:
                verts.append((float(parts[1]), float(parts[2])))
            elif parts[0] == "t" and len(parts) == 4:
                tris.append(tuple(int(x) for x in parts[1:]))
            elif parts[0] == "b" and len(parts) == 4:
                if parts[3] not in (FLAT, SLANTED, TOP):
                    raise ConfigError(f"line {k}: unknown boundary tag {parts[3]}")
                edges.append((int(parts[1]), int(parts[2])))
                tags.append(parts[3])
            else:
                raise ConfigError(f"line {k}: malformed mesh line: {ln}")
        except ValueError:
            raise ConfigError(f"line {k}: a field does not parse: {ln}") from None
    vertices = np.asarray(verts, dtype=float).reshape(-1, 2)
    triangles = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    tag_arr = np.asarray(tags)
    nv = vertices.shape[0]
    if not np.isfinite(vertices).all():
        raise ConfigError("vertex coordinates must be finite")
    if triangles.shape[0] == 0:
        raise ConfigError("mesh has no triangles")
    for what, arr in (("triangle", triangles), ("boundary edge", edge_arr)):
        bad = np.flatnonzero(((arr < 0) | (arr >= nv)).any(axis=1))
        if bad.size:
            j = int(bad[0])
            raise ConfigError(f"{what} {j} {arr[j].tolist()}: vertex index "
                              f"outside [0, {nv})")
    mesh = TriMesh(vertices, triangles, edge_arr, tag_arr)
    areas = 0.5 * _doubled_areas(vertices[triangles])
    bad = np.flatnonzero(~(areas > 0.0))
    if bad.size:
        j = int(bad[0])
        raise ConfigError(f"triangle {j} {triangles[j].tolist()}: signed area "
                          f"{areas[j]:.3g} is not positive (not counter-clockwise)")
    sides = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    ends = np.sort(edge_arr, axis=1)
    bad = np.flatnonzero(~np.isin(ends[:, 0] * nv + ends[:, 1],
                                  sides[:, 0] * nv + sides[:, 1]))
    if bad.size:
        j = int(bad[0])
        raise ConfigError(f"boundary edge {j} {edge_arr[j].tolist()}: not an edge "
                          f"of any triangle")
    return mesh
