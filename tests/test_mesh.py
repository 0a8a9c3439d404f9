import warnings

import numpy as np
import pytest

from ncusp.errors import ConfigError, DegenerateTriangle, RangeViolation
from ncusp.geometry import powt, validate_params
from ncusp.steklov.mesh import (
    FLAT,
    SLANTED,
    TOP,
    TriMesh,
    generate_cusp_mesh,
    load_mesh,
    mesh_area,
    save_mesh,
)

from oracles import two_pointer_triangles


def _chain_ends(mesh, tag):
    """Coordinates of the two ends of a tag's edges when they form one simple
    path, else None."""
    edges = mesh.boundary_edges[mesh.boundary_tags == tag].tolist()
    neighbours = {}
    for a, b in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    ends = [v for v, nb in neighbours.items() if len(nb) == 1]
    if len(ends) != 2 or any(len(nb) > 2 for nb in neighbours.values()):
        return None
    # walk from one end; a single path reaches the other end over every edge
    prev, cur, steps = None, ends[0], 0
    while True:
        ahead = [v for v in neighbours[cur] if v != prev]
        if not ahead:
            break
        prev, cur, steps = cur, ahead[0], steps + 1
    if cur != ends[1] or steps != len(edges):
        return None
    return {tuple(mesh.vertices[v].tolist()) for v in ends}


class TestGeneration:
    def test_simplex_tags_and_bounds(self, simplex_params):
        m = generate_cusp_mesh(simplex_params, levels=3, grading_ratio=0.5)
        assert set(m.boundary_tags) == {FLAT, SLANTED, TOP}
        assert np.all(m.vertices[:, 0] <= m.vertices[:, 1] + 1e-12)
        assert mesh_area(m) == pytest.approx(0.5, abs=1e-14)

    def test_slanted_chain_on_profile(self, p1_params):
        m = generate_cusp_mesh(p1_params, levels=8)
        sl = np.unique(m.boundary_edges[m.boundary_tags == SLANTED])
        v = m.vertices[sl]
        assert np.abs(v[:, 0] - v[:, 1] ** 2).max() < 1e-12

    def test_vertices_inside_domain(self, p1_params):
        m = generate_cusp_mesh(p1_params, levels=8)
        x1, x2 = m.vertices[:, 0], m.vertices[:, 1]
        assert np.all(x2 >= -1e-12) and np.all(x2 <= 1 + 1e-12)
        pos = x2 > 0
        assert np.all(x1[pos] <= powt(x2[pos], 2.0) + 1e-12)
        assert np.all(x1 >= -1e-12)

    def test_area_converges(self, p1_params):
        errs = []
        for lv in (4, 7, 10):
            m = generate_cusp_mesh(p1_params, levels=lv)
            errs.append(abs(mesh_area(m) - 1 / 3) * 3)
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-3

    def test_positive_orientation(self, p1_params):
        m = generate_cusp_mesh(p1_params, levels=6)
        v = m.vertices[m.triangles]
        cross = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) \
            - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
        assert np.all(cross > 0)

    def test_quality_reported(self, p1_params):
        m = generate_cusp_mesh(p1_params, levels=6)
        assert 1e-6 < m.min_quality < 1.0

    def test_boundary_chains_closed(self, p1_params):
        # FLAT runs up x_1 = 0, SLANTED along x_1 = x_2**2, TOP along x_2 = 1
        m = generate_cusp_mesh(p1_params, levels=5)
        corners = {FLAT: {(0.0, 0.0), (0.0, 1.0)},
                   SLANTED: {(0.0, 0.0), (1.0, 1.0)},
                   TOP: {(0.0, 1.0), (1.0, 1.0)}}
        for tag, expected in corners.items():
            assert _chain_ends(m, tag) == expected

    def test_single_tip_triangle(self, p1_params):
        m = generate_cusp_mesh(p1_params, levels=5)
        origin = np.where((m.vertices == 0).all(axis=1))[0][0]
        tip_tris = np.sum((m.triangles == origin).any(axis=1))
        assert tip_tris == 1

    @pytest.mark.parametrize("case", ["reference", "simplex", "one-row-per-strip"])
    def test_boundary_is_the_sides_of_one_triangle(self, p1_params, simplex_params,
                                                   case):
        params, kw = {"reference": (p1_params, {}),
                      "simplex": (simplex_params, {}),
                      "one-row-per-strip": (p1_params, {"rows_per_strip": 1})}[case]
        m = generate_cusp_mesh(params, levels=5, **kw)
        sides = np.sort(m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        pairs, owners = np.unique(sides, axis=0, return_counts=True)
        assert owners.max() <= 2
        boundary = np.sort(m.boundary_edges, axis=1)
        assert len(np.unique(boundary, axis=0)) == len(boundary)
        assert set(map(tuple, boundary.tolist())) == \
            set(map(tuple, pairs[owners == 1].tolist()))

    def test_validation(self, p1_params, p2_params):
        with pytest.raises(RangeViolation):
            generate_cusp_mesh(p1_params, levels=2)
        with pytest.raises(RangeViolation):
            generate_cusp_mesh(p1_params, levels=6, grading_ratio=1.2)
        with pytest.raises(RangeViolation):
            generate_cusp_mesh(p2_params, levels=6)

    @pytest.mark.parametrize("key,value", [
        ("levels", 4.5), ("levels", "abc"), ("grading_ratio", "x"), ("grading_ratio", 0.0),
        ("aspect", 0.0), ("aspect", float("nan")), ("rows_per_strip", 0),
        ("rows_per_strip", 2.0)])
    def test_invalid_value_names_the_key(self, p1_params, key, value):
        with pytest.raises(RangeViolation) as exc:
            generate_cusp_mesh(p1_params, **{"levels": 4, key: value})
        assert exc.value.field == key

    def test_one_row_per_strip(self, p1_params):
        m = generate_cusp_mesh(p1_params, levels=4, rows_per_strip=1)
        assert m.min_quality > 1e-6
        assert mesh_area(m) == pytest.approx(1 / 3, rel=0.1)

    def test_dof_scale_at_levels_10(self, p1_params):
        m = generate_cusp_mesh(p1_params, levels=10)
        assert 3000 < m.num_vertices < 8000  # the "about 5k unknowns" regime

    def test_needle_thin_tip_rejected(self):
        # a gamma = 8 cusp at depth produces edge ratios below the quality
        # floor; generation must refuse rather than emit slivers
        params = validate_params(2, 8.0, 1.5, 2.0, usage="steklov")
        with pytest.raises(DegenerateTriangle):
            generate_cusp_mesh(params, levels=8)
        # shallow depth keeps the tip triangle above the floor
        m = generate_cusp_mesh(params, levels=3)
        assert m.min_quality > 1e-6

    def test_nan_edge_ratio_rejected(self, p1_params):
        # at levels 540 with one row per strip the tip edges are shorter than
        # about 1e-162, their norms are 0, and the edge ratio is 0/0 = NaN
        with pytest.raises(DegenerateTriangle, match="edge ratio nan"):
            generate_cusp_mesh(p1_params, levels=540, rows_per_strip=1)


# the reference meshes of the benchmark, levels 3 to 14, and the mesher's
# aspect, grading and single-row settings
STITCH_CASES = [
    *[((3.0, 1.5, 2.0), {}, dict(levels=lv)) for lv in (3, 6, 10, 14)],
    ((2.5, 1.25, 1.6), {}, dict(levels=7, rows_per_strip=14)),
    ((2.0, 1.25, 1.6), dict(theta=0.0, simplex=True), dict(levels=7, rows_per_strip=14)),
    ((4.0, 1.8, 3.0), {}, dict(levels=9)),
    ((3.0, 1.5, 2.0), {}, dict(levels=8, aspect=0.3)),
    ((3.0, 1.5, 2.0), {}, dict(levels=8, aspect=3.0)),
    ((3.0, 1.5, 2.0), {}, dict(levels=8, grading_ratio=0.3)),
    ((3.0, 1.5, 2.0), {}, dict(levels=5, rows_per_strip=1)),
]


@pytest.mark.parametrize("exps, kw, mesh_kw", STITCH_CASES,
                         ids=[str(i) for i in range(len(STITCH_CASES))])
def test_stitching_matches_the_two_pointer_sweep(exps, kw, mesh_kw):
    # the merged stitching and the row fractions equal the row-by-row sweep
    # over np.linspace fractions bit for bit
    mesh = generate_cusp_mesh(validate_params(2, *exps, usage="steklov", **kw), **mesh_kw)
    triangles, xs = two_pointer_triangles(mesh)
    assert np.array_equal(mesh.triangles, triangles)
    assert mesh.triangles.dtype == np.int64
    assert np.array_equal(mesh.vertices[:-1, 0], np.concatenate(xs))


class TestMeshIO:
    def test_roundtrip(self, p1_params, tmp_path):
        m = generate_cusp_mesh(p1_params, levels=5)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        m2 = load_mesh(path)
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.boundary_edges, m2.boundary_edges)
        assert np.all(m.boundary_tags == m2.boundary_tags)
        assert m2.tip_height == m.tip_height
        assert m2.min_quality == m.min_quality

    def test_text_equals_a_per_line_writer(self, p1_params, tmp_path):
        m = generate_cusp_mesh(p1_params, levels=5)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        ref = ["ncusp-mesh v1"]
        for x1, x2 in m.vertices:
            ref.append(f"v {float(x1)!r} {float(x2)!r}")
        for i, j, k in m.triangles:
            ref.append(f"t {int(i)} {int(j)} {int(k)}")
        for (i, j), tag in zip(m.boundary_edges, m.boundary_tags):
            ref.append(f"b {int(i)} {int(j)} {tag}")
        assert path.read_bytes() == ("\n".join(ref) + "\n").encode()

    def test_header_line(self, p1_params, tmp_path):
        m = generate_cusp_mesh(p1_params, levels=4)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        assert path.read_text().splitlines()[0] == "ncusp-mesh v1"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope v0\nv 0 0\n")
        with pytest.raises(ConfigError):
            load_mesh(path)

    def test_rejects_bad_tag(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ncusp-mesh v1\nv 0.0 0.0\nv 1.0 1.0\nb 0 1 WALL\n")
        with pytest.raises(ConfigError):
            load_mesh(path)

    @pytest.mark.parametrize("kind,edit,message", [
        ("v", lambda ln: "v 0.5 abc", "line 2: a field does not parse"),
        ("t", lambda ln: "t 0 1 x", "line {line}: a field does not parse"),
        ("t", lambda ln: "t 0 1 {nv}", "triangle 0 [0, 1, {nv}]: vertex index outside"),
        ("t", lambda ln: "t 0 -1 2", "triangle 0 [0, -1, 2]: vertex index outside"),
        ("b", lambda ln: "b 0 {nv} FLAT", "boundary edge 0 [0, {nv}]: vertex index"),
        ("b", lambda ln: "b -1 0 FLAT", "boundary edge 0 [-1, 0]: vertex index"),
        ("t", lambda ln: "t " + " ".join(reversed(ln.split()[1:])),
         "triangle 0 {tri}: signed area"),
        ("t", lambda ln: "t 0 0 1", "triangle 0 [0, 0, 1]: signed area"),
        ("b", lambda ln: "b 0 {tip} FLAT", "boundary edge 0 [0, {tip}]: not an edge"),
    ], ids=["vertex-text", "index-text", "index-past-nv", "negative-index",
            "edge-past-nv", "negative-edge", "clockwise", "zero-area", "edge-not-a-side"])
    def test_rejects_bad_content_naming_line_or_triangle(self, p1_params, tmp_path,
                                                         kind, edit, message):
        m = generate_cusp_mesh(p1_params, levels=4)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
        tip = m.num_vertices - 2  # a vertex of the lowest row, far from vertex 0
        lines[k] = edit(lines[k]).format(nv=m.num_vertices, tip=tip)
        path.write_text("\n".join(lines) + "\n")
        tri = list(reversed(m.triangles[0].tolist()))
        with pytest.raises(ConfigError) as exc:
            load_mesh(path)
        assert message.format(line=k + 1, nv=m.num_vertices, tri=tri, tip=tip) \
            in str(exc.value)

    def test_zero_area_triangle(self, tmp_path):
        # the area needs no P1 gradients, so a zero area divides nothing;
        # the orientation check still rejects the mesh, naming the triangle
        mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
                       np.array([[0, 1, 2], [1, 3, 2]]),
                       np.array([[0, 1], [1, 2], [2, 0]]), np.array([FLAT, SLANTED, TOP]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mesh_area(mesh) == 0.5
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        with pytest.raises(ConfigError, match=r"triangle 1 \[1, 3, 2\]: signed area 0 "):
            load_mesh(path)

    def test_rejects_empty_and_non_finite(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("ncusp-mesh v1\nv 0.0 0.0\n")
        with pytest.raises(ConfigError, match="no triangles"):
            load_mesh(path)
        path.write_text("ncusp-mesh v1\nv 0.0 0.0\nv 1.0 nan\nv 0.0 1.0\nt 0 1 2\n")
        with pytest.raises(ConfigError, match="finite"):
            load_mesh(path)
