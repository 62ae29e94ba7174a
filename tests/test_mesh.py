import warnings

import numpy as np
import pytest
from conftest import SPOILED_MESH_FILES, jittered, spoiled_square_file

from ncfem.mesh import (
    MeshError,
    MeshFormatError,
    MeshTopologyError,
    Triangulation,
    l_shape_mesh,
    load_mesh,
    mesh_size,
    red_refine,
    save_mesh,
    unit_square_mesh,
)


def test_unit_square_counts_n1():
    m = unit_square_mesh(1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.n_edges == 5
    assert int(m.interior_edge_mask.sum()) == 1


def test_unit_square_counts_n2():
    m = unit_square_mesh(2)
    assert m.n_vertices == 9
    assert m.n_triangles == 8


def test_euler_formula_oracle_n4():
    # V - E + F = 1 for a disk-like mesh; interior edges = total - boundary
    m = unit_square_mesh(4)
    assert m.n_vertices - m.n_edges + m.n_triangles == 1
    interior = m.n_edges - int(m.boundary_edge_mask.sum())
    assert int(m.interior_edge_mask.sum()) == interior


@pytest.mark.parametrize("n", [1, 2, 3])
def test_positively_oriented_and_area(n):
    m = unit_square_mesh(n)
    assert np.all(m.signed_area > 0)
    assert abs(m.area.sum() - 1.0) < 1e-12


def test_l_shape_counts_and_area():
    m = l_shape_mesh(1)
    assert m.n_triangles == 6
    assert m.n_vertices == 8
    assert abs(m.area.sum() - 3.0) < 1e-12
    # origin is a mesh vertex
    d = np.linalg.norm(m.vertices, axis=1)
    assert d.min() < 1e-14


def test_l_shape_reentrant_angle():
    # interior angle at the origin sums to 3*pi/2 by construction
    m = l_shape_mesh(2)
    origin = int(np.argmin(np.linalg.norm(m.vertices, axis=1)))
    total = 0.0
    for t in np.nonzero((m.triangles == origin).any(axis=1))[0]:
        tri = m.triangles[t]
        k = list(tri).index(origin)
        a = m.vertices[tri[(k + 1) % 3]] - m.vertices[tri[k]]
        b = m.vertices[tri[(k + 2) % 3]] - m.vertices[tri[k]]
        total += np.arccos(a @ b / np.linalg.norm(a) / np.linalg.norm(b))
    assert abs(total - 1.5 * np.pi) < 1e-12


def test_l_shape_conforming_glue():
    # no hanging nodes: every interior edge is shared by exactly two triangles
    m = l_shape_mesh(2)
    count = np.zeros(m.n_edges, dtype=int)
    for row in m.triangle_edges:
        count[row] += 1
    assert np.all(count[m.interior_edge_mask] == 2)
    assert np.all(count[m.boundary_edge_mask] == 1)
    assert m.n_vertices - m.n_edges + m.n_triangles == 1


def _min_angle(mesh):
    p = mesh.vertices[mesh.triangles]
    worst = np.inf
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.einsum("fd,fd->f", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        worst = min(worst, np.arccos(np.clip(cosang, -1, 1)).min())
    return worst


def test_red_refine_counts_and_shape():
    m = unit_square_mesh(1)
    r = red_refine(m)
    assert r.n_triangles == 8
    # one new vertex per edge
    assert r.n_vertices == m.n_vertices + m.n_edges
    assert abs(_min_angle(m) - _min_angle(r)) < 1e-12
    assert np.allclose(r.diameter[::4], m.diameter / 2.0)
    parent = r.ancestor(np.arange(r.n_triangles), 1)
    assert np.array_equal(parent, np.arange(2).repeat(4))
    # each child's centroid lies inside the (counterclockwise) parent that ancestor names
    a, b, c = np.moveaxis(m.vertices[m.triangles[parent]], 1, 0)
    p = r.vertices[r.triangles].mean(axis=1)
    cross = lambda u, v: u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    assert all(np.all(cross(q - p0, p - p0) > 0) for p0, q in ((a, b), (b, c), (c, a)))


@pytest.mark.parametrize("levels", [0, 1], ids=["base", "refined"])
def test_every_mesh_array_is_read_only(levels):
    m = l_shape_mesh(1)
    for _ in range(levels):
        m = red_refine(m)
    arrays = {k: v for k, v in vars(m).items() if isinstance(v, np.ndarray)}
    assert "interior_edge_mask" in arrays
    assert sorted(k for k, v in arrays.items() if v.flags.writeable) == []


def test_red_refine_preserves_boundary():
    m = l_shape_mesh(1)
    r = red_refine(m)
    assert abs(r.area.sum() - m.area.sum()) < 1e-12
    # refined boundary-edge midpoints lie on parent boundary segments
    bmid = r.edge_midpoint[r.boundary_edge_mask]
    pa = m.vertices[m.edges[m.boundary_edge_mask][:, 0]]
    pb = m.vertices[m.edges[m.boundary_edge_mask][:, 1]]
    for pt in bmid:
        seg = pb - pa
        rel = pt - pa
        d = np.abs(seg[:, 0] * rel[:, 1] - seg[:, 1] * rel[:, 0]) / np.linalg.norm(
            seg, axis=1
        )
        along = np.einsum("ed,ed->e", rel, seg) / np.einsum("ed,ed->e", seg, seg)
        ok = (d < 1e-12) & (along > -1e-12) & (along < 1 + 1e-12)
        assert ok.any()


def test_mesh_size_conventions():
    m = unit_square_mesh(2)
    d = mesh_size(m, "diameter")
    s = mesh_size(m, "sqrt_area")
    assert np.allclose(d, m.diameter)
    assert np.allclose(s, np.sqrt(m.area))
    assert np.all(d >= s)
    with pytest.raises(ValueError):
        mesh_size(m, "nope")


def test_save_load_roundtrip(tmp_path):
    m = unit_square_mesh(2)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.abs(m.vertices - m2.vertices).max() < 1e-15


def test_load_rejects_zero_area_triangle(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "ncfem-mesh v1\n3 3 1\n0 0\n1 0\n2 0\n0 1 2\n0 1\n1 2\n0 2\n"
    )
    with pytest.raises(MeshTopologyError, match="triangle 0"):
        load_mesh(path)


def test_load_rejects_overshared_edge(tmp_path):
    # three triangles sharing the edge (0, 1)
    path = tmp_path / "bad.txt"
    path.write_text(
        "ncfem-mesh v1\n5 0 3\n0 0\n1 0\n0 1\n1 1\n0.5 -1\n"
        "0 1 2\n1 0 3\n0 1 4\n"
    )
    with pytest.raises(MeshTopologyError, match="shared by more than two"):
        load_mesh(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ncfem-mesh v1\n2 0 0\n0 0\nnot-a-number 1\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(path)


@pytest.mark.parametrize("case", SPOILED_MESH_FILES)
def test_load_rejects_bad_counts_trailing_data_and_overflowing_geometry(case, tmp_path):
    path = tmp_path / "bad.mesh"
    spoiled_square_file(path, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        with pytest.raises(MeshError) as exc:
            load_mesh(path)
    if case == "huge":
        assert isinstance(exc.value, MeshTopologyError)
        assert str(exc.value).startswith("triangle 0 has a non-finite area inf")
    elif case == "trailing":
        # the boundary edges end on line 12
        assert exc.value.line == 13
        assert str(exc.value) == "line 13: unexpected data after the last boundary edge"
    else:
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: counts must be non-negative, got {case}"


def test_duplicate_vertices_rejected():
    with pytest.raises(MeshTopologyError, match="duplicate"):
        Triangulation(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0 + 1e-15]]),
            np.array([[0, 1, 2], [1, 3, 2]]),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_vertex_rejected(bad):
    # an inf coordinate makes the duplicate tolerance inf; NaN passes it
    with pytest.raises(MeshTopologyError,
                       match=rf"vertex 2 has a non-finite coordinate \[{bad}, 1.0\]"):
        Triangulation(
            np.array([[0.0, 0.0], [1.0, 0.0], [bad, 1.0], [0.0, 1.0]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )


def test_edge_normal_convention(square2):
    m = square2
    # interior normals point from the lower- into the higher-index triangle
    for e in np.nonzero(m.interior_edge_mask)[0]:
        lo, hi = m.edge_triangles[e]
        v = m.edge_midpoint[e] - m.centroid[lo]
        assert m.edge_normal[e] @ v > 0
    for e in np.nonzero(m.boundary_edge_mask)[0]:
        t = m.edge_triangles[e, 0]
        assert m.edge_normal[e] @ (m.edge_midpoint[e] - m.centroid[t]) > 0


def _edges_by_row_unique(mesh):
    """Edge topology from a row-wise np.unique of the sorted vertex pairs."""
    tri = mesh.triangles
    raw = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=1).reshape(-1, 2)
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    triangle_edges = inverse.reshape(-1, 3)
    adj = np.full((len(edges), 2), -1)
    for t, row in enumerate(triangle_edges):
        for e in row:
            adj[e, 0 if adj[e, 0] < 0 else 1] = t
    two = adj[:, 1] >= 0
    adj[two] = np.sort(adj[two], axis=1)
    return edges, triangle_edges, adj


def _jittered_renumbered_square(n=5, seed=7):
    rng = np.random.default_rng(seed)
    mesh = jittered(unit_square_mesh(n), 0.2 / n, rng)
    perm = rng.permutation(mesh.n_vertices)  # new index of each old vertex
    new_verts = np.empty_like(mesh.vertices)
    new_verts[perm] = mesh.vertices
    tris = perm[mesh.triangles][rng.permutation(mesh.n_triangles)]
    return Triangulation(new_verts, tris)


@pytest.mark.parametrize(
    "make",
    [
        lambda: unit_square_mesh(4),
        lambda: l_shape_mesh(2),
        lambda: red_refine(red_refine(l_shape_mesh(1))),
        _jittered_renumbered_square,
    ],
    ids=["square", "lshape", "red-refined", "jittered"],
)
def test_edge_topology_matches_row_unique(make):
    mesh = make()
    edges, triangle_edges, edge_triangles = _edges_by_row_unique(mesh)
    assert mesh.edges.dtype == edges.dtype
    np.testing.assert_array_equal(mesh.edges, edges)
    np.testing.assert_array_equal(mesh.triangle_edges, triangle_edges)
    np.testing.assert_array_equal(mesh.edge_triangles, edge_triangles)
