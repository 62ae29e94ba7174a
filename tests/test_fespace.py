import numpy as np
import pytest
from conftest import jittered

from ncfem import fespace, norms
from ncfem.fespace import (
    FeFunction,
    build_space,
    load_function,
    save_function,
)
from ncfem import _hct
from ncfem._hct import SUB_TO_PARENT, hct_coefficients
from ncfem._poly import bary_tabulate, mono_tabulate, monomial_exponents
from ncfem.mesh import Triangulation, l_shape_mesh, red_refine, unit_square_mesh
from ncfem.quadrature import Cell, cells, edge_rule, subcell_corners, triangle_rule


def test_dof_counts():
    assert build_space(unit_square_mesh(1), "CR1_0").ndofs == 1
    m2 = unit_square_mesh(2)
    # oracle: count interior edges directly
    assert build_space(m2, "CR1_0").ndofs == int(m2.interior_edge_mask.sum()) == 8
    # one interior vertex plus eight interior edges
    morley = build_space(m2, "MORLEY_0")
    n_int_v = int((~m2.boundary_vertex_mask).sum())
    assert morley.ndofs == n_int_v + int(m2.interior_edge_mask.sum()) == 9
    assert build_space(m2, "CR1_full").ndofs == m2.n_edges
    assert build_space(m2, "MORLEY_full").ndofs == m2.n_vertices + m2.n_edges


def test_unknown_kind():
    with pytest.raises(ValueError):
        build_space(unit_square_mesh(1), "P1")


def test_cr_basis_midpoint_duality(square2):
    space = build_space(square2, "CR1_0")
    mesh = square2
    for e in np.nonzero(space.edge_dof >= 0)[0][:4]:
        f = FeFunction(space)
        f.coeffs[space.edge_dof[e]] = 1.0
        t = int(mesh.edge_triangles[e, 0])
        for k in range(3):
            e2 = mesh.triangle_edges[t, k]
            val = f.evaluate(t, mesh.edge_midpoint[e2])[0, 0]
            assert abs(val - (1.0 if e2 == e else 0.0)) < 1e-13


def test_morley_duality(square2):
    mesh = square2
    space = build_space(mesh, "MORLEY_full")
    rule = edge_rule(3)
    for dof in range(0, space.ndofs, 3):
        f = FeFunction(space)
        f.coeffs[dof] = 1.0
        # vertex values, from every triangle at the vertex
        for t, tri in enumerate(mesh.triangles):
            want = (space.vertex_dof[tri] == dof).astype(float)
            assert np.abs(f.evaluate(t, mesh.vertices[tri])[0] - want).max() < 1e-12
        # edge-mean normal derivatives from the first adjacent triangle
        for e in range(mesh.n_edges):
            t = int(mesh.edge_triangles[e, 0])
            a, b = mesh.vertices[mesh.edges[e]]
            pts = a[None, :] + rule.points[:, 1][:, None] * (b - a)[None, :]
            grads = f.evaluate(t, pts, 1)[0]
            mean = float(rule.weights @ (grads @ mesh.edge_normal[e]))
            want = 1.0 if space.edge_dof[e] == dof else 0.0
            assert abs(mean - want) < 1e-12


def test_cr_hessian_is_zero(square2):
    space = build_space(square2, "CR1_0")
    f = FeFunction(space, np.arange(space.ndofs, dtype=float))
    out = f.evaluate(0, square2.centroid[0], 2)
    assert np.abs(out).max() == 0.0


def test_constant_representable(rng):
    mesh = l_shape_mesh(1)
    pts_bary = rng.dirichlet(np.ones(3), size=100)
    for kind in ("CR1_full", "MORLEY_full"):
        space = build_space(mesh, kind)
        coeffs = np.zeros(space.ndofs)
        if kind == "CR1_full":
            coeffs[:] = 1.0  # every edge-midpoint value is one
        else:
            coeffs[space.vertex_dof[space.vertex_dof >= 0]] = 1.0
        f = FeFunction(space, coeffs)
        for i in range(100):
            t = i % mesh.n_triangles
            x = pts_bary[i][None, :] @ mesh.vertices[mesh.triangles[t]]
            assert abs(f.evaluate(t, x)[0, 0] - 1.0) < 1e-13


def test_local_duality_on_random_triangles(rng):
    # dof_i(phi_j) = delta_ij on 20 triangles of a generic refined mesh
    mesh = red_refine(l_shape_mesh(1))
    cr = build_space(mesh, "CR1_full")
    rule = edge_rule(4)
    ts = rng.choice(mesh.n_triangles, size=20, replace=False)
    for t in ts:
        dofs = cr.cell_dofs[t]
        for j in range(3):
            f = FeFunction(cr)
            f.coeffs[dofs[j]] = 1.0
            for k in range(3):
                e = mesh.triangle_edges[t, k]
                got = f.evaluate(int(t), mesh.edge_midpoint[e])[0, 0]
                assert abs(got - (1.0 if k == j else 0.0)) < 1e-12


def test_point_outside_triangle_raises(square2):
    # on the plain triangles and on the HCT split (companion Morley)
    for kind in ("CR1_0", "COMPANION_MORLEY"):
        f = FeFunction(build_space(square2, kind))
        with pytest.raises(ValueError, match="outside"):
            f.evaluate(0, np.array([5.0, 5.0]))
        # the vertices and edge midpoints of the triangle lie on its closure
        f.evaluate(0, square2.vertices[square2.triangles[0]])
        f.evaluate(0, square2.edge_midpoint[square2.triangle_edges[0]])


@pytest.mark.parametrize("order", [3, -1])
def test_evaluate_order_out_of_range(square2, order):
    f = FeFunction(build_space(square2, "MORLEY_0"))
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        f.evaluate(0, square2.centroid[0], order)


def test_point_evaluation_does_not_grow_bary_cache(rng):
    mesh = unit_square_mesh(8)
    space = build_space(mesh, "COMPANION_CR")
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    for t in rng.integers(mesh.n_triangles, size=500):
        f.evaluate(int(t), rng.dirichlet(np.ones(3)) @ mesh.vertices[mesh.triangles[t]])
    assert len(space._bary_cache) <= fespace._BARY_CACHE_SIZE
    # repeated rule tabulation and repeated evaluation at one point are hits
    ts = np.arange(mesh.n_triangles)
    rule = triangle_rule(4).points
    space.tabulate(ts, 0, rule, 1)
    f.evaluate(0, mesh.centroid[0])
    n = len(space._bary_cache)
    for _ in range(3):
        space.tabulate(ts, 0, rule, 1)
        f.evaluate(0, mesh.centroid[0])
    assert len(space._bary_cache) == n


def test_function_serialization(tmp_path, square2, rng):
    space = build_space(square2, "MORLEY_0")
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    path = tmp_path / "fun.txt"
    save_function(f, path)
    g = load_function(path, square2)
    assert g.space.kind == "MORLEY_0"
    assert np.array_equal(f.coeffs, g.coeffs)
    g2 = load_function(path, space)
    assert np.array_equal(f.coeffs, g2.coeffs)


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "bad header"),
        ("ncfem-fun v1\n", "bad header"),
        ("ncfem-fun v1 CR1_0\n", "bad header"),
        ("ncfem-fun v1 CR1_0 {n}\n{ones}nan\n", "non-finite"),
        ("ncfem-fun v1 CR1_0 {n}\n-inf\n{ones}", "non-finite"),
    ],
    ids=["empty", "no-kind", "no-ndofs", "nan", "inf"],
)
def test_load_function_refuses_a_malformed_file(tmp_path, square2, text, match):
    n = build_space(square2, "CR1_0").ndofs
    path = tmp_path / "fun.txt"
    path.write_text(text.format(n=n, ones="1.0\n" * (n - 1)))
    with pytest.raises(ValueError, match=match):
        load_function(path, square2)


def test_coefficient_shape_checked(square2):
    space = build_space(square2, "CR1_0")
    with pytest.raises(ValueError):
        FeFunction(space, np.zeros(space.ndofs + 1))


# -- batched tabulation kernels against a plain einsum reference ------------


def _jittered_mesh(base=None, amplitude=0.25 * 0.25):
    """`base` (default unit_square_mesh(4)) jittered with seed 42."""
    base = unit_square_mesh(4) if base is None else base
    return jittered(base, amplitude, np.random.default_rng(42))


def _einsum_from_bary(space, polys, bary, ts, order):
    tab = bary_tabulate(polys, bary, order)
    gl = space._lgrad[ts]
    out = {0: np.broadcast_to(tab[0], (len(ts),) + tab[0].shape)}
    if order >= 1:
        out[1] = np.einsum("lka,fad->flkd", tab[1], gl)
    if order >= 2:
        out[2] = np.einsum("lkab,fad,fbe->flkde", tab[2], gl, gl)
    return out


def _einsum_from_mono(space, exps, coeff, ts, s, bary, order):
    corners = subcell_corners(space.mesh, ts, s, space.n_subcells)
    phys = np.einsum("kc,fcd->fkd", bary, corners)
    h = space.mesh.diameter[ts]
    xi = (phys - space.mesh.centroid[ts][:, None]) / h[:, None, None]
    mono = mono_tabulate(exps, xi, order, inv_h=1.0 / h[:, None])
    subs = {0: "fkm,fmj->fjk", 1: "fkmd,fmj->fjkd", 2: "fkmde,fmj->fjkde"}
    return {o: np.einsum(subs[o], mono[o], coeff) for o in mono}


def _einsum_tabulate(space, ts, s, bary, order):
    """Reference tabulation written directly as einsum contractions."""
    kind = space.kind
    if kind.startswith("CR1") or kind.startswith("COMPANION_CR"):
        return _einsum_from_bary(space, space._modes, bary, ts, order)
    if kind.startswith("MORLEY"):
        exps = monomial_exponents(2)
        coeff = space._build_local_bases()[ts]
        return _einsum_from_mono(space, exps, coeff, ts, 0, bary, order)
    coeff = hct_coefficients(space.mesh)[ts, s]
    hct = _einsum_from_mono(space, _hct.EXPS3, coeff, ts, s, bary, order)
    bub = _einsum_from_bary(space, space._bubbles, bary @ SUB_TO_PARENT[s], ts, order)
    return {o: np.concatenate([hct[o], bub[o]], axis=1) for o in hct}


_FAMILIES = ("CR1_0", "MORLEY_0", "COMPANION_CR", "COMPANION_MORLEY")


def _close(got, want):
    assert got.shape == want.shape
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("kind", _FAMILIES)
def test_batched_kernels_match_einsum_reference(kind):
    mesh = _jittered_mesh()
    space = build_space(mesh, kind)
    rng = np.random.default_rng(7)
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    bary = np.concatenate([triangle_rule(6).points, rng.dirichlet(np.ones(3), size=5)])
    ts = np.arange(mesh.n_triangles)
    for s in range(space.n_subcells):
        for order in range(3):
            want = _einsum_tabulate(space, ts, s, bary, order)[order]
            _close(space.tabulate(ts, s, bary, order), want)
            vals = f.evaluate_batch(ts, s, bary, order)
            _close(vals, np.einsum("fl,flk...->fk...", f.local_coeffs(ts), want))


# -- evaluation through the shared mode tables ------------------------------

_DUALITY_MESHES = {
    "jittered-square4": _jittered_mesh,
    "jittered-lshape2": lambda: _jittered_mesh(l_shape_mesh(2), amplitude=0.25 * 0.5),
}


@pytest.mark.parametrize("mesh_id", sorted(_DUALITY_MESHES))
def test_morley_dof_duality_through_mode_tables(mesh_id):
    # dof_i(phi_j) = delta_ij per triangle: vertex values, edge-mean normal derivatives
    mesh = _DUALITY_MESHES[mesh_id]()
    space = build_space(mesh, "MORLEY_full")
    ts = np.arange(mesh.n_triangles)
    normals = mesh.edge_normal[mesh.triangle_edges]  # (F, 3, 2)
    dof = np.empty((mesh.n_triangles, 6, 6))
    dof[:, :3] = space.tabulate(ts, 0, np.eye(3), 0).swapaxes(1, 2)
    rule = edge_rule(2)
    for k in range(3):
        parent = np.zeros((rule.n_points, 3))
        parent[:, (k + 1) % 3] = rule.points[:, 0]
        parent[:, (k + 2) % 3] = rule.points[:, 1]
        grads = space.tabulate(ts, 0, parent, 1)  # (F, 6, q, 2)
        dof[:, 3 + k] = (grads @ normals[:, k, None, :, None])[..., 0] @ rule.weights
    assert np.abs(dof - np.eye(6)).max() <= 1e-12


@pytest.mark.parametrize("mesh_id", sorted(_DUALITY_MESHES))
def test_hct_dof_duality_through_mode_tables(mesh_id):
    # vertex values and gradients (from both subtriangles at the vertex) and
    # edge-midpoint normal derivatives; the six bubbles carry none of them
    mesh = _DUALITY_MESHES[mesh_id]()
    space = build_space(mesh, "COMPANION_MORLEY_full")
    ts = np.arange(mesh.n_triangles)
    normals = mesh.edge_normal[mesh.triangle_edges]
    want = np.eye(12, 18)
    for k in range(3):
        # A_k is corner 2 of subtriangle k+1 and corner 1 of subtriangle k+2
        for s, corner in (((k + 1) % 3, [0.0, 0.0, 1.0]), ((k + 2) % 3, [0.0, 1.0, 0.0])):
            val = space.tabulate(ts, s, np.array([corner]), 0)
            grad = space.tabulate(ts, s, np.array([corner]), 1)
            got = np.concatenate([val[:, None, :, 0], grad[:, :, 0].swapaxes(1, 2)], axis=1)
            assert np.abs(got - want[3 * k : 3 * k + 3]).max() <= 1e-12
        # the midpoint of outer edge k lies on subtriangle k
        grad = space.tabulate(ts, k, np.array([[0.0, 0.5, 0.5]]), 1)[:, :, 0]  # (F, 18, 2)
        got = (grad @ normals[:, k, :, None])[..., 0]
        assert np.abs(got - want[9 + k]).max() <= 1e-12


@pytest.mark.parametrize("kind", _FAMILIES)
def test_at_matches_coefficients_times_tabulate_cell(kind):
    mesh = _jittered_mesh()
    space = build_space(mesh, kind)
    f = FeFunction(space, np.random.default_rng(8).standard_normal(space.ndofs))
    split = build_space(mesh, "COMPANION_MORLEY")
    # plain cells, then the HCT split (which plain spaces read in triangle coordinates)
    for over in ((space,), (space, split)):
        for chunk in cells(mesh, 6, *over):
            for c in chunk:
                c_loc = f.local_coeffs(c.ts)
                for order in range(3):
                    tab = space.tabulate_cell(c, order)
                    _close(f.at(c, order), np.einsum("fl,flk...->fk...", c_loc, tab))


# -- the one-order evaluators against the former order dicts ----------------


def _dict_lgrad_powers(space, ts, order):
    """Order o -> (nts, 3**o, 2**o), as ``FeSpace._lgrad_powers`` returned it."""
    gl = space._lgrad[ts]
    G = {1: gl}
    if order >= 2:
        G[2] = (gl[:, :, None, :, None] * gl[:, None, :, None, :]).reshape(len(ts), 9, 4)
    return G


def _dict_tabulate_cell(space, cell, order):
    """The former ``FeSpace.tabulate_cell``: order o -> table, every o <= order."""
    ts = cell.ts
    tab = bary_tabulate(space._modes, cell.parent, order)
    nts = len(ts)
    G = _dict_lgrad_powers(space, ts, order)
    n, k = tab[0].shape
    modes = {0: np.broadcast_to(tab[0], (nts, n, k))}
    for o in range(1, order + 1):
        modes[o] = (tab[o].reshape(n * k, 3**o) @ G[o]).reshape((nts, n, k) + (2,) * o)
    if space._mode_coef is None:
        return modes
    D = space._mode_coef[ts, space._subcell(cell)].swapaxes(1, 2)
    q, r = D.shape[1:]
    out = {}
    for o, t in modes.items():
        mapped = (D @ t[:, :r].reshape(nts, r, -1)).reshape((nts, q) + t.shape[2:])
        out[o] = np.concatenate([mapped, t[:, r:]], axis=1)
    return out


def _dict_mode_values(space, ts, a, tab, order):
    """The former ``FeSpace.mode_values``: `tab` and the result map order o
    to a table, for every o <= order."""
    G = _dict_lgrad_powers(space, ts, order)
    nts = len(ts)
    out = {}
    for o in range(order + 1):
        t = tab[o]
        lead = t.ndim - 2 - o
        k = t.shape[lead + 1]
        flat = t.reshape(t.shape[: lead + 1] + (-1,))
        v = a @ flat if lead == 0 else (a[:, None] @ flat)[:, 0]
        if o:
            v = v.reshape(nts, k, 3**o) @ G[o]
        out[o] = v.reshape((nts, k) + (2,) * o)
    return out


@pytest.mark.parametrize("kind", _FAMILIES)
def test_one_order_evaluators_equal_the_order_dicts(kind):
    mesh = _jittered_mesh()
    space = build_space(mesh, kind)
    rng = np.random.default_rng(9)
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    split = build_space(mesh, "COMPANION_MORLEY")
    # plain cells, then the HCT split; the memo entry of a point set grows
    # with the orders asked, so lower orders are also read from a higher one
    for over in ((space,), (space, split)):
        for chunk in cells(mesh, 6, *over):
            for c in chunk:
                a = space.fold(c.ts, space._subcell(c), f.local_coeffs(c.ts))
                for order in range(3):
                    tab = _dict_tabulate_cell(space, c, order)
                    vals = _dict_mode_values(
                        space, c.ts, a, bary_tabulate(space._modes, c.parent, order), order)
                    for o in range(order + 1):
                        assert np.array_equal(space.tabulate_cell(c, o), tab[o])
                        assert np.array_equal(f.at(c, o), vals[o])
    # per-triangle tables, as the fine-grid comparison builds them
    anc = rng.integers(mesh.n_triangles, size=40)
    bary = rng.dirichlet(np.ones(3), size=(40, 7))
    if kind in ("CR1_0", "MORLEY_0"):
        # its sampler, on the mesh itself, takes the points back from their
        # physical coordinates to the barycentric ones of anc
        points = bary @ mesh.vertices[mesh.triangles[anc]]
        cell = Cell(anc, 0, 1, None, points, None, None)
        sampler = norms._CoarseSampler(f, mesh, 0)
        located, bary = sampler.locate(cell)
        assert np.array_equal(located, anc)
    a = space.fold(anc, 0, f.local_coeffs(anc))
    for order in range(3):
        tab = bary_tabulate(space._modes, bary.reshape(-1, 3), order)
        per_tri = {o: np.moveaxis(t.reshape((-1, 40, 7) + t.shape[2:]), 1, 0)
                   for o, t in tab.items()}
        want = _dict_mode_values(space, anc, a, per_tri, order)
        for o in range(order + 1):
            assert np.array_equal(space.mode_values(anc, a, per_tri[o], o), want[o])
        if kind in ("CR1_0", "MORLEY_0"):
            assert np.array_equal(sampler.sample(cell, (order,))[order], want[order])


@pytest.mark.parametrize("kind", _FAMILIES)
def test_order_zero_never_gathers_gradients(kind, monkeypatch):
    mesh = unit_square_mesh(3)
    space = build_space(mesh, kind)
    f = FeFunction(space, np.random.default_rng(10).standard_normal(space.ndofs))

    def refuse(self, ts, order):
        raise AssertionError("order 0 gathered the barycentric gradients")

    monkeypatch.setattr(fespace.FeSpace, "_lgrad_powers", refuse)
    for chunk in cells(mesh, 4, space):
        for c in chunk:
            space.tabulate_cell(c, 0)
            f.at(c, 0)


def test_error_norms_keep_one_memo_entry_per_point_set():
    mesh = unit_square_mesh(3)
    space = build_space(mesh, "COMPANION_MORLEY")
    f = FeFunction(space, np.random.default_rng(11).standard_normal(space.ndofs))
    norms.error_norms(f, orders=(0, 2))
    point_sets = {c.parent.tobytes() for chunk in cells(mesh, 2 * space.poly_degree, space)
                  for c in chunk}
    assert set(space._bary_cache) == point_sets
    assert all(sorted(tab) == [0, 1, 2] for tab in space._bary_cache.values())


def test_certify_commands_never_clear_a_space_memo(tmp_path, monkeypatch):
    from ncfem.cli import main

    sizes = {}  # space -> memo size after each lookup
    lookup = fespace.FeSpace._cached_bary

    def recording(self, parent, order):
        out = lookup(self, parent, order)
        sizes.setdefault(self, []).append(len(self._bary_cache))
        return out

    monkeypatch.setattr(fespace.FeSpace, "_cached_bary", recording)
    for argv in (
        ["estimate", "--problem", "square-smooth-m2", "--level", "3"],
        ["compare", "--m", "2", "--mesh", "square:8"],
    ):
        assert main(argv + ["--json", str(tmp_path / "report.json")]) == 0
    kinds = {space.kind for space in sizes}
    assert {"MORLEY_0", "COMPANION_MORLEY"} <= kinds
    for seq in sizes.values():
        # emptying a full memo would make its size drop
        assert seq == sorted(seq)
        assert seq[-1] < fespace._BARY_CACHE_SIZE


# -- stacked HCT construction against the per-triangle solve ----------------

_HCT_RHS = np.vstack([np.zeros((21, 12)), np.eye(12)])


def _hct_per_triangle(mesh):
    """Rows (F, 33, 30) and SVD least-squares solutions (F, 30, 12) of the
    HCT systems, built and solved one triangle at a time."""
    F = mesh.n_triangles
    all_rows = np.zeros((F, 33, 30))
    coef = np.empty((F, 30, 12))
    emid = mesh.edge_midpoint[mesh.triangle_edges]
    enrm = mesh.edge_normal[mesh.triangle_edges]
    for t in range(F):
        A = mesh.vertices[mesh.triangles[t]]
        c0 = mesh.centroid[t]
        h = mesh.diameter[t]
        rows = all_rows[t]

        def mono(points, order):
            xi = (np.atleast_2d(points) - c0) / h
            return mono_tabulate(_hct.EXPS3, xi, order, inv_h=1.0 / h)

        r = 0
        for k in range(3):
            sa, sb = (k + 1) % 3, (k + 2) % 3
            seg = A[k] - c0
            vals = mono(c0 + np.array([0.0, 1 / 3, 2 / 3, 1.0])[:, None] * seg, 0)[0]
            rows[r : r + 4, 10 * sa : 10 * sa + 10] = vals
            rows[r : r + 4, 10 * sb : 10 * sb + 10] = -vals
            r += 4
            nu = np.array([-seg[1], seg[0]]) / np.hypot(*seg)
            dn = mono(c0 + np.array([1 / 6, 0.5, 5 / 6])[:, None] * seg, 1)[1] @ nu
            rows[r : r + 3, 10 * sa : 10 * sa + 10] = dn
            rows[r : r + 3, 10 * sb : 10 * sb + 10] = -dn
            r += 3
        for k in range(3):
            s = (k + 1) % 3
            tab = mono(A[k], 1)
            rows[21 + 3 * k, 10 * s : 10 * s + 10] = tab[0][0]
            rows[22 + 3 * k, 10 * s : 10 * s + 10] = tab[1][0, :, 0]
            rows[23 + 3 * k, 10 * s : 10 * s + 10] = tab[1][0, :, 1]
        for k in range(3):
            rows[30 + k, 10 * k : 10 * k + 10] = mono(emid[t, k], 1)[1][0] @ enrm[t, k]
        X, _, rank, _ = np.linalg.lstsq(rows, _HCT_RHS, rcond=None)
        assert rank == 30
        coef[t] = X
    return all_rows, coef


@pytest.mark.parametrize(
    "make_mesh",
    [
        _jittered_mesh,
        lambda: _jittered_mesh(l_shape_mesh(2), amplitude=0.25 * 0.5),
        lambda: unit_square_mesh(16),
    ],
    ids=["jittered-square4", "jittered-lshape2", "square16"],
)
def test_stacked_hct_matches_per_triangle_solve(make_mesh):
    mesh = make_mesh()
    rows, want = _hct_per_triangle(mesh)
    got = hct_coefficients(mesh).reshape(-1, 30, 12)
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale)
    assert np.abs(rows @ got - _HCT_RHS).max() <= 1e-10


@pytest.mark.parametrize("vertex", [(0.375, 0.0), (0.375, 1e-10)])
def test_hct_rank_guard_names_the_sliver(vertex):
    # rolled so that triangle (0, 3, 4) sits at index 3; vertex 4 moved onto
    # (exactly, then nearly) the segment from vertex 0 to vertex 3 flattens it
    base = unit_square_mesh(2)
    verts = base.vertices.copy()
    verts[4] = vertex
    mesh = Triangulation(verts, np.roll(base.triangles, 3, axis=0), validate=False)
    with pytest.raises(RuntimeError, match=r"degenerate HCT system on triangle 3 "):
        hct_coefficients(mesh)


def test_hct_residual_guard_names_the_inconsistent_system():
    mesh = unit_square_mesh(2)
    rows = _hct._stacked_rows(mesh, slice(None))
    # a perturbed dof row leaves the system consistent (its left null space
    # lies in the continuity rows); a perturbed continuity row does not
    rows[5, 0] += 1e-3 * np.random.default_rng(3).standard_normal(30)
    with pytest.raises(RuntimeError, match=r"failed on triangle 5: residual"):
        _hct._solve_stacked(rows)
