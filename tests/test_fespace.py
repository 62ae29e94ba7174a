import numpy as np
import pytest

from ncfem import fespace
from ncfem.fespace import (
    FeFunction,
    build_space,
    evaluate,
    load_function,
    save_function,
    split_point_eval,
    vertex_eval,
)
from ncfem._hct import SUB_TO_PARENT
from ncfem._poly import bary_tabulate, mono_tabulate, monomial_exponents
from ncfem.mesh import Triangulation, l_shape_mesh, red_refine, unit_square_mesh
from ncfem.quadrature import edge_rule, triangle_rule


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
            val = evaluate(f, t, mesh.edge_midpoint[e2])[0]
            assert abs(val - (1.0 if e2 == e else 0.0)) < 1e-13


def test_morley_duality(square2):
    mesh = square2
    space = build_space(mesh, "MORLEY_full")
    rule = edge_rule(3)
    for dof in range(0, space.ndofs, 3):
        f = FeFunction(space)
        f.coeffs[dof] = 1.0
        # vertex values
        for v in range(mesh.n_vertices):
            want = 1.0 if space.vertex_dof[v] == dof else 0.0
            assert abs(vertex_eval(f, v) - want) < 1e-12
        # edge-mean normal derivatives from the first adjacent triangle
        for e in range(mesh.n_edges):
            t = int(mesh.edge_triangles[e, 0])
            a, b = mesh.vertices[mesh.edges[e]]
            pts = a[None, :] + rule.points[:, 1][:, None] * (b - a)[None, :]
            grads = f.evaluate(t, pts, 1)[1][0]
            mean = float(rule.weights @ (grads @ mesh.edge_normal[e]))
            want = 1.0 if space.edge_dof[e] == dof else 0.0
            assert abs(mean - want) < 1e-12


def test_cr_hessian_is_zero(square2):
    space = build_space(square2, "CR1_0")
    f = FeFunction(space, np.arange(space.ndofs, dtype=float))
    out = evaluate(f, 0, square2.centroid[0], 2)
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
            x = mesh.to_physical(t, pts_bary[i][None, :])
            assert abs(evaluate(f, t, x)[0] - 1.0) < 1e-13


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
                got = evaluate(f, int(t), mesh.edge_midpoint[e])[0]
                assert abs(got - (1.0 if k == j else 0.0)) < 1e-12


def test_point_outside_triangle_raises(square2):
    space = build_space(square2, "CR1_0")
    f = FeFunction(space)
    with pytest.raises(ValueError, match="outside"):
        evaluate(f, 0, np.array([5.0, 5.0]))


def test_vertex_eval_refused_for_cr(square2):
    f = FeFunction(build_space(square2, "CR1_0"))
    with pytest.raises(ValueError):
        vertex_eval(f, 0)
    with pytest.raises(ValueError):
        split_point_eval(f, 0, square2.edge_midpoint[0])


def test_split_point_eval(square2, rng):
    mesh = square2
    space = build_space(mesh, "MORLEY_full")
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    # at a vertex both one-sided values agree with the vertex value
    e = int(np.nonzero(mesh.interior_edge_mask)[0][0])
    v = int(mesh.edges[e, 0])
    got = split_point_eval(f, e, mesh.vertices[v], mu=0.5)
    assert abs(got - vertex_eval(f, v)) < 1e-11
    # generic interior-edge midpoint: mu-weighted one-sided values
    z = mesh.edge_midpoint[e]
    t_lo, t_hi = mesh.edge_triangles[e]
    v_lo = evaluate(f, int(t_lo), z)[0]
    v_hi = evaluate(f, int(t_hi), z)[0]
    for mu in (0.0, 0.3, 1.0):
        want = mu * v_hi + (1 - mu) * v_lo
        assert abs(split_point_eval(f, e, z, mu) - want) < 1e-12
    with pytest.raises(ValueError):
        split_point_eval(f, e, z, mu=1.5)
    with pytest.raises(ValueError):
        split_point_eval(f, e, mesh.centroid[0])


def test_split_point_eval_continuous_function(square2):
    # companion images are continuous: the value is independent of mu
    from ncfem.operators import build_companion, companion

    space = build_space(square2, "MORLEY_0")
    cmap = build_companion(space)
    v = FeFunction(space, np.linspace(-1, 1, space.ndofs))
    jv = companion(cmap, v)
    e = int(np.nonzero(square2.interior_edge_mask)[0][1])
    z = square2.edge_midpoint[e]
    vals = [split_point_eval(jv, e, z, mu) for mu in (0.0, 0.5, 1.0)]
    assert max(vals) - min(vals) < 1e-11


def test_point_evaluation_does_not_grow_bary_cache(rng):
    mesh = unit_square_mesh(8)
    space = build_space(mesh, "COMPANION_CR")
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    for t in rng.integers(mesh.n_triangles, size=500):
        evaluate(f, int(t), rng.dirichlet(np.ones(3)) @ mesh.vertices[mesh.triangles[t]])
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


def test_coefficient_shape_checked(square2):
    space = build_space(square2, "CR1_0")
    with pytest.raises(ValueError):
        FeFunction(space, np.zeros(space.ndofs + 1))


# -- batched tabulation kernels against a plain einsum reference ------------


def _jittered_mesh():
    base = unit_square_mesh(4)
    rng = np.random.default_rng(42)
    verts = base.vertices.copy()
    interior = ~base.boundary_vertex_mask
    verts[interior] += 0.25 * 0.25 * rng.uniform(-1, 1, size=(int(interior.sum()), 2))
    return Triangulation(verts, base.triangles)


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
    corners = space._subcell_corners(ts, s)
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
        return _einsum_from_bary(space, space._shapes, bary, ts, order)
    if kind.startswith("MORLEY"):
        exps = monomial_exponents(2)
        return _einsum_from_mono(space, exps, space._coeff[ts], ts, 0, bary, order)
    hct = _einsum_from_mono(space, space._exps3, space.hct_coef[ts, s], ts, s, bary, order)
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
            got = space.tabulate(ts, s, bary, order)
            want = _einsum_tabulate(space, ts, s, bary, order)
            assert sorted(got) == list(range(order + 1))
            for o in want:
                _close(got[o], want[o])
            vals = f.evaluate_batch(ts, s, bary, order)
            c = f.local_coeffs(ts)
            for o in want:
                _close(vals[o], np.einsum("fl,flk...->fk...", c, want[o]))
