import numpy as np
import pytest
import scipy.sparse as sp
from conftest import formula_reference, jittered, run_python
from scipy.optimize import brentq

from ncfem import assembly, operators
from ncfem._poly import BaryPoly, bary_modes, cubic_bubble
from ncfem.fespace import FeFunction, build_space, nc_kind
from ncfem.fields import ExactSolution, fe_derivative, field_sum, quad_degree
from ncfem.linalg import factor
from ncfem.mesh import Triangulation, l_shape_mesh, red_refine, unit_square_mesh
from ncfem.norms import error_norms
from ncfem.operators import (
    CompanionMap,
    Discretization,
    best_approx_orthogonality_check,
    build_companion,
    companion,
    compute_lambda0,
    interpolate,
    kappa_constant,
)
from ncfem.problems import get_problem
from ncfem.quadrature import Cell, cells, edge_rule, triangle_rule

MESHES = [unit_square_mesh(1), unit_square_mesh(2), l_shape_mesh(1)]
KINDS = ["CR1_0", "MORLEY_0", "CR1_full", "MORLEY_full"]


# -- interpolation -----------------------------------------------------------


def test_cr_interpolation_reproduces_linears(square2):
    u = formula_reference(
        lambda x, y: 2 * x + 3 * y - 1,
        lambda x, y: np.broadcast_to([2.0, 3.0], np.shape(x) + (2,)),
        degree=1,
    )
    space = build_space(square2, "CR1_full")
    iu = interpolate(space, u)
    # a global linear lies in the CR space: dofs are its midpoint values
    mids = square2.edge_midpoint
    want = 2 * mids[:, 0] + 3 * mids[:, 1] - 1
    assert np.abs(iu.coeffs[space.edge_dof] - want).max() < 1e-13


def test_morley_interpolation_reproduces_quadratics(square2):
    def val(x, y):
        return x**2 + x * y - 2 * y**2 + x

    def grad(x, y):
        return np.stack([2 * x + y + 1, x - 4 * y], axis=-1)

    u = formula_reference(val, grad, degree=2)
    space = build_space(square2, "MORLEY_full")
    iu = interpolate(space, u)
    # vertex dofs match the values, edge dofs the normal derivative means
    verts = square2.vertices
    assert np.abs(
        iu.coeffs[space.vertex_dof] - val(verts[:, 0], verts[:, 1])
    ).max() < 1e-12
    mids = square2.edge_midpoint
    want = np.einsum("ed,ed->e", grad(mids[:, 0], mids[:, 1]), square2.edge_normal)
    assert np.abs(iu.coeffs[space.edge_dof] - want).max() < 1e-12


def test_cr_edge_mean_closed_form():
    # v = x^2 on the n=1 square: the interior (diagonal) edge runs from
    # (0,0) to (1,1); its mean of x^2 is 1/3
    mesh = unit_square_mesh(1)
    space = build_space(mesh, "CR1_0")
    u = formula_reference(lambda x, y: x**2, degree=2)
    iu = interpolate(space, u)
    assert abs(iu.coeffs[0] - 1.0 / 3.0) < 1e-14


# the former interpolation, one type switch per sampler, kept as an oracle


def _former_edge_points(mesh, edges_idx, rule):
    a = mesh.vertices[mesh.edges[edges_idx, 0]]
    b = mesh.vertices[mesh.edges[edges_idx, 1]]
    t = rule.points[:, 1]
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


def _former_fef_on_edges(f, edges_idx, rule, order):
    mesh = f.space.mesh
    edges_idx = np.asarray(edges_idx)
    ts = mesh.edge_triangles[edges_idx, 0]
    slots = np.argmax(mesh.triangle_edges[ts] == edges_idx[:, None], axis=1)
    fwd = mesh.triangles[ts, (slots + 1) % 3] == mesh.edges[edges_idx, 0]
    t = rule.points[:, 1]
    out = np.zeros((len(edges_idx), rule.n_points) + (2,) * order)
    for k in range(3):
        for is_fwd in (True, False):
            sel = (slots == k) & (fwd == is_fwd)
            if not sel.any():
                continue
            ta, tb = (1.0 - t, t) if is_fwd else (t, 1.0 - t)
            parent = np.zeros((rule.n_points, 3))
            parent[:, (k + 1) % 3] = ta
            parent[:, (k + 2) % 3] = tb
            out[sel] = f.at(Cell(ts[sel], k, 3, parent, None, None, None), order)
    return out


def _former_edge_means(f, mesh, edges_idx, order):
    if isinstance(f, FeFunction):
        rule = edge_rule(f.space.poly_degree)
        vals = _former_fef_on_edges(f, edges_idx, rule, order)
    else:
        rule = edge_rule(quad_degree(f))
        pts = _former_edge_points(mesh, edges_idx, rule)
        vals = f.parts(pts[..., 0], pts[..., 1], (order,))[order]
    return np.einsum("k,fk...->f...", rule.weights, vals)


def _former_vertex_values(f, mesh, vertices):
    if isinstance(f, ExactSolution):
        x = mesh.vertices[vertices]
        return f.parts(x[:, 0], x[:, 1], (0,))[0]
    first_tri = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vslot = np.zeros(mesh.n_vertices, dtype=np.int64)
    for k in range(3):
        first_tri[mesh.triangles[:, k]] = np.arange(mesh.n_triangles)
        vslot[mesh.triangles[:, k]] = k
    out = np.zeros(len(vertices))
    ts = first_tri[vertices]
    slots = vslot[vertices]
    for k in range(3):
        sel = slots == k
        if not sel.any():
            continue
        cell = Cell(ts[sel], (k + 2) % 3, 3, np.eye(3)[k][None, :], None, None, None)
        out[sel] = f.at(cell, 0)[:, 0]
    return out


def _former_interpolate(space, f):
    mesh = space.mesh
    coeffs = np.zeros(space.ndofs)
    edges = np.nonzero(space.edge_dof >= 0)[0]
    if space.m == 1:
        coeffs[space.edge_dof[edges]] = _former_edge_means(f, mesh, edges, 0)
        return coeffs
    verts = np.nonzero(space.vertex_dof >= 0)[0]
    coeffs[space.vertex_dof[verts]] = _former_vertex_values(f, mesh, verts)
    gmeans = _former_edge_means(f, mesh, edges, 1)
    coeffs[space.edge_dof[edges]] = np.einsum("fd,fd->f", gmeans, mesh.edge_normal[edges])
    return coeffs


ORACLE_MESHES = {
    "square:4": lambda rng: unit_square_mesh(4),
    "lshape:2": lambda rng: l_shape_mesh(2),
    "jittered-square:4": lambda rng: jittered(unit_square_mesh(4), 0.06, rng),
}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("mesh_name", list(ORACLE_MESHES))
def test_interpolation_equals_the_former_type_switch(mesh_name, m):
    # a companion image, two problems' references with their one-call parts
    # and with one call per order, and an analytic reference from separate
    # formulas
    rng = np.random.default_rng(4)
    space = build_space(ORACLE_MESHES[mesh_name](rng), nc_kind(m))
    v = FeFunction(space, rng.standard_normal(space.ndofs))
    refs = [companion(build_companion(space), v)]
    for name in ("square-smooth-m2", "lshape-singular-m1"):
        with_parts = get_problem(name).reference()
        per_order = [lambda x, y, k=k, p=with_parts.parts: p(x, y, (k,))[k]
                     for k in range(with_parts.top_order + 1)]
        refs += [with_parts, formula_reference(*per_order)]
    refs.append(formula_reference(
        lambda x, y: np.exp(x) * np.cos(3.0 * y),
        lambda x, y: np.stack([np.exp(x) * np.cos(3.0 * y), -3.0 * np.exp(x) * np.sin(3.0 * y)],
                              axis=-1),
    ))
    for ref in refs:
        assert np.array_equal(interpolate(space, ref).coeffs, _former_interpolate(space, ref))


def test_interpolation_refuses_a_function_on_another_mesh():
    # the fine function would be sampled on the coarse mesh's triangle numbers
    mesh = unit_square_mesh(2)
    fine = build_space(red_refine(mesh), "CR1_0")
    v = FeFunction(fine, np.random.default_rng(5).standard_normal(fine.ndofs))
    with pytest.raises(ValueError, match="reference lives on a different mesh"):
        interpolate(build_space(mesh, "CR1_0"), v)


# -- right-inverse and orthogonality ----------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mesh_idx", range(len(MESHES)))
def test_right_inverse(kind, mesh_idx, rng):
    space = build_space(MESHES[mesh_idx], kind)
    cmap = build_companion(space)
    for _ in range(10):
        v = FeFunction(space, rng.standard_normal(space.ndofs))
        jv = companion(cmap, v)
        iv = interpolate(space, jv)
        scale = np.abs(v.coeffs).max()
        assert np.abs(iv.coeffs - v.coeffs).max() <= 1e-11 * scale


@pytest.mark.parametrize("kind", ["COMPANION_CR", "COMPANION_MORLEY_full"])
def test_companion_of_a_conforming_space_is_a_value_error(kind, square2):
    with pytest.raises(ValueError, match=f"no companion construction for {kind}"):
        build_companion(build_space(square2, kind))


def test_companion_refuses_a_function_of_another_space_with_as_many_dofs():
    mesh = unit_square_mesh(3)
    scaled = Triangulation(2.0 * mesh.vertices, mesh.triangles)
    cmap = build_companion(build_space(mesh, "CR1_0"))
    other = build_space(scaled, "CR1_0")
    assert other.ndofs == cmap.source.ndofs == 21
    with pytest.raises(ValueError, match="does not belong to the companion's source space"):
        companion(cmap, FeFunction(other, np.ones(other.ndofs)))


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
def test_moment_orthogonality(kind, square2, rng):
    """All P_m moments of v - Jv vanish per triangle."""
    from ncfem._hct import SUB_TO_PARENT
    from ncfem._poly import BaryPoly

    space = build_space(square2, kind)
    cmap = build_companion(space)
    m = space.m
    one = BaryPoly.const(1.0)
    u = BaryPoly.lam(1) - BaryPoly.lam(0)
    w = BaryPoly.lam(2) - BaryPoly.lam(0)
    modes = [one, u, w] if m == 1 else [one, u, w, u * u, u * w, w * w]
    mesh = square2
    rule = triangle_rule(10)
    ts = np.arange(mesh.n_triangles)
    for _ in range(5):
        v = FeFunction(space, rng.standard_normal(space.ndofs))
        jv = companion(cmap, v)
        nsub = jv.space.n_subcells
        total = np.zeros((mesh.n_triangles, len(modes)))
        for s in range(nsub):
            parent = rule.points if nsub == 1 else rule.points @ SUB_TO_PARENT[s]
            vv = v.evaluate_batch(ts, 0, parent, 0)
            jj = jv.evaluate_batch(ts, s, rule.points, 0)
            qv = np.stack([p.eval(parent) for p in modes])
            total += np.einsum("k,fk,lk->fl", rule.weights, vv - jj, qv)
        total *= (mesh.area / nsub)[:, None]
        scale = max(np.abs(v.coeffs).max(), 1.0)
        assert np.abs(total).max() <= 1e-11 * scale


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
def test_pythagoras(kind, square2, rng):
    """|||v - w|||^2 = |||v - Iv|||^2 + |||w - Iv|||^2 for conforming v = J w_nc."""
    space = build_space(square2, kind)
    cmap = build_companion(space)
    for _ in range(5):
        w_nc = FeFunction(space, rng.standard_normal(space.ndofs))
        v = companion(cmap, w_nc)  # I v = w_nc by the right inverse
        w2 = FeFunction(space, rng.standard_normal(space.ndofs))
        lhs = error_norms(w2, reference=v).energy_pw ** 2
        a = error_norms(w_nc, reference=v).energy_pw ** 2
        b = error_norms(FeFunction(space, w2.coeffs - w_nc.coeffs)).energy_pw ** 2
        assert abs(lhs - (a + b)) <= 1e-10 * max(lhs, 1.0)


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
def test_interpolation_constant_inequality(kind, square2, rng):
    """One-sided check of ||h^-m (v - Iv)|| <= kappa_m |||v - Iv|||."""
    space = build_space(square2, kind)
    cmap = build_companion(space)
    kappa = kappa_constant(space.m)
    h = square2.diameter
    for _ in range(50):
        w = FeFunction(space, rng.standard_normal(space.ndofs))
        v = companion(cmap, w)
        diff = field_sum(fe_derivative(v, 0), fe_derivative(w, 0), 1.0, -1.0)
        lhs = assembly.weighted_field_l2(diff, square2, weights=h ** (-space.m))
        rhs = kappa * error_norms(w, reference=v).energy_pw
        assert lhs <= rhs + 1e-12


def test_best_approx_orthogonality(square2, rng):
    for kind in ("CR1_0", "MORLEY_0"):
        space = build_space(square2, kind)
        cmap = build_companion(space)
        v = FeFunction(space, rng.standard_normal(space.ndofs))
        jv = companion(cmap, v)
        nrm = error_norms(v).energy_pw
        assert best_approx_orthogonality_check(jv, interpolate(space, jv)) <= 1e-10 * nrm
    # a globally linear function is reproduced: residual at machine precision
    p1 = build_space(square2, "COMPANION_CR_full")
    lin = FeFunction(p1, np.zeros(p1.ndofs))
    lin.coeffs[p1.vertex_dof] = square2.vertices @ [1.0, -2.0]  # x - 2y at the vertices
    cr = build_space(square2, "CR1_full")
    assert best_approx_orthogonality_check(lin, interpolate(cr, lin)) < 1e-13


def test_companion_c1_conformity(square2, rng):
    """Value and normal-derivative jumps of the Morley companion vanish."""
    space = build_space(square2, "MORLEY_0")
    cmap = build_companion(space)
    v = FeFunction(space, rng.standard_normal(space.ndofs))
    jv = companion(cmap, v)
    mesh = square2
    rule = edge_rule(8)  # 5 sample points
    tpts = rule.points[:, 1]
    for e in np.nonzero(mesh.interior_edge_mask)[0]:
        a, b = mesh.vertices[mesh.edges[e]]
        pts = a[None, :] + tpts[:, None] * (b - a)[None, :]
        lo, hi = mesh.edge_triangles[e]
        val_lo, val_hi = (jv.evaluate(int(t), pts, 0) for t in (lo, hi))
        grad_lo, grad_hi = (jv.evaluate(int(t), pts, 1) for t in (lo, hi))
        assert np.abs(val_lo - val_hi).max() < 1e-10
        nu = mesh.edge_normal[e]
        assert np.abs((grad_lo - grad_hi) @ nu).max() < 1e-10


def test_companion_boundary_conditions(square2, rng):
    for kind in ("CR1_0", "MORLEY_0"):
        space = build_space(square2, kind)
        cmap = build_companion(space)
        v = FeFunction(space, rng.standard_normal(space.ndofs))
        jv = companion(cmap, v)
        rule = edge_rule(8)
        tpts = rule.points[:, 1]
        worst = 0.0
        for e in np.nonzero(square2.boundary_edge_mask)[0]:
            a, b = square2.vertices[square2.edges[e]]
            pts = a[None, :] + tpts[:, None] * (b - a)[None, :]
            t = int(square2.edge_triangles[e, 0])
            worst = max(worst, np.abs(jv.evaluate(t, pts, 0)).max())
            if space.m == 2:
                worst = max(worst, np.abs(jv.evaluate(t, pts, 1)).max())
        assert worst < 1e-11 * max(np.abs(v.coeffs).max(), 1.0)


def _oracle_moment_block(table, col_ids, width):
    """The (n_modes * F, width) moment-table matrix of operators._moment_block,
    built local function by local function: the oracle the one-shot builds use."""
    F, n_local, n_modes = table.shape
    r, c, d = [], [], []
    for j in range(n_local):
        ids = col_ids[:, j]
        ok = ids >= 0
        base = n_modes * np.nonzero(ok)[0]
        r.append((base[:, None] + np.arange(n_modes)[None, :]).ravel())
        c.append(np.repeat(ids[ok], n_modes))
        d.append(table[ok, j, :].ravel())
    return sp.coo_matrix(
        (np.concatenate(d), (np.concatenate(r), np.concatenate(c))),
        shape=(n_modes * F, width),
    ).tocsr()


def _one_shot_cr_companion(source, target):
    """The CR companion matrix built for all triangles at once."""
    mesh = source.mesh
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    n_src = source.ndofs
    tri = mesh.triangles
    n_adj = np.bincount(tri.ravel(), minlength=V).astype(float)
    rows, cols, data = [], [], []
    for k in range(3):
        for j in range(3):
            dofs = source.cell_dofs[:, j]
            ok = dofs >= 0
            rows.append(tri[ok, k])
            cols.append(dofs[ok])
            data.append(np.full(int(ok.sum()), -1.0 if j == k else 1.0) / n_adj[tri[ok, k]])
    W = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, n_src),
    ).tocsr()
    if target.kind == "COMPANION_CR":
        W = sp.diags((~mesh.boundary_vertex_mask).astype(float)) @ W
    ok = source.edge_dof >= 0
    P_edge = sp.coo_matrix(
        (np.ones(int(ok.sum())), (np.nonzero(ok)[0], source.edge_dof[ok])), shape=(E, n_src)
    ).tocsr()
    inc = sp.coo_matrix(
        (np.ones(2 * E), (np.repeat(np.arange(E), 2), mesh.edges.ravel())), shape=(E, V)
    ).tocsr()
    alpha = 1.5 * P_edge - 0.75 * (inc @ W)
    modes = bary_modes(1)
    lam = [BaryPoly.lam(k) for k in range(3)]
    b = cubic_bubble()
    S_cr = np.array([[((BaryPoly.const(1.0) - 2.0 * lam[k]) * p).integral() for p in modes]
                     for k in range(3)])
    S_hat = np.array([[(lam[z] * p).integral() for p in modes] for z in range(3)])
    S_eb = np.array([[(4.0 * lam[(k + 1) % 3] * lam[(k + 2) % 3] * p).integral() for p in modes]
                     for k in range(3)])
    M = np.array([[(b * p * q).integral() for q in modes] for p in modes])

    def block(table, col_ids, width):
        return _oracle_moment_block(np.broadcast_to(table, (F, 3, 3)), col_ids, width)

    R = (block(S_cr, source.cell_dofs, n_src) - block(S_hat, tri, V) @ W
         - block(S_eb, mesh.triangle_edges, E) @ alpha)
    vol = operators._block_inverse_kron(F, M) @ R
    vfree = target.vertex_dof >= 0
    efree = target.edge_dof >= 0
    return sp.vstack([W[vfree], alpha[efree], vol]).tocsr()


def _refined(mesh, times):
    for _ in range(times):
        mesh = red_refine(mesh)
    return mesh


@pytest.mark.parametrize("kind", ["CR1_0", "CR1_full"])
@pytest.mark.parametrize(
    "make_mesh",
    [lambda: _refined(l_shape_mesh(1), 5), lambda: unit_square_mesh(33)],
    ids=["lshape1-refined5", "square33"],
)
def test_chunked_cr_companion_equals_one_shot_build(kind, make_mesh):
    # 6144 triangles (three full chunks) and 2178 (a full and a partial one)
    space = build_space(make_mesh(), kind)
    assert space.mesh.n_triangles > operators.CHUNK
    cmap = build_companion(space)
    got, want = cmap.matrix, _one_shot_cr_companion(space, cmap.target)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _one_shot_morley_companion(source, target):
    """The Morley companion matrix built for all triangles at once."""
    mesh = source.mesh
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    n_src = source.ndofs
    tri = mesh.triangles
    ok = source.vertex_dof >= 0
    Wval = sp.coo_matrix(
        (np.ones(int(ok.sum())), (np.nonzero(ok)[0], source.vertex_dof[ok])), shape=(V, n_src)
    ).tocsr()
    n_adj = np.bincount(tri.ravel(), minlength=V).astype(float)
    gtab = source.tabulate(np.arange(F), 0, np.eye(3), 1)  # (F, 6, 3, 2)
    rows, cols, dx, dy = [], [], [], []
    for k in range(3):
        for j in range(6):
            dofs = source.cell_dofs[:, j]
            okk = dofs >= 0
            rows.append(tri[okk, k])
            cols.append(dofs[okk])
            w = 1.0 / n_adj[tri[okk, k]]
            dx.append(gtab[okk, j, k, 0] * w)
            dy.append(gtab[okk, j, k, 1] * w)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    Wgx = sp.coo_matrix((np.concatenate(dx), (rows, cols)), shape=(V, n_src)).tocsr()
    Wgy = sp.coo_matrix((np.concatenate(dy), (rows, cols)), shape=(V, n_src)).tocsr()
    if target.kind == "COMPANION_MORLEY":
        mask = sp.diags((~mesh.boundary_vertex_mask).astype(float))
        Wgx = mask @ Wgx
        Wgy = mask @ Wgy
    okE = source.edge_dof >= 0
    P_edge = sp.coo_matrix(
        (np.ones(int(okE.sum())), (np.nonzero(okE)[0], source.edge_dof[okE])), shape=(E, n_src)
    ).tocsr()
    inc = sp.coo_matrix(
        (np.ones(2 * E), (np.repeat(np.arange(E), 2), mesh.edges.ravel())), shape=(E, V)
    ).tocsr()
    nu = mesh.edge_normal
    N = 1.5 * P_edge - 0.25 * (
        sp.diags(nu[:, 0]) @ (inc @ Wgx) + sp.diags(nu[:, 1]) @ (inc @ Wgy)
    )
    modes = bary_modes(2)
    b = cubic_bubble()
    M = np.array([[(b * b * p * q).integral() for q in modes] for p in modes])
    rule_s = triangle_rule(4)
    tabM = source.tabulate(np.arange(F), 0, rule_s.points, 0)
    qv = np.stack([p.eval(rule_s.points) for p in modes], axis=0)
    S = np.einsum("k,fjk,lk->fjl", rule_s.weights, tabM, qv)
    P_loc = np.zeros((F, 12, 6))
    for chunk in cells(mesh, 5, target):
        for c in chunk:
            qv_s = np.stack([p.eval(c.parent) for p in modes], axis=1)
            shape_vals = target.tabulate_cell(c, 0)[:, :12]
            P_loc[c.ts] += (shape_vals * (c.weights / c.nsub)) @ qv_s
    S_glob = _oracle_moment_block(S, source.cell_dofs, n_src)
    cols_hct = np.empty((F, 12), dtype=np.int64)
    for k in range(3):
        cols_hct[:, 3 * k] = tri[:, k]
        cols_hct[:, 3 * k + 1] = V + tri[:, k]
        cols_hct[:, 3 * k + 2] = 2 * V + tri[:, k]
    cols_hct[:, 9:] = 3 * V + mesh.triangle_edges
    H_all = sp.vstack([Wval, Wgx, Wgy, N]).tocsr()
    P_glob = _oracle_moment_block(P_loc, cols_hct, 3 * V + E)
    bub = operators._block_inverse_kron(F, M) @ (S_glob - P_glob @ H_all)
    vfree = np.nonzero(target.vertex_dof[:, 0] >= 0)[0]
    VS = sp.vstack([Wval, Wgx, Wgy]).tocsr()
    perm = np.stack([vfree, V + vfree, 2 * V + vfree], axis=1).ravel()
    efree = target.edge_dof >= 0
    return sp.vstack([VS[perm], N[efree], bub]).tocsr()


@pytest.mark.parametrize("kind", ["MORLEY_0", "MORLEY_full"])
@pytest.mark.parametrize(
    "make_mesh",
    [lambda: unit_square_mesh(33),
     lambda: jittered(unit_square_mesh(33), 0.25 / 33, np.random.default_rng(7))],
    ids=["square33", "jittered-square33"],
)
def test_chunked_morley_companion_equals_one_shot_build(kind, make_mesh):
    # 2178 triangles: a full and a partial chunk
    space = build_space(make_mesh(), kind)
    assert space.mesh.n_triangles > operators.CHUNK
    cmap = build_companion(space)
    got, want = cmap.matrix, _one_shot_morley_companion(space, cmap.target)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# -- constants and the eigenproblem ------------------------------------------


def _run_without_scipy_optimize(code, cwd=None):
    code += "; assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'"
    done = run_python(["-c", code], cwd=cwd)
    assert done.returncode == 0, done.stderr


def test_cli_stack_does_not_import_scipy_optimize():
    _run_without_scipy_optimize("import sys, ncfem.cli, ncfem.experiments, ncfem.estimator")


def test_first_order_estimate_does_not_import_scipy_optimize(tmp_path):
    # kappa_1 is a closed form of a literal root: no root-finding at run time
    _run_without_scipy_optimize(
        "import sys; from ncfem.cli import main; "
        "assert main(['estimate', '--problem', 'square-smooth-m1', '--level', '1']) == 0",
        cwd=tmp_path)


def test_discretization_keeps_the_load_of_each_scheme_for_its_data(monkeypatch):
    from ncfem.problems import get_problem

    calls = []
    for name in ("assemble_rhs_original", "assemble_rhs_modified"):
        fn = getattr(assembly, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(assembly, name, counted)
    mesh = unit_square_mesh(2)
    problem = get_problem("square-smooth-m1")
    data, other = problem.data(mesh), problem.data(mesh)
    disc = Discretization(mesh, "CR1_0")
    load = disc.rhs("original", data)
    assert disc.rhs("original", data) is load
    with pytest.raises(ValueError):
        load[0] = 1.0  # the kept vector is read-only
    assert disc.rhs("modified", data) is disc.rhs("modified", data)
    assert calls == ["assemble_rhs_original", "assemble_rhs_modified"]
    # another data object for the same scheme is assembled again
    again = disc.rhs("original", other)
    assert again is not load and np.array_equal(again, load)
    assert calls[2:] == ["assemble_rhs_original"]


def test_j1_root_is_the_root_brentq_finds():
    from scipy.special import j1

    assert brentq(j1, 3.0, 4.5, xtol=1e-13) == operators._J1_ROOT


def test_kappa_values():
    # kappa_2 is the known shape-independent constant
    assert kappa_constant(2) == pytest.approx(0.25745784465, abs=1e-12)
    # oracle: series evaluation of the Bessel function J1 + bisection
    def j1_series(x):
        total, term = 0.0, x / 2.0
        for k in range(60):
            total += term
            term *= -(x * x / 4.0) / ((k + 1) * (k + 2))
        return total

    lo, hi = 3.0, 4.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if j1_series(lo) * j1_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    j11 = 0.5 * (lo + hi)
    assert abs(j11 - 3.8317059702) < 1e-9
    want = np.sqrt(j11**-2 + 1.0 / 48.0)
    assert kappa_constant(1) == pytest.approx(want, abs=1e-12)
    assert kappa_constant(1) == 0.2982349428885092
    with pytest.raises(ValueError):
        kappa_constant(3)


def test_lambda0_identity_double(square2):
    # a conforming "companion" (identity map) gives lambda0 = 0
    space = build_space(square2, "CR1_0")
    import scipy.sparse as sp

    stub = CompanionMap(source=space, target=space, matrix=sp.identity(space.ndofs, format="csr"))
    A = assembly.assemble_stiffness(space)
    res = compute_lambda0(space, stub, A, factor(A))
    assert res.lambda_max == pytest.approx(1.0, abs=1e-12)
    assert res.lambda0 == pytest.approx(0.0, abs=1e-6)


def test_lambda0_single_dof_direct_quotient():
    # 1-dof CR space: lambda0 equals the direct defect quotient
    mesh = unit_square_mesh(1)
    space = build_space(mesh, "CR1_0")
    cmap = build_companion(space)
    A = assembly.assemble_stiffness(space)
    res = compute_lambda0(space, cmap, A, factor(A))
    v = FeFunction(space, np.array([1.0]))
    jv = companion(cmap, v)
    quotient = error_norms(v, reference=jv).energy_pw / error_norms(v).energy_pw
    assert res.lambda0 == pytest.approx(quotient, rel=1e-10)


def test_lambda0_eigen_residual_and_extremal(square2):
    space = build_space(square2, "MORLEY_0")
    cmap = build_companion(space)
    A = assembly.assemble_stiffness(space)
    res = compute_lambda0(space, cmap, A, factor(A))
    assert res.residual <= 1e-9
    assert res.c_qo == pytest.approx(np.sqrt(1 + res.lambda0**2), rel=1e-14)
    # extremal vector is unit-energy and realizes the quotient
    v = res.extremal_vector
    assert error_norms(v).energy_pw == pytest.approx(1.0, rel=1e-10)
    jv = companion(cmap, v)
    defect = error_norms(v, reference=jv).energy_pw
    assert defect**2 == pytest.approx(res.lambda0**2, rel=1e-8)


@pytest.mark.parametrize("mesh", [unit_square_mesh(4), l_shape_mesh(2)],
                         ids=["square4", "lshape2"])
def test_cr_lambda0_is_scale_equivariant(mesh):
    # scaling by 2^k is exact in floating point, and lambda0 is scale-free:
    # the CR chain gives the same bits at every scale (Morley does not yet)
    want = Discretization(mesh, "CR1_0").lam0.lambda0
    for k in (-20, -3, 3, 20):
        scaled = Triangulation(mesh.vertices * 2.0**k, mesh.triangles)
        assert Discretization(scaled, "CR1_0").lam0.lambda0 == want, k


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
def test_lambda0_positive_for_nonconforming(kind, square2):
    res = Discretization(square2, kind).lam0
    assert res.lambda0 > 0


def test_companion_rejects_wrong_function(square2):
    space = build_space(square2, "CR1_0")
    other = build_space(square2, "MORLEY_0")
    cmap = build_companion(space)
    with pytest.raises(ValueError):
        companion(cmap, FeFunction(other))
