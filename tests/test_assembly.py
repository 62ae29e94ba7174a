import itertools

import numpy as np
import pytest
from conftest import formula_reference, jittered

from ncfem import assembly
from ncfem.assembly import PointForce, RhsData
from ncfem.fespace import FeFunction, build_space
from ncfem.fields import (
    MatrixField,
    ScalarField,
    VectorField,
    field_sum,
    quad_degree,
)
from ncfem.mesh import Triangulation, l_shape_mesh, unit_square_mesh
from ncfem.operators import build_companion, interpolate
from ncfem.quadrature import cells, sample_cell, triangle_rule


def one_triangle_mesh(p0=(0.0, 0.0), p1=(1.3, 0.2), p2=(0.4, 1.1)):
    return Triangulation(np.array([p0, p1, p2]), np.array([[0, 1, 2]]))


def test_cr_stiffness_cotangent_formula():
    """One-triangle CR stiffness against the classic P1 cotangent formula."""
    mesh = one_triangle_mesh()
    space = build_space(mesh, "CR1_full")
    A = assembly.assemble_stiffness(space).toarray()
    p = mesh.vertices
    # cotangent oracle for the P1 stiffness, then CR = 4 * P1 (gradients -2x)
    K = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            k = 3 - i - j
            a = p[i] - p[k]
            b = p[j] - p[k]
            cot = (a @ b) / abs(a[0] * b[1] - a[1] * b[0])
            K[i, j] = -0.5 * cot
    K -= np.diag(K.sum(axis=1))
    # CR local dof k sits opposite vertex k; map through the edge numbering
    dofs = space.cell_dofs[0]
    got = A[np.ix_(dofs, dofs)]
    assert np.abs(got - 4.0 * K).max() < 1e-13


def test_morley_energy_of_global_quadratic(square2):
    # v = x^2 + x*y has constant Hessian [[2,1],[1,0]]: |D^2 v|^2 = 6
    def val(x, y):
        return x**2 + x * y

    def grad(x, y):
        return np.stack([2 * x + y, x], axis=-1)

    space = build_space(square2, "MORLEY_full")
    v = interpolate(space, formula_reference(val, grad, degree=2))
    A = assembly.assemble_stiffness(space)
    assert v.coeffs @ (A @ v.coeffs) == pytest.approx(6.0, rel=1e-12)


def test_zero_function_zero_energy(square2):
    space = build_space(square2, "CR1_0")
    A = assembly.assemble_stiffness(space)
    assert np.zeros(space.ndofs) @ (A @ np.zeros(space.ndofs)) == 0.0


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0", "COMPANION_CR", "COMPANION_MORLEY"])
def test_stiffness_symmetric_positive_definite(kind, square2, rng):
    space = build_space(square2, kind)
    A = assembly.assemble_stiffness(space)
    AT = A - A.T
    assert abs(AT).max() < 1e-12 * abs(A).max()
    for _ in range(5):
        x = rng.standard_normal(space.ndofs)
        assert x @ (A @ x) > 0


def test_rhs_cr_constant_load(square2):
    # g = 1, m = 1: the entry of an interior-edge basis equals |omega_E| / 3
    space = build_space(square2, "CR1_0")
    vec = assembly.assemble_rhs_original(space, RhsData(g=ScalarField(lambda x, y: np.ones(np.shape(x)), degree=0)))
    mesh = square2
    for e in np.nonzero(space.edge_dof >= 0)[0]:
        patch = mesh.area[mesh.edge_triangles[e][mesh.edge_triangles[e] >= 0]].sum()
        assert vec[space.edge_dof[e]] == pytest.approx(patch / 3.0, rel=1e-13)


def test_rhs_vertex_force_is_unit_vector(square2):
    space = build_space(square2, "MORLEY_0")
    v = int(np.nonzero(~square2.boundary_vertex_mask)[0][0])
    vec = assembly.assemble_rhs_original(
        space, RhsData(point_forces=[PointForce(beta=1.0, vertex=v)])
    )
    want = np.zeros(space.ndofs)
    want[space.vertex_dof[v]] = 1.0
    assert np.array_equal(vec, want)


def test_point_force_rejected_for_m1(square2):
    space = build_space(square2, "CR1_0")
    with pytest.raises(ValueError, match="m=2"):
        assembly.assemble_rhs_original(
            space, RhsData(point_forces=[PointForce(beta=1.0, vertex=0)])
        )


def test_point_force_validation():
    with pytest.raises(ValueError):
        PointForce(beta=1.0)
    with pytest.raises(ValueError):
        PointForce(beta=1.0, vertex=1, edge=0, point=(0.5, 0.5))
    with pytest.raises(ValueError):
        PointForce(beta=1.0, vertex=1, mu=2.0)


def test_split_point_force_consistency(square2):
    # mu-split edge force applied to Morley equals the mu-combination of
    # one-sided basis evaluations
    mesh = square2
    space = build_space(mesh, "MORLEY_0")
    e = int(np.nonzero(mesh.interior_edge_mask)[0][0])
    z = mesh.edge_midpoint[e]
    mu = 0.3
    vec = assembly.assemble_rhs_original(
        space, RhsData(point_forces=[PointForce(beta=2.0, edge=e, point=tuple(z), mu=mu)])
    )
    lo, hi = mesh.edge_triangles[e]
    want = np.zeros(space.ndofs)
    for t, w in ((int(lo), 1 - mu), (int(hi), mu)):
        dofs = space.cell_dofs[t]
        for j in range(6):
            if dofs[j] < 0:
                continue
            f = FeFunction(space)
            f.coeffs[dofs[j]] = 1.0
            want[dofs[j]] += 2.0 * w * f.evaluate(t, z)[0, 0]
    assert np.abs(vec - want).max() < 1e-12


def test_constant_tensor_data_patch_oracle(square2):
    # for constant G the load of an interior-edge CR basis function follows
    # from the exact per-triangle gradients of that basis function
    space = build_space(square2, "CR1_0")
    G = np.array([0.7, -0.4])
    vec = assembly.assemble_rhs_original(
        space,
        RhsData(G=VectorField(lambda x, y: np.broadcast_to(G, np.shape(x) + (2,)), degree=0)),
    )
    mesh = square2
    from ncfem._poly import lambda_gradients

    grads = -2.0 * lambda_gradients(mesh)
    want = np.zeros(space.ndofs)
    for t in range(mesh.n_triangles):
        for k in range(3):
            dof = space.cell_dofs[t, k]
            if dof >= 0:
                want[dof] += mesh.area[t] * (G @ grads[t, k])
    assert np.abs(vec - want).max() < 1e-13


def test_modified_equals_original_for_low_degree_g(square2):
    """g in P_m: the defect orthogonality makes both load vectors agree."""
    for kind, gdeg in (("CR1_0", 1), ("MORLEY_0", 2)):
        space = build_space(square2, kind)
        cmap = build_companion(space)

        def g(x, y):
            return 1.0 + 2.0 * x - y + (x * y if gdeg == 2 else 0.0)

        data = RhsData(g=ScalarField(g, degree=gdeg))
        a = assembly.assemble_rhs_original(space, data)
        b = assembly.assemble_rhs_modified(space, data, cmap)
        assert np.abs(a - b).max() < 1e-11 * max(np.abs(a).max(), 1.0)


def test_zero_data_zero_vector(square2):
    space = build_space(square2, "MORLEY_0")
    cmap = build_companion(space)
    data = RhsData()
    assert np.all(assembly.assemble_rhs_original(space, data) == 0)
    assert np.all(assembly.assemble_rhs_modified(space, data, cmap) == 0)


# -- projections and oscillation ---------------------------------------------


def test_projection_of_polynomial_is_exact(square2):
    g = ScalarField(lambda x, y: 1 + x - 2 * y + 0.5 * x * y, degree=2)
    for m in (1, 2):
        if m == 1:
            continue  # degree-2 g is not in P_1
        assert assembly.oscillation(g, m, square2) < 1e-14


def test_oscillation_of_pm_data_vanishes(square2):
    g1 = ScalarField(lambda x, y: 2 * x - y + 0.25, degree=1)
    assert assembly.oscillation(g1, 1, square2) < 1e-14
    g2 = ScalarField(lambda x, y: x * y + y**2 - x, degree=2)
    assert assembly.oscillation(g2, 2, square2) < 1e-14


def test_projection_normal_equations_oracle():
    # ||g - P1 g|| for g = x^2 on one triangle, against a dense LSQ oracle
    mesh = one_triangle_mesh()
    g = ScalarField(lambda x, y: x**2, degree=2)
    proj = assembly.l2_project(g, 1, mesh)
    diff = field_sum(g, proj, 1.0, -1.0)
    got = assembly.weighted_field_l2(diff, mesh)
    # oracle: least squares in the monomial basis {1, x, y} by quadrature
    rule = triangle_rule(8)
    pts = rule.points @ mesh.vertices[mesh.triangles[0]]
    w = rule.weights * mesh.area[0]
    V = np.column_stack([np.ones(len(pts)), pts[:, 0], pts[:, 1]])
    gv = pts[:, 0] ** 2
    coef, *_ = np.linalg.lstsq(V * np.sqrt(w)[:, None], gv * np.sqrt(w), rcond=None)
    want = np.sqrt(float(w @ (gv - V @ coef) ** 2))
    assert got == pytest.approx(want, rel=1e-12)


def test_p0_projection_of_constant_is_identity(square2):
    G = VectorField(lambda x, y: np.broadcast_to([1.5, -2.0], np.shape(x) + (2,)), degree=0)
    proj = assembly.l2_project(G, 0, square2)
    assert np.abs(proj.coeffs[:, 0] - np.array([1.5, -2.0])).max() < 1e-14
    assert assembly.oscillation(G, 0, square2) < 1e-14


def test_preprocessing_identity_and_invariance(square2):
    space = build_space(square2, "CR1_0")
    cmap = build_companion(space)
    G = VectorField(
        lambda x, y: np.stack([np.sin(x), np.cos(y)], axis=-1), degree=None
    )
    g = ScalarField(lambda x, y: x * y, degree=2)
    data = RhsData(G=G, g=g)
    # Q = grad(p) with p = x^2 y: for m=1, div_m_Q = -Laplace p = -2 y
    Q = VectorField(lambda x, y: np.stack([2 * x * y, x**2], axis=-1), degree=2)
    divQ = ScalarField(lambda x, y: -2.0 * y, degree=1)
    newdata = assembly.preprocess_data(data, Q, divQ)
    # conforming test functions cannot see the shift
    a = assembly.assemble_rhs_modified(space, data, cmap)
    b = assembly.assemble_rhs_modified(space, newdata, cmap)
    assert np.abs(a - b).max() <= 1e-10 * max(np.abs(a).max(), 1.0)
    # the nonconforming test functions generally do
    c = assembly.assemble_rhs_original(space, data)
    d = assembly.assemble_rhs_original(space, newdata)
    assert np.abs(c - d).max() > 1e-6


def test_preprocess_zero_q_is_identity(square2):
    space = build_space(square2, "CR1_0")
    g = ScalarField(lambda x, y: x, degree=1)
    G = VectorField(lambda x, y: np.stack([y, x], axis=-1), degree=1)
    data = RhsData(G=G, g=g)
    zq = VectorField(lambda x, y: np.zeros(np.shape(x) + (2,)), degree=0)
    zdiv = ScalarField(lambda x, y: np.zeros(np.shape(x)), degree=0)
    new = assembly.preprocess_data(data, zq, zdiv)
    a = assembly.assemble_rhs_original(space, data)
    b = assembly.assemble_rhs_original(space, new)
    assert np.abs(a - b).max() < 1e-13


def test_assembler_linearity(square2, rng):
    space = build_space(square2, "MORLEY_0")
    g1 = ScalarField(lambda x, y: x + y, degree=1)
    g2 = ScalarField(lambda x, y: x * x, degree=2)
    g12 = ScalarField(lambda x, y: (x + y) + x * x, degree=2)
    a = assembly.assemble_rhs_original(space, RhsData(g=g1))
    b = assembly.assemble_rhs_original(space, RhsData(g=g2))
    ab = assembly.assemble_rhs_original(space, RhsData(g=g12))
    assert np.abs(a + b - ab).max() < 1e-12 * max(np.abs(ab).max(), 1.0)


def test_galerkin_consistency(square2):
    """The modified solution pairs with F(J v) for every test function."""
    from ncfem.linalg import factor, solve_spd

    space = build_space(square2, "MORLEY_0")
    cmap = build_companion(space)
    data = RhsData(g=ScalarField(lambda x, y: np.cos(x) * y, degree=None))
    A = assembly.assemble_stiffness(space)
    rhs = assembly.assemble_rhs_modified(space, data, cmap)
    x, rep = solve_spd(A, rhs, factor(A))
    assert rep.converged
    assert np.abs(A @ x - rhs).max() <= 1e-9 * max(np.abs(rhs).max(), 1.0)


def _per_chunk_load(space, data):
    """The G and g part of ``assemble_load`` as one ``np.add.at`` per chunk
    of triangles, each chunk's subcells summed first."""
    m = space.m
    vec = np.zeros(space.ndofs)
    terms = []
    if data.G is not None:
        terms.append((data.G, m, quad_degree(data.G) + (space.poly_degree - m)))
    if data.g is not None:
        terms.append((data.g, 0, quad_degree(data.g) + space.poly_degree))
    for fld, order, deg in terms:
        for _, chunk in itertools.groupby(cells(space.mesh, deg, space, fld),
                                          key=lambda c: c.ts[0]):
            chunk = list(chunk)
            ts = chunk[0].ts
            contrib = np.zeros((len(ts), space.n_local))
            for c in chunk:
                fv = fld.eval_batch(c)
                tab = space.tabulate(c, order)
                wa = c.area[:, None] * c.weights
                wfv = (fv.reshape(wa.shape + (-1,)) * wa[:, :, None]).reshape(len(ts), -1, 1)
                contrib += (tab.reshape(len(ts), space.n_local, -1) @ wfv)[:, :, 0]
            dofs = space.cell_dofs[ts]
            good = dofs >= 0
            np.add.at(vec, dofs[good], contrib[good])
    return vec


@pytest.mark.parametrize("kind", ["CR1_0", "COMPANION_MORLEY"])
def test_load_is_bitwise_the_per_chunk_scatter(kind):
    # 2178 triangles: a full chunk and a partial one
    space = build_space(unit_square_mesh(33), kind)
    if space.m == 1:
        G = VectorField(lambda x, y: np.stack([x * y - 0.5, x**2 + 2 * y], axis=-1), degree=2)
    else:
        G = MatrixField(lambda x, y: np.stack([np.stack([x * y, 1 - y], axis=-1),
                                               np.stack([x - y, y**2], axis=-1)], axis=-2),
                        degree=2)
    data = RhsData(G=G, g=ScalarField(lambda x, y: np.exp(x) * np.sin(3 * y)))
    got = assembly.assemble_load(space, data)
    assert got.tobytes() == _per_chunk_load(space, data).tobytes()


@pytest.mark.parametrize("field", ["g", "G"])
def test_load_integrates_polynomial_data_exactly_or_refuses_it(field, square2):
    # on the HCT host the load integrand has degree deg(field) + 8 - order
    space = build_space(square2, "COMPANION_MORLEY")
    top = 8 if field == "g" else 10  # the highest degree whose integrand is within 16

    def data(degree):
        if field == "g":
            return RhsData(g=ScalarField(lambda x, y: x**degree, degree=degree))
        return RhsData(G=MatrixField(lambda x, y: np.stack(
            [np.stack([x**degree, y], axis=-1), np.stack([y, x], axis=-1)], axis=-2),
            degree=degree))

    assert np.isfinite(assembly.assemble_load(space, data(top))).all()
    with pytest.raises(ValueError, match=rf"^a degree-{top + 1} field against the"
                                         rf" COMPANION_MORLEY basis is a degree-17 integrand"):
        assembly.assemble_load(space, data(top + 1))
    # a smooth field keeps the capped rule
    smooth = RhsData(g=ScalarField(lambda x, y: np.exp(x)))
    assert np.isfinite(assembly.assemble_load(space, smooth)).all()


# -- companion stiffness against the per-point quadrature loop -------------


def _per_point_stiffness(space):
    """Dense stiffness from the local basis derivatives tabulated at every
    quadrature point of every subcell."""
    m, L = space.m, space.n_local
    deg = 2 * (space.poly_degree - m)
    rule = triangle_rule(deg)
    A = np.zeros((space.ndofs, space.ndofs))
    for c in cells(space.mesh, deg, space):
        tab = space.tabulate(c, m).reshape(len(c.ts), L, rule.n_points, -1)
        local = np.einsum("k,f,fikd,fjkd->fij", c.weights, c.area, tab, tab)
        for dofs, block in zip(space.cell_dofs[c.ts], local):
            keep = dofs >= 0
            A[np.ix_(dofs[keep], dofs[keep])] += block[np.ix_(keep, keep)]
    return A


@pytest.mark.parametrize(
    "kind", ["COMPANION_CR", "COMPANION_CR_full", "COMPANION_MORLEY", "COMPANION_MORLEY_full"]
)
@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: unit_square_mesh(4),
        lambda: l_shape_mesh(2),
        lambda: jittered(unit_square_mesh(4), 0.25 * 0.25, np.random.default_rng(42)),
        lambda: jittered(l_shape_mesh(2), 0.25 * 0.5, np.random.default_rng(42)),
    ],
    ids=["square4", "lshape2", "jittered-square4", "jittered-lshape2"],
)
def test_companion_stiffness_matches_per_point_quadrature(kind, make_mesh):
    space = build_space(make_mesh(), kind)
    want = _per_point_stiffness(space)
    got = assembly.assemble_stiffness(space).toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    local = assembly._companion_stiffness(space)
    assert np.array_equal(local, local.swapaxes(1, 2))


def test_companion_morley_stiffness_peak_memory():
    import tracemalloc

    space = build_space(unit_square_mesh(16), "COMPANION_MORLEY")
    assembly.assemble_stiffness(space)  # fills the space's mode-table memo
    tracemalloc.start()
    try:
        assembly.assemble_stiffness(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-point quadrature loop peaked at 68.5 MB here
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("kind", ["COMPANION_CR", "COMPANION_MORLEY", "COMPANION_MORLEY_full"])
@pytest.mark.parametrize(
    "make_mesh",
    [lambda: unit_square_mesh(16),
     lambda: jittered(unit_square_mesh(4), 0.25 * 0.25, np.random.default_rng(42))],
    ids=["square16", "jittered-square4"],
)
def test_companion_stiffness_is_exactly_symmetric(kind, make_mesh):
    # the COO -> CSR sum alone left |A - A'| up to 5.7e-14 (COMPANION_MORLEY_full, square16)
    A = assembly.assemble_stiffness(build_space(make_mesh(), kind))
    assert (A - A.T).nnz == 0


_ORACLE_MESHES = [
    lambda: unit_square_mesh(4),
    lambda: l_shape_mesh(2),
    lambda: jittered(unit_square_mesh(4), 0.25 * 0.25, np.random.default_rng(42)),
]
_ORACLE_IDS = ["square4", "lshape2", "jittered-square4"]


def _same_csr(A, B):
    return all(np.array_equal(getattr(A, a), getattr(B, a)) for a in ("data", "indices", "indptr"))


@pytest.mark.parametrize("kind", ["CR1_0", "CR1_full", "MORLEY_0", "MORLEY_full"])
@pytest.mark.parametrize("make_mesh", _ORACLE_MESHES, ids=_ORACLE_IDS)
def test_cr_morley_stiffness_is_bitwise_the_per_family_formula(kind, make_mesh):
    # oracle: the CR gradients -2 grad(lambda_k) and the Morley Hessians at
    # the centroid, each contracted by its own einsum
    from ncfem._poly import lambda_gradients

    mesh = make_mesh()
    space = build_space(mesh, kind)
    if kind.startswith("CR"):
        grads = -2.0 * lambda_gradients(mesh)
        local = np.einsum("f,fid,fjd->fij", mesh.area, grads, grads)
    else:
        centroid = np.full((1, 3), 1.0 / 3.0)
        H = space.tabulate(sample_cell(np.arange(mesh.n_triangles), centroid), 2)[:, :, 0]
        local = np.einsum("f,fide,fjde->fij", mesh.area, H, H)
    want = assembly._scatter_matrix(local, space.cell_dofs, space.ndofs)
    assert _same_csr(assembly.assemble_stiffness(space), want)


@pytest.mark.parametrize("make_mesh", _ORACLE_MESHES, ids=_ORACLE_IDS)
def test_p1_to_cr_is_bitwise_the_endpoint_mean_formula(make_mesh):
    import scipy.sparse as sp

    mesh = make_mesh()
    E = mesh.n_edges
    want = sp.coo_matrix(
        (np.full(2 * E, 0.5), (np.repeat(np.arange(E), 2), mesh.edges.ravel())),
        shape=(E, mesh.n_vertices),
    ).tocsr()
    assert _same_csr(assembly.p1_to_cr(mesh), want)


def test_scatter_drops_constrained_entries_and_sums_duplicates():
    # row 2 and column 2 are -1; the last row repeats row 0
    rows = np.array([[0], [1], [-1], [0]])
    cols = np.array([[0, 2, -1]])
    data = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0], [10.0, 20.0, 30.0]])
    got = assembly.scatter(rows, cols, data, (2, 3))
    assert got.nnz == 4
    assert np.array_equal(got.toarray(), [[10.0, 0.0, 21.0], [3.0, 0.0, 4.0]])


@pytest.mark.parametrize("make_mesh", _ORACLE_MESHES, ids=_ORACLE_IDS)
def test_cr_strain_stiffness_is_bitwise_the_gradient_formula(make_mesh):
    from ncfem._poly import lambda_gradients

    mesh = make_mesh()
    grads = -2.0 * lambda_gradients(mesh)
    want = assembly._eps_stiffness(mesh, grads, mesh.triangle_edges, mesh.n_edges)
    got = assembly.eps_stiffness_cr_vector(build_space(mesh, "CR1_full"))
    assert _same_csr(got, want)
