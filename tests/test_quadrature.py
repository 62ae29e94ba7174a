import math

import numpy as np
import pytest
from conftest import formula_reference, run_python
from scipy.special import roots_jacobi, roots_legendre

from ncfem import quadrature
from ncfem.fespace import build_space
from ncfem.fields import SMOOTH_DEGREE, ScalarField, quad_degree
from ncfem.mesh import unit_square_mesh
from ncfem.quadrature import (
    MAX_TRIANGLE_DEGREE,
    cells,
    edge_rule,
    pairing,
    triangle_rule,
)


def simplex_monomial_integral(a, b):
    """Exact integral of x^a y^b over the unit simplex: a! b! / (a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def apply_triangle(rule, f):
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    return 0.5 * float(rule.weights @ f(x, y))  # reference triangle area 1/2


def test_weights_sum_to_one():
    for deg in range(17):
        r = triangle_rule(deg)
        assert abs(r.weights.sum() - 1.0) < 1e-14


def test_centroid_rule_integrates_constants():
    r = triangle_rule(1)
    assert r.n_points == 1
    assert abs(apply_triangle(r, lambda x, y: np.ones_like(x)) - 0.5) < 1e-15


def test_degree16_integrates_x8y8():
    r = triangle_rule(16)
    got = apply_triangle(r, lambda x, y: x**8 * y**8)
    assert abs(got - simplex_monomial_integral(8, 8)) < 1e-16 + 1e-13 * abs(got)


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 5, 8, 12, 16])
def test_all_monomials_exact(deg):
    r = triangle_rule(deg)
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            got = apply_triangle(r, lambda x, y: x**a * y**b)
            want = simplex_monomial_integral(a, b)
            assert abs(got - want) <= 1e-13 * max(abs(want), 1e-3)


def test_random_p16_polynomial(rng):
    r = triangle_rule(16)
    terms = [(rng.standard_normal(), a, b) for a in range(17) for b in range(17 - a)]

    def f(x, y):
        return sum(c * x**a * y**b for c, a, b in terms)

    want = sum(c * simplex_monomial_integral(a, b) for c, a, b in terms)
    got = apply_triangle(r, f)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        triangle_rule(17)
    with pytest.raises(ValueError):
        triangle_rule(-1)


@pytest.mark.parametrize("degree", [-1, 17])
def test_edge_degree_out_of_range(degree):
    with pytest.raises(ValueError, match="edge rule degree"):
        edge_rule(degree)


def test_gauss_table_covers_every_degree():
    # degree 16 takes 9 points per direction, the largest n a rule asks for
    assert triangle_rule(MAX_TRIANGLE_DEGREE).n_points == 9 * 9
    assert list(quadrature._LEGENDRE) == list(quadrature._JACOBI_1_0) == list(range(1, 10))


@pytest.mark.parametrize("n", range(1, 10))
def test_tabulated_gauss_rules_are_scipys_bytes(n):
    # tobytes, not array_equal: a signed zero or a last-bit difference counts
    for table, want in ((quadrature._LEGENDRE, roots_legendre(n)),
                        (quadrature._JACOBI_1_0, roots_jacobi(n, 1, 0))):
        for got, ref in zip(table[n], want):
            got = np.array(got)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_cli_stack_does_not_import_scipy_special(tmp_path):
    # the rules are tabulated; scipy.special costs about 0.1 s of every start-up
    code = ("import sys, ncfem.cli, ncfem.experiments, ncfem.estimator; "
            "assert ncfem.cli.main(['verify', '--m', '1', '--mesh', 'square:2', "
            "'--samples', '2']) == 0; "
            "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'")
    done = run_python(["-c", code], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_points_strictly_interior():
    for deg in (1, 4, 16):
        r = triangle_rule(deg)
        assert r.points.min() > 0


def test_edge_rule_linears():
    r = edge_rule(1)
    t = r.points[:, 1]
    assert abs(float(r.weights @ (3.0 * t - 1.0)) - 0.5) < 1e-15


def test_edge_rule_degree9():
    r = edge_rule(9)
    assert r.n_points == 5
    t = r.points[:, 1]
    assert abs(float(r.weights @ t**9) - 0.1) < 1e-15


def test_edge_rule_random_p9_vs_antiderivative(rng):
    coeffs = rng.standard_normal(10)
    r = edge_rule(9)
    t = r.points[:, 1]
    got = float(r.weights @ sum(c * t**k for k, c in enumerate(coeffs)))
    want = sum(c / (k + 1) for k, c in enumerate(coeffs))  # antiderivative at 1
    assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_affine_invariance(rng):
    # integral of f over the image triangle equals the pulled-back integral
    rule = triangle_rule(6)
    A = np.array([[1.3, 0.4], [-0.2, 0.8]])
    b = np.array([0.3, -0.1])
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) @ A.T + b
    area = 0.5 * abs(np.linalg.det(A))

    def f(x, y):
        return x**3 * y + 2 * x * y**2 - y + 1

    pts = rule.points @ corners
    got = area * float(rule.weights @ f(pts[:, 0], pts[:, 1]))
    # oracle: monomial expansion of f over the image via a finer rule
    fine = triangle_rule(12)
    pts2 = fine.points @ corners
    want = area * float(fine.weights @ f(pts2[:, 0], pts2[:, 1]))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.fixture(scope="module")
def mesh33():
    return unit_square_mesh(33)  # 2178 triangles: one chunk boundary


@pytest.mark.parametrize("split", [False, True])
def test_cells_partition_the_mesh(mesh33, split):
    mesh = mesh33
    over = (build_space(mesh, "COMPANION_MORLEY"),) if split else ()
    nsub = 3 if split else 1
    rule = triangle_rule(4)
    seen = np.zeros((mesh.n_triangles, nsub), dtype=int)
    measure = np.zeros(mesh.n_triangles)
    chunks = list(cells(mesh, 4, *over))
    assert len(chunks) == 2
    for chunk in chunks:
        assert [c.s for c in chunk] == list(range(nsub))
        for c in chunk:
            assert c.nsub == nsub
            assert c.ts is chunk[0].ts and len(c.ts) <= 2048
            seen[c.ts, c.s] += 1
            measure[c.ts] += c.area * c.weights.sum()
            # phys are the parent coordinates mapped through the triangle corners
            want = c.parent @ mesh.vertices[mesh.triangles[c.ts]]
            assert np.abs(c.phys - want).max() <= 1e-14 * np.abs(want).max()
            if not split:
                assert np.array_equal(c.parent, rule.points)
    assert np.all(seen == 1)
    assert np.abs(measure - mesh.area).max() <= 1e-14 * mesh.area.max()


def test_cells_split_only_for_split_participants(square2):
    mesh = square2
    plain = build_space(mesh, "CR1_0")
    split = build_space(mesh, "COMPANION_MORLEY")
    assert [len(ch) for ch in cells(mesh, 2, plain, None)] == [1]
    assert [len(ch) for ch in cells(mesh, 2, plain, split)] == [3]


def test_cells_cap_the_integrand_degree(square2):
    top = triangle_rule(MAX_TRIANGLE_DEGREE)
    (c,) = next(cells(square2, MAX_TRIANGLE_DEGREE + 7))
    assert c.parent.tobytes() == top.points.tobytes()
    assert c.weights.tobytes() == top.weights.tobytes()


def test_cells_refuse_a_negative_degree(square2):
    with pytest.raises(ValueError, match="triangle rule degree"):
        next(cells(square2, -1))


def test_quad_degree_keeps_a_declared_zero():
    def one(x, y):
        return np.ones_like(x)

    assert quad_degree(ScalarField(one, degree=0)) == 0
    assert quad_degree(ScalarField(one)) == SMOOTH_DEGREE
    assert quad_degree(formula_reference(one, degree=0)) == 0
    assert quad_degree(formula_reference(one)) == SMOOTH_DEGREE


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_pairing_is_the_two_einsum_form(square2, rng, split, weighted):
    over = (build_space(square2, "COMPANION_MORLEY"),) if split else ()
    for c in next(cells(square2, 6, *over)):
        a = rng.standard_normal((len(c.ts), len(c.weights), 2, 2))
        b = rng.standard_normal(a.shape)
        area = rng.random(len(c.ts)) * c.area if weighted else None
        dens = np.einsum("fkc,fkc->fk", a.reshape(a.shape[:2] + (-1,)),
                         b.reshape(b.shape[:2] + (-1,)))
        want = float(np.einsum("k,f,fk->", c.weights, c.area if area is None else area, dens))
        got = pairing(c, a, b, area=area)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
