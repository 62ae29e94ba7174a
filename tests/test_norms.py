from itertools import combinations

import numpy as np
import pytest
from conftest import formula_reference

from ncfem._poly import bary_tabulate, lambda_gradients
from ncfem.fespace import FeFunction, build_space, nc_kind
from ncfem.fields import ExactSolution
from ncfem.mesh import l_shape_mesh, red_refine, unit_square_mesh
from ncfem.norms import convergence_rate, error_norms, errors_vs_fine
from ncfem.operators import build_companion, companion, interpolate
from ncfem.problems import get_problem
from ncfem.quadrature import cells, pairing


def sin_reference():
    return formula_reference(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: np.stack(
            [
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            ],
            axis=-1,
        ),
    )


def test_l2_of_sine_against_zero(square2):
    # || sin(pi x) sin(pi y) ||_{L2}^2 = 1/4 on the unit square
    space = build_space(square2, "CR1_0")
    zero = FeFunction(space)
    b = error_norms(zero, reference=sin_reference())
    assert b.l2 == pytest.approx(0.5, rel=1e-6)


def test_interpolant_of_representable_reference(square2):
    lin = formula_reference(
        lambda x, y: 1 + x - 2 * y,
        lambda x, y: np.broadcast_to([1.0, -2.0], np.shape(x) + (2,)),
        degree=1,
    )
    space = build_space(square2, "CR1_full")
    iu = interpolate(space, lin)
    b = error_norms(iu, reference=lin)
    assert b.l2 < 1e-13 and b.energy_pw < 1e-13


def test_energy_pythagoras_by_quadrature(square2, rng):
    space = build_space(square2, "CR1_0")
    cmap = build_companion(space)
    w = FeFunction(space, rng.standard_normal(space.ndofs))
    u = companion(cmap, w)  # conforming piecewise polynomial, I u = w
    unc = FeFunction(space, rng.standard_normal(space.ndofs))
    lhs = error_norms(unc, reference=u).energy_pw ** 2
    rhs = (
        error_norms(w, reference=u).energy_pw ** 2
        + error_norms(FeFunction(space, unc.coeffs - w.coeffs)).energy_pw ** 2
    )
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_norm_homogeneity(square2, rng):
    space = build_space(square2, "MORLEY_0")
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    b1 = error_norms(f)
    f2 = FeFunction(space, -3.5 * f.coeffs)
    b2 = error_norms(f2)
    for k in ("energy_pw", "h1_pw", "l2"):
        assert getattr(b2, k) == pytest.approx(3.5 * getattr(b1, k), rel=1e-12)


def test_reference_of_another_type_is_refused(square2):
    from ncfem.fields import ScalarField

    u = FeFunction(build_space(square2, "CR1_0"))
    field = ScalarField(lambda x, y: np.ones(np.shape(x)), degree=0)
    with pytest.raises(TypeError, match="FeFunction, an ExactSolution or None"):
        error_norms(u, reference=field, orders=(0,))


def test_a_reference_refuses_orders_above_its_top(rng):
    # lshape-singular-m1's reference stops at the gradient: the Morley
    # energy norm against it names the missing order, while the Morley
    # interpolation, which reads orders 0 and 1, still samples it
    reference = get_problem("lshape-singular-m1").reference()
    space = build_space(l_shape_mesh(2), "MORLEY_0")
    v = FeFunction(space, rng.standard_normal(space.ndofs))
    with pytest.raises(ValueError, match="reference provides no derivative of order 2"):
        error_norms(v, reference=reference)
    iu = interpolate(space, reference)
    assert iu.space is space and np.isfinite(iu.coeffs).all() and iu.coeffs.any()


def test_rate_exact_powers():
    h = [0.4, 0.2, 0.1, 0.05]
    out = convergence_rate(h, [3.0 * hh**2 for hh in h])
    assert np.allclose(out["rates"], 2.0, atol=1e-12)
    assert out["ls_rate"] == pytest.approx(2.0, abs=1e-12)
    out = convergence_rate(h, [hh for hh in h])
    assert np.allclose(out["rates"], 1.0, atol=1e-12)
    out = convergence_rate(h, [hh ** (2.0 / 3.0) for hh in h])
    assert np.allclose(out["rates"], 2.0 / 3.0, atol=1e-6)


def test_rate_floor_flagging():
    out = convergence_rate([0.4, 0.2, 0.1], [1e-2, 1e-15, 1e-16])
    assert out["floored"] == [False, True, True]
    assert np.isnan(out["rates"][0]) and np.isnan(out["rates"][1])


def test_rate_input_validation():
    with pytest.raises(ValueError):
        convergence_rate([0.1], [1.0])
    with pytest.raises(ValueError):
        convergence_rate([0.1, 0.2], [1.0, 0.5])


def test_errors_vs_fine_matches_same_mesh(square2, rng):
    space = build_space(square2, "MORLEY_0")
    f = FeFunction(space, rng.standard_normal(space.ndofs))
    g = FeFunction(space, rng.standard_normal(space.ndofs))
    got = errors_vs_fine(f, g, 0)
    want = error_norms(FeFunction(space, g.coeffs - f.coeffs))
    assert got["energy_pw"] == pytest.approx(want.energy_pw, rel=1e-12)
    assert got["l2"] == pytest.approx(want.l2, rel=1e-12)


def test_errors_vs_fine_nested(rng):
    # embed a coarse CR function exactly? CR coarse functions are not in the
    # fine CR space, so compare against an interpolated smooth reference and
    # check consistency of the generation offset instead
    coarse = unit_square_mesh(2)
    fine = red_refine(red_refine(coarse))
    ref = sin_reference()
    sc = build_space(coarse, "CR1_0")
    sf = build_space(fine, "CR1_0")
    fc = interpolate(sc, ref)
    ff = interpolate(sf, ref)
    d = errors_vs_fine(fc, ff, 2)
    # oracle: triangle inequality against the analytic reference
    ec = error_norms(fc, reference=ref).energy_pw
    ef = error_norms(ff, reference=ref).energy_pw
    assert d["energy_pw"] <= ec + ef + 1e-12
    assert d["energy_pw"] >= abs(ec - ef) - 1e-12


# -- the former fine-grid loop, kept as an oracle ----------------------------


def _former_eval_coarse_at(f, anc, bary, order):
    """Derivative of order `order` of a CR or Morley function on ancestor
    triangles at per-triangle barycentric points."""
    space = f.space
    n, k = bary.shape[:2]
    tab = bary_tabulate(space._modes, bary.reshape(n * k, 3), order)[order]
    per_tri = np.moveaxis(tab.reshape((-1, n, k) + tab.shape[2:]), 1, 0)
    a = space.fold(anc, 0, f.local_coeffs(anc))
    return space.mode_values(anc, a, per_tri, order)


def _former_errors_vs_fine(coarse, fine, generations):
    """``errors_vs_fine`` as its own loop over the degree-4 rule."""
    mesh_f = fine.space.mesh
    mesh_c = coarse.space.mesh
    m = fine.space.m
    totals = {0: 0.0, m: 0.0}
    grads12 = lambda_gradients(mesh_c)[:, 1:]
    for c in cells(mesh_f, 4, fine.space):
        anc = mesh_f.ancestor(c.ts, generations)
        rel = c.phys - mesh_c.vertices[mesh_c.triangles[anc, 0]][:, None, :]
        lam12 = np.einsum("fde,fke->fkd", grads12[anc], rel)
        bary_c = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
        for k in (0, m):
            diff = fine.at(c, k) - _former_eval_coarse_at(coarse, anc, bary_c, k)
            totals[k] += pairing(c, diff, diff)
    return {"energy_pw": float(np.sqrt(totals[m])), "l2": float(np.sqrt(totals[0]))}


@pytest.mark.parametrize("generations", [1, 2])
@pytest.mark.parametrize("kind", ["MORLEY_0", "CR1_0"])
def test_errors_vs_fine_equals_the_former_loop(kind, generations):
    # lshape:6 two generations down has 3456 triangles: two chunks
    rng = np.random.default_rng(30 + generations)
    coarse = l_shape_mesh(6)
    fine = coarse
    for _ in range(generations):
        fine = red_refine(fine)
    sc, sf = build_space(coarse, kind), build_space(fine, kind)
    fc = FeFunction(sc, rng.standard_normal(sc.ndofs))
    ff = FeFunction(sf, rng.standard_normal(sf.ndofs))
    got = errors_vs_fine(fc, ff, generations)
    want = _former_errors_vs_fine(fc, ff, generations)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if kind == "MORLEY_0":  # the same degree-4 rule
            assert got[key] == value
        else:  # the exact degree-2 rule replaced the degree-4 one
            assert got[key] == pytest.approx(value, rel=1e-12)


def _nonempty_subsets(orders):
    orders = sorted(orders)
    return [c for r in range(1, len(orders) + 1) for c in combinations(orders, r)]


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
@pytest.mark.parametrize("ref_kind", ["discrete", "analytic"])
def test_selected_orders_match_full_call_bitwise(kind, ref_kind, lshape1, rng):
    mesh = red_refine(lshape1)
    space = build_space(mesh, kind)
    v = FeFunction(space, rng.standard_normal(space.ndofs))
    if ref_kind == "discrete":
        reference = companion(build_companion(space), v)
        v = FeFunction(space, v.coeffs + 0.1 * rng.standard_normal(space.ndofs))
    else:
        name = "lshape-singular-m1" if space.m == 1 else "square-smooth-m2"
        reference = get_problem(name).reference()
    full = error_norms(v, reference=reference)
    fields = {0: "l2", 1: "h1_pw", space.m: "energy_pw"}
    for orders in _nonempty_subsets({0, 1, space.m}):
        part = error_norms(v, reference=reference, orders=orders)
        for k, name in fields.items():
            if k in orders:
                assert getattr(part, name) == getattr(full, name)
            else:
                assert getattr(part, name) is None


def test_one_call_reference_parts_match_separate_calls_bitwise(lshape1, rng):
    problem = get_problem("lshape-singular-m1")
    ref = problem.reference()
    calls = []

    def parts(x, y, orders):
        calls.append(tuple(orders))
        return ref.parts(x, y, orders)

    # the separate value and gradient formulas the one-call hook replaced
    def value(x, y):
        w, _, _ = problem._w_parts(x, y)
        return (1.0 - x**2) * (1.0 - y**2) * w

    def gradient(x, y):
        w, w_x, w_y = problem._w_parts(x, y)
        one_x, one_y = 1.0 - x * x, 1.0 - y * y
        g, g_x, g_y = one_x * one_y, -2.0 * x * one_y, -2.0 * y * one_x
        grad = np.empty(np.shape(w) + (2,))
        grad[..., 0] = g * w_x + w * g_x
        grad[..., 1] = g * w_y + w * g_y
        return grad

    hooked = ExactSolution(parts, top_order=1)
    plain = formula_reference(value, gradient)
    space = build_space(red_refine(lshape1), "CR1_0")
    v = FeFunction(space, rng.standard_normal(space.ndofs))
    for orders in (None, (0,), (1,)):
        calls.clear()
        got = error_norms(v, reference=hooked, orders=orders)
        assert got == error_norms(v, reference=plain, orders=orders)
        assert calls and set(calls) == {tuple(orders or (0, 1))}


# the separate value, gradient and Hessian formulas of the square problems'
# references, which their one-call hooks replaced
def _square_m1_formulas():
    def value(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def gradient(x, y):
        return np.stack(
            [
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            ],
            axis=-1,
        )

    return value, gradient


def _square_m2_formulas():
    def ab(x):
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * x))

    def ab1(x):
        return np.pi * np.sin(2.0 * np.pi * x)

    def ab2(x):
        return 2.0 * np.pi**2 * np.cos(2.0 * np.pi * x)

    def value(x, y):
        return ab(x) * ab(y)

    def gradient(x, y):
        return np.stack([ab1(x) * ab(y), ab(x) * ab1(y)], axis=-1)

    def hessian(x, y):
        h = np.empty(np.shape(x) + (2, 2))
        h[..., 0, 0] = ab2(x) * ab(y)
        h[..., 1, 1] = ab(x) * ab2(y)
        h[..., 0, 1] = ab1(x) * ab1(y)
        h[..., 1, 0] = h[..., 0, 1]
        return h

    return value, gradient, hessian


@pytest.mark.parametrize(
    "problem_name, formulas",
    [("square-smooth-m1", _square_m1_formulas), ("square-smooth-m2", _square_m2_formulas)],
)
def test_square_reference_parts_match_separate_formulas_bitwise(problem_name, formulas, rng):
    problem = get_problem(problem_name)
    ref = problem.reference()
    separate = formulas()
    x, y = rng.uniform(0.0, 1.0, (2, 40, 7))
    for orders in _nonempty_subsets(set(range(problem.m + 1))):
        got = ref.parts(x, y, orders)
        assert sorted(got) == list(orders)
        for k in orders:
            assert np.array_equal(got[k], separate[k](x, y))
    calls = []

    def parts(x, y, orders):
        calls.append(tuple(orders))
        return ref.parts(x, y, orders)

    hooked = ExactSolution(parts, top_order=ref.top_order)
    plain = formula_reference(*separate)
    mesh = red_refine(problem.base_mesh())
    space = build_space(mesh, nc_kind(problem.m))
    v = FeFunction(space, rng.standard_normal(space.ndofs))
    for orders in [None] + [(k,) for k in (0, 1, problem.m)]:
        calls.clear()
        got = error_norms(v, reference=hooked, orders=orders)
        assert got == error_norms(v, reference=plain, orders=orders)
        assert calls and set(calls) == {tuple(orders or sorted({0, 1, problem.m}))}


def test_orders_outside_the_norm_set_rejected(square2):
    space = build_space(square2, "CR1_0")
    with pytest.raises(ValueError, match="orders"):
        error_norms(FeFunction(space), orders=(2,))
    with pytest.raises(ValueError, match="orders"):
        error_norms(FeFunction(space), orders=())


@pytest.mark.parametrize(
    "problem_name, subcells",
    [("lshape-singular-m1", 1), ("square-smooth-m2", 3)],
)
def test_several_functions_measure_bitwise_as_separate_calls(problem_name, subcells, rng):
    # CR and its companion share one pass; Morley and its HCT companion do not
    problem = get_problem(problem_name)
    mesh = red_refine(problem.base_mesh())
    space = build_space(mesh, nc_kind(problem.m))
    u = FeFunction(space, rng.standard_normal(space.ndofs))
    ju = companion(build_companion(space), u)
    assert ju.space.n_subcells == subcells
    reference = problem.reference()
    pairs = [(u, (0, problem.m)), (ju, (0,)), (u, None), (ju, (problem.m,))]
    together = error_norms(pairs, reference=reference)
    assert together == [error_norms(f, reference=reference, orders=o) for f, o in pairs]
    discrete = error_norms(pairs[:2], reference=u)
    assert discrete == [error_norms(f, reference=u, orders=o) for f, o in pairs[:2]]


def test_several_functions_reject_shared_orders_and_foreign_meshes(square2):
    u = FeFunction(build_space(square2, "CR1_0"))
    v = FeFunction(build_space(red_refine(square2), "CR1_0"))
    with pytest.raises(ValueError, match="orders"):
        error_norms([(u, (0,))], orders=(0,))
    with pytest.raises(ValueError, match="different meshes"):
        error_norms([(u, (0,)), (v, (0,))])
