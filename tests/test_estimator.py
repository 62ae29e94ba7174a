import numpy as np
import pytest

from ncfem import assembly
from ncfem.assembly import RhsData
from ncfem.estimator import efficiency_terms, estimate_modified, estimate_original
from ncfem.fespace import FeFunction, build_space
from ncfem.fields import ScalarField, VectorField, field_sum
from ncfem.linalg import factor, solve_spd
from ncfem.mesh import red_refine, unit_square_mesh
from ncfem.operators import Discretization
from ncfem.problems import get_problem


def _solve(space, rhs):
    A = assembly.assemble_stiffness(space)
    x, rep = solve_spd(A, rhs, factor(A))
    assert rep.converged
    return FeFunction(space, x)


def test_zero_data_zero_bounds(square2):
    for kind in ("CR1_0", "MORLEY_0"):
        disc = Discretization(square2, kind)
        data = RhsData()
        u = FeFunction(disc.space)
        est = estimate_original(disc, data, u)
        assert est["bounds"]["bound_a"] == 0.0
        assert est["bounds"]["bound_b"] == 0.0
        est = estimate_modified(disc, data, u)
        assert est["bounds"]["bound_a"] == 0.0
        assert est["bounds"]["bound_b"] == 0.0


def test_wrong_solution_rejected(square2):
    disc = Discretization(square2, "CR1_0")
    data = RhsData(g=ScalarField(lambda x, y: np.ones(np.shape(x)), degree=0))
    u = FeFunction(disc.space, np.ones(disc.space.ndofs))
    with pytest.raises(ValueError, match="does not solve"):
        estimate_original(disc, data, u)


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
def test_discrete_solve_passes_the_estimator_check(kind):
    mesh = red_refine(unit_square_mesh(2))
    disc = Discretization(mesh, kind)
    data = RhsData(g=ScalarField(lambda x, y: np.ones(np.shape(x)), degree=0))
    estimate_original(disc, data, disc.solve(disc.rhs("original", data)))
    estimate_modified(disc, data, disc.solve(disc.rhs("modified", data)))


def test_vertex_force_adds_exactly_nothing_to_the_fhat_correction():
    """J keeps the vertex values of u_nc, so a vertex force pairs with
    u_nc - J u_nc to exactly zero: the correction equals, bit for bit, the
    one of the same data without the force."""
    prob = get_problem("lshape-pointforce-m2")
    mesh = red_refine(prob.base_mesh())
    disc = Discretization(mesh, "MORLEY_0")
    data = prob.data(mesh)
    assert [pf.vertex is not None for pf in data.point_forces] == [True]
    no_force = RhsData(G=data.G, g=data.g, point_forces=[])
    terms = [estimate_original(disc, d, disc.solve(disc.rhs("original", d)))["terms"]
             for d in (data, no_force)]
    with_force, without = (np.float64(t["Fhat_correction"]).tobytes() for t in terms)
    assert with_force == without
    assert terms[0]["nonconf"] > 0.0  # the force moves u_nc off the companion's range


@pytest.mark.parametrize("name", ["square-smooth-m1", "square-smooth-m2"])
def test_reliability_on_smooth_problem(name):
    prob = get_problem(name)
    mesh = red_refine(prob.base_mesh())
    kind = "CR1_0" if prob.m == 1 else "MORLEY_0"
    disc = Discretization(mesh, kind)
    space, cmap = disc.space, disc.cmap
    data = prob.data(mesh)
    ref = prob.reference()
    u_org = _solve(space, assembly.assemble_rhs_original(space, data))
    est = estimate_original(disc, data, u_org, reference=ref)
    slack = 1.0 + 1e-6
    assert est["measured_errors"]["split_a"] <= est["bounds"]["bound_a"] * slack
    assert est["measured_errors"]["split_b"] <= est["bounds"]["bound_b"] * slack

    u_mod = _solve(space, assembly.assemble_rhs_modified(space, data, cmap))
    est = estimate_modified(disc, data, u_mod, reference=ref)
    assert est["measured_errors"]["energy_conf"] <= est["bounds"]["bound_a"] * slack
    assert est["measured_errors"]["energy_pw"] <= est["bounds"]["bound_b"] * slack
    assert "lower-bound surrogate" in est["constants"]["lambda_j_policy"]


def test_lambda_j_knob(square2):
    prob = get_problem("square-smooth-m1")
    mesh = square2
    disc = Discretization(mesh, "CR1_0")
    space, cmap = disc.space, disc.cmap
    data = prob.data(mesh)
    u = _solve(space, assembly.assemble_rhs_modified(space, data, cmap))
    est0 = estimate_modified(disc, data, u)
    est1 = estimate_modified(disc, data, u, lambda_j=2 * est0["constants"]["lambda0"])
    assert est1["constants"]["lambda_j_policy"] == "user-supplied"
    assert est1["terms"]["apx_F"] > est0["terms"]["apx_F"]
    assert est1["bounds"]["bound_b"] > est0["bounds"]["bound_b"]


def test_lambda_j_below_lambda0_is_refused(square2):
    prob = get_problem("square-smooth-m1")
    disc = Discretization(square2, "CR1_0")
    data = prob.data(square2)
    u = disc.solve(disc.rhs("modified", data))
    lam0 = disc.lam0.lambda0
    assert estimate_modified(disc, data, u, lambda_j=lam0)["constants"]["lambda_j"] == lam0
    for bad in (0.0, np.nextafter(lam0, 0.0), float("nan")):
        with pytest.raises(ValueError, match=f"lambda_j .* is not at least lambda0 {lam0!r}"):
            estimate_modified(disc, data, u, lambda_j=bad)


def test_lambda_j_infinite_or_overflowing_is_refused(square2):
    # inf gave bound_b nan; 1e160 squared overflows a Python float
    prob = get_problem("square-smooth-m1")
    disc = Discretization(square2, "CR1_0")
    data = prob.data(square2)
    u = disc.solve(disc.rhs("modified", data))
    with pytest.raises(ValueError, match="lambda_j inf is not finite"):
        estimate_modified(disc, data, u, lambda_j=float("inf"))
    with pytest.raises(ValueError, match="lambda_j 1e[+]160 is too large: bound_b overflows"):
        estimate_modified(disc, data, u, lambda_j=1e160)


@pytest.mark.parametrize("bad, message", [(0.0, "is not at least lambda0"),
                                          (float("inf"), "is not finite")], ids=["zero", "inf"])
def test_lambda_j_is_refused_before_the_norms(bad, message, square2, monkeypatch):
    from ncfem import estimator

    prob = get_problem("square-smooth-m1")
    disc = Discretization(square2, "CR1_0")
    data = prob.data(square2)
    u = disc.solve(disc.rhs("modified", data))

    def refuse(*args, **kwargs):
        raise AssertionError("a refused lambda_j reached the error norms")

    monkeypatch.setattr(estimator, "error_norms", refuse)
    with pytest.raises(ValueError, match=f"lambda_j {bad!r} {message}"):
        estimate_modified(disc, data, u, lambda_j=bad)


def test_efficiency_zero_g():
    prob = get_problem("square-smooth-m1")
    mesh = unit_square_mesh(2)
    space = build_space(mesh, "CR1_0")
    out = efficiency_terms(space, RhsData(), prob.reference())
    assert out["lhs_g_weighted"] == 0.0
    assert out["efficiency_index"] == 0.0


def test_efficiency_bounded_over_levels():
    # the index settles from below; the window starts one level in so the
    # growth criterion reflects the plateau, not the coarsest-mesh transient
    prob = get_problem("square-smooth-m1")
    mesh = red_refine(prob.base_mesh())
    idx = []
    for _ in range(4):
        space = build_space(mesh, "CR1_0")
        out = efficiency_terms(space, prob.data(mesh), prob.reference())
        idx.append(out["efficiency_index"])
        mesh = red_refine(mesh)
    for a, b in zip(idx, idx[1:]):
        assert b <= a * 1.2


def test_off_vertex_forces_refused(square2):
    disc = Discretization(square2, "MORLEY_0")
    e = int(np.nonzero(square2.interior_edge_mask)[0][0])
    data = RhsData(
        point_forces=[
            assembly.PointForce(beta=1.0, edge=e, point=tuple(square2.edge_midpoint[e]))
        ]
    )
    u = FeFunction(disc.space)
    with pytest.raises(ValueError, match="off-vertex"):
        estimate_original(disc, data, u)


def test_report_serialization(square2):
    disc = Discretization(square2, "CR1_0")
    data = RhsData()
    est = estimate_original(disc, data, FeFunction(disc.space))
    d = est
    assert d["schema"] == "ncfem-report-v1"
    import json

    json.dumps(d)  # must be JSON-serializable


def test_modified_bounds_with_tensor_data_hold_and_follow_their_formulas():
    # (G, g) = (Q, g + div Q) is (0, g) shifted as assembly.preprocess_data
    # shifts data (div_1 Q = -div Q): the functional, and so the exact
    # solution, is unchanged, and the G terms of the bounds come into play
    prob = get_problem("square-smooth-m1")
    mesh = red_refine(red_refine(prob.base_mesh()))
    Q = VectorField(lambda x, y: np.stack([x * x, x * y], axis=-1), degree=2)
    div_Q = ScalarField(lambda x, y: 3.0 * x, degree=1)
    data = RhsData(G=Q, g=field_sum(prob.data(mesh).g, div_Q))
    disc = Discretization(mesh, "CR1_0")
    u = disc.solve(disc.rhs("modified", data))
    report = estimate_modified(disc, data, u, reference=prob.reference())
    terms, const, bounds = report["terms"], report["constants"], report["bounds"]
    measured = report["measured_errors"]
    assert terms["G_osc"] > 0.0
    assert bounds["bound_a"] >= measured["energy_conf"]
    assert bounds["bound_b"] >= measured["energy_pw"]
    kappa, lam0, lam_j = const["kappa_m"], const["lambda0"], const["lambda_j"]
    G_osc, g_weighted, g_osc = terms["G_osc"], terms["g_weighted"], terms["g_osc"]
    apx_F = (1.0 + lam_j) * G_osc + kappa * g_weighted + kappa * lam_j * g_osc
    bound_a = np.sqrt(1.0 + lam0**2) * G_osc + np.sqrt(
        (kappa * g_weighted + terms["nonconf"]) ** 2 + (kappa * lam0 * g_osc) ** 2)
    assert terms["apx_F"] == pytest.approx(apx_F, rel=1e-14)
    assert bounds["bound_a"] == pytest.approx(bound_a, rel=1e-14)
