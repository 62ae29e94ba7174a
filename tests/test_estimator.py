import numpy as np
import pytest

from ncfem import assembly
from ncfem.assembly import RhsData
from ncfem.estimator import efficiency_terms, estimate_modified, estimate_original
from ncfem.fespace import FeFunction, build_space
from ncfem.fields import ScalarField
from ncfem.linalg import solve_spd
from ncfem.mesh import red_refine, unit_square_mesh
from ncfem.operators import Discretization
from ncfem.problems import get_problem


def _solve(space, rhs):
    A = assembly.assemble_stiffness(space)
    x, rep = solve_spd(A, rhs)
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
