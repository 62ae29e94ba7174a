"""Identity checks that cut across modules."""

import numpy as np
import pytest

from ncfem import assembly
from ncfem.assembly import RhsData
from ncfem.estimator import efficiency_terms, estimate_modified
from ncfem.experiments import run_rate_study
from ncfem.fespace import FeFunction, build_space
from ncfem.fields import ExactSolution, fe_derivative
from ncfem.linalg import factor, solve_spd
from ncfem.mesh import unit_square_mesh
from ncfem.norms import error_norms
from ncfem.operators import Discretization, build_companion, companion, interpolate


def test_companion_is_identity_on_global_linears(square2):
    # a continuous piecewise linear already lies in the conforming host:
    # nodal averaging reproduces it, edge and volume corrections vanish
    space = build_space(square2, "CR1_full")
    cmap = build_companion(space)
    lin = ExactSolution(
        lambda x, y: 0.5 - x + 2 * y,
        lambda x, y: np.broadcast_to([-1.0, 2.0], np.shape(x) + (2,)),
        degree=1,
    )
    v = interpolate(space, lin)
    jv = companion(cmap, v)
    assert error_norms(jv, reference=lin).energy_pw < 1e-12
    assert error_norms(jv, reference=lin).l2 < 1e-13


def test_companion_is_identity_on_global_quadratics(square2):
    space = build_space(square2, "MORLEY_full")
    cmap = build_companion(space)

    def val(x, y):
        return x**2 - x * y + 0.5 * y**2 + x - y

    def grad(x, y):
        return np.stack([2 * x - y + 1, -x + y - 1], axis=-1)

    def hess(x, y):
        h = np.empty(np.shape(x) + (2, 2))
        h[..., 0, 0] = 2.0
        h[..., 0, 1] = -1.0
        h[..., 1, 0] = -1.0
        h[..., 1, 1] = 1.0
        return h

    q = ExactSolution(val, grad, hess, degree=2)
    v = interpolate(space, q)
    jv = companion(cmap, v)
    b = error_norms(jv, reference=q)
    assert b.energy_pw < 1e-11 and b.l2 < 1e-12


def test_companion_linearity_and_zero(square2, rng):
    space = build_space(square2, "MORLEY_0")
    cmap = build_companion(space)
    z = companion(cmap, FeFunction(space))
    assert np.all(z.coeffs == 0)
    a = FeFunction(space, rng.standard_normal(space.ndofs))
    b = FeFunction(space, rng.standard_normal(space.ndofs))
    ab = FeFunction(space, 2.0 * a.coeffs - b.coeffs)
    lhs = companion(cmap, ab).coeffs
    rhs = 2.0 * companion(cmap, a).coeffs - companion(cmap, b).coeffs
    assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(lhs).max(), 1.0)


@pytest.mark.parametrize("m", [1, 2])
def test_estimator_bound_on_attainment_example(square2, m):
    """The smoothed-scheme bound dominates the exactly known error."""
    kind = "CR1_0" if m == 1 else "MORLEY_0"
    disc = Discretization(square2, kind)
    space, cmap, res = disc.space, disc.cmap, disc.lam0
    v = res.extremal_vector
    jv = companion(cmap, v)
    neg_jv = FeFunction(jv.space, -jv.coeffs)
    G = fe_derivative(neg_jv, m)
    data = RhsData(G=G)
    A = assembly.assemble_stiffness(space)
    rhs = assembly.assemble_rhs_modified(space, data, cmap)
    x, rep = solve_spd(A, rhs, factor(A))
    assert rep.converged
    u_nc = FeFunction(space, x)
    est = estimate_modified(disc, data, u_nc)
    exact_error = res.lambda0 * np.sqrt(1.0 + res.lambda0**2)
    assert est["bounds"]["bound_b"] >= exact_error * (1 - 1e-9)


def test_efficiency_vacuous_for_zero_g(square2, rng):
    # tensor-only data: the left-hand side vanishes, the inequality is vacuous
    from ncfem.fields import sym_curl_of_pair

    host = build_space(square2, "COMPANION_CR_full")
    c1 = np.zeros(host.ndofs)
    c1[host.tri_dofs[:, 0]] = rng.standard_normal(square2.n_triangles)
    c2 = np.zeros(host.ndofs)
    c2[host.tri_dofs[:, 0]] = rng.standard_normal(square2.n_triangles)
    G = sym_curl_of_pair(FeFunction(host, c1), FeFunction(host, c2))
    data = RhsData(G=G)
    prob_ref = ExactSolution(
        lambda x, y: np.zeros(np.shape(x)),
        lambda x, y: np.zeros(np.shape(x) + (2,)),
        lambda x, y: np.zeros(np.shape(x) + (2, 2)),
        degree=0,
    )
    space = build_space(square2, "MORLEY_0")
    out = efficiency_terms(space, data, prob_ref)
    assert out["lhs_g_weighted"] == 0.0
    assert out["G_osc"] > 0.0


def test_zero_data_solutions_and_rate_floor(square2):
    for kind in ("CR1_0", "MORLEY_0"):
        space = build_space(square2, kind)
        cmap = build_companion(space)
        data = RhsData()
        A = assembly.assemble_stiffness(space)
        lu = factor(A)
        for rhs in (
            assembly.assemble_rhs_original(space, data),
            assembly.assemble_rhs_modified(space, data, cmap),
        ):
            x, rep = solve_spd(A, rhs, lu)
            assert error_norms(FeFunction(space, x)).energy_pw <= 1e-12
    from ncfem.norms import convergence_rate

    out = convergence_rate([0.5, 0.25, 0.125], [1e-14, 1e-15, 1e-16])
    assert all(out["floored"])
    assert np.isnan(out["ls_rate"])


def test_pointforce_problem_runs_and_converges():
    table = run_rate_study("lshape-pointforce-m2", 2)
    errs = [r["errors"]["energy_pw"] for r in table["rows"]]
    assert errs[1] < errs[0]
    assert all(e > 0 for e in errs)


def _lambda_j_observed(space, cmap):
    """Largest defect-to-distance ratio over the companion space.

    The companion-estimate inequality is not testable over the whole energy
    space; over the conforming companion space the sharp constant is the top
    eigenvalue of the (deflated) pencil of the defect-energy form against
    the squared distance form.  Directions where both vanish are exactly the
    conforming members of the nonconforming space and are removed.
    """
    A = assembly.assemble_stiffness(space).toarray()
    Ac = assembly.assemble_stiffness(cmap.target)
    B = (cmap.matrix.T @ (Ac @ cmap.matrix)).toarray()
    N = B - A
    D = A - A @ np.linalg.solve(B, A)
    w, Q = np.linalg.eigh(D)
    keep = w > 1e-10 * w.max()
    Qr = Q[:, keep] / np.sqrt(w[keep])
    return float(np.sqrt(np.linalg.eigvalsh(Qr.T @ N @ Qr)[-1]))


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
def test_companion_estimate_over_companion_space(kind, square2, rng):
    disc = Discretization(square2, kind)
    space, cmap = disc.space, disc.cmap
    lam_j = _lambda_j_observed(space, cmap)
    lam0 = disc.lam0.lambda0
    # the defect norm never exceeds the distance-based constant
    assert lam0 <= lam_j + 1e-9
    # sampled pairs respect the eigen-computed constant
    for _ in range(50):
        v = FeFunction(space, rng.standard_normal(space.ndofs))
        jw = companion(cmap, FeFunction(space, rng.standard_normal(space.ndofs)))
        defect = error_norms(v, reference=companion(cmap, v)).energy_pw
        dist = error_norms(v, reference=jw).energy_pw
        assert defect <= lam_j * dist * (1 + 1e-9)


def test_pointforce_modified_vs_original_differ_only_slightly():
    # a force at an interior vertex pairs identically with the nonconforming
    # basis and its companion image (both preserve vertex values)
    from ncfem.problems import get_problem

    prob = get_problem("lshape-pointforce-m2")
    mesh = prob.base_mesh()
    space = build_space(mesh, "MORLEY_0")
    cmap = build_companion(space)
    data = prob.data(mesh)
    a = assembly.assemble_rhs_original(space, data)
    b = assembly.assemble_rhs_modified(space, data, cmap)
    assert np.abs(a - b).max() <= 1e-11 * max(np.abs(a).max(), 1.0)
