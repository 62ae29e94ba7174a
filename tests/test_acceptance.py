"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  The test matrix spans squares n in {1, 2, 4} and L-shapes
n in {1, 2} for both element families.  Criterion 10's fourth-order
L-shape band is asserted exactly as stated; its failure message carries
the measured rates and demos/03_convergence_rates.py shows the behavior.
"""

import time

import numpy as np
import pytest

from ncfem import assembly
from ncfem._hct import SUB_TO_PARENT
from ncfem._poly import BaryPoly
from ncfem.estimator import efficiency_terms, estimate_modified, estimate_original
from ncfem.experiments import (
    run_compare,
    run_counterexample_cr,
    run_counterexample_morley,
    run_oscillation_example,
    run_rate_study,
)
from ncfem.fespace import FeFunction, build_space
from ncfem.fields import fe_derivative, field_sum
from ncfem.linalg import factor, solve_spd
from ncfem.mesh import l_shape_mesh, red_refine, unit_square_mesh
from ncfem.norms import error_norms
from ncfem.operators import (
    Discretization,
    build_companion,
    companion,
    compute_lambda0,
    interpolate,
    kappa_constant,
)
from ncfem.problems import get_problem
from ncfem.quadrature import sample_cell, triangle_rule

MESH_MATRIX = [
    ("square:1", unit_square_mesh(1)),
    ("square:2", unit_square_mesh(2)),
    ("square:4", unit_square_mesh(4)),
    ("lshape:1", l_shape_mesh(1)),
    ("lshape:2", l_shape_mesh(2)),
]
KINDS = {1: "CR1_0", 2: "MORLEY_0"}


def _line(num, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {num}: {name} {detail}".rstrip(), flush=True)


def _spaces(m):
    for mesh_id, mesh in MESH_MATRIX:
        space = build_space(mesh, KINDS[m])
        if space.ndofs == 0:
            continue
        yield mesh_id, mesh, space


def test_criterion_1_right_inverse():
    t0 = time.time()
    worst = 0.0
    for m in (1, 2):
        for mesh_id, mesh, space in _spaces(m):
            cmap = build_companion(space)
            rng = np.random.default_rng(101)
            for _ in range(50):
                v = FeFunction(space, rng.standard_normal(space.ndofs))
                jv = companion(cmap, v)
                iv = interpolate(space, jv)
                scale = np.abs(v.coeffs).max()
                worst = max(worst, np.abs(iv.coeffs - v.coeffs).max() / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-11 and elapsed < 10.0
    _line(1, "right-inverse identity", ok,
          f"(max deviation {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-11
    assert elapsed < 10.0


def _p_modes(m):
    one = BaryPoly.const(1.0)
    u = BaryPoly.lam(1) - BaryPoly.lam(0)
    v = BaryPoly.lam(2) - BaryPoly.lam(0)
    modes = [one, u, v]
    if m == 2:
        modes += [u * u, u * v, v * v]
    return modes


def test_criterion_2_l2_orthogonality():
    worst = 0.0
    for m in (1, 2):
        modes = _p_modes(m)
        rule = triangle_rule(10)
        for mesh_id, mesh, space in _spaces(m):
            cmap = build_companion(space)
            rng = np.random.default_rng(202)
            ts = np.arange(mesh.n_triangles)
            for _ in range(50):
                v = FeFunction(space, rng.standard_normal(space.ndofs))
                jv = companion(cmap, v)
                nsub = jv.space.n_subcells
                total = np.zeros((mesh.n_triangles, len(modes)))
                for s in range(nsub):
                    parent = rule.points if nsub == 1 else rule.points @ SUB_TO_PARENT[s]
                    vv = v.at(sample_cell(ts, parent), 0)
                    jj = jv.at(sample_cell(ts, rule.points, s, nsub), 0)
                    qv = np.stack([p.eval(parent) for p in modes])
                    total += np.einsum("k,fk,lk->fl", rule.weights, vv - jj, qv)
                total *= (mesh.area / nsub)[:, None]
                scale = max(np.abs(v.coeffs).max(), 1.0)
                worst = max(worst, np.abs(total).max() / scale)
    ok = worst <= 1e-11
    _line(2, "per-triangle moment orthogonality of the companion defect", ok,
          f"(max relative moment {worst:.2e})")
    assert worst <= 1e-11


def test_criterion_3_interpolation_constant():
    worst_margin = -np.inf
    for m in (1, 2):
        kappa = kappa_constant(m)
        count = 0
        for mesh_id, mesh, space in _spaces(m):
            cmap = build_companion(space)
            h = mesh.diameter
            rng = np.random.default_rng(303)
            for _ in range(40):
                w = FeFunction(space, rng.standard_normal(space.ndofs))
                v = companion(cmap, w)  # conforming piecewise polynomial, I v = w
                diff = field_sum(fe_derivative(v, 0), fe_derivative(w, 0), 1.0, -1.0)
                lhs = assembly.weighted_field_l2(diff, mesh, weights=h ** (-m))
                rhs = kappa * error_norms(w, reference=v).energy_pw
                worst_margin = max(worst_margin, lhs - rhs)
                count += 1
        assert count == 200
    ok = worst_margin <= 1e-12
    _line(3, "interpolation-constant inequality (kappa_1 Bessel, kappa_2 known)",
          ok, f"(max lhs-rhs {worst_margin:.2e} over 200 samples per family)")
    assert worst_margin <= 1e-12


@pytest.fixture(scope="module")
def compare_reports():
    """One run_compare per (m, mesh) of the matrix, and the seconds they took;
    criteria 4 and 6 read its two halves."""
    t0 = time.time()
    reports = [(m, mesh_id, run_compare(mesh, m, mesh_id=mesh_id))
               for m in (1, 2) for mesh_id, mesh, space in _spaces(m)]
    return reports, time.time() - t0


def test_criterion_4_attainment(compare_reports):
    reports, elapsed = compare_reports
    all_ok = True
    for m, mesh_id, compare in reports:
        report = compare["attainment"]
        if not report["passed"]:
            all_ok = False
            for a in report["assertions"]:
                if not a["pass"]:
                    print("   failed:", mesh_id, m, a)
    ok = all_ok and elapsed < 30.0
    _line(4, "attainment of the best-approximation constant", ok,
          f"({elapsed:.1f}s)")
    assert all_ok
    assert elapsed < 30.0


def test_criterion_5_eigenvalue_vs_direct_maximization():
    all_ok = True
    details = []
    for m in (1, 2):
        for mesh_id, mesh, space in _spaces(m):
            if space.ndofs > 100:
                continue
            cmap = build_companion(space)
            A = assembly.assemble_stiffness(space)
            res = compute_lambda0(space, cmap, A, factor(A))
            A = A.toarray()
            Ac = assembly.assemble_stiffness(cmap.target)
            B = (cmap.matrix.T @ (Ac @ cmap.matrix)).toarray()
            D = B - A  # quadratic form of the defect energy
            rng = np.random.default_rng(505)
            X = rng.standard_normal((space.ndofs, 10_000))
            # random maximization: ascent steps on the generalized quotient
            Ainv = np.linalg.inv(A)
            for _ in range(3):
                X = Ainv @ (D @ X)
                X /= np.linalg.norm(X, axis=0)
            num = np.einsum("if,if->f", X, D @ X)
            den = np.einsum("if,if->f", X, A @ X)
            best = float(np.sqrt(max(np.max(num / den), 0.0)))
            lower_ok = best <= res.lambda0 + 1e-9
            close_ok = best >= 0.95 * res.lambda0
            details.append(
                f"{mesh_id} m={m}: best {best:.6f} vs lambda0 {res.lambda0:.6f}"
            )
            all_ok = all_ok and lower_ok and close_ok
    _line(5, "eigenvalue agrees with direct quotient maximization", all_ok)
    assert all_ok, details


def test_criterion_6_scheme_comparison_identities(compare_reports):
    all_ok = True
    for m, mesh_id, report in compare_reports[0]:
        # the top-level "passed" also covers the attainment half: judge this one alone
        if not all(a["pass"] for a in report["assertions"]):
            all_ok = False
            for a in report["assertions"]:
                if not a["pass"]:
                    print("   failed:", mesh_id, m, a)
    _line(6, "natural scheme equals the interpolant for extremal data", all_ok)
    assert all_ok


def test_criterion_7_counterexamples():
    reports = [
        run_counterexample_cr(unit_square_mesh(2), mesh_id="square:2"),
        run_counterexample_cr(l_shape_mesh(1), mesh_id="lshape:1"),
        run_counterexample_morley(unit_square_mesh(2), mesh_id="square:2"),
        run_counterexample_morley(l_shape_mesh(1), mesh_id="lshape:1"),
    ]
    all_ok = all(r["passed"] and not r.get("degenerate") for r in reports)
    if not all_ok:
        for r in reports:
            for a in r.get("assertions", []):
                if not a["pass"]:
                    print("   failed:", r["experiment"], r["mesh"]["id"], a)
    _line(7, "best-approximation counterexamples (unit natural solution)", all_ok)
    assert all_ok


def test_criterion_8_dominating_oscillations():
    report = run_oscillation_example(unit_square_mesh(2), mesh_id="square:2")
    g_osc = report["values"]["G_osc"]
    bound_a = report["values"]["estimate_original"]["bounds"]["bound_a"]
    ok = report["passed"] and g_osc >= 0.1 and bound_a >= 0.01
    _line(8, "dominating data oscillations (efficiency failure)", ok,
          f"(G_osc {g_osc:.3f}, bound_a {bound_a:.3f})")
    assert report["passed"]
    assert g_osc >= 0.1
    assert bound_a >= 0.01


def _reliability_case(problem_name, levels):
    prob = get_problem(problem_name)
    kind = KINDS[prob.m]
    mesh = prob.base_mesh()
    slack = 1.0 + 1e-6
    checks = []
    for lvl in range(levels):
        disc = Discretization(mesh, kind)
        space, cmap = disc.space, disc.cmap
        data = prob.data(mesh)
        ref = prob.reference()
        A = disc.A
        x, rep = solve_spd(A, assembly.assemble_rhs_original(space, data), disc.lu)
        est = estimate_original(disc, data, FeFunction(space, x), reference=ref)
        checks.append(est["measured_errors"]["split_a"] <= est["bounds"]["bound_a"] * slack)
        checks.append(est["measured_errors"]["split_b"] <= est["bounds"]["bound_b"] * slack)
        x, rep = solve_spd(A, assembly.assemble_rhs_modified(space, data, cmap), disc.lu)
        est = estimate_modified(disc, data, FeFunction(space, x), reference=ref)
        checks.append(est["measured_errors"]["energy_conf"] <= est["bounds"]["bound_a"] * slack)
        checks.append(est["measured_errors"]["energy_pw"] <= est["bounds"]["bound_b"] * slack)
        assert "lower-bound surrogate" in est["constants"]["lambda_j_policy"]
        mesh = red_refine(mesh)
    return checks


def test_criterion_9_reliability():
    checks = []
    for name in ("square-smooth-m1", "square-smooth-m2", "lshape-singular-m1"):
        checks += _reliability_case(name, 4)
    ok = all(checks)
    _line(9, "guaranteed bounds dominate the measured errors", ok,
          f"({sum(checks)}/{len(checks)} comparisons)")
    assert ok


RATE_ELAPSED = {}


def _timed_rate_study(key, *args, **kwargs):
    t0 = time.time()
    table = run_rate_study(*args, **kwargs)
    RATE_ELAPSED[key] = time.time() - t0
    return table


def test_criterion_10a_square_smooth_m1_rates():
    table = _timed_rate_study("10a", "square-smooth-m1", 5)
    energy = table["rates"]["energy_pw"]["rates"][-1]
    l2_post = table["rates"]["l2_post"]["rates"][-1]
    ok = abs(energy - 1.0) <= 0.1 and abs(l2_post - 2.0) <= 0.15
    _line("10a", "square smooth m=1 rates", ok,
          f"(energy {energy:.3f}, post L2 {l2_post:.3f})")
    assert abs(energy - 1.0) <= 0.1
    assert abs(l2_post - 2.0) <= 0.15


def test_criterion_10b_square_smooth_m2_rates():
    table = _timed_rate_study("10b", "square-smooth-m2", 5)
    energy = table["rates"]["energy_pw"]["rates"][-1]
    ok = abs(energy - 1.0) <= 0.1
    _line("10b", "square smooth m=2 energy rate", ok, f"(energy {energy:.3f})")
    assert abs(energy - 1.0) <= 0.1


def test_criterion_10c_lshape_singular_m1_rates():
    table = _timed_rate_study("10c", "lshape-singular-m1", 7)
    energy = table["rates"]["energy_pw"]["rates"][-1]
    l2_post = table["rates"]["l2_post"]["rates"][-1]
    ok = abs(energy - 2.0 / 3.0) <= 0.1 and abs(l2_post - 4.0 / 3.0) <= 0.15
    _line("10c", "L-shape singular m=1 rates", ok,
          f"(energy {energy:.3f} vs 0.667, post L2 {l2_post:.3f} vs 1.333)")
    assert abs(energy - 2.0 / 3.0) <= 0.1
    assert abs(l2_post - 4.0 / 3.0) <= 0.15


def test_criterion_10d_lshape_biharmonic_band():
    """f = 1 on the L-shape, fourth order: energy rate in [0.4, 0.7].

    Asserted exactly as stated.  The measured uniform-refinement rate at
    this dof scale sits near 0.9 and rises with level: for fourth-order
    problems the corner contribution stays below the smooth first-order
    term until far beyond this dof budget (even direct interpolation of an
    exact corner-singular function first reaches the band near 8e5 dofs),
    so this criterion documents a red outcome.
    """
    table = _timed_rate_study("10d", "lshape-f1-m2", 4)
    energy = table["rates"]["energy_pw"]["rates"][-1]
    ok = 0.4 <= energy <= 0.7
    _line("10d", "L-shape f=1 m=2 energy rate in [0.4, 0.7]", ok,
          f"(measured {energy:.3f}; rising with level)")
    assert 0.4 <= energy <= 0.7, (
        f"measured energy rate {energy:.4f} outside [0.4, 0.7]; the asymptotic "
        "corner exponent 0.544 is not observable at the stated dof budget "
        "(all rates per level: "
        f"{[f'{r:.3f}' for r in table['rates']['energy_pw']['rates']]})"
    )


def test_criterion_10_total_runtime():
    total = sum(RATE_ELAPSED.values())
    ok = total < 600.0 and len(RATE_ELAPSED) == 4
    _line("10", "rate studies fit the runtime budget", ok, f"({total:.0f}s total)")
    assert len(RATE_ELAPSED) == 4
    assert total < 600.0


def test_criterion_11_efficiency_index():
    all_ok = True
    detail = []
    for name in ("square-smooth-m1", "square-smooth-m2"):
        prob = get_problem(name)
        kind = KINDS[prob.m]
        mesh = red_refine(prob.base_mesh())
        idx = []
        for _ in range(4):
            space = build_space(mesh, kind)
            out = efficiency_terms(space, prob.data(mesh), prob.reference())
            idx.append(out["efficiency_index"])
            mesh = red_refine(mesh)
        detail.append(f"{name}: max {max(idx):.3f}")
        for a, b in zip(idx, idx[1:]):
            all_ok = all_ok and (b <= a * 1.2)
    _line(11, "efficiency index bounded over refinements", all_ok,
          f"({'; '.join(detail)})")
    assert all_ok
