import json

import numpy as np
import pytest
from conftest import live

import ncfem.experiments
from ncfem.experiments import (
    run_compare,
    run_counterexample_cr,
    run_counterexample_morley,
    rate_csv,
    run_oscillation_example,
    run_rate_study,
)
from ncfem.mesh import l_shape_mesh, unit_square_mesh


@pytest.mark.parametrize("m", [1, 2])
def test_attainment_passes(square2, m):
    report = run_compare(square2, m)["attainment"]
    assert report["passed"], [a for a in report["assertions"] if not a["pass"]]
    assert report["values"]["lambda0"] > 0


@pytest.mark.parametrize("m", [1, 2])
def test_scheme_comparison_passes(square2, m):
    report = run_compare(square2, m)
    own = report["assertions"]
    assert all(a["pass"] for a in own), [a for a in own if not a["pass"]]


@pytest.mark.parametrize("m", [1, 2])
def test_compare_nests_both_reports(square2, m):
    # the scheme comparison at the top level, the attainment report nested
    report = run_compare(square2, m)
    assert report["passed"] and report["attainment"]["passed"]
    assert report["experiment"] == "scheme-comparison"
    assert report["attainment"]["experiment"] == "attainment"
    assert set(report) - {"attainment"} == set(report["attainment"])
    names = {
        "": [
            "(a) natural solution equals the interpolant",
            "(a') natural solution equals z",
            "(b) scheme gap equals lambda0^2",
            "(c) squared error equals lambda0^2 (1+lambda0^2)",
            "tensor-data oscillation equals lambda0",
            "scheme-gap bound holds with equality",
            "P0 projection of the data equals D^m z",
        ],
        "attainment": [
            "coefficients u_nc = -(1+lambda0^2) v",
            "energy error equals lambda0*sqrt(1+lambda0^2)",
            "interpolation error equals lambda0",
            "ratio equals sqrt(1+lambda0^2)",
            "ratio^2 - 1 - lambda0^2",
            "dense brute-force solve agrees",
        ],
    }
    for key, want in names.items():
        got = report[key] if key else report
        assert [a["name"] for a in got["assertions"]] == want


def test_counterexamples_pass(square2):
    for fn in (run_counterexample_cr, run_counterexample_morley):
        report = fn(square2)
        assert report["passed"], [a for a in report["assertions"] if not a["pass"]]
        assert not report.get("degenerate", False)


@pytest.mark.parametrize(
    "run, saddle_size",
    [
        # P1 with the mean constraint; vector P1 with the three rigid motions
        (run_counterexample_cr, lambda mesh: mesh.n_vertices + 1),
        (run_counterexample_morley, lambda mesh: 2 * mesh.n_vertices + 3),
    ],
    ids=["cr", "morley"],
)
def test_counterexamples_factor_their_saddle_point_matrix_through_linalg(
    run, saddle_size, square2, monkeypatch
):
    import ncfem.linalg

    sizes = []
    factor = ncfem.linalg.factor
    monkeypatch.setattr(ncfem.linalg, "factor", lambda A: sizes.append(A.shape) or factor(A))
    assert run(square2)["passed"]
    n = saddle_size(square2)
    assert sizes.count((n, n)) == 1


def test_counterexample_cr_smallest_mesh():
    # the 2-triangle square: the diagonal CR function is continuous, the
    # builder must skip it and still find a nonconforming direction
    report = run_counterexample_cr(unit_square_mesh(1))
    assert report["passed"], [a for a in report["assertions"] if not a["pass"]]


def test_oscillation_example(square2):
    report = run_oscillation_example(square2)
    assert report["passed"]
    assert report["values"]["G_osc"] >= 0.1
    assert report["values"]["estimator_error_ratio"] == "unbounded (error at floor)"


def test_oscillation_zero_amplitude_limit(square2):
    # with the bubble amplitude scaled to zero the data is piecewise constant
    from ncfem import assembly
    from ncfem.fespace import FeFunction, build_space
    from ncfem.fields import sym_curl_of_pair

    rng = np.random.default_rng(0)
    host = build_space(square2, "COMPANION_CR_full")
    c1 = np.zeros(host.ndofs)
    c2 = np.zeros(host.ndofs)
    c1[host.vertex_dof] = rng.standard_normal(square2.n_vertices)
    c2[host.vertex_dof] = rng.standard_normal(square2.n_vertices)
    G = sym_curl_of_pair(FeFunction(host, c1), FeFunction(host, c2))
    assert assembly.oscillation(G, 0, square2) < 1e-13


def test_reports_are_deterministic_and_serializable(square2):
    a = run_compare(square2, 1, seed=7)
    b = run_compare(square2, 1, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_rate_study_square_m1():
    table = run_rate_study("square-smooth-m1", 3)
    assert [r["level"] for r in table["rows"]] == [0, 1, 2]
    hs = [r["hmax"] for r in table["rows"]]
    assert hs[0] / hs[1] == pytest.approx(2.0, rel=1e-12)
    # rates drift toward the expected laws already on coarse meshes
    assert table["rates"]["energy_pw"]["rates"][-1] == pytest.approx(1.0, abs=0.15)
    assert table["rates"]["l2_post"]["rates"][-1] == pytest.approx(2.0, abs=0.2)
    assert table["expected_rates"]["energy_pw"] == 1.0


def test_rate_study_csv_shape():
    table = run_rate_study("square-smooth-m1", 2)
    csv = rate_csv(table)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("# generated ")
    header = lines[1].split(",")
    assert header[:3] == ["level", "ndof", "hmax"]
    assert len(lines) == 2 + len(table["rows"])


def test_rate_study_estimates_column():
    table = run_rate_study("square-smooth-m1", 2, include_estimates=True)
    assert "bounds" in table["rows"][0]
    assert table["rows"][0]["bounds"]["bound_a"] > 0
    # fourth order: the estimator's solution pre-check must accept the
    # rate-study solves
    table = run_rate_study("square-smooth-m2", 2, include_estimates=True)
    assert table["rows"][1]["bounds"]["bound_b"] > 0


@pytest.mark.parametrize("problem", ["square-smooth-m1", "lshape-f1-m2"])
def test_rate_study_without_estimates_releases_stiffness_before_the_norms(problem, products,
                                                                          monkeypatch):
    # no stiffness matrix, LU factor or companion map outlives its level's
    # solve into the error norms, the fine-grid reference's included
    from ncfem.quadrature import thread_cap

    alive = []

    def checked(fn):
        def wrapper(*args, **kwargs):
            alive.append(live(products))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("error_norms", "errors_vs_fine"):
        monkeypatch.setattr(ncfem.experiments, name, checked(getattr(ncfem.experiments, name)))
    with thread_cap(1):
        run_rate_study(problem, 2, include_estimates=False)
    built = [key for key, *_ in products]
    assert built.count("stiffness") >= 2 and built.count("factor") >= 2 and len(alive) == 2
    assert alive == [{"stiffness": 0, "companion": 0, "factor": 0}] * 2


def test_fine_grid_rate_study_factors_with_no_companion_alive(products):
    # the levels and the fine-grid reference of lshape-f1-m2 read their
    # companion only for the smoothed load, and release it before the factor
    from ncfem.quadrature import thread_cap

    with thread_cap(1):
        run_rate_study("lshape-f1-m2", 2)
    factored = [alive for key, *_, alive in products if key == "factor"]
    assert len(factored) == 3  # two levels and the reference
    assert all("companion" not in {key for key, _ in alive} for alive in factored)


def test_rate_study_samples_the_singular_factor_once_per_norm_pass(monkeypatch):
    # every point once per pass: the load on the P4 companion (degree
    # 12 + 4) and one error pass shared by u_nc and J u_nc (degree 2 * 12,
    # capped at 16); a Cell sampled in parts counts its points once
    from ncfem.mesh import red_refine
    from ncfem.problems import get_problem
    from ncfem.quadrature import triangle_rule

    problem = get_problem("lshape-singular-m1")
    problem_type = type(problem)
    w_parts = problem_type._w_parts
    points = []

    def counted(x, y):
        points.append(x.size)
        return w_parts(x, y)

    monkeypatch.setattr(problem_type, "_w_parts", staticmethod(counted))
    run_rate_study("lshape-singular-m1", 3)
    mesh = problem.base_mesh()
    triangles = 0
    for _ in range(3):
        triangles += mesh.n_triangles
        mesh = red_refine(mesh)
    assert sum(points) == triangles * 2 * triangle_rule(16).n_points


def test_rate_study_guards(monkeypatch):
    with pytest.raises(ValueError):
        run_rate_study("square-smooth-m1", 8)
    with pytest.raises(ValueError):
        run_rate_study("no-such-problem", 2)
    monkeypatch.setattr(ncfem.experiments, "DOF_CAP", 10)
    with pytest.raises(ValueError, match="level 1 needs 40 dofs, above the cap"):
        run_rate_study("square-smooth-m1", 4)


def test_rate_study_caps_the_fine_grid_reference(monkeypatch):
    # lshape-f1-m2 has no exact reference: its levels need 5 and 33 dofs,
    # its fine grid two red refinements below them 705, above this cap
    monkeypatch.setattr(ncfem.experiments, "DOF_CAP", 500)
    with pytest.raises(ValueError, match="fine-grid reference needs 705 dofs, above the cap 500"):
        run_rate_study("lshape-f1-m2", 2)


def test_attainment_works_on_lshape():
    report = run_compare(l_shape_mesh(1), 1)["attainment"]
    assert report["passed"]


@pytest.mark.parametrize("levels", [0, 1])
def test_rate_study_rejects_too_few_levels_before_any_mesh(levels, monkeypatch):
    import ncfem.mesh

    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setitem(ncfem.mesh.BUILTIN_MESHES, "square", no_mesh)
    with pytest.raises(ValueError, match="2 to 7 refinement levels"):
        run_rate_study("square-smooth-m1", levels)
