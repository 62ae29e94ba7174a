import json

import numpy as np
import pytest

from ncfem.experiments import (
    run_attainment,
    run_compare,
    run_counterexample_cr,
    run_counterexample_morley,
    run_oscillation_example,
    run_rate_study,
    run_scheme_comparison,
)
from ncfem.mesh import l_shape_mesh, unit_square_mesh


@pytest.mark.parametrize("m", [1, 2])
def test_attainment_passes(square2, m):
    report = run_attainment(square2, m)
    assert report["passed"], [a for a in report["assertions"] if not a["pass"]]
    assert report["values"]["lambda0"] > 0


@pytest.mark.parametrize("m", [1, 2])
def test_scheme_comparison_passes(square2, m):
    report = run_scheme_comparison(square2, m)
    assert report["passed"], [a for a in report["assertions"] if not a["pass"]]


@pytest.mark.parametrize("m", [1, 2])
def test_compare_nests_both_reports(square2, m):
    # one discretization gives the same assertions and values, up to roundoff,
    # as the two stand-alone runs
    report = run_compare(square2, m)
    parts = {"": run_scheme_comparison(square2, m), "attainment": run_attainment(square2, m)}
    assert report["passed"] and report["attainment"]["passed"]
    for key, alone in parts.items():
        got = report[key] if key else report
        assert set(got) - {"attainment"} == set(alone)
        assert [a["name"] for a in got["assertions"]] == [a["name"] for a in alone["assertions"]]
        for name, value in alone["values"].items():
            assert got["values"][name] == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_counterexamples_pass(square2):
    for fn in (run_counterexample_cr, run_counterexample_morley):
        report = fn(square2)
        assert report["passed"], [a for a in report["assertions"] if not a["pass"]]
        assert not report.get("degenerate", False)


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
    assert assembly.distance_to_p0(G, square2) < 1e-13


def test_reports_are_deterministic_and_serializable(square2):
    a = run_scheme_comparison(square2, 1, seed=7)
    b = run_scheme_comparison(square2, 1, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_rate_study_square_m1():
    table = run_rate_study("square-smooth-m1", 3)
    assert [r["level"] for r in table.rows] == [0, 1, 2]
    hs = [r["hmax"] for r in table.rows]
    assert hs[0] / hs[1] == pytest.approx(2.0, rel=1e-12)
    # rates drift toward the expected laws already on coarse meshes
    assert table.rates["energy_pw"]["rates"][-1] == pytest.approx(1.0, abs=0.15)
    assert table.rates["l2_post"]["rates"][-1] == pytest.approx(2.0, abs=0.2)
    assert table.expected["energy_pw"] == 1.0


def test_rate_study_csv_shape():
    table = run_rate_study("square-smooth-m1", 2)
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("# generated ")
    header = lines[1].split(",")
    assert header[:3] == ["level", "ndof", "hmax"]
    assert len(lines) == 2 + len(table.rows)


def test_rate_study_estimates_column():
    table = run_rate_study("square-smooth-m1", 2, include_estimates=True)
    assert "bounds" in table.rows[0]
    assert table.rows[0]["bounds"]["bound_a"] > 0
    # fourth order: the estimator's solution pre-check must accept the
    # rate-study solves
    table = run_rate_study("square-smooth-m2", 2, include_estimates=True)
    assert table.rows[1]["bounds"]["bound_b"] > 0


def test_rate_study_guards():
    with pytest.raises(ValueError):
        run_rate_study("square-smooth-m1", 8)
    with pytest.raises(ValueError):
        run_rate_study("no-such-problem", 2)
    with pytest.raises(ValueError):
        run_rate_study("square-smooth-m1", 4, dof_cap=10)


def test_attainment_works_on_lshape():
    report = run_attainment(l_shape_mesh(1), 1)
    assert report["passed"]
