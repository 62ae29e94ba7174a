import json
import os
from pathlib import Path

import pytest
from conftest import SPOILED_MESH_FILES, SRC_DIR, run_python, spoiled_square_file

from ncfem.cli import USAGE_ERROR, main
from ncfem.linalg import EigenError


def test_verify_exit_zero(capsys):
    assert main(["verify", "--m", "1", "--mesh", "square:2", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] right-inverse coefficient identity" in out


def test_verify_moment_orthogonality_is_scale_free(tmp_path):
    from ncfem.mesh import Triangulation, save_mesh, unit_square_mesh

    square = unit_square_mesh(2)
    path = tmp_path / "square_1e6.mesh"
    save_mesh(Triangulation(square.vertices * 1e6, square.triangles), path)
    report = _json_report(["verify", "--m", "1", "--mesh", str(path)], tmp_path)
    orth = next(a for a in report["assertions"]
                if a["name"] == "piecewise polynomial moment orthogonality")
    assert orth["pass"] and report["passed"]


def test_cr_verify_is_scale_equivariant(tmp_path):
    # every assertion value and lambda0 of `verify --m 1` come out bitwise
    # equal on the square scaled by 2^-20 and 2^20
    from ncfem.mesh import Triangulation, save_mesh, unit_square_mesh

    square = unit_square_mesh(2)
    parts = []
    for k in (0, -20, 20):
        path = tmp_path / f"square_2^{k}.mesh"
        save_mesh(Triangulation(square.vertices * 2.0**k, square.triangles), path)
        report = _json_report(["verify", "--m", "1", "--mesh", str(path)], tmp_path)
        parts.append((report["assertions"], report["values"]["lambda0"]))
    assert parts[0][0] and all(a["pass"] for a in parts[0][0])
    assert parts[1] == parts[0] and parts[2] == parts[0]


def test_lambda0_writes_json(tmp_path, capsys):
    out = tmp_path / "lam.json"
    code = main(["lambda0", "--m", "2", "--mesh", "square:2", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "ncfem-report-v1"
    assert report["lambda0"] > 0
    assert report["eigen_residual"] <= 1e-9


def test_counterexample_cr(tmp_path):
    out = tmp_path / "ce.json"
    code = main(["counterexample", "cr", "--mesh", "square:2", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    names = {a["name"]: a for a in report["assertions"]}
    unit = names["natural solution has unit energy"]
    assert unit["pass"] and abs(unit["value"] - 1.0) <= 1e-8


def test_compare_subcommand(tmp_path):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--m", "1", "--mesh", "square:1", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["attainment"]["passed"]


def test_rates_csv_deterministic(tmp_path):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = ["rates", "--problem", "square-smooth-m1", "--levels", "2",
            "--seed", "3"]
    assert main(args + ["--csv", str(csv1)]) == 0
    assert main(args + ["--csv", str(csv2)]) == 0
    strip = lambda text: "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("#")
    )
    assert strip(csv1.read_text()) == strip(csv2.read_text())
    assert csv1.read_text().splitlines()[1].startswith("level,ndof,hmax,")


_CHOICES = "'verify', 'solve', 'rates', 'lambda0', 'counterexample', 'compare', 'estimate'"


def test_unknown_subcommand_usage_error(capsys):
    assert _usage_failure(["frobnicate"], capsys) == (
        f"ncfem: argument command: invalid choice: 'frobnicate' (choose from {_CHOICES})\n")


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": "square:2", "m": 1, "samples": 4}))
    assert main(["--config", str(cfg), "verify"]) == 0


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": "square:2", "frobs": 1}))
    assert "unknown config keys" in _usage_failure(["--config", str(cfg), "verify", "--m", "1"],
                                                   capsys)


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": "square:1", "m": 1}))
    out = tmp_path / "lam.json"
    assert main(["--config", str(cfg), "lambda0", "--mesh", "square:2",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mesh"]["id"] == "square:2"


def test_bad_mesh_spec(capsys):
    assert (_usage_failure(["lambda0", "--m", "1", "--mesh", "hexagon:2"], capsys)
            == "ncfem: unknown builtin mesh 'hexagon'\n")
    assert (_usage_failure(["lambda0", "--m", "1", "--mesh", "square:x"], capsys)
            == "ncfem: bad mesh size in 'square:x'\n")


def test_solve_builtin_problem(tmp_path):
    out = tmp_path / "solve.json"
    sol = tmp_path / "u.fun"
    code = main([
        "solve", "--problem", "square-smooth-m1", "--scheme", "modified",
        "--json", str(out), "--solution", str(sol),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert "modified" in report["schemes"]
    assert report["schemes"]["modified"]["errors"]["energy_pw"] > 0
    assert sol.exists()


def test_solve_inline_data(tmp_path):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"g": [[1.0, 0, 0], [2.0, 1, 0]]}))
    out = tmp_path / "solve.json"
    code = main([
        "solve", "--m", "1", "--mesh", "square:2", "--data", str(data),
        "--scheme", "both", "--json", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["schemes"]) == {"original", "modified"}


def test_solve_requires_exactly_one_source(capsys):
    assert (_usage_failure(["solve", "--m", "1", "--mesh", "square:2"], capsys)
            == "ncfem: exactly one of --problem / --data is required\n")


def test_estimate_subcommand(tmp_path):
    out = tmp_path / "est.json"
    code = main([
        "estimate", "--problem", "square-smooth-m1", "--level", "1",
        "--scheme", "modified", "--json", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bounds"]["bound_a"] >= report["measured_errors"]["energy_conf"] / (1 + 1e-6)


def test_mesh_file_roundtrip_via_cli(tmp_path):
    from ncfem.mesh import save_mesh, unit_square_mesh

    mesh_file = tmp_path / "m.txt"
    save_mesh(unit_square_mesh(2), mesh_file)
    out = tmp_path / "lam.json"
    assert main(["lambda0", "--m", "1", "--mesh", str(mesh_file),
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mesh"]["ndofs"] == 8


def test_mesh_file_whose_path_contains_a_colon(tmp_path):
    # an existing file is read as a mesh file, not as name:N
    from ncfem.mesh import save_mesh, unit_square_mesh

    mesh_file = tmp_path / "run:2.msh"
    save_mesh(unit_square_mesh(2), mesh_file)
    lam = []
    for spec in (str(mesh_file), "square:2"):
        out = tmp_path / "lam.json"
        assert main(["lambda0", "--m", "1", "--mesh", spec, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mesh"]["id"] == spec
        lam.append(report["lambda0"])
    assert lam[0] == lam[1]


def test_config_overrides_builtin_defaults(tmp_path):
    # scheme and h_convention have non-None built-in defaults; the config
    # must still replace them when no flag is given
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "original", "h_convention": "sqrt_area",
                               "level": 1}))
    out = tmp_path / "est.json"
    assert main(["--config", str(cfg), "estimate", "--problem", "square-smooth-m1",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scheme"] == "original"
    assert report["h_convention"] == "sqrt_area"
    assert report["level"] == 1
    # an explicit flag still wins over the file
    assert main(["--config", str(cfg), "estimate", "--problem", "square-smooth-m1",
                 "--scheme", "modified", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scheme"] == "modified"
    assert report["h_convention"] == "sqrt_area"


def test_config_supplies_required_flags(tmp_path):
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({"problem": "square-smooth-m1", "levels": 2}))
    out = tmp_path / "rates_out.json"
    assert main(["--config", str(cfg), "rates", "--json", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 2
    # a flag still wins over the file
    assert main(["--config", str(cfg), "rates", "--levels", "3", "--json", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 3
    cfg = tmp_path / "estimate.json"
    cfg.write_text(json.dumps({"problem": "square-smooth-m1", "level": 1}))
    out = tmp_path / "est_out.json"
    assert main(["--config", str(cfg), "estimate", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["problem"], report["level"]) == ("square-smooth-m1", 1)


@pytest.mark.parametrize(
    "content, argv",
    [
        ({"G": {"poly2": [[1, 0, 0]]}},
         ["solve", "--m", "1", "--mesh", "square:2", "--data", "FILE"]),
        ({"g": 5}, ["solve", "--m", "1", "--mesh", "square:2", "--data", "FILE"]),
        ({"point_forces": [{"beta": 1.0}]},
         ["solve", "--m", "2", "--mesh", "square:2", "--data", "FILE"]),
        (5, ["--config", "FILE", "lambda0", "--m", "1"]),
        ({"command": 5}, ["--config", "FILE"]),
        # read as the mesh file "4", which does not exist
        ({"mesh": 4}, ["--config", "FILE", "verify", "--m", "1"]),
    ],
    ids=["vector-field-without-poly1", "scalar-field-not-a-list",
         "point-force-without-location", "config-not-an-object", "config-command-not-a-name",
         "config-mesh-not-a-string"],
)
@pytest.mark.filterwarnings("error")
def test_malformed_input_file_exits_one_with_one_line(content, argv, tmp_path, monkeypatch,
                                                     capfd):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    _usage_failure([str(path) if a == "FILE" else a for a in argv], capfd)


@pytest.mark.parametrize(
    "force",
    [
        {"beta": 1.0, "vertex": -1},
        {"beta": 1.0, "vertex": 99999},
        {"beta": 1.0, "vertex": 1.5},
        {"beta": 1.0, "edge_point": [float("nan"), 0.5]},
        {"beta": 1.0, "edge_point": [0.5]},
        {"beta": float("nan"), "vertex": 4},
        {"beta": 1.0, "edge_point": [0.5, 0.0], "mu": float("nan")},
    ],
    ids=["vertex-negative", "vertex-too-large", "vertex-not-integer", "edge-point-nan",
         "edge-point-one-coordinate", "beta-nan", "mu-nan"],
)
@pytest.mark.filterwarnings("error")
def test_bad_point_force_exits_one_with_one_line_naming_the_file(force, tmp_path, capfd):
    path = tmp_path / "forces.json"
    path.write_text(json.dumps({"point_forces": [force]}))  # json writes NaN as NaN
    message = _usage_failure(["solve", "--m", "2", "--mesh", "square:2", "--data", str(path)],
                             capfd)
    assert str(path) in message


def test_valid_vertex_force_still_loads(tmp_path):
    from ncfem.assembly import PointForce
    from ncfem.cli import _load_inline_data
    from ncfem.mesh import unit_square_mesh

    path = tmp_path / "forces.json"
    path.write_text(json.dumps({"point_forces": [{"beta": 1.0, "vertex": 4},
                                                 {"beta": 2, "edge_point": [0.25, 0.0]}]}))
    mesh = unit_square_mesh(2)
    at_vertex, on_edge = _load_inline_data(str(path), 2, mesh).point_forces
    assert at_vertex == PointForce(beta=1.0, vertex=4)
    assert (on_edge.beta, on_edge.point, on_edge.mu) == (2, (0.25, 0.0), 0.5)
    assert sorted(mesh.vertices[mesh.edges[on_edge.edge]].tolist()) == [[0, 0], [0.5, 0]]
    assert main(["solve", "--m", "2", "--mesh", "square:2", "--data", str(path),
                 "--json", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "scale, offset, found",
    [(2.0**-20, 1.5e-4, False), (1.0, 1e-5, False),
     (2.0**-20, 1e-11, True), (1.0, 1e-11, True), (2.0**20, 1e-11, True)],
    ids=["tiny-off", "unit-off", "tiny-on", "unit-on", "huge-on"],
)
def test_edge_point_tolerance_is_relative_to_the_edge(scale, offset, found):
    """A point `offset` edge lengths off edge 1 lies on it when within 1e-10."""
    import numpy as np

    from ncfem.cli import _find_edge
    from ncfem.mesh import Triangulation, unit_square_mesh

    unit = unit_square_mesh(2)
    mesh = Triangulation(scale * unit.vertices, unit.triangles)  # exact for 2^k
    a, b = mesh.vertices[mesh.edges[1]]
    point = mesh.edge_midpoint[1] + offset * np.hypot(*(b - a)) * mesh.edge_normal[1]
    assert _find_edge(mesh, point) == (1 if found else None)


@pytest.mark.parametrize(
    "content",
    [
        {"g": [[float("nan"), 0, 0]]},
        {"G": {"poly1": [[1.0, 0, 0]], "poly2": [["a", 0, 0]]}},
        {"g": [[1.0, 2.5, 0]]},
        {"g": [[1.0, -1, 0]]},
        {"g": [[True, 1, 0]]},
        {"g": [[1.0, 40, 0]]},
        {"g": [[1.0, 0]]},
    ],
    ids=["coefficient-nan", "coefficient-string", "exponent-not-integer", "exponent-negative",
         "coefficient-bool", "degree-too-high", "two-entries"],
)
@pytest.mark.filterwarnings("error")
def test_bad_polynomial_term_exits_one_with_one_line_naming_the_file(content, tmp_path, capfd):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(content))  # json writes NaN as NaN
    message = _usage_failure(["solve", "--m", "1", "--mesh", "square:2", "--data", str(path)],
                             capfd)
    assert message.startswith("ncfem: bad polynomial term in data file ")
    assert str(path) in message


def test_valid_polynomial_term_still_loads(tmp_path):
    from ncfem.cli import _load_inline_data
    from ncfem.mesh import unit_square_mesh

    path = tmp_path / "g.json"
    path.write_text(json.dumps({"g": [[1.0, 2, 0]]}))
    g = _load_inline_data(str(path), 1, unit_square_mesh(2)).g
    assert g.degree == 2
    assert main(["solve", "--m", "1", "--mesh", "square:2", "--data", str(path),
                 "--json", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "m, scheme, integrand, kind",
    [("2", "modified", 24, "COMPANION_MORLEY"), ("1", "original", 17, "CR1_0")],
    ids=["companion-morley", "cr"],
)
@pytest.mark.filterwarnings("error")
def test_polynomial_data_above_the_exact_degree_exits_one(m, scheme, integrand, kind, tmp_path,
                                                         capfd):
    # each term is within the file's degree bound, but its load integrand is not
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"g": [[1.0, 16, 0]]}))
    message = _usage_failure(["solve", "--m", m, "--mesh", "square:4", "--scheme", scheme,
                              "--data", str(path)], capfd)
    assert message == (f"ncfem: a degree-16 field against the {kind} basis is a"
                       f" degree-{integrand} integrand; the quadrature integrates degree 16"
                       " at most\n")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_must_be_a_positive_integer(value, capsys):
    assert (_usage_failure(["--threads", value, "verify", "--m", "1", "--mesh", "square:2"],
                           capsys)
            == f"ncfem: argument --threads: must be a positive integer, not {value!r}\n")


def test_thread_cap_comes_from_the_flag_alone(tmp_path, monkeypatch):
    # an environment variable does not set the cap, so the report does not record one
    monkeypatch.setenv("NCFEM_THREADS", "2")
    out = tmp_path / "v.json"
    assert main(["verify", "--m", "1", "--mesh", "square:2", "--samples", "5",
                 "--json", str(out)]) == 0
    assert "threads" not in json.loads(out.read_text())["config"]


def test_config_value_outside_choices_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "both"}))
    message = _usage_failure(["--config", str(cfg), "estimate", "--problem", "square-smooth-m1"],
                             capsys)
    assert "config entry scheme='both'" in message


@pytest.mark.parametrize(
    "entry, key, flags",
    [({"threads": -3}, "threads", []), ({"threads": 2.5}, "threads", []),
     ({"seed": 1.5}, "seed", []), ({"seed": 1.5}, "seed", ["--seed", "4"])],
    ids=["threads-negative", "threads-fractional", "seed-fractional",
         "seed-fractional-under-a-flag"],
)
def test_config_value_of_the_wrong_type_rejected(entry, key, flags, tmp_path, capsys):
    # an entry is checked even when a flag on the command line overrides it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    message = _usage_failure(["--config", str(cfg), "verify", "--m", "1", "--mesh", "square:2",
                              *flags], capsys)
    assert message.startswith(f"ncfem: config entry {key}=")


@pytest.mark.parametrize("value", ["false", [1], 1, None], ids=["string", "list", "int", "null"])
def test_config_entry_of_a_no_value_flag_must_be_a_boolean(value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "rates", "problem": "square-smooth-m1", "levels": 2,
                               "estimates": value}))
    message = _usage_failure(["--config", str(cfg)], capsys)
    assert message == f"ncfem: config entry estimates={value!r} is not true or false\n"


@pytest.mark.parametrize("value", [True, False])
def test_boolean_config_entry_acts_as_its_flag(value, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimates": value}))
    argv = ["rates", "--problem", "square-smooth-m1", "--levels", "2"]
    got = _json_report(["--config", str(cfg), *argv], tmp_path)
    want = _json_report(argv + ["--estimates"] * value, tmp_path)
    assert got == want
    assert all(("bounds" in row) == value for row in got["rows"])


def test_config_value_of_the_right_type_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4}))
    out = tmp_path / "v.json"
    assert main(["--config", str(cfg), "verify", "--m", "1", "--mesh", "square:2",
                 "--samples", "2", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 4


@pytest.mark.parametrize("value", ["0", "-1"])
def test_samples_must_be_a_positive_integer(value, capsys):
    message = _usage_failure(["verify", "--m", "1", "--mesh", "square:2", "--samples", value],
                             capsys)
    assert message.startswith("ncfem: argument --samples")


def test_config_supplies_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify", "mesh": "square:2", "m": 1,
                               "samples": 3}))
    assert main(["--config", str(cfg)]) == 0


def test_parser_is_built_once_and_config_defaults_stay_on_their_own_parser(
    tmp_path, monkeypatch
):
    import ncfem.cli as cli

    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    cli._shared_parser.cache_clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h_convention": "sqrt_area"}))
    plain = ["estimate", "--problem", "square-smooth-m1"]
    assert cli._parse_args(plain).h_convention == "diameter"
    assert cli._parse_args(["--config", str(cfg)] + plain).h_convention == "sqrt_area"
    assert cli._parse_args(plain).h_convention == "diameter"
    # one shared parser, and a fresh one for the config
    assert len(builds) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["lambda0", "--m", "3", "--mesh", "square:4"],
        ["--config", "missing-config.json", "lambda0"],
    ],
    ids=["unknown-subcommand", "value-outside-choices", "unreadable-config"],
)
def test_argparse_usage_errors_exit_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _usage_failure(argv, capsys)


def test_failed_eigensolve_exits_one_without_traceback(monkeypatch, capsys):
    import ncfem.linalg

    def fail(*args, **kwargs):
        raise EigenError("generalized eigeniteration did not converge", 3.7e-3)

    monkeypatch.setattr(ncfem.linalg, "max_generalized_eig", fail)
    assert main(["lambda0", "--m", "1", "--mesh", "square:1"]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err == "ncfem: generalized eigeniteration did not converge (residual 3.700e-03)\n"


def test_failed_saddle_point_solve_exits_one(monkeypatch, capsys):
    # the counterexample's constrained solves are judged by the backward-error
    # rule too; no solve meets a zero tolerance
    import ncfem.linalg

    monkeypatch.setattr(ncfem.linalg, "SOLVE_TOL", 0.0)
    message = _usage_failure(["counterexample", "cr", "--mesh", "square:2"], capsys)
    assert message.startswith("ncfem: saddle-point solve failed: residual ")


def test_compare_solves_one_eigenproblem(tmp_path, monkeypatch):
    import ncfem.linalg
    import ncfem.operators

    calls = {"eig": 0, "companion": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ncfem.linalg, "max_generalized_eig",
                        counted("eig", ncfem.linalg.max_generalized_eig))
    companion = counted("companion", ncfem.operators.build_companion)
    monkeypatch.setattr(ncfem.operators, "build_companion", companion)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--m", "2", "--mesh", "square:2", "--json", str(out)]) == 0
    assert calls == {"eig": 1, "companion": 1}
    report = json.loads(out.read_text())
    assert report["passed"] and report["attainment"]["passed"]


@pytest.mark.parametrize(
    "scheme, want",
    [("original", ["MORLEY_0"]), ("modified", ["COMPANION_MORLEY", "MORLEY_0"])],
)
def test_estimate_assembles_the_nonconforming_stiffness_once(scheme, want, tmp_path,
                                                            monkeypatch):
    import ncfem.assembly

    kinds = []
    assemble = ncfem.assembly.assemble_stiffness

    def counted(space):
        kinds.append(space.kind)
        return assemble(space)

    monkeypatch.setattr(ncfem.assembly, "assemble_stiffness", counted)
    out = tmp_path / "est.json"
    argv = ["estimate", "--problem", "square-smooth-m2", "--level", "1", "--scheme", scheme]
    assert main(argv + ["--json", str(out)]) == 0
    assert sorted(kinds) == want


def _count_calls(monkeypatch, owner, names, calls):
    for name in names:
        fn = getattr(owner, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("scheme", ["original", "modified"])
@pytest.mark.parametrize("problem", ["square-smooth-m1", "square-smooth-m2"])
def test_estimate_assembles_the_load_and_factors_the_stiffness_once(problem, scheme,
                                                                    tmp_path, monkeypatch):
    # the estimator's residual check reuses the solved load, and the solve and
    # the lambda0 pencil share one LU factor
    import scipy.sparse.linalg

    import ncfem.assembly

    calls = []
    _count_calls(monkeypatch, ncfem.assembly,
                 ["assemble_rhs_original", "assemble_rhs_modified"], calls)
    _count_calls(monkeypatch, scipy.sparse.linalg, ["splu"], calls)
    argv = ["estimate", "--problem", problem, "--level", "1", "--scheme", scheme]
    assert main(argv + ["--json", str(tmp_path / "est.json")]) == 0
    assert sorted(calls) == [f"assemble_rhs_{scheme}", "splu"]


@pytest.mark.parametrize("m", ["1", "2"])
def test_compare_factors_the_stiffness_once(m, tmp_path, monkeypatch):
    import scipy.sparse.linalg

    calls = []
    _count_calls(monkeypatch, scipy.sparse.linalg, ["splu"], calls)
    argv = ["compare", "--m", m, "--mesh", "square:2", "--json", str(tmp_path / "cmp.json")]
    assert main(argv) == 0
    assert calls == ["splu"]


def test_rate_study_with_estimates_assembles_each_stiffness_once_per_level(monkeypatch):
    import ncfem.assembly

    kinds = []
    assemble = ncfem.assembly.assemble_stiffness

    def counted(space):
        kinds.append(space.kind)
        return assemble(space)

    monkeypatch.setattr(ncfem.assembly, "assemble_stiffness", counted)
    argv = ["rates", "--problem", "square-smooth-m2", "--levels", "2", "--estimates"]
    assert main(argv) == 0
    assert sorted(kinds) == ["COMPANION_MORLEY"] * 2 + ["MORLEY_0"] * 2


def test_solve_both_samples_the_singular_factor_once_per_norm_pass(tmp_path, monkeypatch):
    # every point once per pass: the load of each scheme (degree 12 + 1 on
    # CR, 12 + 4 on its P4 companion) and one error pass shared by both
    # schemes (degree 2 * 12, capped at 16); a Cell sampled in parts counts
    # its points once
    from ncfem.mesh import l_shape_mesh
    from ncfem.problems import get_problem
    from ncfem.quadrature import triangle_rule

    problem_type = type(get_problem("lshape-singular-m1"))
    w_parts = problem_type._w_parts
    points = []

    def counted(x, y):
        points.append(x.size)
        return w_parts(x, y)

    monkeypatch.setattr(problem_type, "_w_parts", staticmethod(counted))
    argv = ["solve", "--problem", "lshape-singular-m1", "--scheme", "both",
            "--mesh", "lshape:32", "--json", str(tmp_path / "solve.json")]
    assert main(argv) == 0
    per_triangle = sum(triangle_rule(d).n_points for d in (13, 16, 16))
    assert sum(points) == l_shape_mesh(32).n_triangles * per_triangle


@pytest.mark.parametrize(
    "problem, levels",
    [("lshape-singular-m1", 4), ("square-smooth-m2", 3)],
)
def test_rates_csv_matches_golden_table(problem, levels, tmp_path):
    # the tables under tests/data were written by an earlier version of the
    # code; every digit must survive changes that keep the numerics
    golden = Path(__file__).parent / "data" / f"rates_{problem}_l{levels}.csv"
    out = tmp_path / "rates.csv"
    argv = ["rates", "--problem", problem, "--levels", str(levels), "--csv", str(out)]
    assert main(argv) == 0
    body = lambda path: [
        ln for ln in path.read_bytes().splitlines(True) if not ln.startswith(b"# generated")
    ]
    assert body(out) == body(golden)


@pytest.mark.parametrize("command", ["lambda0", "compare"])
def test_missing_m_is_a_usage_error(command, capsys):
    assert main([command, "--mesh", "square:2"]) == USAGE_ERROR
    assert capsys.readouterr().err == "ncfem: the order m must be 1 or 2, not None\n"


@pytest.mark.parametrize("argv", [["verify", "--m", "1"], ["compare", "--m", "1"],
                                  ["lambda0", "--m", "1"], ["counterexample", "cr"]])
def test_help_says_mesh_is_required_unless_a_config_gives_it(argv, capsys):
    # argparse prints [--mesh MESH]: the flag is optional so that a config can give it
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--mesh MESH square:N, lshape:N, or a mesh file path; "
            "required unless a --config file gives it") in text
    assert main(argv) == USAGE_ERROR
    assert capsys.readouterr().err == "ncfem: --mesh is required\n"


def test_config_command_takes_flags_from_the_command_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify", "mesh": "square:2", "m": 2,
                               "samples": 2}))
    out = tmp_path / "v.json"
    assert main(["--config", str(cfg), "--seed", "4", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 4 and report["config"]["command"] == "verify"


def test_config_rejects_the_removed_tol_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0.5}))
    message = _usage_failure(["--config", str(cfg), "verify", "--m", "1", "--mesh", "square:2"],
                             capsys)
    assert "unknown config keys: ['tol']" in message


def _levels(value):
    return f"--levels must be from 2 to 7, not {value}"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["rates", "--problem", "square-smooth-m1", "--levels", "1"], _levels(1)),
        (["rates", "--problem", "square-smooth-m1", "--levels", "0"], _levels(0)),
        (["rates", "--problem", "square-smooth-m1", "--levels", "8"], _levels(8)),
        (["estimate", "--problem", "square-smooth-m1", "--level", "-1"],
         "argument --level: must be a non-negative integer, not '-1'"),
    ],
    ids=["levels-1", "levels-0", "levels-8", "level-minus-1"],
)
def test_out_of_range_levels_exit_one_before_any_mesh(argv, want, monkeypatch, capsys):
    _no_meshes(monkeypatch)
    assert _usage_failure(argv, capsys) == f"ncfem: {want}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--m", "1", "--mesh", "square:2", "--data", "FILE"],
        ["--config", "FILE", "lambda0", "--m", "1", "--mesh", "square:2"],
    ],
    ids=["data", "config"],
)
@pytest.mark.filterwarnings("error")
def test_data_file_that_is_not_json_is_named(argv, tmp_path, capfd):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    assert str(path) in _usage_failure([str(path) if a == "FILE" else a for a in argv], capfd)


def test_subcommand_flag_abbreviation_is_not_read_as_config(tmp_path):
    # --c abbreviates rates' --csv; the top-level --config precedes the subcommand
    out = tmp_path / "r.csv"
    assert main(["rates", "--problem", "square-smooth-m1", "--levels", "2",
                 "--c", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("level,ndof,hmax,")


def _usage_failure(argv, capture):
    """The one ``ncfem:`` line that ``main(argv)`` prints, with nothing on
    stdout, when it returns USAGE_ERROR.  `capture` is ``capsys``, or
    ``capfd`` where output written straight to the file descriptors counts."""
    assert main(argv) == USAGE_ERROR
    out, err = capture.readouterr()
    assert out == "" and err.startswith("ncfem: ") and err.count("\n") == 1
    return err


def test_config_key_of_another_subcommand_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_j": "abc", "levels": 99}))
    out = tmp_path / "v.json"
    message = _usage_failure(["--config", str(cfg), "verify", "--m", "1", "--mesh", "square:2",
                              "--json", str(out)], capsys)
    assert message == "ncfem: unknown config keys: ['lambda_j', 'levels']\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, want",
    [
        (["rates", "--problem", "square-smooth-m1", "--levels", "3"],
         {"command": "rates", "levels": 3, "problem": "square-smooth-m1",
          "scheme": "modified", "h_convention": "diameter"}),
        (["estimate", "--problem", "square-smooth-m1", "--scheme", "original",
          "--h-convention", "sqrt_area"],
         {"command": "estimate", "level": 0, "problem": "square-smooth-m1",
          "scheme": "original", "h_convention": "sqrt_area"}),
    ],
    ids=["rates", "estimate"],
)
def test_rates_and_estimate_reports_record_their_settings(argv, want, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(argv + ["--json", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert {k: config[k] for k in want} == want
    assert f"report written to {out}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "1", "--mesh", "square:2", "--h-convention", "sqrt_area"],
        ["estimate", "--problem", "square-smooth-m1", "--m", "2"],
        ["solve", "--problem", "square-smooth-m1", "--m", "2"],
    ],
    ids=["verify-h-convention", "estimate-m", "solve-problem-and-m"],
)
def test_flag_outside_its_subcommand_exits_one(argv, capsys):
    _usage_failure(argv, capsys)


def test_config_json_of_another_json_type_is_read_as_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": 5}))
    assert main(["--config", str(cfg), "verify", "--m", "1", "--mesh", "square:2",
                 "--samples", "2"]) == 0
    assert json.loads((tmp_path / "5").read_text())["config"]["json"] == "5"


@pytest.mark.parametrize(
    "counts",
    ["-1 0 0", "3 0"],
    ids=["negative-count", "short-counts-line"],
)
def test_bad_mesh_file_is_named_in_one_line(counts, tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_text(f"ncfem-mesh v1\n{counts}\n")
    message = _usage_failure(["lambda0", "--m", "1", "--mesh", str(path)], capsys)
    assert message.startswith(f"ncfem: mesh file {path}: ")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.filterwarnings("error")
def test_non_finite_mesh_file_coordinate_exits_one_with_one_line(bad, tmp_path, capfd):
    path = tmp_path / "bad.mesh"
    path.write_text(f"ncfem-mesh v1\n4 4 2\n0 0\n1 0\n{bad} 1.0\n0 1\n"
                    "0 1 2\n0 2 3\n0 1\n1 2\n2 3\n0 3\n")
    message = _usage_failure(["verify", "--m", "1", "--mesh", str(path)], capfd)
    assert message == (f"ncfem: mesh file {path}: vertex 2 has a non-finite"
                       f" coordinate [{bad}, 1.0]\n")


@pytest.mark.filterwarnings("error")
def test_mesh_file_triangle_repeating_a_vertex_exits_one_with_one_line(tmp_path, capfd):
    path = tmp_path / "bad.mesh"
    path.write_text("ncfem-mesh v1\n3 3 1\n0 0\n1 0\n0 1\n0 1 1\n0 1\n0 2\n1 2\n")
    message = _usage_failure(["lambda0", "--m", "1", "--mesh", str(path)], capfd)
    assert message == f"ncfem: mesh file {path}: triangle 0 repeats vertex 1\n"


# an overflowing file used to reach each command's numerics, so it runs all three
_SPOILED_RUNS = [(case, ["verify", "--m", "1"]) for case in SPOILED_MESH_FILES] + [
    ("huge", ["lambda0", "--m", "2"]),
    ("huge", ["counterexample", "morley"]),
]


@pytest.mark.parametrize("case, argv", _SPOILED_RUNS,
                         ids=[f"{case}-{argv[0]}" for case, argv in _SPOILED_RUNS])
@pytest.mark.filterwarnings("error")
def test_spoiled_mesh_file_exits_one_with_one_line(case, argv, tmp_path, capfd):
    path = tmp_path / "bad.mesh"
    spoiled_square_file(path, case)
    message = _usage_failure([*argv, "--mesh", str(path)], capfd)
    where = "triangle 0 " if case == "huge" else "line 13: " if case == "trailing" else "line 2: "
    assert message.startswith(f"ncfem: mesh file {path}: {where}")


def test_entry_point_exits_one_with_one_line(tmp_path):
    # the one test that needs a fresh interpreter: `python -m ncfem.cli`, its
    # sys.exit, and the interpreter's own stderr, which holds no traceback or
    # warning text, for a usage error and for a mesh whose numbers overflow
    path = tmp_path / "bad.mesh"
    spoiled_square_file(path, "huge")
    runs = [
        (["bogus"], f"argument command: invalid choice: 'bogus' (choose from {_CHOICES})"),
        (["verify", "--m", "1", "--mesh", str(path)],
         f"mesh file {path}: triangle 0 has a non-finite area inf or diameter inf"),
    ]
    for argv, line in runs:
        done = run_python(["-m", "ncfem.cli", *argv], cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (USAGE_ERROR, "", f"ncfem: {line}\n")


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# imported at start-up from the child's PYTHONPATH: records the thread
# variables the moment numpy is first imported, before its BLAS starts
SNAPSHOT_HOOK = """
import json, os, sys

class _Snapshot:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            with open("env_at_numpy_import.json", "w") as fh:
                json.dump({{v: os.environ.get(v) for v in {names!r}}}, fh)
        return None

sys.meta_path.insert(0, _Snapshot())
"""


def test_threads_are_set_before_numpy_is_imported(tmp_path):
    # a fresh interpreter: BLAS reads its thread count once, when numpy loads
    (tmp_path / "sitecustomize.py").write_text(SNAPSHOT_HOOK.format(names=THREAD_VARS))
    env = dict.fromkeys(THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), SRC_DIR])
    done = run_python(["-m", "ncfem.cli", "--threads", "1", "lambda0", "--m", "1",
                       "--mesh", "square:2", "--json", "r.json"], cwd=tmp_path, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    snapshot = json.loads((tmp_path / "env_at_numpy_import.json").read_text())
    assert snapshot == dict.fromkeys(THREAD_VARS, "1")


def test_config_command_other_than_the_subcommand_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "rates"}))
    out = tmp_path / "v.json"
    argv = ["--config", str(cfg), "verify", "--m", "1", "--mesh", "square:2",
            "--samples", "2", "--json", str(out)]
    message = _usage_failure(argv, capsys)
    assert message == "ncfem: config command 'rates' is not the subcommand 'verify'\n"
    assert not out.exists()
    # the same command runs
    cfg.write_text(json.dumps({"command": "verify"}))
    assert main(argv) == 0
    assert json.loads(out.read_text())["config"]["command"] == "verify"


def _json_report(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 0
    return json.loads(out.read_text())


def test_rate_study_returns_the_rates_report(tmp_path):
    from ncfem.experiments import run_rate_study

    report = _json_report(["rates", "--problem", "square-smooth-m1", "--levels", "3"],
                          tmp_path)
    for key in ("config", "passed"):
        del report[key]
    assert json.loads(json.dumps(run_rate_study("square-smooth-m1", 3))) == report


def test_estimator_returns_the_estimate_report(tmp_path):
    from ncfem.estimator import estimate_modified
    from ncfem.mesh import red_refine
    from ncfem.operators import Discretization
    from ncfem.problems import get_problem

    report = _json_report(["estimate", "--problem", "square-smooth-m1", "--level", "1"],
                          tmp_path)
    for key in ("config", "passed", "problem", "level", "seed"):
        del report[key]
    prob = get_problem("square-smooth-m1")
    mesh = red_refine(prob.base_mesh())
    disc = Discretization(mesh, "CR1_0")
    data = prob.data(mesh)
    u = disc.solve(disc.rhs("modified", data))
    est = estimate_modified(disc, data, u, reference=prob.reference())
    assert json.loads(json.dumps(est)) == report


def _no_meshes(monkeypatch):
    import ncfem.mesh

    def no_mesh(n):
        raise AssertionError("a mesh was built")

    for name in ncfem.mesh.BUILTIN_MESHES:
        monkeypatch.setitem(ncfem.mesh.BUILTIN_MESHES, name, no_mesh)


_ESTIMATE = ["estimate", "--problem", "square-smooth-m1", "--level", "1"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_lambda_j_must_be_finite_and_non_negative(value, monkeypatch, capsys):
    # a defect-to-distance constant is at least lambda0 >= 0; nan and inf
    # would be written to the report as invalid JSON
    _no_meshes(monkeypatch)
    message = _usage_failure([*_ESTIMATE, "--lambda-j", value], capsys)
    assert message == (f"ncfem: argument --lambda-j: must be a finite number >= 0,"
                       f" not {value!r}\n")


def test_lambda_j_config_entry_must_be_non_negative(tmp_path, monkeypatch, capsys):
    _no_meshes(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_j": -1}))
    message = _usage_failure(["--config", str(cfg), *_ESTIMATE], capsys)
    assert message == "ncfem: config entry lambda_j=-1: must be a finite number >= 0, not '-1'\n"


def test_lambda_j_below_lambda0_exits_one(capsys):
    message = _usage_failure([*_ESTIMATE, "--lambda-j", "0"], capsys)
    assert message.startswith("ncfem: lambda_j 0.0 is not at least lambda0 2.32")


def test_point_force_problem_needs_an_interior_vertex(capsys):
    # lshape:1 has no interior vertex to carry the force
    message = _usage_failure(["solve", "--problem", "lshape-pointforce-m2",
                              "--mesh", "lshape:1"], capsys)
    assert message == ("ncfem: problem 'lshape-pointforce-m2': its point force needs an"
                       " interior vertex, and the mesh has none\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["1e160", "1e308"])
def test_lambda_j_that_overflows_bound_b_exits_one(value, capsys):
    # finite, so the parser takes it; squaring apx_F then overflows a float
    message = _usage_failure([*_ESTIMATE, "--lambda-j", value], capsys)
    assert message == (f"ncfem: lambda_j {float(value)!r} is too large:"
                       " bound_b overflows a float\n")


def _seed(value):
    return f"argument --seed: must be a non-negative integer, not {value!r}"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["verify", "--m", "1", "--mesh", "square:2", "--seed", "-1"], _seed("-1")),
        (["solve", "--problem", "square-smooth-m1", "--seed", "-1"], _seed("-1")),
        (["rates", "--problem", "square-smooth-m1", "--levels", "2", "--seed", "-3"],
         _seed("-3")),
        (["lambda0", "--m", "1", "--mesh", "square:2", "--seed", "-1"], _seed("-1")),
        (["counterexample", "oscillation", "--mesh", "square:2", "--seed", "-1"],
         _seed("-1")),
        (["compare", "--m", "1", "--mesh", "square:2", "--seed", "-3"], _seed("-3")),
        ([*_ESTIMATE, "--seed", "-1"], _seed("-1")),
        (["verify", "--m", "1", "--mesh", "square:0"], "bad mesh size in 'square:0'"),
        (["lambda0", "--m", "1", "--mesh", "lshape:-2"], "bad mesh size in 'lshape:-2'"),
    ],
    ids=["verify-seed", "solve-seed", "rates-seed", "lambda0-seed", "counterexample-seed",
         "compare-seed", "estimate-seed", "square-0", "lshape-minus-2"],
)
def test_negative_seed_and_empty_mesh_exit_one_naming_the_flag(argv, want, monkeypatch,
                                                               capsys):
    _no_meshes(monkeypatch)
    assert _usage_failure(argv, capsys) == f"ncfem: {want}\n"


def _one_triangle_mesh_file(tmp_path):
    """A mesh file of the one triangle (0,0) (1,0) (0,1): it has no interior
    edge and no interior vertex, so CR1_0 and MORLEY_0 carry no dofs."""
    import numpy as np

    from ncfem.mesh import Triangulation, save_mesh

    path = tmp_path / "one_triangle.mesh"
    save_mesh(Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            np.array([[0, 1, 2]])), path)
    return str(path)


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["lambda0", "--m", "1"], "CR1_0"),
        (["lambda0", "--m", "2"], "MORLEY_0"),
        (["compare", "--m", "1"], "CR1_0"),
        (["compare", "--m", "2"], "MORLEY_0"),
        (["solve", "--m", "1", "--data", "DATA"], "CR1_0"),
        (["solve", "--m", "2", "--data", "DATA"], "MORLEY_0"),
        (["counterexample", "oscillation"], "MORLEY_0"),
        (["verify", "--m", "1"], "CR1_0"),
        (["verify", "--m", "2"], "MORLEY_0"),
    ],
    ids=["lambda0-m1", "lambda0-m2", "compare-m1", "compare-m2", "solve-m1", "solve-m2",
         "oscillation", "verify-m1", "verify-m2"],
)
@pytest.mark.filterwarnings("error")
def test_mesh_without_dofs_exits_one_naming_the_space(argv, kind, tmp_path, capfd):
    data = tmp_path / "g.json"
    data.write_text(json.dumps({"g": [[1.0, 0, 0]]}))
    argv = [str(data) if a == "DATA" else a for a in argv]
    message = _usage_failure([*argv, "--mesh", _one_triangle_mesh_file(tmp_path)], capfd)
    assert message == f"ncfem: {kind} has no degrees of freedom on this mesh\n"


@pytest.mark.parametrize("kind", ["cr", "morley"])
def test_counterexample_on_one_triangle_is_degenerate(kind, tmp_path):
    # every CR function on one triangle is continuous, so there is no seed
    report = _json_report(["counterexample", kind, "--mesh", _one_triangle_mesh_file(tmp_path)],
                          tmp_path)
    assert report["degenerate"] is True and report["passed"]


# constant tensor data: G : D^m v integrates to boundary terms that vanish
# for every CR and Morley test function, so both schemes solve to zero
_CONSTANT_G = {
    1: ({"poly1": [[0.7, 0, 0]], "poly2": [[-0.4, 0, 0]]}, [0.7, -0.4]),
    2: ({"poly11": [[0.7, 0, 0]], "poly12": [[-0.4, 0, 0]], "poly22": [[0.3, 0, 0]]},
        [[0.7, -0.4], [-0.4, 0.3]]),
}


@pytest.mark.parametrize("mesh", ["square:4", "lshape:2"])
@pytest.mark.parametrize("m", [1, 2])
def test_constant_tensor_data_entry_solves_to_zero(m, mesh, tmp_path):
    import numpy as np

    from ncfem.cli import _load_inline_data, _parse_mesh

    entry, want = _CONSTANT_G[m]
    path = tmp_path / "G.json"
    path.write_text(json.dumps({"G": entry}))
    G = _load_inline_data(str(path), m, _parse_mesh(mesh)[0]).G
    assert G.degree == 0
    assert G.fn(np.array([0.3]), np.array([0.2])).tolist() == [want]
    report = _json_report(["solve", "--m", str(m), "--mesh", mesh, "--data", str(path)],
                          tmp_path)
    energies = [report["schemes"][s]["energy_norm"] for s in ("original", "modified")]
    assert max(energies) <= 1e-12


def test_out_directory_takes_the_default_file_names(tmp_path):
    out = tmp_path / "new" / "dir"
    assert main(["verify", "--m", "1", "--mesh", "square:2", "--samples", "2",
                 "--out", str(out)]) == 0
    assert json.loads((out / "verify_m1_square-2_0.json").read_text())["passed"]
    assert main(["rates", "--problem", "square-smooth-m1", "--levels", "2",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "rates_square-smooth-m1_m1_modified_0.csv",
        "rates_square-smooth-m1_modified_0.json",
        "verify_m1_square-2_0.json",
    ]
