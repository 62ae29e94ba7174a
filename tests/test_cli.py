import json
import re

import numpy as np
import pytest

from ncfem.cli import USAGE_ERROR, main
from ncfem.linalg import EigenError


def test_verify_exit_zero(capsys):
    assert main(["verify", "--m", "1", "--mesh", "square:2", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] right-inverse coefficient identity" in out


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


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": "square:2", "m": 1, "samples": 4}))
    assert main(["--config", str(cfg), "verify"]) == 0


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": "square:2", "frobs": 1}))
    with pytest.raises(SystemExit, match="unknown config keys"):
        main(["--config", str(cfg), "verify", "--m", "1"])


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": "square:1", "m": 1, "samples": 3}))
    out = tmp_path / "lam.json"
    assert main(["--config", str(cfg), "lambda0", "--mesh", "square:2",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mesh"]["id"] == "square:2"


def test_bad_mesh_spec():
    with pytest.raises(SystemExit):
        main(["lambda0", "--m", "1", "--mesh", "hexagon:2"])
    with pytest.raises(SystemExit):
        main(["lambda0", "--m", "1", "--mesh", "square:x"])


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


def test_solve_requires_exactly_one_source(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--m", "1", "--mesh", "square:2"])


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


def test_config_value_outside_choices_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "both"}))
    with pytest.raises(SystemExit, match="config entry scheme='both'"):
        main(["--config", str(cfg), "estimate", "--problem", "square-smooth-m1"])


def test_config_supplies_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify", "mesh": "square:2", "m": 1,
                               "samples": 3}))
    assert main(["--config", str(cfg)]) == 0


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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("ncfem: ") and err.count("\n") == 1


def test_failed_eigensolve_exits_one_without_traceback(monkeypatch, capsys):
    import ncfem.linalg

    def fail(*args, **kwargs):
        raise EigenError("generalized eigeniteration did not converge", 3.7e-3)

    monkeypatch.setattr(ncfem.linalg, "max_generalized_eig", fail)
    assert main(["lambda0", "--m", "1", "--mesh", "square:1"]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err == "ncfem: generalized eigeniteration did not converge (residual 3.700e-03)\n"


def test_compare_solves_one_eigenproblem(tmp_path, monkeypatch):
    import ncfem.experiments
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
    monkeypatch.setattr(ncfem.experiments, "build_companion", companion)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--m", "2", "--mesh", "square:2", "--json", str(out)]) == 0
    assert calls == {"eig": 1, "companion": 1}
    report = json.loads(out.read_text())
    assert report["passed"] and report["attainment"]["passed"]


@pytest.mark.parametrize("command", ["lambda0", "compare"])
def test_missing_m_is_a_usage_error(command, capsys):
    assert main([command, "--mesh", "square:2"]) == USAGE_ERROR
    assert capsys.readouterr().err == "ncfem: the order m must be 1 or 2, not None\n"
