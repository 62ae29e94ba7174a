import json
import re

import numpy as np
import pytest

from ncfem.cli import main


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
