"""Output check: compare a job's JSON reports with the recorded outputs.

``expected.json`` maps a command label to the values its report must
reproduce, as ``{dotted.path: [value, rtol]}``.  Floats match to ``rtol``
relative (1e-9 for errors and rates, 1e-8 for anything that depends on the
lambda0 eigensolve); ints, strings and pass flags match exactly.  Estimator
reports must also keep each measured error at or below its guaranteed bound.

Regenerate the file (only when the program's outputs change on purpose):

    python3 bench/checks.py --record
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

RTOL = 1e-9
RTOL_LAMBDA0 = 1e-8

# modified scheme: bound_a bounds |||u - J u_nc|||, bound_b bounds |||u - u_nc|||_pw
BOUND_PAIRS = [("energy_conf", "bound_a"), ("energy_pw", "bound_b")]


def _get(report, path):
    node = report
    for key in path.split("."):
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node


def _select(report):
    """The recorded subset of a report: {path: [value, rtol]}."""
    out = {}

    def put(path, rtol):
        out[path] = [_get(report, path), rtol]

    kind = report.get("report") or report.get("experiment")
    if kind == "rate-table":
        for i, row in enumerate(report["rows"]):
            put(f"rows.{i}.ndof", 0)
            for k in sorted(row["errors"]):
                put(f"rows.{i}.errors.{k}", RTOL)
        for n in sorted(report["rates"]):
            put(f"rates.{n}.ls_rate", RTOL)
            for j in range(len(report["rates"][n]["rates"])):
                put(f"rates.{n}.rates.{j}", RTOL)
    elif kind == "estimate":
        for k in sorted(report["bounds"]):
            put(f"bounds.{k}", RTOL_LAMBDA0)
        for k in ("lambda0", "lambda_j"):
            put(f"constants.{k}", RTOL_LAMBDA0)
        for k in sorted(report["terms"]):
            put(f"terms.{k}", RTOL_LAMBDA0 if k == "apx_F" else RTOL)
        for k in sorted(report["measured_errors"] or {}):
            put(f"measured_errors.{k}", RTOL)
    else:
        for prefix, node in (("", report), ("attainment.", report.get("attainment"))):
            if node is None:
                continue
            put(f"{prefix}passed", 0)
            for k in ("lambda0", "c_qo"):
                if k in node.get("values", {}):
                    put(f"{prefix}values.{k}", RTOL_LAMBDA0)
            for i in range(len(node.get("assertions", []))):
                put(f"{prefix}assertions.{i}.name", 0)
                put(f"{prefix}assertions.{i}.pass", 0)
    return out


def _matches(got, want, rtol):
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return abs(got - want) <= rtol * abs(want)
    return type(got) is type(want) and got == want


def check_report(report, expected):
    """Mismatch messages for one report; ``expected`` may be None (no record)."""
    problems = []
    for path, (want, rtol) in (expected or {}).items():
        try:
            got = _get(report, path)
        except (KeyError, IndexError, TypeError):
            problems.append(f"{path}: missing")
            continue
        if not _matches(got, want, rtol):
            problems.append(f"{path}: got {got!r}, expected {want!r} (rtol {rtol:g})")
    if report.get("report") == "estimate":
        measured = report.get("measured_errors") or {}
        for err, bound in BOUND_PAIRS:
            if err in measured and not measured[err] <= report["bounds"][bound]:
                problems.append(f"measured {err} {measured[err]!r} exceeds "
                                f"{bound} {report['bounds'][bound]!r}")
    return problems


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


def _record():
    """Run every labelled command once and write expected.json."""
    import sys
    import tempfile

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import ncfem.cli

    from workloads import commands

    recorded = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(here)) as tmp:
        for workload in ("rates-cr-lshape", "rates-morley-square", "certify-small"):
            for label, argv in commands(workload, 0):
                path = os.path.join(tmp, label + ".json")
                rc = ncfem.cli.main(argv + ["--json", path])
                if rc != 0:
                    raise SystemExit(f"{label}: exit code {rc}; nothing recorded")
                with open(path) as fh:
                    recorded[label] = _select(json.load(fh))
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 bench/checks.py --record")
    _record()
