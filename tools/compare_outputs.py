"""Check that HEAD writes the same outputs as a parent commit, byte for byte,
and the same with ``--threads 1`` as with its default worker threads.

Run from the repository root, after committing the change:

    python3 tools/compare_outputs.py --parent HEAD~1

Both trees are exported with ``git archive`` (``export`` of
``tools/bench_pairs.py``) into a fresh temporary directory.  Each command of
``COMMANDS`` runs as ``python -m ncfem.cli <argv> --out <dir>`` on each side
of ``SIDES``: in the parent's tree, in HEAD's, and in HEAD's again with
``--threads 1``.  The files of ``DATA`` are written into the same
directory, which ``<data>`` in an argv names.  The runs go one process at a
time, with one BLAS thread, and must exit 0 on every side.
Compared per command: the names of the files written, the JSON reports with
their ``config`` entry removed, the CSV tables below their ``# generated``
line, and stdout and stderr with the output directory and the tree replaced
by ``<out>`` and ``<tree>``.  Every file that differs, and every command that
fails, is named, and the exit code is then 1.  Only the standard library is
used.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from bench_pairs import export

STREAMS = ("exit code", "stdout", "stderr")
# side -> (tree, top-level flags); every side is compared with "head"
SIDES = {"parent": ("parent", []), "head": ("head", []),
         "head --threads 1": ("head", ["--threads", "1"])}
PROBLEMS = ("square-smooth-m1", "square-smooth-m2", "lshape-singular-m1",
            "lshape-f1-m2", "lshape-pointforce-m2")

# (label, argv): the seven benchmark commands, the fine-grid rate studies, a
# Morley rate study with an exact reference (J u_nc on the HCT host), a
# natural-scheme rate study (its companion is built after the solve), the
# interpolation of every exact solution (estimate), the interpolation of FE
# functions (compare and verify for both m), solve with a problem and with a
# data file, and the counterexamples
COMMANDS = [
    ("rates-lshape-singular-m1-6", ["rates", "--problem", "lshape-singular-m1", "--levels", "6"]),
    ("estimate-square-smooth-m1-3", ["estimate", "--problem", "square-smooth-m1", "--level", "3"]),
    ("estimate-square-smooth-m2-3", ["estimate", "--problem", "square-smooth-m2", "--level", "3"]),
    ("estimate-lshape-singular-m1-3",
     ["estimate", "--problem", "lshape-singular-m1", "--level", "3"]),
    ("compare-m1-square16", ["compare", "--m", "1", "--mesh", "square:16"]),
    ("compare-m2-square8", ["compare", "--m", "2", "--mesh", "square:8"]),
    ("verify-m1-square16", ["verify", "--m", "1", "--mesh", "square:16", "--seed", "1"]),
    ("rates-lshape-f1-m2-4", ["rates", "--problem", "lshape-f1-m2", "--levels", "4"]),
    ("rates-lshape-pointforce-m2-4-estimates",
     ["rates", "--problem", "lshape-pointforce-m2", "--levels", "4", "--estimates"]),
    ("rates-square-smooth-m2-4", ["rates", "--problem", "square-smooth-m2", "--levels", "4"]),
    ("rates-lshape-singular-m1-4-original",
     ["rates", "--problem", "lshape-singular-m1", "--levels", "4", "--scheme", "original"]),
    *((f"estimate-{p}-{s}-2", ["estimate", "--problem", p, "--level", "2", "--scheme", s])
      for p in PROBLEMS for s in ("original", "modified")),
    ("compare-m1-lshape4", ["compare", "--m", "1", "--mesh", "lshape:4"]),
    ("compare-m2-lshape4", ["compare", "--m", "2", "--mesh", "lshape:4"]),
    ("verify-m2-square4", ["verify", "--m", "2", "--mesh", "square:4"]),
    ("solve-lshape-singular-m1-both",
     ["solve", "--problem", "lshape-singular-m1", "--scheme", "both", "--mesh", "lshape:8"]),
    ("solve-square-smooth-m2-both",
     ["solve", "--problem", "square-smooth-m2", "--scheme", "both", "--mesh", "square:8"]),
    *((f"counterexample-{kind}-square4", ["counterexample", kind, "--mesh", "square:4"])
      for kind in ("cr", "morley", "oscillation")),
    # inline data: polynomial G and g, an edge-point force split by mu and a vertex force
    ("solve-data-m2-square4-both",
     ["solve", "--m", "2", "--mesh", "square:4", "--scheme", "both",
      "--data", "<data>/m2-square4.json"]),
    ("solve-data-m1-lshape2",
     ["solve", "--m", "1", "--mesh", "lshape:2", "--data", "<data>/m1-lshape2.json"]),
]
# the files "<data>/<name>" of COMMANDS, written once into the temporary directory
DATA = {
    "m2-square4.json": {
        "G": {"poly11": [[1.0, 1, 0]], "poly12": [[0.5, 0, 1], [-0.25, 1, 1]],
              "poly22": [[2.0, 0, 0], [-1.0, 0, 2]]},
        "g": [[1.0, 0, 0], [-3.0, 1, 1], [0.5, 2, 0]],
        "point_forces": [{"beta": 0.7, "edge_point": [0.5, 0.375], "mu": 0.25},
                         {"beta": -0.4, "vertex": 12}],
    },
    "m1-lshape2.json": {
        "G": {"poly1": [[1.0, 0, 1]], "poly2": [[-0.5, 1, 0], [2.0, 1, 1]]},
        "g": [[1.0, 0, 0], [0.25, 0, 2]],
    },
}


def run(tree, label, argv, out_root):
    """One command line in `tree`: {name: comparable text} of its ``STREAMS``
    and of the files it wrote."""
    out = os.path.join(out_root, label)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "ncfem.cli", *argv, "--out", out], cwd=tree,
                          env=env, capture_output=True, text=True)
    texts = {name: text.replace(out, "<out>").replace(tree, "<tree>")
             for name, text in zip(STREAMS, (str(proc.returncode), proc.stdout, proc.stderr))}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name)) as fh:
            text = fh.read()
        if name.endswith(".json"):
            report = json.loads(text)
            report.pop("config", None)
            text = json.dumps(report, indent=2, sort_keys=True)
        elif name.endswith(".csv"):
            text = "".join(ln for ln in text.splitlines(True) if not ln.startswith("# generated"))
        texts[name] = text
    return texts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare HEAD with")
    args = ap.parse_args(argv)
    differs = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        trees = {tree: os.path.join(tmp, tree) for tree in ("parent", "head")}
        for tree, rev in (("parent", args.parent), ("head", "HEAD")):
            os.makedirs(trees[tree])
            print(f"{tree}: {export(rev, trees[tree])}", flush=True)
        data = os.path.join(tmp, "data")
        os.makedirs(data)
        for name, content in DATA.items():
            with open(os.path.join(data, name), "w") as fh:
                json.dump(content, fh)
        for label, cmd in COMMANDS:
            cmd = [a.replace("<data>", data) for a in cmd]
            got = {side: run(trees[tree], label, [*flags, *cmd],
                             os.path.join(tmp, "out-" + side.replace(" ", "_")))
                   for side, (tree, flags) in SIDES.items()}
            bad = [f"{name} ({side})" for side in SIDES if side != "head"
                   for name in sorted(set(got[side]) | set(got["head"]))
                   if got[side].get(name) != got["head"].get(name)]
            # a command that fails on any side compares nothing
            bad += [f"exit code {g['exit code']} in {side}" for side, g in got.items()
                    if g["exit code"] != "0"]
            differs += [f"{label}/{name}" for name in bad]
            files = ", ".join(n for n in sorted(got["head"]) if n not in STREAMS)
            status = "differs: " + ", ".join(bad) if bad else f"same ({files})"
            print(f"{label}: {status}", flush=True)
    if differs:
        print(f"{len(differs)} outputs differ:", *differs, sep="\n  ")
        return 1
    print(f"all {len(COMMANDS)} commands wrote the same outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
