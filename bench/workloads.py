"""The benchmark's workloads: the ncfem commands one job runs, per seed.

A command is ``(label, argv)``; the harness appends ``--json`` (and
``--csv`` for rate studies) with per-label file names.  Labels key the
expected outputs in ``expected.json``.
"""

from __future__ import annotations

import random

_CERTIFY_SMALL = [
    ("estimate-square-smooth-m1-3",
     ["estimate", "--problem", "square-smooth-m1", "--level", "3"]),
    ("estimate-square-smooth-m2-3",
     ["estimate", "--problem", "square-smooth-m2", "--level", "3"]),
    ("estimate-lshape-singular-m1-3",
     ["estimate", "--problem", "lshape-singular-m1", "--level", "3"]),
    ("compare-m1-square16", ["compare", "--m", "1", "--mesh", "square:16"]),
    ("compare-m2-square8", ["compare", "--m", "2", "--mesh", "square:8"]),
    ("verify-m1-square16", ["verify", "--m", "1", "--mesh", "square:16"]),
]

# Why each workload was chosen, and what should move it, is recorded in
# baseline.json; BENCHMARK.json lists the ones whose end-to-end metrics are
# gated.  certify-large fails at the seed commit (EigenError above the dense
# eigensolver limit) and rates-morley-square is kept out of the gated set for
# time; both stay runnable here.
NAMES = ("rates-cr-lshape", "rates-morley-square", "certify-small", "certify-large")


def commands(workload, seed):
    """The commands of one job of ``workload``; the seed fixes their order."""
    if workload == "rates-cr-lshape":
        return [("rates-lshape-singular-m1-6",
                 ["rates", "--problem", "lshape-singular-m1", "--levels", "6"])]
    if workload == "rates-morley-square":
        return [("rates-square-smooth-m2-5",
                 ["rates", "--problem", "square-smooth-m2", "--levels", "5"])]
    if workload == "certify-small":
        cmds = [(label, list(argv)) for label, argv in _CERTIFY_SMALL]
        cmds[-1][1].extend(["--seed", str(seed)])
        random.Random(seed).shuffle(cmds)
        return cmds
    if workload == "certify-large":
        return [
            ("estimate-square-smooth-m1-4",
             ["estimate", "--problem", "square-smooth-m1", "--level", "4"]),
            ("estimate-square-smooth-m2-4",
             ["estimate", "--problem", "square-smooth-m2", "--level", "4"]),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
