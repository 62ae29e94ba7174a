"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

# cheap stand-ins for the workloads' commands: same subcommands, tiny meshes
SMALL_CMDS = [
    ("estimate-m2", ["estimate", "--problem", "square-smooth-m2", "--level", "1"]),
    ("rates-m1", ["rates", "--problem", "lshape-singular-m1", "--levels", "2"]),
    ("verify-m1", ["verify", "--m", "1", "--mesh", "square:4", "--samples", "3"]),
]


def test_self_times_of_synthetic_tree():
    spans = [
        Span(0, None, "cli.main", 0, 0.0, 10.0),
        Span(1, 0, "experiments.run", 0, 1.0, 4.0),
        Span(2, 1, "norms.error_norms", 0, 2.0, 3.0),
        Span(3, 0, "linalg.solve_spd", 0, 5.0, 9.0),
        # overlaps its sibling: only the union of child intervals is subtracted
        Span(4, 0, "kernel.einsum", 0, 8.0, 10.0),
    ]
    st = tracing.self_times(spans)
    assert st == pytest.approx({0: 2.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 2.0})


def test_self_times_sum_to_root_duration():
    spans = [Span(0, None, "cli.main", 0, 0.0, 6.0),
             Span(1, 0, "norms.error_norms", 0, 0.5, 2.5),
             Span(2, 1, "kernel.einsum", 0, 1.0, 2.0),
             Span(3, 0, "mesh.red_refine", 0, 3.0, 3.25)]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(6.0)
    m = tracing.job_layer_metrics(spans)
    assert m["norms.error_norms.self_s"] == pytest.approx(1.0)
    assert m["kernel.einsum.s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(3.75)
    assert m["norms.error_norms.calls"] == 1


def test_tracer_records_nesting_and_restores_bindings():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    wrapped_inner = tracer.wrap("norms.inner", inner)
    outer = tracer.wrap("experiments.outer", lambda: wrapped_inner() + 1)
    tracer.job = 3
    assert outer() == 2
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == outer_span.id and outer_span.parent is None
    assert {outer_span.job, inner_span.job} == {3}
    assert tracing.self_times(tracer.spans) == {0: 2.0, 1: 1.0}

    import ncfem.experiments
    import ncfem.norms
    import numpy

    original, einsum = ncfem.norms.error_norms, numpy.einsum
    tracer.install()
    try:
        assert ncfem.experiments.error_norms is not original
        assert ncfem.experiments.error_norms.__wrapped__ is original
        assert numpy.einsum.__wrapped__ is einsum
    finally:
        tracer.uninstall()
    assert ncfem.norms.error_norms is original
    assert ncfem.experiments.error_norms is original
    assert numpy.einsum is einsum


def _report_from(expected):
    """A report holding exactly the recorded values."""
    report = {}
    for path, (value, _) in expected.items():
        keys = path.split(".")
        node = report
        for key, nxt in zip(keys, keys[1:]):
            node = node.setdefault(key, {})
        node[keys[-1]] = value

    def lists(node):
        if isinstance(node, dict):
            if node and all(k.isdigit() for k in node):
                return [lists(node[str(i)]) for i in range(len(node))]
            return {k: lists(v) for k, v in node.items()}
        return node

    return lists(report)


@pytest.mark.parametrize("label", sorted(checks.load_expected()))
def test_checker_accepts_recorded_and_flags_perturbed_value(label):
    expected = checks.load_expected()[label]
    report = _report_from(expected)
    if any(p.startswith("bounds.") for p in expected):
        report["report"] = "estimate"
    assert checks.check_report(report, expected) == []

    path, (value, rtol) = next((p, v) for p, v in sorted(expected.items())
                               if isinstance(v[0], (float, bool)))
    bad = copy.deepcopy(report)
    node = bad
    keys = path.split(".")
    for key in keys[:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    last = int(keys[-1]) if isinstance(node, list) else keys[-1]
    node[last] = (not value) if isinstance(value, bool) else value * (1 + 10 * rtol) + 1e-300
    problems = checks.check_report(bad, expected)
    assert len(problems) == 1 and problems[0].startswith(path)


def test_checker_flags_measured_error_above_bound():
    report = {"report": "estimate", "bounds": {"bound_a": 1.0, "bound_b": 2.0},
              "measured_errors": {"energy_conf": 0.5, "energy_pw": 2.5}}
    problems = checks.check_report(report, None)
    assert len(problems) == 1 and "energy_pw" in problems[0]


def test_same_seed_gives_same_job_order():
    assert workloads.commands("certify-small", 11) == workloads.commands("certify-small", 11)
    orders = {tuple(label for label, _ in workloads.commands("certify-small", s))
              for s in range(6)}
    assert len(orders) > 1
    verify = dict(workloads.commands("certify-small", 11))["verify-m1-square16"]
    assert verify[-2:] == ["--seed", "11"]


def _small_cmds(seed):
    return [(label, argv + (["--seed", str(seed)] if argv[0] == "verify" else []))
            for label, argv in SMALL_CMDS]


def test_same_seed_gives_identical_outputs(tmp_path):
    cli = run._import_ncfem()
    jobs = [run.run_job(cli, j, _small_cmds(5), str(tmp_path / "out"), {})
            for j in range(2)]
    assert all(j.ok for j in jobs), [j.problems for j in jobs]
    assert jobs[0].outputs == jobs[1].outputs
    run.check_determinism(jobs)
    assert all(j.ok for j in jobs)

    jobs[1].outputs["rates-m1.csv"] += "0\n"
    run.check_determinism(jobs)
    assert jobs[1].problems == ["rates-m1.csv: differs from job 0"]


def test_failing_command_fails_the_job(tmp_path):
    cli = run._import_ncfem()
    job = run.run_job(cli, 0, [("bad", ["estimate", "--problem", "no-such-problem"])],
                      str(tmp_path / "out"), {})
    assert not job.ok and job.problems[0].startswith("bad:")


def test_layer_self_times_account_for_job_wall_time(tmp_path):
    cli = run._import_ncfem()
    tracer = Tracer()
    tracer.job = 0
    tracer.install()
    try:
        job = run.run_job(cli, 0, _small_cmds(1), str(tmp_path / "out"), {}, traced=True)
    finally:
        tracer.uninstall()
    assert job.ok, job.problems
    spans = [s for s in tracer.spans if s is not None]
    layers = {s.name.split(".")[0] for s in spans}
    assert layers >= set(tracing.LAYER_MODULES) | {"kernel"}

    st = tracing.self_times(spans)
    bookkeeping = sum(st[s.id] for s in spans if s.name == tracing.BOOKKEEPING)
    layer_self = sum(st[s.id] for s in spans if s.name != tracing.BOOKKEEPING)
    # orchestration (cli, experiments, estimator) plus every layer's self time
    # is the job's wall time, less the tracer's own work and the harness loop
    gap = job.wall - layer_self
    assert 0.0 <= gap <= bookkeeping + 0.02 * job.wall + 0.01


def test_reference_seconds_rescale_wall_time_by_kernel_speed(tmp_path):
    class HalfSpeed(run.Calibration):
        """The kernel takes twice its reference time: the host runs at half speed."""

        def __init__(self):
            pass

        def block(self):
            return [2 * self.REF_S] * 3

    cli = run._import_ncfem()
    job = run.run_job(cli, 0, _small_cmds(1), str(tmp_path / "out"), {}, cal=HalfSpeed())
    assert job.ok, job.problems
    assert job.ref == pytest.approx(job.wall / 2)
