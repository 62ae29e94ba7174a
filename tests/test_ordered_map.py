"""The worker map changes no bit: results on 1, 2 and 3 workers are equal."""

import json
import sys
import threading
import time

import numpy as np
import pytest
from conftest import jittered

from ncfem import operators, quadrature
from ncfem.cli import main
from ncfem.experiments import run_rate_study
from ncfem.fespace import build_space
from ncfem.mesh import l_shape_mesh, unit_square_mesh
from ncfem.operators import build_companion
from ncfem.problems import PROBLEMS
from ncfem.quadrature import cells

PARTS = (1, 2, 3)


@pytest.fixture
def workers(monkeypatch):
    """Set the number of workers, with every Cell split, 7-triangle bubble
    chunks and a pool started afresh."""
    monkeypatch.setattr(quadrature, "_pool", None)
    monkeypatch.setattr(quadrature, "SPLIT_MIN_POINTS", 1)
    monkeypatch.setattr(operators, "CHUNK", 7)
    monkeypatch.setattr(quadrature, "_thread_cap", None)

    def use(n):
        monkeypatch.setattr(quadrature, "_cpu_count", lambda: n)
        monkeypatch.setattr(quadrature, "_pool", None)  # started with n - 1 threads

    return use


def within(seconds, fn, *args, **kwargs):
    """fn(*args, **kwargs), run on a daemon thread that must end within
    `seconds`: a map that deadlocks fails the test instead of hanging it."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised in the test's thread
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_ordered_map_keeps_the_order_and_runs_on_every_worker(workers):
    def square(x):  # long enough that the pool starts a thread per run
        seen.add(threading.get_ident())
        time.sleep(0.005)
        return x * x

    for n in PARTS:
        workers(n)
        seen = set()
        assert quadrature.ordered_map(square, range(10)) == [x * x for x in range(10)]
        assert len(seen) == n


def test_ordered_map_raises_what_a_worker_raised(workers):
    def fail_at_seven(x):
        if x == 7:
            raise ValueError("seven")
        return x

    workers(2)
    with pytest.raises(ValueError, match="seven"):
        quadrature.ordered_map(fail_at_seven, range(10))


def test_ordered_map_runs_what_no_worker_started(workers):
    # the pool's one worker waits on an event: the calling thread runs the
    # worker's run itself instead of waiting for the event
    workers(2)
    event = threading.Event()
    busy = quadrature._worker_pool().submit(event.wait)
    try:
        got = within(10, quadrature.ordered_map, lambda x: x * x, range(10))
        assert not event.is_set()
    finally:
        event.set()
    assert got == [x * x for x in range(10)]
    assert busy.result(timeout=10)


def test_point_parts_are_contiguous_runs_of_triangles(workers):
    phys = np.arange(7 * 4 * 2, dtype=float).reshape(7, 4, 2)
    for n in PARTS:
        workers(n)
        parts = quadrature.point_parts(phys)
        assert len(parts) == n
        assert np.array_equal(np.concatenate(parts), phys)


@pytest.mark.parametrize("kind", ["CR1_0", "CR1_full", "MORLEY_0", "MORLEY_full"])
@pytest.mark.parametrize(
    "make_mesh",
    [lambda: l_shape_mesh(8),
     lambda: jittered(unit_square_mesh(6), 0.25 / 6, np.random.default_rng(3))],
    ids=["lshape8", "jittered-square6"],
)
def test_companion_is_bitwise_the_same_on_any_number_of_workers(workers, kind, make_mesh):
    space = build_space(make_mesh(), kind)
    assert space.mesh.n_triangles > 3 * operators.CHUNK
    mats = []
    for n in PARTS:
        workers(n)
        mats.append(build_companion(space).matrix)
    for J in mats[1:]:
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(J, name), getattr(mats[0], name)), name


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_closed_forms_are_bitwise_the_same_on_any_number_of_workers(workers, name):
    problem = PROBLEMS[name]
    mesh = problem.base_mesh()
    data, reference = problem.data(mesh), problem.reference()
    orders = (0, 1, 2)[:problem.m + 1]
    fields = [f for f in (data.G, data.g) if f is not None]
    (cell,) = next(cells(mesh, 12))
    got = []
    for n in PARTS:
        workers(n)
        got.append([f.eval_batch(cell) for f in fields]
                   + ([] if reference is None else list(reference.sample(cell, orders).values())))
    assert len(got[0]) == len(fields) + (0 if reference is None else len(orders))
    for sample in got[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(sample, got[0]))


def test_threads_one_starts_no_pool(workers, monkeypatch, tmp_path):
    workers(2)
    argv = ["solve", "--problem", "lshape-singular-m1", "--mesh", "lshape:4",
            "--json", str(tmp_path / "solve.json")]
    assert main(["--threads", "1", *argv]) == 0
    assert quadrature._pool is None
    assert quadrature._thread_cap is None  # the cap holds for that call alone
    assert main(argv) == 0
    assert quadrature._pool is not None


@pytest.mark.parametrize("problem, levels, estimates", [
    ("lshape-singular-m1", 4, False),  # exact reference
    ("lshape-f1-m2", 3, False),  # fine-grid reference
    ("lshape-singular-m1", 3, True),
])
def test_rate_study_report_is_the_same_on_any_number_of_workers(workers, problem, levels,
                                                                estimates):
    # the levels share the problem and any fine-grid reference (and its
    # space's tabulation memo): switching threads often lets a race show
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n in PARTS:
            workers(n)
            report = within(120, run_rate_study, problem, levels, include_estimates=estimates)
            reports.append(json.dumps(report))
    finally:
        sys.setswitchinterval(interval)
    assert reports[1:] == reports[:1] * 2


@pytest.mark.parametrize("problem", ["lshape-singular-m1", "lshape-f1-m2"])
def test_rate_study_hands_the_coarser_levels_to_a_worker_after_releasing_the_finest(
        workers, products, problem, monkeypatch):
    # the calling thread builds the finest level's (and the fine-grid
    # reference's) products, the worker the coarser levels'; every level's
    # stiffness, factor and companion are dead before another level builds
    # one, so none of the finest level's is alive when the worker starts
    import ncfem.experiments

    worker_integrates = threading.Event()

    def after_the_worker_starts(fn):  # else the calling thread may steal its run
        def wrapper(*args, **kwargs):
            if threading.current_thread().name.startswith("ncfem-worker"):
                worker_integrates.set()
            else:
                assert worker_integrates.wait(60)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("error_norms", "errors_vs_fine"):
        monkeypatch.setattr(ncfem.experiments, name,
                            after_the_worker_starts(getattr(ncfem.experiments, name)))
    workers(2)
    within(120, run_rate_study, problem, 3)
    on_worker = [thread.startswith("ncfem-worker") for _, _, _, thread, _ in products]
    assert any(on_worker) and on_worker == sorted(on_worker)  # calling thread first
    worker = [d for (_, d, *_), on in zip(products, on_worker) if on]
    calling = [d for (_, d, *_), on in zip(products, on_worker) if not on]
    assert max(worker) < min(calling)
    for key, dofs, _, _, alive_before in products:
        assert {d for _, d in alive_before} <= {dofs}, (key, dofs, alive_before)
