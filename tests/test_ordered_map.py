"""The worker map changes no bit: results on 1, 2 and 3 workers are equal."""

import threading
import time

import numpy as np
import pytest
from conftest import jittered

from ncfem import operators, quadrature
from ncfem.cli import main
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

    return use


def test_ordered_map_keeps_the_order_and_runs_on_every_worker(workers):
    def square(x):  # long enough that the pool starts a thread per run
        seen.add(threading.get_ident())
        time.sleep(0.005)
        return x * x

    for n in reversed(PARTS):  # the pool is sized when it starts
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
