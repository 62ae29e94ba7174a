import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import reject, settings
from hypothesis import strategies as st

import ncfem
from ncfem.fields import ExactSolution
from ncfem.mesh import (
    MeshTopologyError,
    Triangulation,
    l_shape_mesh,
    save_mesh,
    unit_square_mesh,
)


SRC_DIR = str(Path(ncfem.__file__).parents[1])


def run_python(args, cwd=None, timeout=None, env=None):
    """``python *args`` in a fresh interpreter that imports the ncfem under
    test; the CompletedProcess, with stdout and stderr as text.  `env` updates
    the child's environment, and a None value removes the variable."""
    child = dict(os.environ, PYTHONPATH=SRC_DIR)
    for name, value in (env or {}).items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    return subprocess.run([sys.executable, *args], env=child, capture_output=True, text=True,
                          cwd=cwd, timeout=timeout)


def formula_reference(*formulas, degree=None):
    """ExactSolution whose hook answers order k from its own formula
    ``formulas[k](x, y)``, broadcast to that order's full shape; the orders
    above the last formula are refused."""

    def parts(x, y, orders):
        return {k: np.broadcast_to(np.asarray(formulas[k](x, y), dtype=float),
                                   np.shape(x) + (2,) * k) for k in orders}

    return ExactSolution(parts, degree=degree, top_order=len(formulas) - 1)


@pytest.fixture(scope="session")
def square2():
    return unit_square_mesh(2)


@pytest.fixture(scope="session")
def lshape1():
    return l_shape_mesh(1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def jittered(mesh, amplitude, rng):
    """`mesh` with every interior vertex moved by uniform offsets in
    [-amplitude, amplitude], one per coordinate, drawn from `rng`."""
    verts = mesh.vertices.copy()
    interior = ~mesh.boundary_vertex_mask
    verts[interior] += amplitude * rng.uniform(-1, 1, size=(int(interior.sum()), 2))
    return Triangulation(verts, mesh.triangles)


# ways to spoil the mesh file of unit_square_mesh(1): a counts header, one
# more line after the boundary edges, or every coordinate times 1e300
SPOILED_MESH_FILES = ("-1 4 2", "4 4 -2", "4 -4 2", "trailing", "huge")


def spoiled_square_file(path, case):
    """Write ``save_mesh(unit_square_mesh(1))`` to `path`, spoiled as `case`
    (one of ``SPOILED_MESH_FILES``) says."""
    save_mesh(unit_square_mesh(1), path)
    lines = path.read_text().splitlines()
    if case == "trailing":
        lines.append("7 7")
    elif case == "huge":
        lines[2:6] = [" ".join(repr(1e300 * float(x)) for x in ln.split()) for ln in lines[2:6]]
    else:
        lines[1] = case
    path.write_text("\n".join(lines) + "\n")


@st.composite
def jittered_meshes(draw):
    """(mesh, seed): a square or L-shaped mesh of 2 to 6 cells per unit side
    whose interior vertices move by up to a quarter of the mesh size, drawn
    with `seed`; meshes with inverted triangles are rejected."""
    base = draw(st.sampled_from([unit_square_mesh, l_shape_mesh]))
    n = draw(st.integers(2, 6))
    amplitude = draw(st.floats(0.0, 0.25)) / n  # every cell has legs h = 1/n
    seed = draw(st.integers(0, 2**32 - 1))
    try:
        return jittered(base(n), amplitude, np.random.default_rng(seed)), seed
    except MeshTopologyError:
        reject()


class _Factor:  # SuperLU takes no weak reference: track a holder of its solve
    def __init__(self, lu):
        self.solve = lu.solve


@pytest.fixture
def products(monkeypatch):
    """Track every stiffness matrix, companion map and LU factor built from
    then on.  Returns the list, in build order, of (key, dofs, weak reference,
    thread name, the set of (key, dofs) of the products alive when it was
    built) of each; :func:`live` counts the live ones."""
    import ncfem.assembly
    import ncfem.linalg
    import ncfem.operators

    built = []

    def tracked(key, fn, wrap=lambda out: out):
        def wrapper(arg):
            dofs = arg.ndofs if hasattr(arg, "ndofs") else arg.shape[0]
            before = {(k, d) for k, d, ref, _, _ in built if ref() is not None}
            out = wrap(fn(arg))
            built.append((key, dofs, weakref.ref(out), threading.current_thread().name, before))
            return out
        return wrapper

    monkeypatch.setattr(ncfem.assembly, "assemble_stiffness",
                        tracked("stiffness", ncfem.assembly.assemble_stiffness))
    monkeypatch.setattr(ncfem.operators, "build_companion",
                        tracked("companion", ncfem.operators.build_companion))
    monkeypatch.setattr(ncfem.linalg, "factor", tracked("factor", ncfem.linalg.factor, _Factor))
    return built


def live(products):
    """The live products per key: {"stiffness": n, "companion": n, "factor": n}."""
    counts = dict.fromkeys(("stiffness", "companion", "factor"), 0)
    for key, _, ref, _, _ in products:
        counts[key] += ref() is not None
    return counts


# property tests check the same examples on every run, in bounded time
settings.register_profile("ncfem", derandomize=True, max_examples=30, deadline=None,
                          database=None)
settings.load_profile("ncfem")
