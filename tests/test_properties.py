"""Property tests of the companion identities on jittered meshes.

Hypothesis draws a square or L-shaped mesh of 2 to 6 cells per unit side,
moves every interior vertex by up to a quarter of the mesh size and draws the
seed of a random discrete function; inverted meshes are rejected.  The
profile (see conftest.py) is derandomized, so every run checks the same
examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ncfem import assembly
from ncfem.fespace import FeFunction
from ncfem.mesh import Triangulation, l_shape_mesh, unit_square_mesh
from ncfem.operators import Discretization, companion, interpolate


@st.composite
def jittered_meshes(draw):
    base = draw(st.sampled_from([unit_square_mesh, l_shape_mesh]))
    n = draw(st.integers(2, 6))
    amplitude = draw(st.floats(0.0, 0.25)) / n  # every cell has legs h = 1/n
    seed = draw(st.integers(0, 2**32 - 1))
    mesh = base(n)
    verts = mesh.vertices.copy()
    interior = ~mesh.boundary_vertex_mask
    rng = np.random.default_rng(seed)
    verts[interior] += amplitude * rng.uniform(-1, 1, size=(int(interior.sum()), 2))
    p = verts[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    assume(np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0))
    return Triangulation(verts, mesh.triangles), seed


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
@given(case=jittered_meshes())
def test_companion_identities_on_jittered_meshes(kind, case):
    mesh, seed = case
    disc = Discretization(mesh, kind)
    space = disc.space
    v = FeFunction(space, np.random.default_rng(seed).standard_normal(space.ndofs))
    iv = interpolate(space, companion(disc.cmap, v))
    assert np.abs(iv.coeffs - v.coeffs).max(initial=0.0) <= 1e-11 * max(
        np.abs(v.coeffs).max(initial=0.0), 1.0)
    Ac = assembly.assemble_stiffness(disc.cmap.target)
    assert (Ac - Ac.T).nnz == 0
