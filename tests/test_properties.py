"""Property tests of the companion identities on jittered meshes.

Hypothesis draws a square or L-shaped mesh of 2 to 6 cells per unit side,
moves every interior vertex by up to a quarter of the mesh size and draws the
seed of a random discrete function; inverted meshes are rejected.  The
profile (see conftest.py) is derandomized, so every run checks the same
examples.
"""

import numpy as np
import pytest
from conftest import jittered_meshes
from hypothesis import given

from ncfem import assembly
from ncfem.fespace import FeFunction
from ncfem.norms import error_norms
from ncfem.operators import (
    Discretization,
    best_approx_orthogonality_check,
    companion,
    interpolate,
)


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0"])
@given(case=jittered_meshes())
def test_companion_identities_on_jittered_meshes(kind, case):
    mesh, seed = case
    disc = Discretization(mesh, kind)
    space = disc.space
    v = FeFunction(space, np.random.default_rng(seed).standard_normal(space.ndofs))
    jv = companion(disc.cmap, v)
    iv = interpolate(space, jv)
    assert np.abs(iv.coeffs - v.coeffs).max(initial=0.0) <= 1e-11 * max(
        np.abs(v.coeffs).max(initial=0.0), 1.0)
    # moment orthogonality, normalized as `ncfem verify` does
    nrm = error_norms(v, orders=(space.m,)).energy_pw * np.sqrt(mesh.area.sum())
    assert best_approx_orthogonality_check(space, jv) <= 1e-10 * nrm
    Ac = assembly.assemble_stiffness(disc.cmap.target)
    assert (Ac - Ac.T).nnz == 0
