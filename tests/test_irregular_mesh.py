"""The identity stack on an unstructured (jittered) mesh.

The structured square/L-shape meshes are right isosceles; jittering the
interior vertices produces generic obtuse triangles and exercises every
geometry-dependent code path (edge orientations, HCT subtriangle systems,
normal-derivative conventions) away from the symmetric special case.
"""

import conftest
import numpy as np
import pytest

from ncfem import assembly
from ncfem.assembly import PointForce, RhsData
from ncfem.experiments import run_compare
from ncfem.fespace import FeFunction, build_space
from ncfem.mesh import unit_square_mesh
from ncfem.operators import build_companion, companion, interpolate
from ncfem.quadrature import edge_rule


@pytest.fixture(scope="module")
def jittered():
    return conftest.jittered(unit_square_mesh(4), 0.25 * 0.25, np.random.default_rng(42))


@pytest.mark.parametrize("kind", ["CR1_0", "MORLEY_0", "CR1_full", "MORLEY_full"])
def test_right_inverse_on_jittered_mesh(jittered, kind, rng):
    space = build_space(jittered, kind)
    cmap = build_companion(space)
    for _ in range(10):
        v = FeFunction(space, rng.standard_normal(space.ndofs))
        iv = interpolate(space, companion(cmap, v))
        assert np.abs(iv.coeffs - v.coeffs).max() <= 1e-11 * np.abs(v.coeffs).max()


def test_companion_c1_on_jittered_mesh(jittered, rng):
    space = build_space(jittered, "MORLEY_0")
    cmap = build_companion(space)
    jv = companion(cmap, FeFunction(space, rng.standard_normal(space.ndofs)))
    rule = edge_rule(8)
    tp = rule.points[:, 1]
    for e in np.nonzero(jittered.interior_edge_mask)[0]:
        a, b = jittered.vertices[jittered.edges[e]]
        pts = a[None] + tp[:, None] * (b - a)[None]
        lo, hi = jittered.edge_triangles[e]
        v1, v2 = (jv.evaluate(int(t), pts, 0) for t in (lo, hi))
        g1, g2 = (jv.evaluate(int(t), pts, 1) for t in (lo, hi))
        assert np.abs(v1 - v2).max() < 1e-10
        assert np.abs((g1 - g2) @ jittered.edge_normal[e]).max() < 1e-10


@pytest.mark.parametrize("m", [1, 2])
def test_exact_identities_on_jittered_mesh(jittered, m):
    report = run_compare(jittered, m, mesh_id="jittered")
    assert report["passed"] and report["attainment"]["passed"]


def test_off_vertex_force_mu_dependence(jittered):
    """The mu-split only matters for the natural scheme; the smoothed
    right-hand side evaluates a continuous function at the split point."""
    mesh = jittered
    space = build_space(mesh, "MORLEY_0")
    cmap = build_companion(space)
    e = int(np.nonzero(mesh.interior_edge_mask)[0][3])
    z = tuple(mesh.edge_midpoint[e])

    def vectors(mu):
        data = RhsData(point_forces=[PointForce(beta=1.0, edge=e, point=z, mu=mu)])
        return (
            assembly.assemble_rhs_original(space, data),
            assembly.assemble_rhs_modified(space, data, cmap),
        )

    org0, mod0 = vectors(0.0)
    org1, mod1 = vectors(1.0)
    assert np.abs(org0 - org1).max() > 1e-3  # one-sided traces differ
    assert np.abs(mod0 - mod1).max() <= 1e-11 * max(np.abs(mod0).max(), 1.0)
