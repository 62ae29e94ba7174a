"""``bary_tabulate`` against the per-polynomial evaluation it replaced.

The array program must give bitwise the tables of evaluating each polynomial
and each formal partial with ``BaryPoly.eval``: every space's mode family, at
derivative orders 0 to 2, on the points the code tabulates (triangle rules,
their images on the HCT subcells, the P_k lattices of ``_mono_to_modes``) and
on drawn point sets slightly outside the triangle.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncfem._hct import SUB_TO_PARENT
from ncfem._poly import bary_tabulate
from ncfem.fespace import build_space
from ncfem.mesh import unit_square_mesh
from ncfem.quadrature import MAX_TRIANGLE_DEGREE, triangle_rule

KINDS = ["CR1_0", "MORLEY_0", "COMPANION_CR", "COMPANION_MORLEY"]
FAMILIES = {kind: build_space(unit_square_mesh(2), kind)._modes for kind in KINDS}


def per_polynomial_tabulate(polys, lam_pts, order):
    """The former ``bary_tabulate``: one ``BaryPoly.eval`` per table row."""
    lam_pts = np.asarray(lam_pts, dtype=float)
    k = lam_pts.shape[0]
    n = len(polys)
    out = {0: np.empty((n, k))}
    if order >= 1:
        out[1] = np.empty((n, k, 3))
    if order >= 2:
        out[2] = np.empty((n, k, 3, 3))
    for i, p in enumerate(polys):
        out[0][i] = p.eval(lam_pts)
        if order >= 1:
            for a in range(3):
                out[1][i, :, a] = p.dlam(a).eval(lam_pts)
        if order >= 2:
            for a in range(3):
                for b in range(3):
                    out[2][i, :, a, b] = p.dlam(a).dlam(b).eval(lam_pts)
    return out


def assert_bitwise(polys, lam_pts, order):
    got = bary_tabulate(polys, lam_pts, order)
    want = per_polynomial_tabulate(polys, lam_pts, order)
    assert sorted(got) == sorted(want)
    for o in want:
        assert got[o].flags.c_contiguous
        assert np.array_equal(got[o], want[o]), o


def _lattice(k):
    return np.array([(k - a - b, a, b) for a in range(k + 1) for b in range(k + 1 - a)]) / k


def _rule_points():
    for deg in range(MAX_TRIANGLE_DEGREE + 1):
        pts = triangle_rule(deg).points
        yield pts
        for s in range(3):
            yield pts @ SUB_TO_PARENT[s]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_bitwise_on_rules_and_lattices(kind, order):
    for pts in [*_rule_points(), _lattice(2), _lattice(3)]:
        assert_bitwise(FAMILIES[kind], pts, order)


@pytest.mark.parametrize("kind", KINDS)
def test_bitwise_across_point_blocks(kind):
    # thousands of points run in several blocks, the last one partial
    lam12 = np.random.default_rng(7).uniform(-0.02, 1.02, size=(2001, 2))
    pts = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
    assert_bitwise(FAMILIES[kind], pts, 2)


@st.composite
def point_sets(draw):
    coord = st.floats(-0.05, 1.05, allow_nan=False)
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    lam12 = np.array(pairs)
    return np.column_stack([1.0 - lam12.sum(axis=1), lam12])


@given(kind=st.sampled_from(KINDS), order=st.integers(0, 2), pts=point_sets())
def test_bitwise_on_drawn_points_slightly_outside(kind, order, pts):
    assert_bitwise(FAMILIES[kind], pts, order)


def test_empty_inputs():
    assert bary_tabulate(FAMILIES["CR1_0"], np.empty((0, 3)), 2)[2].shape == (3, 0, 3, 3)
    pts = triangle_rule(2).points
    assert bary_tabulate([], pts, 1)[1].shape == (0, len(pts), 3)
