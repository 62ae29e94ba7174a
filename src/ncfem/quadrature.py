"""Exact quadrature for piecewise polynomials on triangles and edges.

Triangle rules are conical (Duffy) products of Gauss-Legendre and
Gauss-Jacobi nodes, so every assembly integrand in this package is
integrated exactly up to roundoff; points are strictly interior.  Weights
are normalized to sum to one and are meant to be scaled by |T| or |E|.

Every element integral in the package runs through :func:`cells`: it walks
the mesh in chunks of triangles and yields, per chunk, one :class:`Cell`
per subcell of the integration partition (the plain triangles, or the
three HCT subtriangles when any participant lives on the split).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from ._hct import CHUNK, SUB_TO_PARENT

__all__ = [
    "QuadRule",
    "Cell",
    "triangle_rule",
    "edge_rule",
    "cells",
    "subcell_corners",
    "MAX_TRIANGLE_DEGREE",
]

MAX_TRIANGLE_DEGREE = 16


@dataclass(frozen=True)
class QuadRule:
    """Quadrature nodes in barycentric coordinates, weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_points(self):
        return len(self.weights)


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule integrating all polynomials up to `degree` exactly on a triangle.

    Usage: ``integral = area * (weights @ f(points))`` with `points` the
    (n, 3) barycentric nodes.
    """
    if not 0 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(
            f"triangle rule degree must be in 0..{MAX_TRIANGLE_DEGREE}, got {degree}"
        )
    n = max(1, (degree + 2) // 2)  # Gauss with n points is exact to 2n-1
    x_leg, w_leg = roots_legendre(n)
    x_jac, w_jac = roots_jacobi(n, 1, 0)
    xi = 0.5 * (x_leg + 1.0)
    wxi = 0.5 * w_leg
    eta = 0.5 * (x_jac + 1.0)
    weta = 0.25 * w_jac  # integrates (1-eta) f(eta) on [0,1]
    XI, ETA = np.meshgrid(xi, eta, indexing="ij")
    x = (XI * (1.0 - ETA)).ravel()
    y = ETA.ravel()
    w = 2.0 * np.outer(wxi, weta).ravel()  # normalize: plain sum is the area 1/2
    bary = np.column_stack([1.0 - x - y, x, y])
    return QuadRule(points=bary, weights=w, exactness_degree=degree)


@lru_cache(maxsize=None)
def edge_rule(degree):
    """Gauss-Legendre rule on a segment, barycentric (1-t, t) nodes."""
    if degree < 0:
        raise ValueError("edge rule degree must be nonnegative")
    n = max(1, (degree + 2) // 2)
    x, w = roots_legendre(n)
    t = 0.5 * (x + 1.0)
    bary = np.column_stack([1.0 - t, t])
    return QuadRule(points=bary, weights=0.5 * w, exactness_degree=degree)


class Cell(NamedTuple):
    """Quadrature points of one rule on subcell `s` of the triangles `ts`.

    `bary` are the rule's points in subcell coordinates and `parent` the
    same points in triangle coordinates (the two coincide when `nsub` is
    1); `phys` holds the physical points (nts, k, 2), `area` the subcell
    areas |T|/nsub and `weights` the rule weights (summing to one).  A
    Cell built for edge or vertex samples leaves the last three None.
    """

    ts: np.ndarray
    s: int
    nsub: int
    bary: np.ndarray
    parent: np.ndarray
    phys: np.ndarray
    area: np.ndarray
    weights: np.ndarray


def subcell_corners(mesh, ts, s, nsub):
    """Corners (nts, 3, 2) of subcell s: the triangle itself when nsub is 1,
    else the HCT subtriangle (centroid, A_{s+1}, A_{s+2})."""
    tri = mesh.triangles[ts]
    if nsub == 1:
        return mesh.vertices[tri]
    corners = np.empty((len(ts), 3, 2))
    corners[:, 0] = mesh.centroid[ts]
    corners[:, 1] = mesh.vertices[tri[:, (s + 1) % 3]]
    corners[:, 2] = mesh.vertices[tri[:, (s + 2) % 3]]
    return corners


def cells(mesh, rule, *over):
    """Yield, per chunk of at most ``CHUNK`` triangles, the list of its Cells.

    The partition is the HCT split (three subcells per triangle) when any
    of `over` (spaces or fields; None is skipped) has ``n_subcells == 3``,
    else the plain triangles (one cell per chunk).
    """
    nsub = max([1] + [o.n_subcells for o in over if o is not None])
    for start in range(0, mesh.n_triangles, CHUNK):
        ts = np.arange(start, min(start + CHUNK, mesh.n_triangles))
        area = mesh.area[ts] / nsub
        yield [
            Cell(
                ts,
                s,
                nsub,
                rule.points,
                rule.points if nsub == 1 else rule.points @ SUB_TO_PARENT[s],
                rule.points @ subcell_corners(mesh, ts, s, nsub),
                area,
                rule.weights,
            )
            for s in range(nsub)
        ]
