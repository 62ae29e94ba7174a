"""Finite element spaces and functions.

Kinds
-----
CR1_0, CR1_full
    Crouzeix-Raviart: piecewise P1, one dof per edge (midpoint value);
    the homogeneous kind keeps interior-edge dofs only.
MORLEY_0, MORLEY_full
    Morley: piecewise P2; dofs are vertex values and edge-mean normal
    derivatives (along the global edge normal); the homogeneous kind drops
    boundary vertex values and boundary edge normal dofs.
COMPANION_CR, COMPANION_CR_full
    Conforming host for the Crouzeix-Raviart companion: P1 hats, one
    quadratic edge bubble per edge, and three quartic volume bubbles per
    triangle (cubic bubble times a P1 basis).
COMPANION_MORLEY, COMPANION_MORLEY_full
    C^1-conforming host for the Morley companion: HCT macro-element plus
    six degree-8 volume bubbles per triangle (squared cubic bubble times a
    P2 basis).

Constrained dofs are eliminated: dof maps carry -1 where a local dof is
pinned to zero.  Evaluation is triangle-local; companion-Morley functions
live on the 3-subtriangle HCT split (``n_subcells = 3``).  At the points of
a quadrature :class:`~ncfem.quadrature.Cell`, :meth:`FeSpace.tabulate_cell`
and :meth:`FeFunction.at` pick the coordinates a space reads: triangle
coordinates on plain spaces, subcell coordinates on the split.
"""

from __future__ import annotations

import math

import numpy as np

from ._hct import SUB_TO_PARENT, hct_coefficients
from ._poly import (
    BaryPoly,
    bary_modes,
    bary_tabulate,
    cubic_bubble,
    lambda_gradients,
    mono_tabulate,
    monomial_exponents,
)
from .quadrature import subcell_corners

__all__ = [
    "FeSpace",
    "FeFunction",
    "build_space",
    "nc_kind",
    "evaluate",
    "vertex_eval",
    "split_point_eval",
    "save_function",
    "load_function",
    "KINDS",
]

_EXPS2 = monomial_exponents(2)

# memo entries per space before it is emptied; rule point sets number 13 at most
_BARY_CACHE_SIZE = 64


def _mono_to_basis(mono, C):
    """Basis tabulation from monomial tabulation and per-triangle coefficients.

    (F, K, M, *d) x (F, M, J) -> (F, J, K, *d), as one batched matmul over
    (triangle, point); the result is a transposed view, not a copy.
    """
    F, K, M = mono.shape[:3]
    d = mono.shape[3:]
    prod = np.matmul(mono.reshape(F, K, M, math.prod(d)).swapaxes(2, 3), C[:, None])
    return np.moveaxis(prod, 3, 1).reshape((F, C.shape[2], K) + d)


def _number(mask):
    """Enumerate free entities: returns (dof array with -1 at constrained, count)."""
    dof = -np.ones(len(mask), dtype=np.int64)
    dof[mask] = np.arange(int(mask.sum()))
    return dof, int(mask.sum())


class FeSpace:
    """Base class; concrete spaces fill in dof maps and tabulation."""

    n_subcells = 1

    def __init__(self, mesh, kind):
        self.mesh = mesh
        self.kind = kind
        self._lgrad = lambda_gradients(mesh)
        self._bary_cache = {}

    def physical_points(self, ts, s, bary):
        """Physical points for barycentric samples on subcell s of triangles ts."""
        return np.atleast_2d(bary) @ self._subcell_corners(ts, s)  # (nts, k, 2)

    def _subcell_corners(self, ts, s):
        return subcell_corners(self.mesh, ts, s, self.n_subcells)

    def locate_subcell(self, t, points):
        """Subcell index and subcell barycentric coords for points inside t."""
        lam = self.mesh.barycentric(t, np.atleast_2d(points))
        return np.zeros(len(lam), dtype=int), lam

    def tabulate_cell(self, cell, order):
        """Tabulate at the points of a quadrature Cell.

        A space on the HCT split reads the subcell coordinates, any other
        space the triangle coordinates, so one Cell serves both kinds.
        """
        if self.n_subcells == 1:
            return self.tabulate(cell.ts, 0, cell.parent, order)
        return self.tabulate(cell.ts, cell.s, cell.bary, order)

    def _cached_bary(self, polys_key, polys, bary, order):
        key = (polys_key, bary.tobytes(), order)
        if key not in self._bary_cache:
            if len(self._bary_cache) >= _BARY_CACHE_SIZE:
                self._bary_cache.clear()
            self._bary_cache[key] = bary_tabulate(polys, bary, order)
        return self._bary_cache[key]

    def _contract(self, tab, ts, order):
        """Contract formal lambda-partials with barycentric gradients."""
        gl = self._lgrad[ts]  # (nts, 3, 2)
        nts = len(ts)
        n, k = tab[0].shape
        out = {0: np.broadcast_to(tab[0], (nts, n, k))}
        if order >= 1:
            out[1] = (tab[1].reshape(n * k, 3) @ gl).reshape(nts, n, k, 2)
        if order >= 2:
            # (nts, 9, 4) products grad(lambda_a)_d * grad(lambda_b)_e
            gg = (gl[:, :, None, :, None] * gl[:, None, :, None, :]).reshape(nts, 9, 4)
            out[2] = (tab[2].reshape(n * k, 9) @ gg).reshape(nts, n, k, 2, 2)
        return out


class CRSpace(FeSpace):
    """Crouzeix-Raviart space; local basis 1 - 2*lambda_k per edge dof."""

    m = 1
    poly_degree = 1
    n_local = 3

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        free = np.ones(mesh.n_edges, dtype=bool)
        if kind == "CR1_0":
            free &= mesh.interior_edge_mask
        self.edge_dof, self.ndofs = _number(free)
        self.cell_dofs = self.edge_dof[mesh.triangle_edges]
        self._shapes = [BaryPoly.const(1.0) - 2.0 * BaryPoly.lam(k) for k in range(3)]

    def tabulate(self, ts, s, bary, order):
        ts = np.asarray(ts)
        tab = self._cached_bary("cr", self._shapes, np.asarray(bary), order)
        return self._contract(tab, ts, order)


class MorleySpace(FeSpace):
    """Morley space; per-triangle quadratic basis dual to the Morley dofs."""

    m = 2
    poly_degree = 2
    n_local = 6

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        vfree = np.ones(mesh.n_vertices, dtype=bool)
        efree = np.ones(mesh.n_edges, dtype=bool)
        if kind == "MORLEY_0":
            vfree &= ~mesh.boundary_vertex_mask
            efree &= mesh.interior_edge_mask
        self.vertex_dof, nv = _number(vfree)
        self.edge_dof, ne = _number(efree)
        self.edge_dof[efree] += nv
        self.ndofs = nv + ne
        self.cell_dofs = np.concatenate(
            [self.vertex_dof[mesh.triangles], self.edge_dof[mesh.triangle_edges]], axis=1
        )
        self._coeff = self._build_local_bases()

    def _build_local_bases(self):
        mesh = self.mesh
        F = mesh.n_triangles
        verts = mesh.vertices[mesh.triangles]
        c0 = mesh.centroid
        h = mesh.diameter
        emid = mesh.edge_midpoint[mesh.triangle_edges]
        enrm = mesh.edge_normal[mesh.triangle_edges]
        V = np.empty((F, 6, 6))
        xi_v = (verts - c0[:, None]) / h[:, None, None]
        V[:, :3, :] = mono_tabulate(_EXPS2, xi_v, 0)[0]
        xi_e = (emid - c0[:, None]) / h[:, None, None]
        grads = mono_tabulate(_EXPS2, xi_e, 1, inv_h=1.0 / h[:, None])[1]
        V[:, 3:, :] = np.einsum("fkmd,fkd->fkm", grads, enrm)
        # V[t, i, j] = dof_i(mono_j), so column j of the inverse holds the
        # monomial coefficients of the basis function dual to dof j
        return np.linalg.inv(V)

    def local_hessians(self):
        """Constant Hessians of the six local basis functions, (F, 6, 2, 2)."""
        C = self._coeff  # (F, mono, basis)
        h = self.mesh.diameter
        H = np.empty((self.mesh.n_triangles, 6, 2, 2))
        # monomial order: 1, xi, eta, xi^2, xi*eta, eta^2
        H[:, :, 0, 0] = 2.0 * C[:, 3, :]
        H[:, :, 0, 1] = C[:, 4, :]
        H[:, :, 1, 0] = C[:, 4, :]
        H[:, :, 1, 1] = 2.0 * C[:, 5, :]
        return H / (h**2)[:, None, None, None]

    def tabulate(self, ts, s, bary, order):
        ts = np.asarray(ts)
        phys = self.physical_points(ts, 0, bary)
        h = self.mesh.diameter[ts]
        xi = (phys - self.mesh.centroid[ts][:, None]) / h[:, None, None]
        mono = mono_tabulate(_EXPS2, xi, order, inv_h=1.0 / h[:, None])
        C = self._coeff[ts]
        return {o: _mono_to_basis(mono[o], C) for o in mono}


class CompanionCRSpace(FeSpace):
    """Conforming P4 host space for the Crouzeix-Raviart companion."""

    m = 1
    poly_degree = 4
    n_local = 9

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        vfree = np.ones(mesh.n_vertices, dtype=bool)
        efree = np.ones(mesh.n_edges, dtype=bool)
        if kind == "COMPANION_CR":
            vfree &= ~mesh.boundary_vertex_mask
            efree &= mesh.interior_edge_mask
        self.vertex_dof, nv = _number(vfree)
        self.edge_dof, ne = _number(efree)
        self.edge_dof[efree] += nv
        F = mesh.n_triangles
        self.tri_dofs = nv + ne + np.arange(3 * F, dtype=np.int64).reshape(F, 3)
        self.ndofs = nv + ne + 3 * F
        self.cell_dofs = np.concatenate(
            [self.vertex_dof[mesh.triangles], self.edge_dof[mesh.triangle_edges], self.tri_dofs],
            axis=1,
        )
        b = cubic_bubble()
        lam = [BaryPoly.lam(k) for k in range(3)]
        ebub = [4.0 * lam[(k + 1) % 3] * lam[(k + 2) % 3] for k in range(3)]
        self._shapes = lam + ebub + [b * p for p in bary_modes(1)]

    def tabulate(self, ts, s, bary, order):
        ts = np.asarray(ts)
        tab = self._cached_bary("ccr", self._shapes, np.asarray(bary), order)
        return self._contract(tab, ts, order)


class CompanionMorleySpace(FeSpace):
    """HCT + degree-8 bubble host space for the Morley companion."""

    m = 2
    poly_degree = 8
    n_local = 18
    n_subcells = 3

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        vfree = np.ones(mesh.n_vertices, dtype=bool)
        efree = np.ones(mesh.n_edges, dtype=bool)
        if kind == "COMPANION_MORLEY":
            vfree &= ~mesh.boundary_vertex_mask
            efree &= mesh.interior_edge_mask
        # vertex block: value, d/dx, d/dy per free vertex
        self.vertex_dof = -np.ones((mesh.n_vertices, 3), dtype=np.int64)
        nv = int(vfree.sum())
        self.vertex_dof[vfree] = np.arange(3 * nv).reshape(nv, 3)
        self.edge_dof, ne = _number(efree)
        self.edge_dof[efree] += 3 * nv
        F = mesh.n_triangles
        self.tri_dofs = 3 * nv + ne + np.arange(6 * F, dtype=np.int64).reshape(F, 6)
        self.ndofs = 3 * nv + ne + 6 * F
        self.cell_dofs = np.concatenate(
            [
                self.vertex_dof[mesh.triangles].reshape(F, 9),
                self.edge_dof[mesh.triangle_edges],
                self.tri_dofs,
            ],
            axis=1,
        )
        self.hct_coef = hct_coefficients(mesh)
        b = cubic_bubble()
        self._bubbles = [b * b * p for p in bary_modes(2)]
        self._exps3 = monomial_exponents(3)

    def tabulate(self, ts, s, bary, order):
        ts = np.asarray(ts)
        bary = np.asarray(bary)
        phys = self.physical_points(ts, s, bary)
        h = self.mesh.diameter[ts]
        xi = (phys - self.mesh.centroid[ts][:, None]) / h[:, None, None]
        mono = mono_tabulate(self._exps3, xi, order, inv_h=1.0 / h[:, None])
        C = self.hct_coef[ts, s]  # (nts, 10, 12)
        parent_bary = bary @ SUB_TO_PARENT[s]
        btab = self._cached_bary(("bub", s), self._bubbles, parent_bary, order)
        bub = self._contract(btab, ts, order)
        return {
            o: np.concatenate([_mono_to_basis(mono[o], C), bub[o]], axis=1) for o in mono
        }

    def locate_subcell(self, t, points):
        points = np.atleast_2d(points)
        best_s = np.zeros(len(points), dtype=int)
        best_bary = np.empty((len(points), 3))
        best_min = np.full(len(points), -np.inf)
        for s in range(3):
            corners = self._subcell_corners(np.array([t]), s)[0]
            T = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
            lam12 = (points - corners[0]) @ np.linalg.inv(T).T
            lam = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
            m = lam.min(axis=1)
            better = m > best_min
            best_s[better] = s
            best_bary[better] = lam[better]
            best_min[better] = m[better]
        return best_s, best_bary


_KIND_CLASS = {
    "CR1_0": CRSpace,
    "CR1_full": CRSpace,
    "MORLEY_0": MorleySpace,
    "MORLEY_full": MorleySpace,
    "COMPANION_CR": CompanionCRSpace,
    "COMPANION_CR_full": CompanionCRSpace,
    "COMPANION_MORLEY": CompanionMorleySpace,
    "COMPANION_MORLEY_full": CompanionMorleySpace,
}
KINDS = tuple(_KIND_CLASS)

COMPANION_KIND = {
    "CR1_0": "COMPANION_CR",
    "CR1_full": "COMPANION_CR_full",
    "MORLEY_0": "COMPANION_MORLEY",
    "MORLEY_full": "COMPANION_MORLEY_full",
}


def nc_kind(m):
    """Kind of the homogeneous nonconforming space of order m: CR or Morley."""
    if m not in (1, 2):
        raise ValueError(f"the order m must be 1 or 2, not {m!r}")
    return "CR1_0" if m == 1 else "MORLEY_0"


def build_space(mesh, kind):
    try:
        cls = _KIND_CLASS[kind]
    except KeyError:
        raise ValueError(f"unknown space kind {kind!r}; one of {KINDS}") from None
    return cls(mesh, kind)


class FeFunction:
    """Coefficient vector bound to a space; piecewise-polynomial evaluation."""

    def __init__(self, space, coeffs=None):
        self.space = space
        if coeffs is None:
            coeffs = np.zeros(space.ndofs)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.ndofs,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, expected ({space.ndofs},)"
            )
        self.coeffs = coeffs

    def copy(self):
        return FeFunction(self.space, self.coeffs.copy())

    def local_coeffs(self, ts):
        dofs = self.space.cell_dofs[ts]
        c = np.where(dofs >= 0, self.coeffs[np.maximum(dofs, 0)], 0.0)
        return c

    def evaluate_batch(self, ts, s, bary, order):
        """Evaluate on subcell s of triangles ts at shared barycentric points.

        Returns dict: 0 -> (nts, k), 1 -> (nts, k, 2), 2 -> (nts, k, 2, 2).
        """
        ts = np.asarray(ts)
        return self._combine(ts, self.space.tabulate(ts, s, bary, order))

    def at(self, cell, order):
        """Values and derivatives up to `order` at the points of a quadrature Cell."""
        return self._combine(cell.ts, self.space.tabulate_cell(cell, order))

    def _combine(self, ts, tab):
        c = self.local_coeffs(ts)[:, None, :]  # (nts, 1, n_local)
        out = {}
        for o, t in tab.items():
            nts, n = t.shape[:2]
            flat = t.reshape(nts, n, math.prod(t.shape[2:]))
            out[o] = (c @ flat).reshape((nts,) + t.shape[2:])
        return out

    def evaluate(self, t, points, order=0):
        """Evaluate at physical points inside triangle t (value/grad/Hessian)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lam = self.space.mesh.barycentric(t, points)
        if lam.min() < -1e-10:
            raise ValueError(
                f"point {points[np.unravel_index(lam.argmin(), lam.shape)[0]]} "
                f"lies outside triangle {t}"
            )
        subs, sub_bary = self.space.locate_subcell(t, points)
        out = None
        for s in range(self.space.n_subcells):
            sel = subs == s
            if not sel.any():
                continue
            part = self.evaluate_batch(np.array([t]), s, sub_bary[sel], order)
            if out is None:
                k = len(points)
                out = {o: np.zeros((1, k) + part[o].shape[2:]) for o in part}
            for o in part:
                out[o][0, sel] = part[o][0]
        return out


def evaluate(f, t, point, derivative_order=0):
    """Value (order 0), gradient (1) or Hessian (2) of f inside triangle t."""
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    out = f.evaluate(t, point, derivative_order)
    return out[derivative_order][0]


def vertex_eval(f, vertex):
    """Single-valued vertex value of a Morley-type function.

    Point evaluation is not bounded on H^1, so this is refused for the
    piecewise-linear (m=1) kinds.
    """
    space = f.space
    if space.m != 2:
        raise ValueError("vertex evaluation requires an m=2 (Morley-type) space")
    mesh = space.mesh
    x = mesh.vertices[vertex]
    t = int(np.nonzero((mesh.triangles == vertex).any(axis=1))[0][0])
    return float(evaluate(f, t, x, 0)[0])


def split_point_eval(f, edge, point, mu=0.5):
    """Two-sided point value on an edge: mu*(f|T+) + (1-mu)*(f|T-).

    T+ is the triangle the global edge normal points into (the
    higher-index neighbour); on boundary edges both traces coincide.
    """
    space = f.space
    if space.m != 2:
        raise ValueError("point evaluation requires an m=2 (Morley-type) space")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    mesh = space.mesh
    point = np.asarray(point, dtype=float)
    a = mesh.vertices[mesh.edges[edge, 0]]
    b = mesh.vertices[mesh.edges[edge, 1]]
    seg = b - a
    tpar = float(np.dot(point - a, seg) / np.dot(seg, seg))
    offset = np.linalg.norm(point - (a + tpar * seg))
    if tpar < -1e-10 or tpar > 1 + 1e-10 or offset > 1e-10 * max(1.0, np.linalg.norm(seg)):
        raise ValueError(f"point {point} does not lie on edge {edge}")
    t_lo, t_hi = mesh.edge_triangles[edge]
    if t_hi < 0:
        return float(evaluate(f, int(t_lo), point, 0)[0])
    v_plus = float(evaluate(f, int(t_hi), point, 0)[0])
    v_minus = float(evaluate(f, int(t_lo), point, 0)[0])
    return mu * v_plus + (1.0 - mu) * v_minus


# -- serialization ---------------------------------------------------------

FUN_MAGIC = "ncfem-fun v1"


def save_function(f, path):
    lines = [f"{FUN_MAGIC} {f.space.kind} {f.space.ndofs}"]
    lines.extend(repr(float(c)) for c in f.coeffs)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_function(path, mesh_or_space):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = lines[0].split()
    if " ".join(head[:2]) != FUN_MAGIC:
        raise ValueError(f"bad header, expected {FUN_MAGIC!r}")
    kind, ndofs = head[2], int(head[3])
    if isinstance(mesh_or_space, FeSpace):
        space = mesh_or_space
        if space.kind != kind:
            raise ValueError(f"file stores kind {kind}, space has {space.kind}")
    else:
        space = build_space(mesh_or_space, kind)
    coeffs = np.array([float(v) for v in lines[1:]])
    if len(coeffs) != ndofs or ndofs != space.ndofs:
        raise ValueError(
            f"coefficient count mismatch: file {len(coeffs)}/{ndofs}, space {space.ndofs}"
        )
    return FeFunction(space, coeffs)
