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
pinned to zero.  Companion-Morley functions live on the 3-subtriangle HCT
split (``n_subcells = 3``).

Evaluation
----------
Every space is a list of barycentric polynomials shared by all triangles
(its modes) plus a per-triangle coefficient map from local dofs to modes.
The map is the identity for CR, companion CR and the companion bubbles;
Morley and HCT functions have their monomial expansions converted once, at
construction, into coefficients of the parent triangle's ``bary_modes(2)``
and ``bary_modes(3)`` (on the split, one map per subcell).  The modes'
values and formal lambda-partials are tabulated once per point set, in
triangle coordinates, and memoized per space; physical derivatives follow
by contraction with the constant barycentric gradients.  Each evaluator
returns the one derivative order asked for, with a trailing 2 per order.
:meth:`FeSpace.tabulate_cell` maps the contracted modes to the local basis,
while :meth:`FeFunction.at` first folds a function's local dof vectors into
mode coefficients, so it never builds a basis table.
"""

from __future__ import annotations

import numpy as np

from ._hct import EXPS3, hct_coefficients
from ._poly import (
    BaryPoly,
    bary_modes,
    bary_tabulate,
    cubic_bubble,
    lambda_gradients,
    mono_tabulate,
    monomial_exponents,
)
from .quadrature import Cell, parent_points, subcell_corners

__all__ = [
    "FeSpace",
    "FeFunction",
    "build_space",
    "nc_kind",
    "save_function",
    "load_function",
    "KINDS",
]

_EXPS2 = monomial_exponents(2)

# memo entries (point sets) per space before it is emptied; a certify job
# needs 16 at most (companion Morley in ``compare --m 2``)
_BARY_CACHE_SIZE = 64


def _mono_to_modes(mesh, exps, coef):
    """Parent-triangle ``bary_modes(k)`` coefficients of monomial expansions.

    `coef` (F, nsub, n_mono, n_fun) holds coefficients of the scaled centered
    monomials `exps` of degree k; the result (F, nsub, n_modes, n_fun) comes
    from exact interpolation on the P_k lattice of each triangle.
    """
    k = max(a + b for a, b in exps)
    lattice = np.array([(k - a - b, a, b) for a in range(k + 1) for b in range(k + 1 - a)]) / k
    modes_at = bary_tabulate(bary_modes(k), lattice, 0)[0]  # (n_modes, n_points)
    phys = lattice @ mesh.vertices[mesh.triangles]  # (F, n_points, 2)
    xi = (phys - mesh.centroid[:, None]) / mesh.diameter[:, None, None]
    vals = mono_tabulate(exps, xi, 0)[0][:, None] @ coef  # (F, nsub, n_points, n_fun)
    return np.linalg.inv(modes_at.T) @ vals


def _number(mask):
    """Enumerate free entities: returns (dof array with -1 at constrained, count)."""
    dof = -np.ones(len(mask), dtype=np.int64)
    dof[mask] = np.arange(int(mask.sum()))
    return dof, int(mask.sum())


def _free_entities(mesh, kind):
    """Masks of the vertices and edges that carry dofs: all of them for the
    ``*_full`` kinds, the interior ones for the homogeneous kinds."""
    if kind.endswith("_full"):
        return np.ones(mesh.n_vertices, dtype=bool), np.ones(mesh.n_edges, dtype=bool)
    return ~mesh.boundary_vertex_mask, mesh.interior_edge_mask


def _number_dofs(space, per_vertex, per_triangle):
    """Number the dofs of `space`: free vertices (vertex-major), free edges,
    then every triangle.

    Sets ``vertex_dof`` ((V,), or (V, per_vertex) for several dofs per
    vertex), ``edge_dof``, ``tri_dofs`` (F, per_triangle), ``ndofs`` and
    ``cell_dofs``; constrained entities carry -1.
    """
    mesh = space.mesh
    F = mesh.n_triangles
    vfree, efree = _free_entities(mesh, space.kind)
    vertex_dof, nv = _number(np.repeat(vfree, per_vertex))
    space.vertex_dof = vertex_dof if per_vertex == 1 else vertex_dof.reshape(-1, per_vertex)
    space.edge_dof, ne = _number(efree)
    space.edge_dof[efree] += nv
    n_tri = per_triangle * F
    space.tri_dofs = nv + ne + np.arange(n_tri, dtype=np.int64).reshape(F, per_triangle)
    space.ndofs = nv + ne + n_tri
    space.cell_dofs = np.concatenate(
        [space.vertex_dof[mesh.triangles].reshape(F, 3 * per_vertex),
         space.edge_dof[mesh.triangle_edges], space.tri_dofs], axis=1
    )


def _cell(space, ts, s, bary):
    """Cell for subcell barycentric points on subcell s of triangles ts."""
    bary = np.asarray(bary, dtype=float)
    parent = parent_points(bary, s, space.n_subcells)
    return Cell(np.asarray(ts), s, space.n_subcells, parent, None, None, None)


class FeSpace:
    """Base class; concrete spaces fill in dof maps, modes and mode map.

    ``_modes`` lists the barycentric polynomials shared by all triangles.
    ``_mode_coef`` (F, n_subcells, r, q), or None for the identity, holds the
    coefficients of the first q local basis functions in the first r modes;
    local functions after the q-th are the remaining modes themselves.
    """

    n_subcells = 1
    _mode_coef = None

    def __init__(self, mesh, kind):
        self.mesh = mesh
        self.kind = kind
        self._lgrad = lambda_gradients(mesh)
        self._bary_cache = {}

    def locate_subcell(self, t, points):
        """Subcell index and subcell barycentric coords for points inside t:
        per point, the subcell whose smallest coordinate is largest."""
        points = np.atleast_2d(points)
        best_s = np.zeros(len(points), dtype=int)
        best_bary = np.full((len(points), 3), np.nan)
        best_min = np.full(len(points), -np.inf)
        for s in range(self.n_subcells):
            corners = subcell_corners(self.mesh, np.array([t]), s, self.n_subcells)[0]
            T = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
            lam12 = (points - corners[0]) @ np.linalg.inv(T).T
            lam = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
            m = lam.min(axis=1)
            better = m > best_min
            best_s[better] = s
            best_bary[better] = lam[better]
            best_min[better] = m[better]
        return best_s, best_bary

    def tabulate(self, ts, s, bary, order):
        """Local basis on subcell s of triangles ts at subcell barycentric points:
        the derivative of order `order`, (nts, n_local, k) + (2,) * order."""
        return self.tabulate_cell(_cell(self, ts, s, bary), order)

    def tabulate_cell(self, cell, order):
        """Derivative of order `order` of the local basis at the points of a
        quadrature Cell, (nts, n_local, k) + (2,) * order.

        The modes are tabulated at the cell's triangle coordinates; a space
        on the HCT split maps them with the coefficients of the cell's subcell.
        """
        ts = cell.ts
        tab = self._cached_bary(cell.parent, order)
        nts = len(ts)
        n, k = tab.shape[:2]
        if order:
            G = self._lgrad_powers(ts, order)
            modes = (tab.reshape(n * k, 3**order) @ G).reshape((nts, n, k) + (2,) * order)
        else:
            modes = np.broadcast_to(tab, (nts, n, k))
        if self._mode_coef is None:
            return modes
        D = self._mode_coef[ts, self._subcell(cell)].swapaxes(1, 2)  # (nts, q, r)
        q, r = D.shape[1:]
        mapped = (D @ modes[:, :r].reshape(nts, r, -1)).reshape((nts, q) + modes.shape[2:])
        return np.concatenate([mapped, modes[:, r:]], axis=1)

    def fold(self, ts, s, c):
        """Mode coefficients (nts, n_modes) of local dof vectors c (nts, n_local)
        on subcell s of triangles ts."""
        if self._mode_coef is None:
            return c
        D = self._mode_coef[ts, s]
        q = D.shape[2]
        return np.concatenate([(D @ c[:, :q, None])[..., 0], c[:, q:]], axis=1)

    def mode_values(self, ts, a, tab, order):
        """Derivative of order `order` of mode combinations a (nts, n_modes),
        (nts, k) + (2,) * order.

        `tab` holds the modes' formal lambda-partials of that order at points
        shared by all triangles, (n_modes, k) + (3,) * order, or at points of
        each triangle, (nts, n_modes, k) + (3,) * order.
        """
        nts = len(ts)
        lead = tab.ndim - 2 - order
        k = tab.shape[lead + 1]
        flat = tab.reshape(tab.shape[: lead + 1] + (-1,))
        v = a @ flat if lead == 0 else (a[:, None] @ flat)[:, 0]
        if order:
            v = v.reshape(nts, k, 3**order) @ self._lgrad_powers(ts, order)
        return v.reshape((nts, k) + (2,) * order)

    def _subcell(self, cell):
        return cell.s if self.n_subcells > 1 else 0

    def _cached_bary(self, parent, order):
        """Order-`order` lambda-partials of the modes at triangle coordinates
        `parent`, (n_modes, k) + (3,) * order, read from the point set's one
        memo entry, which holds every order up to the highest asked so far."""
        key = parent.tobytes()
        tab = self._bary_cache.get(key)
        if tab is None or order not in tab:
            if tab is None and len(self._bary_cache) >= _BARY_CACHE_SIZE:
                self._bary_cache.clear()
            tab = self._bary_cache[key] = bary_tabulate(self._modes, parent, order)
        return tab[order]

    def _lgrad_powers(self, ts, order):
        """(nts, 3**order, 2**order): order-fold products of barycentric
        gradients, for order 1 or 2."""
        gl = self._lgrad[ts]  # (nts, 3, 2)
        if order == 1:
            return gl
        # products grad(lambda_a)_d * grad(lambda_b)_e
        return (gl[:, :, None, :, None] * gl[:, None, :, None, :]).reshape(len(ts), 9, 4)


class CRSpace(FeSpace):
    """Crouzeix-Raviart space; local basis 1 - 2*lambda_k per edge dof."""

    m = 1
    poly_degree = 1
    n_local = 3

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        self.edge_dof, self.ndofs = _number(_free_entities(mesh, kind)[1])
        self.cell_dofs = self.edge_dof[mesh.triangle_edges]
        self._modes = [BaryPoly.const(1.0) - 2.0 * BaryPoly.lam(k) for k in range(3)]


class MorleySpace(FeSpace):
    """Morley space; per-triangle quadratic basis dual to the Morley dofs."""

    m = 2
    poly_degree = 2
    n_local = 6

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        _number_dofs(self, 1, 0)
        self._modes = bary_modes(2)
        self._mode_coef = _mono_to_modes(mesh, _EXPS2, self._build_local_bases()[:, None])

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


class CompanionCRSpace(FeSpace):
    """Conforming P4 host space for the Crouzeix-Raviart companion."""

    m = 1
    poly_degree = 4
    n_local = 9

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        _number_dofs(self, 1, 3)
        b = cubic_bubble()
        lam = [BaryPoly.lam(k) for k in range(3)]
        ebub = [4.0 * lam[(k + 1) % 3] * lam[(k + 2) % 3] for k in range(3)]
        self._modes = lam + ebub + [b * p for p in bary_modes(1)]


class CompanionMorleySpace(FeSpace):
    """HCT + degree-8 bubble host space for the Morley companion."""

    m = 2
    poly_degree = 8
    n_local = 18
    n_subcells = 3

    def __init__(self, mesh, kind):
        super().__init__(mesh, kind)
        _number_dofs(self, 3, 6)  # per vertex: value, d/dx, d/dy
        b = cubic_bubble()
        self._bubbles = [b * b * p for p in bary_modes(2)]
        self._modes = bary_modes(3) + self._bubbles
        self._mode_coef = _mono_to_modes(mesh, EXPS3, hct_coefficients(mesh))


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
        self.degree, self.n_subcells = space.poly_degree, space.n_subcells

    def sample(self, cell, orders):
        """Order -> :meth:`at` of that order, as a reference answers."""
        return {k: self.at(cell, k) for k in orders}

    def local_coeffs(self, ts):
        dofs = self.space.cell_dofs[ts]
        c = np.where(dofs >= 0, self.coeffs[np.maximum(dofs, 0)], 0.0)
        return c

    def evaluate_batch(self, ts, s, bary, order):
        """Derivative of order `order` on subcell s of triangles ts at shared
        barycentric points, (nts, k) + (2,) * order."""
        return self.at(_cell(self.space, ts, s, bary), order)

    def at(self, cell, order):
        """Derivative of order `order` at the points of a quadrature Cell,
        (nts, k) + (2,) * order.

        The local dof vectors are folded into mode coefficients and contracted
        with the space's memoized mode table.
        """
        space = self.space
        a = space.fold(cell.ts, space._subcell(cell), self.local_coeffs(cell.ts))
        return space.mode_values(cell.ts, a, space._cached_bary(cell.parent, order), order)

    def evaluate(self, t, points, order=0):
        """Value (order 0), gradient (1) or Hessian (2) at physical points
        inside triangle t, (1, k) + (2,) * order."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, not {order!r}")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        subs, sub_bary = self.space.locate_subcell(t, points)
        if sub_bary.min() < -1e-10:
            raise ValueError(
                f"point {points[np.unravel_index(sub_bary.argmin(), sub_bary.shape)[0]]} "
                f"lies outside triangle {t}"
            )
        out = np.zeros((1, len(points)) + (2,) * order)
        for s in range(self.space.n_subcells):
            sel = subs == s
            if sel.any():
                out[0, sel] = self.evaluate_batch(np.array([t]), s, sub_bary[sel], order)[0]
        return out


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
    head = lines[0].split() if lines else []
    if len(head) != 4 or " ".join(head[:2]) != FUN_MAGIC:
        raise ValueError(f"bad header, expected '{FUN_MAGIC} <kind> <ndofs>'")
    kind, ndofs = head[2], int(head[3])
    if isinstance(mesh_or_space, FeSpace):
        space = mesh_or_space
        if space.kind != kind:
            raise ValueError(f"file stores kind {kind}, space has {space.kind}")
    else:
        space = build_space(mesh_or_space, kind)
    coeffs = np.array([float(v) for v in lines[1:]])
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite coefficient")
    if len(coeffs) != ndofs or ndofs != space.ndofs:
        raise ValueError(
            f"coefficient count mismatch: file {len(coeffs)}/{ndofs}, space {space.ndofs}"
        )
    return FeFunction(space, coeffs)
