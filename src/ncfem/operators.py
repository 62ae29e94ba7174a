"""Nonconforming interpolation, companion (smoother) operators, and the
norm of their defect.

The companion operator is a conforming right-inverse of the nonconforming
interpolation with an extra per-triangle L2 orthogonality of the defect to
P_m.  Its construction is staged: nodal averaging into the conforming host
space, edge corrections restoring the interpolation degrees of freedom,
then volume-bubble corrections enforcing the moment conditions (per
``CHUNK`` triangles, to bound memory).  All stages compose into one sparse
coefficient map, so applying the operator is a matrix-vector product.

``compute_lambda0`` characterizes the operator norm of (1 - J) on the
nonconforming space through the generalized eigenproblem B x = lambda A x
built from the nonconforming and companion stiffness matrices; the
best-approximation constant of the right-hand-side-smoothed scheme is
sqrt(1 + lambda0^2).

A ``Discretization`` holds what every computation on one mesh shares: the
nonconforming space, its companion map, the stiffness, its LU factor,
lambda0 and the load vectors, each built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import assembly, linalg
from ._hct import CHUNK
from ._poly import bary_modes, bary_tabulate, moment_matrix
from .fespace import COMPANION_KIND, CRSpace, FeFunction, MorleySpace, build_space
from .fields import quad_degree
from .quadrature import cells, edge_rule, ordered_map, sample_cell, triangle_rule

__all__ = [
    "CompanionMap",
    "Discretization",
    "Lambda0Result",
    "interpolate",
    "build_companion",
    "companion",
    "compute_lambda0",
    "kappa_constant",
    "best_approx_orthogonality_check",
]


# -- interpolation -----------------------------------------------------------


def _edge_means(f, mesh, edges, order):
    """Edge means of f (order 0) or of its gradient (order 1), sampled on
    each edge's first neighbour: one Cell per edge slot and orientation."""
    rule = edge_rule(quad_degree(f))
    t = rule.points[:, 1]
    ts = mesh.edge_triangles[edges, 0]
    slots = np.argmax(mesh.triangle_edges[ts] == edges[:, None], axis=1)
    # forward orientation: edge vertex order (a, b) matches (A_{k+1}, A_{k+2})
    fwd = mesh.triangles[ts, (slots + 1) % 3] == mesh.edges[edges, 0]
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    phys = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    vals = np.zeros((len(edges), rule.n_points) + (2,) * order)
    for k in range(3):
        for is_fwd in (True, False):
            sel = (slots == k) & (fwd == is_fwd)
            if not sel.any():
                continue
            ta, tb = (1.0 - t, t) if is_fwd else (t, 1.0 - t)
            # outer edge k is the side (A_{k+1}, A_{k+2}) of HCT subtriangle k
            bary = np.column_stack([np.zeros(rule.n_points), ta, tb])
            cell = sample_cell(ts[sel], bary, k, 3, phys[sel])
            vals[sel] = f.sample(cell, (order,))[order]
    return np.einsum("k,fk...->f...", rule.weights, vals)


def _vertex_values(f, mesh, vertices):
    """Values of f at `vertices`, sampled on a triangle at each: one Cell
    per vertex slot."""
    first_tri = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vslot = np.zeros(mesh.n_vertices, dtype=np.int64)
    for k in range(3):
        first_tri[mesh.triangles[:, k]] = np.arange(mesh.n_triangles)
        vslot[mesh.triangles[:, k]] = k
    out = np.zeros(len(vertices))
    ts = first_tri[vertices]
    slots = vslot[vertices]
    for k in range(3):
        sel = slots == k
        if not sel.any():
            continue
        # A_k is local corner 1 of HCT subtriangle (k+2)%3
        phys = mesh.vertices[vertices[sel]][:, None, :]
        cell = sample_cell(ts[sel], [[0.0, 1.0, 0.0]], (k + 2) % 3, 3, phys)
        out[sel] = f.sample(cell, (0,))[0][:, 0]
    return out


def interpolate(space, f):
    """Nonconforming interpolation: edge means (CR) or vertex values plus
    edge-mean normal derivatives (Morley), onto the free dofs of `space`;
    an FeFunction `f` must live on the space's mesh."""
    mesh = space.mesh
    if isinstance(f, FeFunction) and f.space.mesh is not mesh:
        raise ValueError("reference lives on a different mesh")
    coeffs = np.zeros(space.ndofs)
    if isinstance(space, CRSpace):
        edges = np.nonzero(space.edge_dof >= 0)[0]
        coeffs[space.edge_dof[edges]] = _edge_means(f, mesh, edges, 0)
        return FeFunction(space, coeffs)
    if isinstance(space, MorleySpace):
        verts = np.nonzero(space.vertex_dof >= 0)[0]
        coeffs[space.vertex_dof[verts]] = _vertex_values(f, mesh, verts)
        edges = np.nonzero(space.edge_dof >= 0)[0]
        gmeans = _edge_means(f, mesh, edges, 1)
        coeffs[space.edge_dof[edges]] = np.einsum(
            "fd,fd->f", gmeans, mesh.edge_normal[edges]
        )
        return FeFunction(space, coeffs)
    raise ValueError(f"interpolation targets CR or Morley spaces, not {space.kind}")


# -- companion operators -----------------------------------------------------


@dataclass(frozen=True)
class CompanionMap:
    """Sparse coefficient map from a nonconforming space into its conforming host."""

    source: object
    target: object
    matrix: sp.csr_matrix


def companion(cmap, v_nc):
    """Apply the companion operator to a nonconforming function."""
    if v_nc.space is not cmap.source:
        raise ValueError("function does not belong to the companion's source space")
    return FeFunction(cmap.target, cmap.matrix @ v_nc.coeffs)


def _block_inverse_kron(n_blocks, M):
    return sp.kron(sp.identity(n_blocks, format="csr"), np.linalg.inv(M), format="csr")


def _moment_block(table, col_ids, width):
    """Sparse (n_modes * F, width) matrix of per-triangle moment tables.

    `table` (F, n_local, n_modes) holds the moment of local function j
    against each mode on triangle f; it lands in rows n_modes*f + mode and
    column ``col_ids[f, j]`` (skipped where that is -1).
    """
    F, _, n_modes = table.shape
    rows = np.arange(n_modes * F).reshape(F, 1, n_modes)
    return assembly.scatter(rows, col_ids[:, :, None], table, (n_modes * F, width))


def _selector(ids, n_src):
    """(len(ids), n_src) 0/1 matrix with a one at (i, ids[i]) where ids[i] >= 0."""
    return assembly.scatter(np.arange(len(ids)), ids, 1.0, (len(ids), n_src))


def _edge_incidence(mesh):
    """(E, V) 0/1 matrix of the two endpoints of each edge."""
    E = mesh.n_edges
    return assembly.scatter(np.arange(E)[:, None], mesh.edges, 1.0, (E, mesh.n_vertices))


def _vertex_average(source, homogeneous):
    """Vertex averages, over the adjacent triangles, of the (m-1)-th
    derivative of a source function: one (V, n_src) matrix per component,
    with zero rows at boundary vertices when `homogeneous`."""
    mesh = source.mesh
    V, F = mesh.n_vertices, mesh.n_triangles
    tri = mesh.triangles
    o = source.m - 1
    corner = source.tabulate(sample_cell(np.arange(F), np.eye(3)), o)
    corner = corner.reshape(F, source.n_local, 3, -1)
    n_adj = np.bincount(tri.ravel(), minlength=V).astype(float)
    weighted = corner * (1.0 / n_adj[tri])[:, None, :, None]
    # duplicates sum in (corner k, local dof j, triangle f) order, which fixes J's bits
    rows, cols = tri.T[:, None, :], source.cell_dofs.T[None, :, :]
    mats = [assembly.scatter(rows, cols, weighted[..., c].T, (V, source.ndofs))
            for c in range(weighted.shape[-1])]
    if homogeneous:
        mask = sp.diags((~mesh.boundary_vertex_mask).astype(float))
        mats = [mask @ W for W in mats]
    return mats


def _bubble_rows(source, S, M, terms):
    """Volume-bubble rows M^-1 R, per ``CHUNK`` triangles: a triangle's rows
    need only its own moment rows, so the chunks run on
    :func:`~ncfem.quadrature.ordered_map`'s workers.  R is block(S), the
    source basis's moments (F, n_local, n_modes), minus block(table) @ H for
    each of `terms` in order: moments of the host functions at columns
    col_ids whose coefficients are H times the source ones.  M: bubbles
    against modes."""

    def rows(lo):
        ts = slice(lo, lo + CHUNK)
        R = _moment_block(S[ts], source.cell_dofs[ts], source.ndofs)
        for table, col_ids, H in terms:
            R = R - _moment_block(table[ts], col_ids[ts], H.shape[0]) @ H
        return _block_inverse_kron(R.shape[0] // len(M), M) @ R

    return ordered_map(rows, range(0, source.mesh.n_triangles, CHUNK))


def _stack_rows(target, vertex_maps, edge_map, bubbles):
    """J: per free host vertex one row of each vertex map, in turn, then the
    free host edges' rows of `edge_map`, then the bubble rows."""
    V = target.mesh.n_vertices
    vfree = np.nonzero(target.vertex_dof.reshape(V, -1)[:, 0] >= 0)[0]
    perm = (vfree[:, None] + V * np.arange(len(vertex_maps))).ravel()
    efree = target.edge_dof >= 0
    vertex_rows = sp.vstack(vertex_maps, format="csr")[perm]
    return sp.vstack([vertex_rows, edge_map[efree], *bubbles], format="csr")


def _cr_companion_matrix(source, target):
    mesh = source.mesh
    F = mesh.n_triangles

    # stage 1: vertex averages of the CR function's corner values, its P1
    # value there (the two adjacent-edge coefficients minus the opposite one)
    (W,) = _vertex_average(source, target.kind == "COMPANION_CR")

    # stage 2: edge bubbles restore every edge mean
    alpha = 1.5 * _selector(source.edge_dof, source.ndofs) - 0.75 * (_edge_incidence(mesh) @ W)

    # stage 3: volume bubbles enforce the P1 moment conditions per triangle
    modes = bary_modes(1)
    hats, edge_bubbles, bubbles = (target._modes[i:i + 3] for i in (0, 3, 6))

    def table(polys):  # the same moments on every triangle
        return np.broadcast_to(moment_matrix(polys, modes), (F, 3, 3))

    vol = _bubble_rows(
        source, table(source._modes), moment_matrix(bubbles, modes),
        [(table(hats), mesh.triangles, W), (table(edge_bubbles), mesh.triangle_edges, alpha)],
    )
    return _stack_rows(target, [W], alpha, vol)


def _morley_companion_matrix(source, target):
    mesh = source.mesh
    V, F = mesh.n_vertices, mesh.n_triangles

    # vertex values: Morley functions are single-valued at vertices;
    # vertex gradients by arithmetic averaging over the adjacent triangles
    Wval = _selector(source.vertex_dof, source.ndofs)
    Wgx, Wgy = _vertex_average(source, target.kind == "COMPANION_MORLEY")

    # edge-midpoint normal derivatives chosen so each edge MEAN equals the
    # Morley dof (the normal derivative of a cubic is quadratic: Simpson)
    inc = _edge_incidence(mesh)
    nu = mesh.edge_normal
    N = 1.5 * _selector(source.edge_dof, source.ndofs) - 0.25 * (
        sp.diags(nu[:, 0]) @ (inc @ Wgx) + sp.diags(nu[:, 1]) @ (inc @ Wgy)
    )

    # bubble corrections enforce the P2 moment conditions per triangle
    modes = bary_modes(2)
    rule_s = triangle_rule(4)
    tabM = source.tabulate(sample_cell(np.arange(F), rule_s.points), 0)  # (F, 6, k)
    qv = bary_tabulate(modes, rule_s.points, 0)[0]  # (6, k)
    S = np.einsum("k,fjk,lk->fjl", rule_s.weights, tabM, qv)  # (F, 6 dof, 6 mode)

    # moments of the twelve HCT shape functions, subcell by subcell
    P_loc = np.zeros((F, 12, 6))
    for c in cells(mesh, 5, target):
        qv_s = bary_tabulate(modes, c.parent, 0)[0].T  # (k, 6)
        shape_vals = target.tabulate(c, 0)[:, :12]  # (nts, 12, k)
        P_loc[c.ts] += (shape_vals * (c.weights / c.nsub)) @ qv_s

    # columns of the stacked HCT-dof matrix: value z -> z, d/dx z -> V + z,
    # d/dy z -> 2V + z, edge normal E -> 3V + E
    cols_hct = np.concatenate(
        [(mesh.triangles[:, :, None] + V * np.arange(3)).reshape(F, 9),
         3 * V + mesh.triangle_edges], axis=1)
    H_all = sp.vstack([Wval, Wgx, Wgy, N]).tocsr()
    vol = _bubble_rows(source, S, moment_matrix(target._bubbles, modes),
                       [(P_loc, cols_hct, H_all)])
    return _stack_rows(target, [Wval, Wgx, Wgy], N, vol)


def build_companion(space):
    """Companion map for a CR or Morley space into its conforming host."""
    if space.kind not in COMPANION_KIND:
        raise ValueError(f"no companion construction for {space.kind}; "
                         f"one of {sorted(COMPANION_KIND)}")
    target = build_space(space.mesh, COMPANION_KIND[space.kind])
    build = _cr_companion_matrix if isinstance(space, CRSpace) else _morley_companion_matrix
    return CompanionMap(source=space, target=target, matrix=build(space, target))


# -- constants and the defect norm ------------------------------------------

# first positive root of J1, as brentq(scipy.special.j1, 3.0, 4.5, xtol=1e-13)
# returns it
_J1_ROOT = 3.8317059702075107


def kappa_constant(m):
    """Interpolation constant of the nonconforming interpolation error.

    m=1: sqrt(j^-2 + 1/48) with j = ``_J1_ROOT``, the first positive root of
    the Bessel function J1; m=2: the known shape-independent value
    0.25745784465.
    """
    if m == 1:
        return float(np.sqrt(_J1_ROOT**-2 + 1.0 / 48.0))
    if m == 2:
        return 0.25745784465
    raise ValueError("kappa is available for m in {1, 2}")


@dataclass(frozen=True)
class Lambda0Result:
    """Norm of (1 - J), its extremal function and the companion pencil matrix B."""

    lambda0: float
    c_qo: float
    extremal_vector: FeFunction
    lambda_max: float
    residual: float
    B: sp.csr_matrix


def compute_lambda0(space, cmap, A, lu):
    """Solve B x = lambda A x for the defect norm of the companion.

    A is the nonconforming stiffness and `lu` its ``linalg.factor``,
    B = J' A_c J (symmetrized) the stiffness of the companion images,
    lambda0 = sqrt(lambda_max - 1), and the extremal vector has unit piecewise
    energy.  One Lanczos solve at every size, with relative residual at most
    ``linalg.EIG_RESIDUAL_TOL`` (else EigenError).
    """
    Ac = assembly.assemble_stiffness(cmap.target)
    J = cmap.matrix
    B = (J.T @ (Ac @ J)).tocsr()
    B = 0.5 * (B + B.T)
    lam, x, res = linalg.max_generalized_eig(B, A, lu=lu)
    lam0 = float(np.sqrt(max(lam - 1.0, 0.0)))
    return Lambda0Result(
        lambda0=lam0,
        c_qo=float(np.sqrt(1.0 + lam0**2)),
        extremal_vector=FeFunction(space, x),
        lambda_max=float(lam),
        residual=res,
        B=B,
    )


class Discretization:
    """The nonconforming space of `kind` on `mesh`, its companion map, its
    stiffness A, the LU factor of A and lambda0, each built on first use and
    kept until :meth:`release`, and the last load vector of each scheme.

    Both schemes, the constant C_qo and both estimators read one instance.
    The stages read these products:

    - ``cmap``: the smoothed load, J u_nc, lambda0 and the estimators;
    - ``A`` and ``lu``: the solve, lambda0 and the estimators;
    - ``lam0``: the estimators.

    A rate study (:func:`~ncfem.experiments.run_rate_study`) releases a
    level's ``A``, ``lu`` and ``cmap`` before its error norms, and a fine-grid
    reference its ``cmap`` right after the smoothed load, before the factor.
    The study solves the finest level first on the calling thread and then
    hands off: while the calling thread integrates the finest level's norms,
    a pool worker solves and integrates the coarser levels.  No product of
    the finest level is built after the hand-off.  That matters on Python
    3.11, whose ``cached_property`` holds one lock per property for every
    instance: a thread building the finest level's ``cmap`` would wait on the
    worker building a coarser one.
    """

    def __init__(self, mesh, kind):
        self.mesh = mesh
        self.kind = kind
        self._loads = {}  # scheme -> (data, load vector)

    @cached_property
    def space(self):
        space = build_space(self.mesh, self.kind)
        if space.ndofs == 0:
            raise ValueError(f"{self.kind} has no degrees of freedom on this mesh")
        return space

    @cached_property
    def cmap(self):
        return build_companion(self.space)

    @cached_property
    def A(self):
        return assembly.assemble_stiffness(self.space)

    @cached_property
    def lu(self):
        return linalg.factor(self.A)

    @cached_property
    def lam0(self):
        return compute_lambda0(self.space, self.cmap, self.A, lu=self.lu)

    def release(self, *names):
        """Drop the named products, those that were built, once no later
        stage reads them."""
        for name in names:
            self.__dict__.pop(name, None)

    def rhs(self, scheme, data):
        """Load vector (read-only) of the "original" (natural) or the smoothed
        scheme; kept until the scheme is asked for with other `data`."""
        kept = self._loads.get(scheme)
        if kept is not None and kept[0] is data:
            return kept[1]
        if scheme == "original":
            load = assembly.assemble_rhs_original(self.space, data)
        else:
            load = assembly.assemble_rhs_modified(self.space, data, self.cmap)
        load.flags.writeable = False
        self._loads[scheme] = (data, load)
        return load

    def solve(self, rhs):
        """Discrete solution for `rhs`; RuntimeError when the solve misses
        ``linalg.check_solution``'s rule."""
        x, rep = linalg.solve_spd(self.A, rhs, lu=self.lu)
        if not rep.converged:
            raise RuntimeError(f"discrete solve failed: residual {rep.residual:.2e}")
        return FeFunction(self.space, x)


def best_approx_orthogonality_check(v, iv):
    """Max P_m-moment of the m-th derivative of the interpolation defect.

    The interpolation is characterized by per-triangle orthogonality of
    D^m (v - I v) to constants, which is what this evaluates (polynomials
    of lower order drop out of the piecewise energy product).  `v` is an
    FeFunction, such as a companion image, and `iv` its interpolation
    ``interpolate(space, v)`` onto a nonconforming space.
    """
    mesh = iv.space.mesh
    m = iv.space.m
    total = np.zeros((mesh.n_triangles,) + ((2,) if m == 1 else (2, 2)))
    for c in cells(mesh, max(v.space.poly_degree - m, 1), v.space):
        dv = v.at(c, m) - iv.at(c, m)
        total[c.ts] += np.einsum("k,fk...->f...", c.weights / c.nsub, dv)
    total *= mesh.area.reshape((-1,) + (1,) * (total.ndim - 1))
    return float(np.abs(total).max())
