"""Nonconforming interpolation, companion (smoother) operators, and the
norm of their defect.

The companion operator is a conforming right-inverse of the nonconforming
interpolation with an extra per-triangle L2 orthogonality of the defect to
P_m.  Its construction is staged: nodal averaging into the conforming host
space, edge corrections restoring the interpolation degrees of freedom,
then volume-bubble corrections enforcing the moment conditions.  All
stages compose into one sparse coefficient map, so applying the operator
is a matrix-vector product.

``compute_lambda0`` characterizes the operator norm of (1 - J) on the
nonconforming space through the generalized eigenproblem B x = lambda A x
built from the nonconforming and companion stiffness matrices; the
best-approximation constant of the right-hand-side-smoothed scheme is
sqrt(1 + lambda0^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.special import j1 as bessel_j1

from . import assembly
from ._poly import BaryPoly, bary_modes, cubic_bubble, mono_tabulate, monomial_exponents
from .fespace import (
    COMPANION_KIND,
    CompanionCRSpace,
    CompanionMorleySpace,
    CRSpace,
    FeFunction,
    MorleySpace,
    build_space,
)
from .fields import ExactSolution
from .quadrature import Cell, cells, edge_rule, triangle_rule

__all__ = [
    "CompanionMap",
    "Lambda0Result",
    "interpolate",
    "build_companion",
    "companion",
    "compute_lambda0",
    "kappa_constant",
    "best_approx_orthogonality_check",
]


# -- interpolation -----------------------------------------------------------


def _edge_points(mesh, edges_idx, rule):
    a = mesh.vertices[mesh.edges[edges_idx, 0]]
    b = mesh.vertices[mesh.edges[edges_idx, 1]]
    t = rule.points[:, 1]
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


def _fef_on_edges(f, edges_idx, rule, order):
    """Edge-rule samples of an FeFunction, taken from the first neighbour."""
    mesh = f.space.mesh
    edges_idx = np.asarray(edges_idx)
    ts = mesh.edge_triangles[edges_idx, 0]
    slots = np.argmax(mesh.triangle_edges[ts] == edges_idx[:, None], axis=1)
    # forward orientation: edge vertex order (a, b) matches (A_{k+1}, A_{k+2})
    fwd = mesh.triangles[ts, (slots + 1) % 3] == mesh.edges[edges_idx, 0]
    t = rule.points[:, 1]
    shape = (len(edges_idx), rule.n_points) + ((2,) if order == 1 else ())
    out = np.zeros(shape)
    for k in range(3):
        for is_fwd in (True, False):
            sel = (slots == k) & (fwd == is_fwd)
            if not sel.any():
                continue
            ta, tb = (1.0 - t, t) if is_fwd else (t, 1.0 - t)
            parent = np.zeros((rule.n_points, 3))
            parent[:, (k + 1) % 3] = ta
            parent[:, (k + 2) % 3] = tb
            # outer edge k is the side (A_{k+1}, A_{k+2}) of HCT subtriangle k
            sub = np.column_stack([np.zeros_like(t), ta, tb])
            out[sel] = f.at(Cell(ts[sel], k, 3, sub, parent, None, None, None), order)[order]
    return out


def _edge_means(f, mesh, edges_idx, order, degree=None):
    """Edge means of f (order 0) or of its gradient (order 1)."""
    if isinstance(f, FeFunction):
        rule = edge_rule(degree if degree is not None else f.space.poly_degree)
        vals = _fef_on_edges(f, edges_idx, rule, order)
    elif isinstance(f, ExactSolution):
        rule = edge_rule(degree if degree is not None else (f.degree or 12))
        pts = _edge_points(mesh, edges_idx, rule)
        vals = f.eval(order, pts[..., 0], pts[..., 1])
    else:
        raise TypeError(f"cannot interpolate object of type {type(f).__name__}")
    return np.einsum("k,fk...->f...", rule.weights, vals)


def _vertex_values(f, mesh, vertices):
    if isinstance(f, ExactSolution):
        x = mesh.vertices[vertices]
        return f.eval(0, x[:, 0], x[:, 1])
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
        sub = np.array([[0.0, 1.0, 0.0]])
        cell = Cell(ts[sel], (k + 2) % 3, 3, sub, np.eye(3)[k][None, :], None, None, None)
        out[sel] = f.at(cell, 0)[0][:, 0]
    return out


def interpolate(space, f, degree=None):
    """Nonconforming interpolation: edge means (CR) or vertex values plus
    edge-mean normal derivatives (Morley), onto the free dofs of `space`."""
    mesh = space.mesh
    coeffs = np.zeros(space.ndofs)
    if isinstance(space, CRSpace):
        edges = np.nonzero(space.edge_dof >= 0)[0]
        coeffs[space.edge_dof[edges]] = _edge_means(f, mesh, edges, 0, degree)
        return FeFunction(space, coeffs)
    if isinstance(space, MorleySpace):
        verts = np.nonzero(space.vertex_dof >= 0)[0]
        coeffs[space.vertex_dof[verts]] = _vertex_values(f, mesh, verts)
        edges = np.nonzero(space.edge_dof >= 0)[0]
        gmeans = _edge_means(f, mesh, edges, 1, degree)
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
    if v_nc.space is not cmap.source and v_nc.space.ndofs != cmap.matrix.shape[1]:
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
    F, n_local, n_modes = table.shape
    r, c, d = [], [], []
    for j in range(n_local):
        ids = col_ids[:, j]
        ok = ids >= 0
        base = n_modes * np.nonzero(ok)[0]
        r.append((base[:, None] + np.arange(n_modes)[None, :]).ravel())
        c.append(np.repeat(ids[ok], n_modes))
        d.append(table[ok, j, :].ravel())
    return sp.coo_matrix(
        (np.concatenate(d), (np.concatenate(r), np.concatenate(c))),
        shape=(n_modes * F, width),
    ).tocsr()


def _cr_companion_matrix(source, target):
    mesh = source.mesh
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    n_src = source.ndofs
    tri = mesh.triangles
    tedges = mesh.triangle_edges
    homogeneous = target.kind == "COMPANION_CR"

    # stage 1: vertex averaging of the two adjacent-edge coefficients minus
    # the opposite one (P1 value of the CR function at the corner)
    n_adj = np.bincount(tri.ravel(), minlength=V).astype(float)
    rows, cols, data = [], [], []
    for k in range(3):
        for j in range(3):
            dofs = source.cell_dofs[:, j]
            ok = dofs >= 0
            sign = -1.0 if j == k else 1.0
            rows.append(tri[ok, k])
            cols.append(dofs[ok])
            data.append(np.full(int(ok.sum()), sign) / n_adj[tri[ok, k]])
    W = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, n_src),
    ).tocsr()
    if homogeneous:
        W = sp.diags((~mesh.boundary_vertex_mask).astype(float)) @ W

    # stage 2: edge bubbles restore every edge mean
    src_edge = source.edge_dof
    ok = src_edge >= 0
    P_edge = sp.coo_matrix(
        (np.ones(int(ok.sum())), (np.nonzero(ok)[0], src_edge[ok])), shape=(E, n_src)
    ).tocsr()
    inc = sp.coo_matrix(
        (np.ones(2 * E), (np.repeat(np.arange(E), 2), mesh.edges.ravel())),
        shape=(E, V),
    ).tocsr()
    alpha = 1.5 * P_edge - 0.75 * (inc @ W)

    # stage 3: volume bubbles enforce the P1 moment conditions per triangle
    modes = bary_modes(1)
    lam = [BaryPoly.lam(k) for k in range(3)]
    cr_shapes = [BaryPoly.const(1.0) - 2.0 * lam[k] for k in range(3)]
    eb_shapes = [4.0 * lam[(k + 1) % 3] * lam[(k + 2) % 3] for k in range(3)]
    b = cubic_bubble()
    S_cr = np.array([[(phi * p).integral() for p in modes] for phi in cr_shapes])
    S_hat = np.array([[(lam[z] * p).integral() for p in modes] for z in range(3)])
    S_eb = np.array([[(phi * p).integral() for p in modes] for phi in eb_shapes])
    M = np.array([[(b * p * q).integral() for q in modes] for p in modes])

    def block(table, col_ids, width):  # the same table on every triangle
        return _moment_block(np.broadcast_to(table, (F, 3, 3)), col_ids, width)

    S_glob = block(S_cr, source.cell_dofs, n_src)
    H_glob = block(S_hat, tri, V)
    Eb_glob = block(S_eb, tedges, E)
    R = S_glob - H_glob @ W - Eb_glob @ alpha
    vol = _block_inverse_kron(F, M) @ R

    vfree = target.vertex_dof >= 0
    efree = target.edge_dof >= 0
    J = sp.vstack([W[vfree], alpha[efree], vol]).tocsr()
    return J


def _morley_companion_matrix(source, target):
    mesh = source.mesh
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    n_src = source.ndofs
    tri = mesh.triangles
    tedges = mesh.triangle_edges
    homogeneous = target.kind == "COMPANION_MORLEY"

    # vertex values: Morley functions are single-valued at vertices
    ok = source.vertex_dof >= 0
    Wval = sp.coo_matrix(
        (np.ones(int(ok.sum())), (np.nonzero(ok)[0], source.vertex_dof[ok])),
        shape=(V, n_src),
    ).tocsr()

    # vertex gradients by arithmetic averaging over the adjacent triangles
    n_adj = np.bincount(tri.ravel(), minlength=V).astype(float)
    gtab = source.tabulate(np.arange(F), 0, np.eye(3), 1)[1]  # (F, 6, 3, 2)
    rows, cols, dx, dy = [], [], [], []
    for k in range(3):
        for j in range(6):
            dofs = source.cell_dofs[:, j]
            okk = dofs >= 0
            rows.append(tri[okk, k])
            cols.append(dofs[okk])
            w = 1.0 / n_adj[tri[okk, k]]
            dx.append(gtab[okk, j, k, 0] * w)
            dy.append(gtab[okk, j, k, 1] * w)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    Wgx = sp.coo_matrix((np.concatenate(dx), (rows, cols)), shape=(V, n_src)).tocsr()
    Wgy = sp.coo_matrix((np.concatenate(dy), (rows, cols)), shape=(V, n_src)).tocsr()
    if homogeneous:
        mask = sp.diags((~mesh.boundary_vertex_mask).astype(float))
        Wgx = mask @ Wgx
        Wgy = mask @ Wgy

    # edge-midpoint normal derivatives chosen so each edge MEAN equals the
    # Morley dof (the normal derivative of a cubic is quadratic: Simpson)
    okE = source.edge_dof >= 0
    P_edge = sp.coo_matrix(
        (np.ones(int(okE.sum())), (np.nonzero(okE)[0], source.edge_dof[okE])),
        shape=(E, n_src),
    ).tocsr()
    inc = sp.coo_matrix(
        (np.ones(2 * E), (np.repeat(np.arange(E), 2), mesh.edges.ravel())),
        shape=(E, V),
    ).tocsr()
    nu = mesh.edge_normal
    N = 1.5 * P_edge - 0.25 * (
        sp.diags(nu[:, 0]) @ (inc @ Wgx) + sp.diags(nu[:, 1]) @ (inc @ Wgy)
    )

    # bubble corrections enforce the P2 moment conditions per triangle
    modes = bary_modes(2)
    b = cubic_bubble()
    M = np.array([[(b * b * p * q).integral() for q in modes] for p in modes])

    rule_s = triangle_rule(4)
    tabM = source.tabulate(np.arange(F), 0, rule_s.points, 0)[0]  # (F, 6, k)
    qv = np.stack([p.eval(rule_s.points) for p in modes], axis=0)  # (6, k)
    S = np.einsum("k,fjk,lk->fjl", rule_s.weights, tabM, qv)  # (F, 6 dof, 6 mode)

    # moments of the twelve HCT shape functions, subcell by subcell
    P_loc = np.zeros((F, 12, 6))
    exps3 = monomial_exponents(3)
    for chunk in cells(mesh, triangle_rule(5), target):
        for c in chunk:
            qv_s = np.stack([p.eval(c.parent) for p in modes], axis=0)
            xi = (c.phys - mesh.centroid[c.ts][:, None]) / mesh.diameter[c.ts][:, None, None]
            mono = mono_tabulate(exps3, xi, 0)[0]  # (nts, k, 10)
            shape_vals = mono @ target.hct_coef[c.ts, c.s]  # (nts, k, 12)
            P_loc[c.ts] += np.einsum("k,fkj,lk->fjl", c.weights / c.nsub, shape_vals, qv_s)

    S_glob = _moment_block(S, source.cell_dofs, n_src)
    # columns of the stacked HCT-dof matrix: value z -> z, d/dx z -> V + z,
    # d/dy z -> 2V + z, edge normal E -> 3V + E
    cols_hct = np.empty((F, 12), dtype=np.int64)
    for k in range(3):
        cols_hct[:, 3 * k] = tri[:, k]
        cols_hct[:, 3 * k + 1] = V + tri[:, k]
        cols_hct[:, 3 * k + 2] = 2 * V + tri[:, k]
    cols_hct[:, 9:] = 3 * V + tedges
    H_all = sp.vstack([Wval, Wgx, Wgy, N]).tocsr()
    P_glob = _moment_block(P_loc, cols_hct, 3 * V + E)
    R = S_glob - P_glob @ H_all
    bub = _block_inverse_kron(F, M) @ R

    # interleave (value, d/dx, d/dy) rows per free vertex
    vfree = np.nonzero(target.vertex_dof[:, 0] >= 0)[0]
    VS = sp.vstack([Wval, Wgx, Wgy]).tocsr()
    perm = np.stack([vfree, V + vfree, 2 * V + vfree], axis=1).ravel()
    efree = target.edge_dof >= 0
    J = sp.vstack([VS[perm], N[efree], bub]).tocsr()
    return J


def build_companion(space, target=None):
    """Companion map for a CR or Morley space into its conforming host."""
    if target is None:
        target = build_space(space.mesh, COMPANION_KIND[space.kind])
    if isinstance(space, CRSpace) and isinstance(target, CompanionCRSpace):
        matrix = _cr_companion_matrix(space, target)
    elif isinstance(space, MorleySpace) and isinstance(target, CompanionMorleySpace):
        matrix = _morley_companion_matrix(space, target)
    else:
        raise ValueError(
            f"no companion construction for {space.kind} -> {getattr(target, 'kind', target)}"
        )
    return CompanionMap(source=space, target=target, matrix=matrix)


# -- constants and the defect norm ------------------------------------------


def kappa_constant(m):
    """Interpolation constant of the nonconforming interpolation error.

    m=1: sqrt(j^-2 + 1/48) with j the first positive root of the Bessel
    function J1 (located by bracketed root-finding); m=2: the known
    shape-independent value 0.25745784465.
    """
    if m == 1:
        j11 = brentq(bessel_j1, 3.0, 4.5, xtol=1e-13)
        return float(np.sqrt(j11**-2 + 1.0 / 48.0))
    if m == 2:
        return 0.25745784465
    raise ValueError("kappa is available for m in {1, 2}")


@dataclass(frozen=True)
class Lambda0Result:
    """Norm of (1 - J), its extremal function and the pencil B x = lambda A x."""

    lambda0: float
    c_qo: float
    extremal_vector: FeFunction
    lambda_max: float
    residual: float
    A: sp.csr_matrix
    B: sp.csr_matrix


def compute_lambda0(space, cmap=None):
    """Solve B x = lambda A x for the defect norm of the companion.

    A is the nonconforming stiffness, B = J' A_c J (symmetrized) the stiffness
    of the companion images, lambda0 = sqrt(lambda_max - 1) and the extremal
    vector has unit piecewise energy.  One Lanczos solve at every size, with
    relative residual at most ``linalg.EIG_RESIDUAL_TOL`` (else EigenError).
    """
    from .linalg import max_generalized_eig

    if cmap is None:
        cmap = build_companion(space)
    A = assembly.assemble_stiffness(space)
    Ac = assembly.assemble_stiffness(cmap.target)
    J = cmap.matrix
    B = (J.T @ (Ac @ J)).tocsr()
    B = 0.5 * (B + B.T)
    lam, x = max_generalized_eig(B, A)
    res = float(np.linalg.norm(B @ x - lam * (A @ x)) / np.linalg.norm(A @ x))
    lam0 = float(np.sqrt(max(lam - 1.0, 0.0)))
    return Lambda0Result(
        lambda0=lam0,
        c_qo=float(np.sqrt(1.0 + lam0**2)),
        extremal_vector=FeFunction(space, x),
        lambda_max=float(lam),
        residual=res,
        A=A,
        B=B,
    )


def best_approx_orthogonality_check(space, v, degree=None):
    """Max P_m-moment of the m-th derivative of the interpolation defect.

    The interpolation is characterized by per-triangle orthogonality of
    D^m (v - I v) to constants, which is what this evaluates (polynomials
    of lower order drop out of the piecewise energy product).
    """
    iv = interpolate(space, v, degree=degree)
    mesh = space.mesh
    m = space.m
    if isinstance(v, FeFunction):
        deg = max(v.space.poly_degree - m, 1)
        over = [v.space]
    else:
        deg = (v.degree or 12) if isinstance(v, ExactSolution) else 12
        over = []
    total = np.zeros((mesh.n_triangles,) + ((2,) if m == 1 else (2, 2)))
    for chunk in cells(mesh, triangle_rule(deg), *over):
        for c in chunk:
            if isinstance(v, FeFunction):
                dv = v.at(c, m)[m]
            else:
                dv = v.eval(m, c.phys[..., 0], c.phys[..., 1])
            div = iv.at(c, m)[m]
            total[c.ts] += np.einsum("k,fk...->f...", c.weights / c.nsub, dv - div)
    total *= mesh.area.reshape((-1,) + (1,) * (total.ndim - 1))
    return float(np.abs(total).max())
