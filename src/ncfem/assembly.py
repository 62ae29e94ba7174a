"""Stiffness matrices, load vectors, L2 projections and oscillation terms.

Matrices are scipy CSR (symmetric by construction, positive definite on the
constrained space).  All integrands in the identity experiments are
piecewise polynomial and integrated exactly; smooth data triggers a fixed
high-order rule.  Element loops are chunked and vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp

from ._hct import SUB_TO_PARENT
from ._poly import BaryPoly, lambda_gradients
from .fespace import CompanionMorleySpace, CRSpace, MorleySpace
from .fields import FieldBase, field_sum
from .mesh import mesh_size
from .quadrature import MAX_TRIANGLE_DEGREE, triangle_rule

__all__ = [
    "PointForce",
    "RhsData",
    "assemble_stiffness",
    "assemble_load",
    "assemble_rhs_original",
    "assemble_rhs_modified",
    "PiecewisePoly",
    "l2_project",
    "weighted_field_l2",
    "oscillation",
    "distance_to_p0",
    "preprocess_data",
    "p1_stiffness",
    "p1_to_cr",
    "eps_stiffness_p1_vector",
    "eps_stiffness_cr_vector",
    "scheme_residual",
]

_CHUNK = 2048


@dataclass(frozen=True)
class PointForce:
    """Point load; at a vertex, or at a point on an edge with a mu-split."""

    beta: float
    vertex: int | None = None
    edge: int | None = None
    point: tuple | None = None
    mu: float = 0.5

    def __post_init__(self):
        at_vertex = self.vertex is not None
        at_edge = self.edge is not None and self.point is not None
        if at_vertex == at_edge:
            raise ValueError("point force needs either a vertex or an (edge, point) pair")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")


@dataclass
class RhsData:
    """Right-hand side F(v) = int G : D^m v + int g v + sum beta v(a)."""

    G: FieldBase | None = None
    g: FieldBase | None = None
    point_forces: list = dataclass_field(default_factory=list)


def _n_subcells(space, fields=()):
    n = space.n_subcells
    for f in fields:
        if f is not None:
            n = max(n, f.n_subcells)
    return n


def _subcell_corners(mesh, ts, s, nsub):
    tri = mesh.triangles[ts]
    if nsub == 1:
        return mesh.vertices[tri]
    corners = np.empty((len(ts), 3, 2))
    corners[:, 0] = mesh.centroid[ts]
    corners[:, 1] = mesh.vertices[tri[:, (s + 1) % 3]]
    corners[:, 2] = mesh.vertices[tri[:, (s + 2) % 3]]
    return corners


def _space_tab(space, ts, s, bary, parent_bary, order, nsub):
    if space.n_subcells == 1:
        return space.tabulate(ts, 0, parent_bary, order)
    if nsub == 1:
        raise ValueError("space on the HCT split needs a subcell partition")
    return space.tabulate(ts, s, bary, order)


def _scatter_matrix(rows, cols, data, n):
    mask = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (data[mask], (rows[mask], cols[mask])), shape=(n, n)
    )


def assemble_stiffness(space, quad_degree=None):
    """Matrix of the piecewise energy product sum_T int_T D^m u : D^m v."""
    mesh = space.mesh
    if isinstance(space, CRSpace):
        grads = -2.0 * lambda_gradients(mesh)  # (F, 3, 2)
        local = np.einsum("f,fid,fjd->fij", mesh.area, grads, grads)
        L = 3
    elif isinstance(space, MorleySpace):
        H = space.local_hessians()
        local = np.einsum("f,fide,fjde->fij", mesh.area, H, H)
        L = 6
    else:
        return _quadrature_stiffness(space, quad_degree)
    dofs = space.cell_dofs
    rows = np.broadcast_to(dofs[:, :, None], (mesh.n_triangles, L, L)).ravel()
    cols = np.broadcast_to(dofs[:, None, :], (mesh.n_triangles, L, L)).ravel()
    return _scatter_matrix(rows, cols, local.ravel(), space.ndofs).tocsr()


def _quadrature_stiffness(space, quad_degree):
    mesh = space.mesh
    m = space.m
    deg = quad_degree if quad_degree is not None else 2 * (space.poly_degree - m)
    rule = triangle_rule(min(deg, MAX_TRIANGLE_DEGREE))
    L = space.n_local
    nsub = space.n_subcells
    blocks = []
    for start in range(0, mesh.n_triangles, _CHUNK):
        ts = np.arange(start, min(start + _CHUNK, mesh.n_triangles))
        local = np.zeros((len(ts), L, L))
        for s in range(nsub):
            tab = space.tabulate(ts, s, rule.points, m)[m]
            # tabulate returns a fresh array: scaling it in place by
            # sqrt(w * area) avoids a second chunk-sized array
            t = tab.reshape(len(ts), L, rule.n_points, -1)
            t *= np.sqrt(space.subcell_area(ts, s)[:, None] * rule.weights)[:, None, :, None]
            t = t.reshape(len(ts), L, -1)
            local += t @ t.swapaxes(1, 2)
        dofs = space.cell_dofs[ts]
        rows = np.broadcast_to(dofs[:, :, None], local.shape).ravel()
        cols = np.broadcast_to(dofs[:, None, :], local.shape).ravel()
        blocks.append(_scatter_matrix(rows, cols, local.ravel(), space.ndofs))
    A = blocks[0]
    for b in blocks[1:]:
        A = A + b
    return A.tocsr()


def _basis_at_point(space, t, point):
    """Local basis values at one physical point of triangle t."""
    point = np.asarray(point, dtype=float)
    if space.n_subcells == 1:
        bary = space.mesh.barycentric(t, point[None, :])
        return space.tabulate(np.array([t]), 0, bary, 0)[0][0, :, 0]
    s, bary = space.locate_subcell(t, point[None, :])
    return space.tabulate(np.array([t]), int(s[0]), bary, 0)[0][0, :, 0]


def _vertex_value_dof(space, v):
    if isinstance(space, MorleySpace):
        return int(space.vertex_dof[v])
    if isinstance(space, CompanionMorleySpace):
        return int(space.vertex_dof[v, 0])
    raise ValueError("point forces require an m=2 space")


def assemble_load(space, data, quad_degree=None):
    """Vector of F-hat applied to the basis of `space` (any supported kind)."""
    mesh = space.mesh
    m = space.m
    vec = np.zeros(space.ndofs)
    terms = []
    if data.G is not None:
        deg = data.G.quad_degree() + (space.poly_degree - m)
        terms.append((data.G, m, deg))
    if data.g is not None:
        deg = data.g.quad_degree() + space.poly_degree
        terms.append((data.g, 0, deg))
    for fld, order, deg in terms:
        if quad_degree is not None:
            deg = quad_degree
        rule = triangle_rule(min(deg, MAX_TRIANGLE_DEGREE))
        nsub = _n_subcells(space, [fld])
        bary = rule.points
        for start in range(0, mesh.n_triangles, _CHUNK):
            ts = np.arange(start, min(start + _CHUNK, mesh.n_triangles))
            contrib = np.zeros((len(ts), space.n_local))
            for s in range(nsub):
                parent = bary if nsub == 1 else bary @ SUB_TO_PARENT[s]
                phys = bary @ _subcell_corners(mesh, ts, s, nsub)
                fv = fld.eval_batch(ts, s if nsub > 1 else None, bary, parent, phys)
                tab = _space_tab(space, ts, s, bary, parent, order, nsub)[order]
                wa = (mesh.area[ts] / nsub)[:, None] * rule.weights  # (nts, k)
                wfv = (fv.reshape(wa.shape + (-1,)) * wa[:, :, None]).reshape(len(ts), -1, 1)
                contrib += (tab.reshape(len(ts), space.n_local, -1) @ wfv)[:, :, 0]
            dofs = space.cell_dofs[ts]
            good = dofs >= 0
            np.add.at(vec, dofs[good], contrib[good])
    for pf in data.point_forces:
        if m != 2:
            raise ValueError("point forces are only bounded functionals for m=2")
        if pf.vertex is not None:
            dof = _vertex_value_dof(space, pf.vertex)
            if dof >= 0:
                vec[dof] += pf.beta
            continue
        t_lo, t_hi = mesh.edge_triangles[pf.edge]
        sides = [(int(t_lo), 1.0 - pf.mu)]
        if t_hi >= 0:
            sides.append((int(t_hi), pf.mu))
        else:
            sides = [(int(t_lo), 1.0)]
        for t, w in sides:
            vals = _basis_at_point(space, t, pf.point)
            dofs = space.cell_dofs[t]
            good = dofs >= 0
            vec[dofs[good]] += pf.beta * w * vals[good]
    return vec


def assemble_rhs_original(space, data, quad_degree=None):
    """Natural right-hand side tested with the nonconforming basis."""
    if not isinstance(space, (CRSpace, MorleySpace)):
        raise ValueError("original scheme needs a CR or Morley space")
    return assemble_load(space, data, quad_degree)


def assemble_rhs_modified(space, data, cmap, quad_degree=None):
    """Right-hand side composed with the companion: entries F(J phi_i)."""
    if cmap.source is not space:
        raise ValueError("companion map does not belong to this space")
    return cmap.matrix.T @ assemble_load(cmap.target, data, quad_degree)


# -- piecewise polynomial fields and projections ----------------------------


def _bary_modes(k):
    one = BaryPoly.const(1.0)
    u = BaryPoly.lam(1) - BaryPoly.lam(0)
    v = BaryPoly.lam(2) - BaryPoly.lam(0)
    modes = []
    for tot in range(k + 1):
        for b in range(tot + 1):
            p = one
            for _ in range(tot - b):
                p = p * u
            for _ in range(b):
                p = p * v
            modes.append(p)
    return modes


class PiecewisePoly(FieldBase):
    """Piecewise polynomial of fixed degree, one coefficient block per triangle."""

    def __init__(self, mesh, degree, coeffs, shape=()):
        self.mesh = mesh
        self.degree = degree
        self.modes = _bary_modes(degree)
        self.coeffs = coeffs  # (F, n_modes) + shape
        self.shape = tuple(shape)

    def eval_batch(self, ts, s, bary, parent_bary, phys):
        vals = np.stack([p.eval(parent_bary) for p in self.modes], axis=0)  # (nb, k)
        return np.einsum("fn...,nk->fk...", self.coeffs[ts], vals)


def l2_project(fld, degree, mesh, quad_degree=None):
    """Per-triangle L2-orthogonal projection onto piecewise P_degree."""
    modes = _bary_modes(degree)
    nb = len(modes)
    gram = np.array([[(p * q).integral() for q in modes] for p in modes])
    gram_inv = np.linalg.inv(gram)
    deg = quad_degree if quad_degree is not None else fld.quad_degree() + degree
    rule = triangle_rule(min(deg, MAX_TRIANGLE_DEGREE))
    nsub = max(1, fld.n_subcells)
    mode_vals = np.stack([p.eval(rule.points) for p in modes], axis=0)  # (nb, k)
    shape = fld.shape
    F = mesh.n_triangles
    moments = np.zeros((F, nb) + shape)
    for start in range(0, F, _CHUNK):
        ts = np.arange(start, min(start + _CHUNK, F))
        for s in range(nsub):
            parent = rule.points if nsub == 1 else rule.points @ SUB_TO_PARENT[s]
            phys = rule.points @ _subcell_corners(mesh, ts, s, nsub)
            pv = (
                mode_vals
                if nsub == 1
                else np.stack([p.eval(parent) for p in modes], axis=0)
            )
            fv = fld.eval_batch(ts, s if nsub > 1 else None, rule.points, parent, phys)
            moments[ts] += np.einsum(
                "k,fk...,nk->fn...", rule.weights / nsub, fv, pv
            )
    coeffs = np.einsum("mn,fn...->fm...", gram_inv, moments)
    return PiecewisePoly(mesh, degree, coeffs, shape)


def weighted_field_l2(fld, mesh, weights=None, quad_degree=None):
    """sqrt( sum_T w_T^2 int_T |field|^2 ), Frobenius for tensor fields."""
    deg = quad_degree if quad_degree is not None else 2 * fld.quad_degree()
    rule = triangle_rule(min(deg, MAX_TRIANGLE_DEGREE))
    nsub = max(1, fld.n_subcells)
    total = 0.0
    for start in range(0, mesh.n_triangles, _CHUNK):
        ts = np.arange(start, min(start + _CHUNK, mesh.n_triangles))
        w2 = np.ones(len(ts)) if weights is None else weights[ts] ** 2
        for s in range(nsub):
            parent = rule.points if nsub == 1 else rule.points @ SUB_TO_PARENT[s]
            phys = rule.points @ _subcell_corners(mesh, ts, s, nsub)
            fv = fld.eval_batch(ts, s if nsub > 1 else None, rule.points, parent, phys)
            mag = fv.reshape(fv.shape[:2] + (-1,))
            dens = np.einsum("fkc,fkc->fk", mag, mag)
            total += float(
                np.einsum("k,f,fk->", rule.weights, w2 * mesh.area[ts] / nsub, dens)
            )
    return float(np.sqrt(max(total, 0.0)))


def oscillation(g, m, mesh, h_convention="diameter"):
    """Data oscillation ||h^m (g - Pi_m g)|| with the stated size convention."""
    proj = l2_project(g, m, mesh)
    diff = field_sum(g, proj, 1.0, -1.0)
    h = mesh_size(mesh, h_convention).per_triangle_h
    return weighted_field_l2(diff, mesh, weights=h**m)


def distance_to_p0(fld, mesh):
    """||field - Pi_0 field|| over the whole mesh."""
    proj = l2_project(fld, 0, mesh)
    diff = field_sum(fld, proj, 1.0, -1.0)
    return weighted_field_l2(diff, mesh)


def preprocess_data(data, Q, div_m_Q):
    """Shift (G, g) to (G - Q, g + div_m_Q); the continuous functional is unchanged.

    The caller supplies the m-th divergence analytically, with the sign
    convention pinned by the defining property

        int_O Q : D^m v dx  =  int_O div_m_Q v dx   for all v in H^m_0,

    i.e. div_m_Q = -div Q for m = 1 and div_m_Q = div div Q for m = 2.
    """
    if data.G is None or Q is None:
        raise ValueError("preprocessing needs both G and Q")
    newG = field_sum(data.G, Q, 1.0, -1.0)
    newg = div_m_Q if data.g is None else field_sum(data.g, div_m_Q, 1.0, 1.0)
    return RhsData(G=newG, g=newg, point_forces=list(data.point_forces))


# -- continuous P1 helpers (counterexample machinery) -----------------------


def p1_stiffness(mesh):
    """Stiffness of the continuous P1 hat functions on all vertices."""
    grads = lambda_gradients(mesh)
    local = np.einsum("f,fid,fjd->fij", mesh.area, grads, grads)
    dofs = mesh.triangles
    rows = np.broadcast_to(dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], local.shape).ravel()
    return sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_vertices,) * 2
    ).tocsr()


def p1_to_cr(mesh):
    """Coefficient map S1 -> CR1_full (edge midpoint value = endpoint mean)."""
    E = mesh.n_edges
    rows = np.repeat(np.arange(E), 2)
    cols = mesh.edges.ravel()
    data = np.full(2 * E, 0.5)
    return sp.coo_matrix((data, (rows, cols)), shape=(E, mesh.n_vertices)).tocsr()


def _eps_stiffness(mesh, grads, entity_dofs, ndofs_scalar):
    """Stiffness of the symmetric gradient for vector fields phi = psi_k e_d.

    dof layout: x-components first (0..n-1), then y-components.
    """
    F, L, _ = grads.shape
    eps = np.zeros((F, 2 * L, 2, 2))
    for k in range(L):
        g = grads[:, k]
        # x-component shape
        eps[:, k, 0, 0] = g[:, 0]
        eps[:, k, 0, 1] = 0.5 * g[:, 1]
        eps[:, k, 1, 0] = 0.5 * g[:, 1]
        # y-component shape
        eps[:, L + k, 1, 1] = g[:, 1]
        eps[:, L + k, 0, 1] += 0.5 * g[:, 0]
        eps[:, L + k, 1, 0] += 0.5 * g[:, 0]
    local = np.einsum("f,fide,fjde->fij", mesh.area, eps, eps)
    dofs = np.concatenate([entity_dofs, entity_dofs + ndofs_scalar], axis=1)
    rows = np.broadcast_to(dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], local.shape).ravel()
    return sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(2 * ndofs_scalar,) * 2
    ).tocsr()


def eps_stiffness_p1_vector(mesh):
    return _eps_stiffness(mesh, lambda_gradients(mesh), mesh.triangles, mesh.n_vertices)


def eps_stiffness_cr_vector(mesh):
    grads = -2.0 * lambda_gradients(mesh)
    return _eps_stiffness(mesh, grads, mesh.triangle_edges, mesh.n_edges)


def scheme_residual(A, u, rhs):
    """Relative residual of a discrete solve."""
    scale = float(np.linalg.norm(rhs))
    if scale == 0.0:
        return float(np.linalg.norm(A @ u))
    return float(np.linalg.norm(A @ u - rhs) / scale)
