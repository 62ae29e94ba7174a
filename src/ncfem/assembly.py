"""Stiffness matrices, load vectors, L2 projections and oscillation terms.

Matrices are scipy CSR (symmetric by construction, positive definite on the
constrained space).  All integrands in the identity experiments are
piecewise polynomial and integrated exactly; smooth data triggers a fixed
high-order rule.  Integrals of data run over the chunked quadrature cells of
:func:`ncfem.quadrature.cells`; stiffness matrices need no per-point work.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp

from ._poly import bary_modes, bary_tabulate, lambda_gradients, moment_matrix
from .fespace import CRSpace, MorleySpace
from .fields import FieldBase, field_sum, quad_degree
from .mesh import mesh_size
from .quadrature import cells, pairing, parent_points, triangle_rule

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
    "preprocess_data",
    "p1_stiffness",
    "p1_to_cr",
    "scatter",
    "eps_stiffness_p1_vector",
    "eps_stiffness_cr_vector",
]

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


def scatter(rows, cols, data, shape):
    """CSR matrix of `shape` that sums `data` at (`rows`, `cols`).

    The three are broadcast to one shape and read in C order, the order in
    which duplicates are summed.  An entry whose row or column is -1 (a
    constrained dof) drops out.
    """
    rows, cols, data = (a.ravel() for a in np.broadcast_arrays(rows, cols, data))
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((data[keep], (rows[keep], cols[keep])), shape=shape).tocsr()


def _scatter_matrix(local, dofs, n):
    """(n, n) sum of local matrices (F, L, L) at their dofs (F, L), triangle by triangle."""
    return scatter(dofs[:, :, None], dofs[:, None, :], local, (n, n))


def assemble_stiffness(space):
    """Matrix of the piecewise energy product sum_T int_T D^m u : D^m v."""
    if isinstance(space, (CRSpace, MorleySpace)):
        D = _constant_derivatives(space)
        local = np.einsum("f,fic,fjc->fij", space.mesh.area, D, D)
        return _scatter_matrix(local, space.cell_dofs, space.ndofs)  # golden tables freeze it
    A = _scatter_matrix(_companion_stiffness(space), space.cell_dofs, space.ndofs)
    return (0.5 * (A + A.T)).tocsr()  # the COO sum adds (i, j), (j, i) in different orders


def _constant_derivatives(space):
    """The m-th derivatives of a CR or Morley local basis, constant on each
    triangle, flattened to (F, n_local, 2**m)."""
    F = space.mesh.n_triangles
    D = space.tabulate(np.arange(F), 0, np.full((1, 3), 1.0 / 3.0), space.m)[:, :, 0]
    return D.reshape(F, space.n_local, -1)


def _companion_stiffness(space):
    """Local stiffness matrices (F, n_local, n_local) of a companion space.

    Tensor representation (Kirby and Logg, ACM TOMS 2006): K_s integrates,
    once per subcell s, products of the modes' order-m formal lambda-partials;
    per triangle it is contracted with |T|/nsub times the Gram matrix of the
    barycentric gradients (m = 1) or its Kronecker square (m = 2), and the
    subcell's mode coefficients map the result to the local basis.
    """
    m, nsub, F, n = space.m, space.n_subcells, space.mesh.n_triangles, len(space._modes)
    rule = triangle_rule(2 * (space.poly_degree - m))
    G = space._lgrad_powers(np.arange(F), m)  # (F, 3**m, 2**m)
    Q = (G @ G.swapaxes(1, 2)).reshape(F, -1) * (space.mesh.area / nsub)[:, None]
    D = space._mode_coef  # None, or (F, nsub, r, q): see FeSpace
    local = 0.0
    for s in range(nsub):
        parent = parent_points(rule.points, s, nsub)
        P = space._cached_bary(parent, m).reshape(n, rule.n_points, -1)
        K = np.einsum("k,ika,jkb->ijab", rule.weights, P, P).reshape(n * n, -1)
        modes = (Q @ K.T).reshape(F, n, n)
        if D is not None:
            r, q = D.shape[2:]
            E = np.zeros((F, n, q + n - r))
            E[:, :r, :q] = D[:, s]
            E[:, r:, q:] = np.eye(n - r)
            modes = E.swapaxes(1, 2) @ modes @ E
        local = local + modes
    # the contractions sum (i, j) and (j, i) in different orders
    return 0.5 * (local + local.swapaxes(1, 2))


def _basis_at_point(space, t, point):
    """Local basis values at one physical point of triangle t."""
    point = np.asarray(point, dtype=float)
    s, bary = space.locate_subcell(t, point[None, :])
    return space.tabulate(np.array([t]), int(s[0]), bary, 0)[0, :, 0]


def assemble_load(space, data):
    """Vector of F-hat applied to the basis of `space` (any supported kind)."""
    mesh = space.mesh
    m = space.m
    vec = np.zeros(space.ndofs)
    terms = []
    if data.G is not None:
        deg = quad_degree(data.G) + (space.poly_degree - m)
        terms.append((data.G, m, deg))
    if data.g is not None:
        deg = quad_degree(data.g) + space.poly_degree
        terms.append((data.g, 0, deg))
    for fld, order, deg in terms:
        for chunk in cells(mesh, deg, space, fld):
            ts = chunk[0].ts
            contrib = np.zeros((len(ts), space.n_local))
            for c in chunk:
                fv = fld.eval_batch(c)
                tab = space.tabulate_cell(c, order)
                wa = c.area[:, None] * c.weights  # (nts, k)
                wfv = (fv.reshape(wa.shape + (-1,)) * wa[:, :, None]).reshape(len(ts), -1, 1)
                contrib += (tab.reshape(len(ts), space.n_local, -1) @ wfv)[:, :, 0]
            dofs = space.cell_dofs[ts]
            good = dofs >= 0
            np.add.at(vec, dofs[good], contrib[good])
    for pf in data.point_forces:
        if m != 2:
            raise ValueError("point forces are only bounded functionals for m=2")
        if pf.vertex is not None:
            dof = space.vertex_dof.reshape(mesh.n_vertices, -1)[pf.vertex, 0]
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


def assemble_rhs_original(space, data):
    """Natural right-hand side tested with the nonconforming basis."""
    if not isinstance(space, (CRSpace, MorleySpace)):
        raise ValueError("original scheme needs a CR or Morley space")
    return assemble_load(space, data)


def assemble_rhs_modified(space, data, cmap):
    """Right-hand side composed with the companion: entries F(J phi_i)."""
    if cmap.source is not space:
        raise ValueError("companion map does not belong to this space")
    return cmap.matrix.T @ assemble_load(cmap.target, data)


# -- piecewise polynomial fields and projections ----------------------------


class PiecewisePoly(FieldBase):
    """Piecewise polynomial of fixed degree, one coefficient block per triangle."""

    def __init__(self, mesh, degree, coeffs, shape=()):
        self.mesh = mesh
        self.degree = degree
        self.modes = bary_modes(degree)
        self.coeffs = coeffs  # (F, n_modes) + shape
        self.shape = tuple(shape)

    def eval_batch(self, cell):
        vals = bary_tabulate(self.modes, cell.parent, 0)[0]  # (nb, k)
        return np.einsum("fn...,nk->fk...", self.coeffs[cell.ts], vals)


def l2_project(fld, degree, mesh):
    """Per-triangle L2-orthogonal projection onto piecewise P_degree."""
    modes = bary_modes(degree)
    nb = len(modes)
    gram_inv = np.linalg.inv(moment_matrix(modes, modes))
    shape = fld.shape
    moments = np.zeros((mesh.n_triangles, nb) + shape)
    for chunk in cells(mesh, quad_degree(fld) + degree, fld):
        for c in chunk:
            pv = bary_tabulate(modes, c.parent, 0)[0]  # (nb, k)
            moments[c.ts] += np.einsum(
                "k,fk...,nk->fn...", c.weights / c.nsub, fld.eval_batch(c), pv
            )
    coeffs = np.einsum("mn,fn...->fm...", gram_inv, moments)
    return PiecewisePoly(mesh, degree, coeffs, shape)


def weighted_field_l2(fld, mesh, weights=None):
    """sqrt( sum_T w_T^2 int_T |field|^2 ), Frobenius for tensor fields."""
    total = 0.0
    for chunk in cells(mesh, 2 * quad_degree(fld), fld):
        for c in chunk:
            w2 = np.ones(len(c.ts)) if weights is None else weights[c.ts] ** 2
            fv = fld.eval_batch(c)
            total += pairing(c, fv, fv, area=w2 * mesh.area[c.ts] / c.nsub)
    return float(np.sqrt(max(total, 0.0)))


def oscillation(g, m, mesh, h_convention="diameter"):
    """Data oscillation ||h^m (g - Pi_m g)|| with the stated size convention."""
    proj = l2_project(g, m, mesh)
    diff = field_sum(g, proj, 1.0, -1.0)
    h = mesh_size(mesh, h_convention)
    return weighted_field_l2(diff, mesh, weights=h**m)


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
    return _scatter_matrix(local, mesh.triangles, mesh.n_vertices)


def p1_to_cr(mesh):
    """Coefficient map S1 -> CR1_full (edge midpoint value = endpoint mean)."""
    return scatter(np.arange(mesh.n_edges)[:, None], mesh.edges, 0.5,
                   (mesh.n_edges, mesh.n_vertices))


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
    return _scatter_matrix(local, dofs, 2 * ndofs_scalar)


def eps_stiffness_p1_vector(mesh):
    return _eps_stiffness(mesh, lambda_gradients(mesh), mesh.triangles, mesh.n_vertices)


def eps_stiffness_cr_vector(space):
    """Symmetric-gradient stiffness of vector fields with components in the
    CR1_full `space`."""
    return _eps_stiffness(space.mesh, _constant_derivatives(space), space.cell_dofs,
                          space.ndofs)

