"""Hsieh-Clough-Tocher macro-element: local C^1 cubic bases on the 3-split.

Each triangle is split at its centroid into three subtriangles carrying one
cubic apiece.  The twelve degrees of freedom are the three vertex values,
the six vertex-gradient components, and the normal derivative at each outer
edge midpoint (taken along the globally fixed edge normal so the dof is
single-valued across neighbouring triangles).  The local basis solves a
33x30 linear system per triangle: internal C^0/C^1 continuity constraints
and dof-duality conditions.  The systems of all triangles are built as one
stacked array and solved by one batched QR factorization.
"""

from __future__ import annotations

import numpy as np

from ._poly import mono_tabulate, monomial_exponents

EXPS3 = monomial_exponents(3)  # 10 cubic monomials

# parent-barycentric coordinates of subtriangle corners: subtriangle s has
# corners (centroid, A_{s+1}, A_{s+2}); rows map sub-bary -> parent-bary.
SUB_TO_PARENT = np.empty((3, 3, 3))
for _s in range(3):
    SUB_TO_PARENT[_s, 0] = (1 / 3, 1 / 3, 1 / 3)
    SUB_TO_PARENT[_s, 1] = np.eye(3)[(_s + 1) % 3]
    SUB_TO_PARENT[_s, 2] = np.eye(3)[(_s + 2) % 3]

# points on each interior segment: four C^0 points, then three C^1 points
_SEG_PARAMS = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0 / 6.0, 0.5, 5.0 / 6.0])
# right-hand side of every system: no constraint residual, dof duality
_RHS = np.zeros((33, 12))
_RHS[21:] = np.eye(12)
# triangles per batch of stacked arrays, here and in quadrature.cells: bounds
# the QR work arrays to about 80 MB
CHUNK = 2048


def _stacked_rows(mesh, ts):
    """The HCT systems of the triangles ``ts`` (a slice), shape (F, 33, 30).

    Row block of one triangle, one column block of ten scaled centered cubic
    monomials per subtriangle: per interior segment k (centroid to A_k)
    four C^0 and three C^1 rows, then the 9 vertex dof rows (value, d/dx,
    d/dy of A_k on subtriangle k+1) and the 3 edge-midpoint normal
    derivative rows (outer edge k lies in subtriangle k).
    """
    verts = mesh.vertices[mesh.triangles[ts]]  # (F, 3, 2)
    F = len(verts)
    c0 = mesh.centroid[ts, None, :]
    h = mesh.diameter[ts, None]
    seg = verts - c0  # (F, 3, 2): centroid to A_k
    nu = np.stack([-seg[..., 1], seg[..., 0]], axis=-1)
    nu /= np.hypot(seg[..., 0], seg[..., 1])[..., None]
    edges = mesh.triangle_edges[ts]
    # per segment k its 4 C^0 and 3 C^1 points, then A_0..A_2 and M_0..M_2
    on_seg = c0[:, :, None] + _SEG_PARAMS[:, None] * seg[:, :, None]
    pts = np.concatenate([on_seg.reshape(F, 21, 2), verts, mesh.edge_midpoint[edges]], axis=1)
    tab = mono_tabulate(EXPS3, (pts - c0) / h[..., None], 1, inv_h=1.0 / h)
    val, grad = tab[0], tab[1]  # (F, 27, 10), (F, 27, 10, 2)
    c0_vals = val[:, :21].reshape(F, 3, 7, 10)[:, :, :4]
    c1_grads = grad[:, :21].reshape(F, 3, 7, 10, 2)[:, :, 4:]
    c1_vals = (c1_grads @ nu[:, :, None, :, None])[..., 0]  # (F, 3, 3, 10)
    edge_dn = (grad[:, 24:] @ mesh.edge_normal[edges][..., None])[..., 0]  # (F, 3, 10)

    rows = np.zeros((F, 33, 3, 10))
    for k in range(3):
        sa, sb = (k + 1) % 3, (k + 2) % 3
        r = 7 * k
        rows[:, r : r + 4, sa] = c0_vals[:, k]
        rows[:, r : r + 4, sb] = -c0_vals[:, k]
        rows[:, r + 4 : r + 7, sa] = c1_vals[:, k]
        rows[:, r + 4 : r + 7, sb] = -c1_vals[:, k]
        rows[:, 21 + 3 * k, sa] = val[:, 21 + k]
        rows[:, 22 + 3 * k : 24 + 3 * k, sa] = grad[:, 21 + k].transpose(0, 2, 1)
        rows[:, 30 + k, k] = edge_dn[:, k]
    return rows.reshape(F, 33, 30)


def _solve_stacked(rows, first=0):
    """Least-squares solutions X, shape (F, 30, 12), of rows[t] X = [0; I].

    One batched QR: with rows = Q R, X = R^-1 Q^T [0; I] = R^-1 Q[21:]^T.
    Raises RuntimeError naming the first triangle (numbered from `first`)
    whose system is rank deficient or inconsistent.  The rank test is
    conservative: since 1/||R^-1||_F <= sigma_min and ||R||_F >= sigma_max,
    rejecting 1/||R^-1||_F <= eps * 33 * ||R||_F rejects every system that
    the SVD rank test sigma_min <= eps * 33 * sigma_max rejects.
    """
    q, r = np.linalg.qr(rows)
    singular = (np.diagonal(r, axis1=1, axis2=2) == 0.0).any(axis=1)
    r_inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(30), r))
    low = np.where(singular, 0.0, 1.0 / np.linalg.norm(r_inv, axis=(1, 2)))
    tol = np.finfo(float).eps * 33 * np.linalg.norm(r, axis=(1, 2))
    _raise_first(~(low > tol), first, "degenerate HCT system",
                 lambda t: f" (smallest singular value bound {low[t]:.2e} <= {tol[t]:.2e})")
    X = r_inv @ q[:, 21:].transpose(0, 2, 1)
    resid = np.abs(rows @ X - _RHS).max(axis=(1, 2))
    _raise_first(resid > 1e-7, first, "HCT construction failed",
                 lambda t: f": residual {resid[t]:.2e}")
    return X


def _raise_first(bad, first, what, detail):
    """Raise RuntimeError for the first triangle flagged in `bad`, numbered from `first`."""
    if bad.any():
        t = int(np.argmax(bad))
        raise RuntimeError(f"{what} on triangle {first + t}{detail(t)}")


def hct_coefficients(mesh):
    """Per-triangle HCT basis coefficients, shape (F, 3, 10, 12).

    Entry [t, s, i, j] is the coefficient of scaled centered monomial i on
    subtriangle s for the basis function dual to local dof j.  Local dof
    order: (value, d/dx, d/dy) per vertex, then the three edge-midpoint
    normal derivatives in local edge order (edge k opposite vertex k).
    """
    F = mesh.n_triangles
    coef = np.empty((F, 30, 12))
    for lo in range(0, F, CHUNK):
        ts = slice(lo, lo + CHUNK)
        coef[ts] = _solve_stacked(_stacked_rows(mesh, ts), first=lo)
    return coef.reshape(F, 3, 10, 12)
