"""Error norms between discrete functions and references, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._hct import SUB_TO_PARENT
from ._poly import mono_tabulate, monomial_exponents
from .assembly import _subcell_corners
from .fespace import CRSpace, FeFunction, MorleySpace
from .fields import ExactSolution
from .quadrature import MAX_TRIANGLE_DEGREE, triangle_rule

__all__ = ["ErrorBundle", "error_norms", "convergence_rate", "errors_vs_fine"]

_CHUNK = 2048
_EXPS2 = monomial_exponents(2)


@dataclass(frozen=True)
class ErrorBundle:
    """L2, piecewise-H1 and piecewise energy norms of f minus a reference."""

    energy_pw: float
    h1_pw: float
    l2: float
    against: str


def _ref_values(reference, order, ts, s, bary, parent_bary, phys):
    if reference is None:
        shape = ((), (2,), (2, 2))[order]
        return np.zeros(phys.shape[:-1] + shape)
    if isinstance(reference, FeFunction):
        if reference.space.n_subcells == 1:
            return reference.evaluate_batch(ts, 0, parent_bary, order)[order]
        return reference.evaluate_batch(ts, s, bary, order)[order]
    if isinstance(reference, ExactSolution):
        return reference.eval(order, phys[..., 0], phys[..., 1])
    # generic field (value only)
    if order == 0:
        return reference.eval_batch(ts, s, bary, parent_bary, phys)
    raise TypeError("reference provides no derivatives")


def error_norms(f, reference=None, quad_degree=None, m=None):
    """Quadrature evaluation of ||D^k (f - reference)|| for k in {0, 1, m}.

    Exact when both sides are piecewise polynomial at the declared degree.
    """
    space = f.space
    mesh = space.mesh
    if m is None:
        m = space.m
    nsub = space.n_subcells
    ref_deg = 0
    if isinstance(reference, FeFunction):
        if reference.space.mesh is not mesh:
            raise ValueError("reference lives on a different mesh")
        nsub = max(nsub, reference.space.n_subcells)
        ref_deg = reference.space.poly_degree
    elif reference is not None:
        ref_deg = reference.degree if reference.degree is not None else 12
    need = 2 * max(space.poly_degree, ref_deg)
    if quad_degree is not None:
        if quad_degree < 2 * space.poly_degree:
            raise ValueError(
                f"declared quadrature degree {quad_degree} cannot integrate "
                f"squares of degree-{space.poly_degree} polynomials exactly"
            )
        deg = quad_degree
    else:
        deg = need
    rule = triangle_rule(min(deg, MAX_TRIANGLE_DEGREE))
    orders = sorted({0, 1, m})
    totals = {k: 0.0 for k in orders}
    for start in range(0, mesh.n_triangles, _CHUNK):
        ts = np.arange(start, min(start + _CHUNK, mesh.n_triangles))
        for s in range(nsub):
            bary = rule.points
            parent = bary if nsub == 1 else bary @ SUB_TO_PARENT[s]
            phys = bary @ _subcell_corners(mesh, ts, s, nsub)
            area = mesh.area[ts] / nsub
            for k in orders:
                if space.n_subcells == 1:
                    fv = f.evaluate_batch(ts, 0, parent, k)[k]
                else:
                    fv = f.evaluate_batch(ts, s, bary, k)[k]
                rv = _ref_values(reference, k, ts, s, bary, parent, phys)
                diff = (fv - rv).reshape(fv.shape[:2] + (-1,))
                dens = np.einsum("fkc,fkc->fk", diff, diff)
                totals[k] += float(np.einsum("k,f,fk->", rule.weights, area, dens))
    against = (
        "zero"
        if reference is None
        else ("discrete" if isinstance(reference, FeFunction) else "analytic")
    )
    return ErrorBundle(
        energy_pw=float(np.sqrt(totals[m])),
        h1_pw=float(np.sqrt(totals[1])),
        l2=float(np.sqrt(totals[0])),
        against=against,
    )


def convergence_rate(h_list, e_list, floor=1e-13):
    """Per-step rates log(e_i/e_{i+1}) / log(h_i/h_{i+1}) plus a LS fit.

    Entries at or below the tolerance floor are flagged; pairwise rates
    touching them come out as NaN and are excluded from the fit.
    """
    h = np.asarray(h_list, dtype=float)
    e = np.asarray(e_list, dtype=float)
    if len(h) < 2 or len(h) != len(e):
        raise ValueError("need at least two matching (h, error) entries")
    if np.any(h <= 0) or np.any(np.diff(h) >= 0):
        raise ValueError("mesh sizes must be positive and strictly decreasing")
    floored = e <= floor
    rates = np.full(len(h) - 1, np.nan)
    for i in range(len(h) - 1):
        if not (floored[i] or floored[i + 1]):
            rates[i] = np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1])
    ok = ~floored
    if ok.sum() >= 2:
        ls_rate = float(np.polyfit(np.log(h[ok]), np.log(e[ok]), 1)[0])
    else:
        ls_rate = float("nan")
    return {
        "rates": rates.tolist(),
        "ls_rate": ls_rate,
        "floored": floored.tolist(),
    }


def _eval_coarse_at(f, anc, bary, order):
    """Evaluate a CR or Morley function on ancestor triangles at per-triangle
    barycentric points (anc and bary both indexed per evaluation cell)."""
    space = f.space
    mesh = space.mesh
    c = f.local_coeffs(anc)
    if isinstance(space, CRSpace):
        if order == 0:
            vals = 1.0 - 2.0 * bary  # (n, k, 3) local shape values
            return np.einsum("fl,fkl->fk", c, vals)
        if order == 1:
            from ._poly import lambda_gradients

            g = -2.0 * lambda_gradients(mesh)[anc]
            out = np.einsum("fl,fld->fd", c, g)
            return np.broadcast_to(out[:, None, :], (len(anc), bary.shape[1], 2))
        return np.zeros((len(anc), bary.shape[1], 2, 2))
    if isinstance(space, MorleySpace):
        corners = mesh.vertices[mesh.triangles[anc]]
        phys = np.einsum("fkc,fcd->fkd", bary, corners)
        h = mesh.diameter[anc]
        xi = (phys - mesh.centroid[anc][:, None]) / h[:, None, None]
        mono = mono_tabulate(_EXPS2, xi, order, inv_h=1.0 / h[:, None])
        C = space._coeff[anc]
        if order == 0:
            return np.einsum("fkm,fmj,fj->fk", mono[0], C, c)
        if order == 1:
            return np.einsum("fkmd,fmj,fj->fkd", mono[1], C, c)
        return np.einsum("fkmde,fmj,fj->fkde", mono[2], C, c)
    raise TypeError("fine-grid comparison supports CR and Morley functions")


def errors_vs_fine(coarse, fine, generations, quad_degree=4):
    """Energy and L2 distance between nested nonconforming solutions.

    `fine` lives `generations` red refinements below `coarse`; integration
    runs over the fine mesh where both are polynomial.
    """
    if type(coarse.space) is not type(fine.space):
        raise ValueError("both functions must use the same element family")
    mesh_f = fine.space.mesh
    mesh_c = coarse.space.mesh
    m = fine.space.m
    rule = triangle_rule(quad_degree)
    totals = {0: 0.0, m: 0.0}
    corners_c = mesh_c.vertices[mesh_c.triangles]
    for start in range(0, mesh_f.n_triangles, _CHUNK):
        ts = np.arange(start, min(start + _CHUNK, mesh_f.n_triangles))
        anc = mesh_f.ancestor(ts, generations)
        corners = mesh_f.vertices[mesh_f.triangles[ts]]
        phys = rule.points @ corners
        # barycentric in the ancestor triangle
        p0 = corners_c[anc, 0]
        T = np.stack(
            [corners_c[anc, 1] - p0, corners_c[anc, 2] - p0], axis=2
        )  # (n, 2, 2) columns
        det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
        inv = np.empty_like(T)
        inv[:, 0, 0] = T[:, 1, 1] / det
        inv[:, 0, 1] = -T[:, 0, 1] / det
        inv[:, 1, 0] = -T[:, 1, 0] / det
        inv[:, 1, 1] = T[:, 0, 0] / det
        rel = phys - p0[:, None, :]
        lam12 = np.einsum("fde,fke->fkd", inv, rel)
        bary_c = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
        area = mesh_f.area[ts]
        for k in (0, m):
            fv = fine.evaluate_batch(ts, 0, rule.points, k)[k]
            cv = _eval_coarse_at(coarse, anc, bary_c, k)
            diff = (fv - cv).reshape(fv.shape[:2] + (-1,))
            dens = np.einsum("fkc,fkc->fk", diff, diff)
            totals[k] += float(np.einsum("k,f,fk->", rule.weights, area, dens))
    return {
        "energy_pw": float(np.sqrt(totals[m])),
        "l2": float(np.sqrt(totals[0])),
    }
