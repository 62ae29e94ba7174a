"""Error norms between discrete functions and references, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._poly import bary_tabulate
from .fespace import CRSpace, FeFunction, MorleySpace
from .fields import ExactSolution, quad_degree
from .quadrature import MAX_TRIANGLE_DEGREE, cells, pairing

__all__ = ["ErrorBundle", "error_norms", "convergence_rate", "errors_vs_fine"]

# rule of errors_vs_fine: exact for squares of piecewise P2 on the fine mesh
_FINE_DEGREE = 4


@dataclass(frozen=True)
class ErrorBundle:
    """L2, piecewise-H1 and piecewise energy norms of f minus a reference.

    A field whose order was not requested from :func:`error_norms` is None.
    """

    energy_pw: float | None
    h1_pw: float | None
    l2: float | None


def _ref_values(reference, cell, orders):
    """Order -> the reference's derivative of that order at the cell's points."""
    if isinstance(reference, FeFunction):
        return {k: reference.at(cell, k) for k in orders}
    if reference is None:
        return {k: np.zeros(cell.phys.shape[:-1] + (2,) * k) for k in orders}
    if isinstance(reference, ExactSolution):
        x, y = cell.phys[..., 0], cell.phys[..., 1]
        if reference.parts is not None:
            return reference.parts(x, y, orders)
        return {k: reference.eval(k, x, y) for k in orders}
    raise TypeError("reference must be a FeFunction, an ExactSolution or None, "
                    f"not {type(reference).__name__}")


def error_norms(f, reference=None, orders=None):
    """Quadrature evaluation of ||D^k (f - reference)|| for k in {0, 1, m}.

    Exact when both sides are piecewise polynomial at the declared degree.
    ``orders`` (a subset of {0, 1, m}, default all three) selects the norms
    to integrate: each side is differentiated only at the orders asked,
    and the bundle fields of the orders left out are None.  A
    computed field is bitwise the same as in a call with every order.

    ``f`` may also be a sequence of ``(function, orders)`` pairs on one
    mesh; the result is then the list of their bundles.  Functions whose
    subcell partition and quadrature rule coincide share one pass and one
    sample of the reference per cell, taken at the union of their orders,
    so every bundle is bitwise what a call for its function alone returns.
    """
    single = isinstance(f, FeFunction)
    if not single and orders is not None:
        raise ValueError("give the orders of each function in its (function, orders) pair")
    items = [(f, orders)] if single else list(f)
    mesh = items[0][0].space.mesh
    ref_space = None
    ref_deg = 0
    if isinstance(reference, FeFunction):
        if reference.space.mesh is not mesh:
            raise ValueError("reference lives on a different mesh")
        ref_space = reference.space
        ref_deg = ref_space.poly_degree
    elif reference is not None:
        ref_deg = quad_degree(reference)
    passes = {}  # (rule degree, subcells) -> (function, totals) pairs sharing that pass
    totals = []  # per function: order -> integral of the squared difference
    for f, orders in items:
        space = f.space
        if space.mesh is not mesh:
            raise ValueError("the functions live on different meshes")
        every = {0, 1, space.m}
        want = every if orders is None else set(orders)
        if not want or not want <= every:
            raise ValueError(f"orders must be a nonempty subset of {sorted(every)}")
        deg = 2 * max(space.poly_degree, ref_deg)
        nsub = max(space.n_subcells, 1 if ref_space is None else ref_space.n_subcells)
        totals.append(dict.fromkeys(sorted(want), 0.0))
        passes.setdefault((min(deg, MAX_TRIANGLE_DEGREE), nsub), []).append((f, totals[-1]))
    for (deg, _), members in passes.items():
        over = [f.space for f, _ in members] + [ref_space]
        union = sorted(set().union(*(t for _, t in members)))
        for chunk in cells(mesh, deg, *over):
            for c in chunk:
                rv = _ref_values(reference, c, union)
                for f, t in members:
                    for k in t:
                        diff = f.at(c, k) - rv[k]
                        t[k] += pairing(c, diff, diff)
    bundles = []
    for (f, _), t in zip(items, totals):
        norm = {k: float(np.sqrt(v)) for k, v in t.items()}
        bundles.append(
            ErrorBundle(energy_pw=norm.get(f.space.m), h1_pw=norm.get(1), l2=norm.get(0))
        )
    return bundles[0] if single else bundles


def convergence_rate(h_list, e_list):
    """Per-step rates log(e_i/e_{i+1}) / log(h_i/h_{i+1}) plus a LS fit.

    Entries at or below the roundoff floor 1e-13 are flagged; pairwise rates
    touching them come out as NaN and are excluded from the fit.
    """
    h = np.asarray(h_list, dtype=float)
    e = np.asarray(e_list, dtype=float)
    if len(h) < 2 or len(h) != len(e):
        raise ValueError("need at least two matching (h, error) entries")
    if np.any(h <= 0) or np.any(np.diff(h) >= 0):
        raise ValueError("mesh sizes must be positive and strictly decreasing")
    floored = e <= 1e-13
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
    """Derivative of order `order` of a CR or Morley function on ancestor
    triangles at per-triangle barycentric points (anc and bary both indexed
    per evaluation cell)."""
    space = f.space
    if not isinstance(space, (CRSpace, MorleySpace)):
        raise TypeError("fine-grid comparison supports CR and Morley functions")
    n, k = bary.shape[:2]
    tab = bary_tabulate(space._modes, bary.reshape(n * k, 3), order)[order]
    per_tri = np.moveaxis(tab.reshape((-1, n, k) + tab.shape[2:]), 1, 0)
    a = space.fold(anc, 0, f.local_coeffs(anc))
    return space.mode_values(anc, a, per_tri, order)


def errors_vs_fine(coarse, fine, generations):
    """Energy and L2 distance between nested nonconforming solutions.

    `fine` lives `generations` red refinements below `coarse`; integration
    runs over the fine mesh where both are polynomial.
    """
    if type(coarse.space) is not type(fine.space):
        raise ValueError("both functions must use the same element family")
    mesh_f = fine.space.mesh
    mesh_c = coarse.space.mesh
    m = fine.space.m
    totals = {0: 0.0, m: 0.0}
    corners_c = mesh_c.vertices[mesh_c.triangles]
    for (c,) in cells(mesh_f, _FINE_DEGREE, fine.space):
        anc = mesh_f.ancestor(c.ts, generations)
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
        rel = c.phys - p0[:, None, :]
        lam12 = np.einsum("fde,fke->fkd", inv, rel)
        bary_c = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
        for k in (0, m):
            diff = fine.at(c, k) - _eval_coarse_at(coarse, anc, bary_c, k)
            totals[k] += pairing(c, diff, diff)
    return {
        "energy_pw": float(np.sqrt(totals[m])),
        "l2": float(np.sqrt(totals[0])),
    }
