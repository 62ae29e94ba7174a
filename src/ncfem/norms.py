"""Error norms between discrete functions and references, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._poly import bary_tabulate
from .fespace import CRSpace, FeFunction, MorleySpace
from .fields import ExactSolution, quad_degree
from .quadrature import MAX_TRIANGLE_DEGREE, cells, pairing

__all__ = ["ErrorBundle", "error_norms", "convergence_rate", "errors_vs_fine"]


@dataclass(frozen=True)
class ErrorBundle:
    """L2, piecewise-H1 and piecewise energy norms of f minus a reference.

    A field whose order was not requested from :func:`error_norms` is None.
    """

    energy_pw: float | None
    h1_pw: float | None
    l2: float | None


# what reference=None stands for
_ZERO = ExactSolution(
    lambda x, y, orders: {k: np.broadcast_to(0.0, np.shape(x) + (2,) * k) for k in orders},
    degree=0,
)


class _CoarseSampler:
    """Reference of :func:`errors_vs_fine`: the CR or Morley function `f`
    at the points of cells of the mesh `fine`, `generations` red
    refinements below its own, through each fine triangle's ancestor."""

    n_subcells = 1

    def __init__(self, f, fine, generations):
        if not isinstance(f.space, (CRSpace, MorleySpace)):
            raise TypeError("fine-grid comparison supports CR and Morley functions")
        self.f, self.fine, self.generations = f, fine, generations
        self.degree = f.space.poly_degree

    def locate(self, cell):
        """The ancestors (nts,) of the cell's triangles and its points in
        their barycentric coordinates, (nts, k, 3)."""
        space = self.f.space
        anc = self.fine.ancestor(cell.ts, self.generations)
        rel = cell.phys - space.mesh.vertices[space.mesh.triangles[anc, 0]][:, None, :]
        # lambda_1 and lambda_2 from their gradients, lambda_0 = 1 - both
        lam12 = np.einsum("fde,fke->fkd", space._lgrad[anc, 1:], rel)
        return anc, np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)

    def sample(self, cell, orders):
        space = self.f.space
        anc, bary = self.locate(cell)
        n, k = bary.shape[:2]
        tab = bary_tabulate(space._modes, bary.reshape(n * k, 3), max(orders))
        a = space.fold(anc, 0, self.f.local_coeffs(anc))
        out = {}
        for o in orders:
            per_tri = np.moveaxis(tab[o].reshape((-1, n, k) + tab[o].shape[2:]), 1, 0)
            out[o] = space.mode_values(anc, a, per_tri, o)
        return out


def error_norms(f, reference=None, orders=None):
    """Quadrature evaluation of ||D^k (f - reference)|| for k in {0, 1, m}.

    The reference is None (zero) or answers ``sample(cell, orders)`` and
    declares ``degree`` and ``n_subcells``, as an ``FeFunction`` on the
    same mesh and an ``ExactSolution`` do.
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
    if reference is None:
        reference = _ZERO
    elif not hasattr(reference, "sample"):
        raise TypeError("reference must be a FeFunction, an ExactSolution or None, "
                        f"not {type(reference).__name__}")
    elif isinstance(reference, FeFunction) and reference.space.mesh is not mesh:
        raise ValueError("reference lives on a different mesh")
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
        nsub = max(space.n_subcells, reference.n_subcells)
        totals.append(dict.fromkeys(sorted(want), 0.0))
        passes.setdefault((min(deg, MAX_TRIANGLE_DEGREE), nsub), []).append((f, totals[-1]))
    for (deg, _), members in passes.items():
        over = [f.space for f, _ in members] + [reference]
        union = sorted(set().union(*(t for _, t in members)))
        for c in cells(mesh, deg, *over):
            rv = reference.sample(c, union)
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


def errors_vs_fine(coarse, fine, generations):
    """Energy and L2 distance between nested nonconforming solutions.

    `fine` lives `generations` red refinements below `coarse`; the norms
    are integrated over the fine mesh, where both are polynomial, with
    `coarse` as the reference.
    """
    if type(coarse.space) is not type(fine.space):
        raise ValueError("both functions must use the same element family")
    ref = _CoarseSampler(coarse, fine.space.mesh, generations)
    bundle = error_norms(fine, reference=ref, orders=(0, fine.space.m))
    return {"energy_pw": bundle.energy_pw, "l2": bundle.l2}
