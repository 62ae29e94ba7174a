"""Polynomial tabulation helpers: 2D monomials and barycentric polynomials.

Barycentric polynomials are stored by exponent triples; physical-space
derivatives come from contracting formal partials with the (constant)
barycentric gradients of the triangle, so everything vectorizes over
triangles sharing one set of barycentric sample points.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "monomial_exponents",
    "mono_tabulate",
    "BaryPoly",
    "lambda_gradients",
    "bary_integral",
]


def monomial_exponents(degree):
    """Exponent pairs for 2D monomials of total degree <= degree."""
    return [(t - b, b) for t in range(degree + 1) for b in range(t + 1)]


def mono_tabulate(exps, pts, order, inv_h=1.0):
    """Values and derivatives of monomials ``xi^a eta^b`` at `pts`.

    pts has shape (..., 2); returns a dict with keys 0, 1, 2 up to `order`:
    values (..., n), gradients (..., n, 2), Hessians (..., n, 2, 2).
    The chain-rule factor `inv_h` (scalar or broadcastable) accounts for
    scaled coordinates xi = (x - c)/h.
    """
    pts = np.asarray(pts, dtype=float)
    xi = pts[..., 0]
    eta = pts[..., 1]
    n = len(exps)
    base = pts.shape[:-1]
    # each power is formed once and shared by every monomial that uses it;
    # v**0 and v**1 are exactly 1.0 and v, so they allocate nothing
    top = max(max(e) for e in exps)
    px = [1.0, xi] + [xi**k for k in range(2, top + 1)]
    py = [1.0, eta] + [eta**k for k in range(2, top + 1)]

    out = {}
    val = np.empty(base + (n,))
    for i, (a, b) in enumerate(exps):
        val[..., i] = px[a] * py[b]
    out[0] = val
    if order >= 1:
        grad = np.zeros(base + (n, 2))
        for i, (a, b) in enumerate(exps):
            if a:
                grad[..., i, 0] = a * px[a - 1] * py[b]
            if b:
                grad[..., i, 1] = b * px[a] * py[b - 1]
        out[1] = grad * np.asarray(inv_h)[..., None, None] if np.ndim(inv_h) else grad * inv_h
    if order >= 2:
        hess = np.zeros(base + (n, 2, 2))
        for i, (a, b) in enumerate(exps):
            if a >= 2:
                hess[..., i, 0, 0] = a * (a - 1) * px[a - 2] * py[b]
            if a >= 1 and b >= 1:
                m = a * b * px[a - 1] * py[b - 1]
                hess[..., i, 0, 1] = m
                hess[..., i, 1, 0] = m
            if b >= 2:
                hess[..., i, 1, 1] = b * (b - 1) * px[a] * py[b - 2]
        scale = np.asarray(inv_h) ** 2
        out[2] = hess * scale[..., None, None, None] if np.ndim(inv_h) else hess * scale
    return out


def lambda_gradients(mesh):
    """Barycentric gradients, shape (F, 3, 2); row k is grad(lambda_k)."""
    p = mesh.vertices[mesh.triangles]  # (F, 3, 2)
    grads = np.empty_like(p)
    two_area = 2.0 * mesh.signed_area
    for k in range(3):
        d = p[:, (k + 1) % 3] - p[:, (k + 2) % 3]
        grads[:, k, 0] = d[:, 1] / two_area
        grads[:, k, 1] = -d[:, 0] / two_area
    return grads


def bary_integral(a, b, c):
    """Exact integral of lambda0^a lambda1^b lambda2^c over T, per unit area."""
    return 2.0 * math.factorial(a) * math.factorial(b) * math.factorial(c) / math.factorial(a + b + c + 2)


class BaryPoly:
    """Polynomial in the three barycentric coordinates of a triangle."""

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @staticmethod
    def lam(k):
        e = [0, 0, 0]
        e[k] = 1
        return BaryPoly({tuple(e): 1.0})

    @staticmethod
    def const(c):
        return BaryPoly({(0, 0, 0): float(c)})

    def __add__(self, other):
        if not isinstance(other, BaryPoly):
            other = BaryPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return BaryPoly(out)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, BaryPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[e] = out.get(e, 0.0) + c1 * c2
            return BaryPoly(out)
        return BaryPoly({e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def dlam(self, k):
        out = {}
        for e, c in self.terms.items():
            if e[k]:
                e2 = list(e)
                e2[k] -= 1
                e2 = tuple(e2)
                out[e2] = out.get(e2, 0.0) + c * e[k]
        return BaryPoly(out)

    def eval(self, lam):
        lam = np.asarray(lam, dtype=float)
        val = np.zeros(lam.shape[:-1])
        for (a, b, c), coef in self.terms.items():
            val += coef * lam[..., 0] ** a * lam[..., 1] ** b * lam[..., 2] ** c
        return val

    def integral(self):
        """Exact integral over the triangle, per unit area."""
        return sum(c * bary_integral(*e) for e, c in self.terms.items())

    @property
    def degree(self):
        return max((sum(e) for e in self.terms), default=0)


def bary_tabulate(polys, lam_pts, order):
    """Tabulate barycentric polynomials and their formal lambda-partials.

    Returns dict: 0 -> (n_poly, k), 1 -> (n_poly, k, 3), 2 -> (n_poly, k, 3, 3)
    where k = number of sample points.  Physical derivatives follow by
    contraction with per-triangle barycentric gradients.
    """
    lam_pts = np.asarray(lam_pts, dtype=float)
    k = lam_pts.shape[0]
    n = len(polys)
    out = {0: np.empty((n, k))}
    if order >= 1:
        out[1] = np.empty((n, k, 3))
    if order >= 2:
        out[2] = np.empty((n, k, 3, 3))
    for i, p in enumerate(polys):
        out[0][i] = p.eval(lam_pts)
        if order >= 1:
            for a in range(3):
                out[1][i, :, a] = p.dlam(a).eval(lam_pts)
        if order >= 2:
            for a in range(3):
                for b in range(3):
                    out[2][i, :, a, b] = p.dlam(a).dlam(b).eval(lam_pts)
    return out
