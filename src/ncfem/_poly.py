"""Polynomial tabulation helpers: 2D monomials and barycentric polynomials.

Barycentric polynomials are stored by exponent triples; physical-space
derivatives come from contracting formal partials with the (constant)
barycentric gradients of the triangle, so everything vectorizes over
triangles sharing one set of barycentric sample points.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "monomial_exponents",
    "mono_tabulate",
    "BaryPoly",
    "bary_modes",
    "cubic_bubble",
    "moment_matrix",
    "lambda_gradients",
    "bary_integral",
]

# entries of each work buffer of ``bary_tabulate`` (512 KiB): points go in
# blocks of this many divided by the number of rows
_BLOCK_ENTRIES = 1 << 16


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


def bary_modes(k):
    """Basis of P_k on a triangle: u^a v^b (a + b <= k) with u = lambda1 -
    lambda0 and v = lambda2 - lambda0, ordered by total degree, then b."""
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


def cubic_bubble():
    """27 lambda0 lambda1 lambda2: the cubic bubble with value 1 at the centroid."""
    return 27.0 * BaryPoly.lam(0) * BaryPoly.lam(1) * BaryPoly.lam(2)


def moment_matrix(rows, cols):
    """Per-unit-area integrals of p * q, p in `rows` (row index), q in `cols`."""
    return np.array([[(p * q).integral() for q in cols] for p in rows])


@functools.lru_cache(maxsize=32)
def _term_plan(terms, order):
    """Rows of ``bary_tabulate``: the polynomials given by `terms` (each one's
    ``terms.items()``), then their formal partials of order 1 and 2, ordered
    by derivative index, then polynomial.

    Returns (top, inv, slots): the largest exponent; for each row, its
    position among the rows sorted by falling term count; and per term slot j,
    (nj, coefficients (nj, 1), lambda_0, lambda_1 and lambda_2 exponents (nj,),
    the last two None where all 0) for the first nj sorted rows, those with
    more than j terms, each in ``BaryPoly`` term order.
    """
    polys = [BaryPoly(dict(t)) for t in terms]
    rows = list(polys)
    if order >= 1:
        rows += [p.dlam(a) for a in range(3) for p in polys]
    if order >= 2:
        rows += [p.dlam(a).dlam(b) for a in range(3) for b in range(3) for p in polys]
    counts = np.array([len(r.terms) for r in rows], dtype=np.intp)
    perm = np.argsort(-counts, kind="stable")
    items = [list(rows[i].terms.items()) for i in perm]
    slots = []
    for j in range(int(counts.max(initial=0))):
        nj = int((counts > j).sum())
        a, b, c = np.array([items[i][j][0] for i in range(nj)], dtype=np.intp).T
        coef = np.array([items[i][j][1] for i in range(nj)])[:, None]
        slots.append((nj, coef, a, b if b.any() else None, c if c.any() else None))
    top = max((max(e) for r in rows for e in r.terms), default=0)
    return top, np.argsort(perm), slots


def bary_tabulate(polys, lam_pts, order):
    """Tabulate barycentric polynomials and their formal lambda-partials.

    Returns dict: 0 -> (n_poly, k), 1 -> (n_poly, k, 3), 2 -> (n_poly, k, 3, 3)
    where k = number of sample points.  Physical derivatives follow by
    contraction with per-triangle barycentric gradients.  Every entry goes
    through the operations of ``BaryPoly.eval``, so it is bitwise that value,
    whatever `order` is.
    """
    lam_pts = np.asarray(lam_pts, dtype=float)
    k = lam_pts.shape[0]
    n = len(polys)
    top, inv, slots = _term_plan(tuple(tuple(p.terms.items()) for p in polys), order)
    # each power lambda_d**e once, taken exactly as BaryPoly.eval takes it
    powers = np.empty((3, top + 1, k))
    for d in range(3):
        for e in range(top + 1):
            powers[d, e] = lam_pts[:, d] ** e
    out = {o: np.empty((n, k) + (3,) * o) for o in range(order + 1)}
    rows = len(inv)
    width = max(1, min(k, _BLOCK_ENTRIES // max(rows, 1)))
    bufs = np.empty((3, rows * width))
    for lo in range(0, k, width):
        w = min(width, k - lo)
        pw = powers[:, :, lo:lo + w]
        acc, term, factor = (b[:rows * w].reshape(rows, w) for b in bufs)
        acc.fill(0.0)
        # the sum over terms of ((c * lambda0**a) * lambda1**b) * lambda2**c;
        # a factor lambda**0 = 1.0 is exact, so a slot without one skips it
        for nj, coef, *exps in slots:
            t = np.take(pw[0], exps[0], axis=0, out=term[:nj], mode="clip")
            t *= coef
            for d in (1, 2):
                if exps[d] is not None:
                    t *= np.take(pw[d], exps[d], axis=0, out=factor[:nj], mode="clip")
            acc[:nj] += t
        acc = np.take(acc, inv, axis=0, out=term, mode="clip")
        start = 0
        for o, t in out.items():
            dest = t.reshape(n, k, 3**o)[:, lo:lo + w]
            for c in range(3**o):
                dest[..., c] = acc[start:start + n]
                start += n
    return out
