"""Built-in model problems for convergence and reliability studies.

Each problem bundles a base mesh factory, right-hand-side data, a
reference solution (analytic where available, otherwise a fine-grid
solve), the elliptic regularity index of its domain, and the expected
convergence rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import PointForce, RhsData
from .fields import ExactSolution, ScalarField
from .mesh import BUILTIN_MESHES

__all__ = ["Problem", "PROBLEMS", "get_problem"]

PI = np.pi


def _copy_points(x, y):
    """C-contiguous float copies of x and y, 0-d for scalars."""
    return np.array(x, dtype=float, order="C"), np.array(y, dtype=float, order="C")


@dataclass(frozen=True)
class Problem:
    name: str
    m: int
    domain: str
    base_n: int
    sigma: float | None

    def base_mesh(self):
        return BUILTIN_MESHES[self.domain](self.base_n)

    def data(self, mesh):
        raise NotImplementedError

    def reference(self):
        """The exact solution, or None when rates need a fine-grid reference."""
        return None

    def expected_rate(self, s):
        """Rate t = min(2 sigma, m + sigma - s) for the H^s error."""
        if self.sigma is None:
            return None
        return min(2.0 * self.sigma, self.m + self.sigma - s)


# -- smooth problems on the unit square --------------------------------------


class _SquareSmoothM1(Problem):
    def data(self, mesh):
        g = ScalarField(
            lambda x, y: 2.0 * PI**2 * np.sin(PI * x) * np.sin(PI * y), degree=None
        )
        return RhsData(G=None, g=g)

    def reference(self):
        def parts(x, y, orders):
            """u = sin(pi x) sin(pi y) and its derivatives of the given orders."""
            sx, sy = np.sin(PI * x), np.sin(PI * y)
            out = {0: sx * sy} if 0 in orders else {}
            if 1 in orders:
                cx, cy = np.cos(PI * x), np.cos(PI * y)
                out[1] = np.stack([PI * cx * sy, PI * sx * cy], axis=-1)
            return out

        return ExactSolution(parts, top_order=1)


class _SquareSmoothM2(Problem):
    """u = sin^2(pi x) sin^2(pi y) = a(x) b(y) with a = (1 - cos 2pi x)/2."""

    def data(self, mesh):
        def f(x, y):
            c2x = np.cos(2.0 * PI * x)
            c2y = np.cos(2.0 * PI * y)
            a = 0.5 * (1.0 - c2x)
            b = 0.5 * (1.0 - c2y)
            # biharmonic of a*b: a''''b + 2 a''b'' + a b''''
            return (
                -8.0 * PI**4 * (c2x * b + a * c2y) + 8.0 * PI**4 * c2x * c2y
            )

        return RhsData(G=None, g=ScalarField(f, degree=None))

    def reference(self):
        def parts(x, y, orders):
            """u = a(x) a(y) and its derivatives of the given orders."""
            c2x, c2y = np.cos(2.0 * PI * x), np.cos(2.0 * PI * y)
            ax, ay = 0.5 * (1.0 - c2x), 0.5 * (1.0 - c2y)
            out = {0: ax * ay} if 0 in orders else {}
            if max(orders) > 0:
                a1x, a1y = PI * np.sin(2.0 * PI * x), PI * np.sin(2.0 * PI * y)
            if 1 in orders:
                out[1] = np.stack([a1x * ay, ax * a1y], axis=-1)
            if 2 in orders:
                h = np.empty(np.shape(x) + (2, 2))
                h[..., 0, 0] = 2.0 * PI**2 * c2x * ay
                h[..., 1, 1] = ax * (2.0 * PI**2 * c2y)
                h[..., 0, 1] = a1x * a1y
                h[..., 1, 0] = h[..., 0, 1]
                out[2] = h
            return out

        return ExactSolution(parts)


# -- L-shape problems ---------------------------------------------------------


class _LShapeSingularM1(Problem):
    """u = (1-x^2)(1-y^2) r^(2/3) sin(2 theta/3): the leading reentrant-corner
    singularity weighted by a polynomial that enforces the outer boundary
    condition; f = -Laplace(u) = -(Laplace g) w - 2 grad g . grad w with
    the harmonic singular factor w.

    The closed forms evaluate with ufuncs that write into a few buffers of
    the points' shape, in the same IEEE operations and order as the plain
    expressions in their comments and docstrings.  ``data`` and
    ``reference`` copy the (strided) point coordinates once into contiguous
    arrays, which then take the gradient of g.
    """

    @staticmethod
    def _w_parts(x, y):
        """w = r^(2/3) sin(2 theta/3), theta in [0, 2 pi), and grad w.

        Closed form with t = theta/3: w = 2 r^(2/3) sin t cos t and
        grad w = (2/3) r^(-1/3) (-sin t, cos t).  Returns w, dw/dx, dw/dy.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        cbrt_r = np.multiply(x, x, out=np.empty(x.shape))
        t = np.multiply(y, y, out=np.empty(x.shape))
        np.add(cbrt_r, t, out=cbrt_r)
        np.sqrt(cbrt_r, out=cbrt_r)
        np.maximum(cbrt_r, 1e-300, out=cbrt_r)
        np.cbrt(cbrt_r, out=cbrt_r)
        np.arctan2(y, x, out=t)
        np.add(t, 2.0 * PI, out=t, where=t < 0.0)
        t /= 3.0
        w_x = np.sin(t, out=np.empty(x.shape))
        w_y = np.cos(t, out=t)
        w = np.multiply(cbrt_r, 2.0, out=np.empty(x.shape))
        w *= cbrt_r
        w *= w_x
        w *= w_y
        fac = np.divide(2.0 / 3.0, cbrt_r, out=cbrt_r)
        w_x *= fac
        np.negative(w_x, out=w_x)
        w_y *= fac
        return w, w_x, w_y

    @staticmethod
    def _g_factors_into(x, y):
        """Overwrite x, y with dg/dx = -2x(1-y^2), dg/dy = -2y(1-x^2) of
        g = (1-x^2)(1-y^2); return 1-x^2 and 1-y^2."""
        one_x = np.multiply(x, x, out=np.empty(x.shape))
        np.subtract(1.0, one_x, out=one_x)
        one_y = np.multiply(y, y, out=np.empty(x.shape))
        np.subtract(1.0, one_y, out=one_y)
        x *= -2.0
        x *= one_y
        y *= -2.0
        y *= one_x
        return one_x, one_y

    def data(self, mesh):
        def f(x, y):
            x, y = _copy_points(x, y)
            w, w_x, w_y = self._w_parts(x, y)
            one_x, one_y = self._g_factors_into(x, y)  # x, y hold g_x, g_y
            # -(lap_g w) - 2 (g_x w_x + g_y w_y), lap_g = -2 (1-y^2) - 2 (1-x^2)
            w_x *= x
            w_y *= y
            w_x += w_y
            w_x *= 2.0
            lap_g = np.multiply(one_y, -2.0, out=one_y)
            one_x *= 2.0
            lap_g -= one_x
            w *= lap_g
            np.negative(w, out=w)
            w -= w_x
            return w

        return RhsData(G=None, g=ScalarField(f, degree=None))

    def reference(self):
        def parts(x, y, orders):
            x, y = _copy_points(x, y)
            w, w_x, w_y = self._w_parts(x, y)
            g, one_y = self._g_factors_into(x, y)  # x, y hold g_x, g_y
            g *= one_y
            out = {}
            if 1 in orders:  # g grad w + w grad g, before g becomes g w
                grad = out[1] = np.empty(w.shape + (2,))
                for k, (dw, dg) in enumerate(((w_x, x), (w_y, y))):
                    dg *= w
                    np.add(np.multiply(g, dw, out=grad[..., k]), dg, out=grad[..., k])
            if 0 in orders:
                out[0] = np.multiply(g, w, out=g)
            return out

        return ExactSolution(parts, top_order=1)


class _LShapeF1M2(Problem):
    def data(self, mesh):
        return RhsData(G=None, g=ScalarField(lambda x, y: np.ones(np.shape(x)), degree=0))


class _LShapePointForceM2(Problem):
    """Unit point force at the interior vertex closest to (-1/2, 1/2)."""

    def data(self, mesh):
        target = np.array([-0.5, 0.5])
        interior = np.nonzero(~mesh.boundary_vertex_mask)[0]
        d = np.linalg.norm(mesh.vertices[interior] - target, axis=1)
        v = int(interior[np.argmin(d)])
        return RhsData(G=None, g=None, point_forces=[PointForce(beta=1.0, vertex=v)])


PROBLEMS = {
    p.name: p
    for p in (
        _SquareSmoothM1("square-smooth-m1", 1, "square", 2, 1.0),
        _SquareSmoothM2("square-smooth-m2", 2, "square", 2, 1.0),
        _LShapeSingularM1("lshape-singular-m1", 1, "lshape", 2, 2.0 / 3.0),
        _LShapeF1M2("lshape-f1-m2", 2, "lshape", 1, None),
        _LShapePointForceM2("lshape-pointforce-m2", 2, "lshape", 2, None),
    )
}


def get_problem(name):
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(PROBLEMS)}"
        ) from None
