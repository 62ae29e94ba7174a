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
from .mesh import l_shape_mesh, unit_square_mesh

__all__ = ["Problem", "PROBLEMS", "get_problem"]

PI = np.pi


@dataclass(frozen=True)
class Problem:
    name: str
    m: int
    domain: str
    base_n: int
    sigma: float | None
    reference_kind: str  # "analytic" or "fine-grid"

    def base_mesh(self):
        if self.domain == "square":
            return unit_square_mesh(self.base_n)
        return l_shape_mesh(self.base_n)

    def data(self, mesh):
        raise NotImplementedError

    def reference(self):
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
        def value(x, y):
            return np.sin(PI * x) * np.sin(PI * y)

        def gradient(x, y):
            return np.stack(
                [
                    PI * np.cos(PI * x) * np.sin(PI * y),
                    PI * np.sin(PI * x) * np.cos(PI * y),
                ],
                axis=-1,
            )

        def hessian(x, y):
            s = np.sin(PI * x) * np.sin(PI * y)
            c = np.cos(PI * x) * np.cos(PI * y)
            h = np.empty(np.shape(x) + (2, 2))
            h[..., 0, 0] = -PI**2 * s
            h[..., 1, 1] = -PI**2 * s
            h[..., 0, 1] = PI**2 * c
            h[..., 1, 0] = PI**2 * c
            return h

        return ExactSolution(value, gradient, hessian)


class _SquareSmoothM2(Problem):
    """u = sin^2(pi x) sin^2(pi y) = a(x) b(y) with a = (1 - cos 2pi x)/2."""

    @staticmethod
    def _ab(x):
        return 0.5 * (1.0 - np.cos(2.0 * PI * x))

    @staticmethod
    def _ab1(x):
        return PI * np.sin(2.0 * PI * x)

    @staticmethod
    def _ab2(x):
        return 2.0 * PI**2 * np.cos(2.0 * PI * x)

    def data(self, mesh):
        def f(x, y):
            c2x = np.cos(2.0 * PI * x)
            c2y = np.cos(2.0 * PI * y)
            a = self._ab(x)
            b = self._ab(y)
            # biharmonic of a*b: a''''b + 2 a''b'' + a b''''
            return (
                -8.0 * PI**4 * (c2x * b + a * c2y) + 8.0 * PI**4 * c2x * c2y
            )

        return RhsData(G=None, g=ScalarField(f, degree=None))

    def reference(self):
        ab, ab1, ab2 = self._ab, self._ab1, self._ab2

        def value(x, y):
            return ab(x) * ab(y)

        def gradient(x, y):
            return np.stack([ab1(x) * ab(y), ab(x) * ab1(y)], axis=-1)

        def hessian(x, y):
            h = np.empty(np.shape(x) + (2, 2))
            h[..., 0, 0] = ab2(x) * ab(y)
            h[..., 1, 1] = ab(x) * ab2(y)
            h[..., 0, 1] = ab1(x) * ab1(y)
            h[..., 1, 0] = h[..., 0, 1]
            return h

        return ExactSolution(value, gradient, hessian)


# -- L-shape problems ---------------------------------------------------------


class _LShapeSingularM1(Problem):
    """u = (1-x^2)(1-y^2) r^(2/3) sin(2 theta/3): the leading reentrant-corner
    singularity weighted by a polynomial that enforces the outer boundary
    condition; f = -Laplace(u) = -(Laplace g) w - 2 grad g . grad w with
    the harmonic singular factor w."""

    @staticmethod
    def _w_parts(x, y):
        """w = r^(2/3) sin(2 theta/3), theta in [0, 2 pi), and grad w.

        Closed form with t = theta/3: w = 2 r^(2/3) sin t cos t and
        grad w = (2/3) r^(-1/3) (-sin t, cos t).  Returns w, dw/dx, dw/dy.
        """
        cbrt_r = np.cbrt(np.maximum(np.sqrt(x * x + y * y), 1e-300))
        t = np.arctan2(y, x)
        t = np.where(t < 0.0, t + 2.0 * PI, t) / 3.0
        w_x = np.sin(t)
        w_y = np.cos(t)
        w = 2.0 * cbrt_r * cbrt_r * w_x * w_y
        fac = (2.0 / 3.0) / cbrt_r
        w_x *= -fac
        w_y *= fac
        return w, w_x, w_y

    @staticmethod
    def _g_parts(x, y):
        """g = (1-x^2)(1-y^2) and dg/dx, dg/dy."""
        one_x = 1.0 - x**2
        one_y = 1.0 - y**2
        return one_x * one_y, -2.0 * x * one_y, -2.0 * y * one_x

    def data(self, mesh):
        def f(x, y):
            w, w_x, w_y = self._w_parts(x, y)
            _, g_x, g_y = self._g_parts(x, y)
            lap_g = -2.0 * (1.0 - y**2) - 2.0 * (1.0 - x**2)
            return -(lap_g * w) - 2.0 * (g_x * w_x + g_y * w_y)

        return RhsData(G=None, g=ScalarField(f, degree=None))

    def reference(self):
        def parts(x, y, orders):
            w, w_x, w_y = self._w_parts(x, y)
            g, g_x, g_y = self._g_parts(x, y)
            out = {}
            if 0 in orders:
                out[0] = g * w
            if 1 in orders:
                grad = np.empty(np.shape(w) + (2,))
                grad[..., 0] = g * w_x + w * g_x
                grad[..., 1] = g * w_y + w * g_y
                out[1] = grad
            return out

        return ExactSolution(
            lambda x, y: parts(x, y, (0,))[0], lambda x, y: parts(x, y, (1,))[1], parts=parts
        )


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
    "square-smooth-m1": _SquareSmoothM1(
        "square-smooth-m1", 1, "square", 2, 1.0, "analytic"
    ),
    "square-smooth-m2": _SquareSmoothM2(
        "square-smooth-m2", 2, "square", 2, 1.0, "analytic"
    ),
    "lshape-singular-m1": _LShapeSingularM1(
        "lshape-singular-m1", 1, "lshape", 2, 2.0 / 3.0, "analytic"
    ),
    "lshape-f1-m2": _LShapeF1M2("lshape-f1-m2", 2, "lshape", 1, None, "fine-grid"),
    "lshape-pointforce-m2": _LShapePointForceM2(
        "lshape-pointforce-m2", 2, "lshape", 2, None, "fine-grid"
    ),
}


def get_problem(name):
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(PROBLEMS)}"
        ) from None
