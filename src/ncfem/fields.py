"""Evaluable coefficient fields for right-hand sides and reference solutions.

A field is anything the assemblers and norm evaluators can sample at the
points of a quadrature :class:`~ncfem.quadrature.Cell`.  Analytic fields
evaluate from the physical points; fields derived from finite element
functions evaluate triangle-locally through :meth:`FeFunction.at`, and
declare ``n_subcells = 3`` when they live on the HCT split so that
:func:`~ncfem.quadrature.cells` integrates them on the split.  Every field
declares a polynomial `degree` (None means smooth); :func:`quad_degree` turns
it into the degree quadrature integrates at.
"""

from __future__ import annotations

import numpy as np

SMOOTH_DEGREE = 12

__all__ = [
    "FieldBase",
    "ScalarField",
    "VectorField",
    "MatrixField",
    "fe_derivative",
    "fe_rotated_gradient",
    "sym_curl_of_pair",
    "sym_gradient_of_pair",
    "field_sum",
    "ExactSolution",
    "SMOOTH_DEGREE",
    "quad_degree",
]


def quad_degree(x):
    """Declared degree of a field or ExactSolution; SMOOTH_DEGREE for None."""
    return SMOOTH_DEGREE if x.degree is None else x.degree


class FieldBase:
    degree = None  # polynomial degree, None = smooth
    n_subcells = 1
    shape = ()

    def eval_batch(self, cell):
        """Sample at the points of a quadrature Cell.

        Returns (nts, k) + self.shape for the cell's nts triangles and k
        points.
        """
        raise NotImplementedError


class _CallableField(FieldBase):
    def __init__(self, fn, degree=None):
        self.fn = fn
        self.degree = degree

    def eval_batch(self, cell):
        phys = cell.phys
        out = np.asarray(self.fn(phys[..., 0], phys[..., 1]), dtype=float)
        want = phys.shape[:-1] + self.shape
        if out.shape != want:
            out = np.broadcast_to(out, want)
        return out


class ScalarField(_CallableField):
    shape = ()


class VectorField(_CallableField):
    shape = (2,)


class MatrixField(_CallableField):
    shape = (2, 2)


class _FeDerivedField(FieldBase):
    """Field obtained from one or two finite element functions."""

    def __init__(self, funcs, order, combine, shape, degree):
        self.funcs = funcs
        self.order = order
        self._combine = combine
        self.shape = shape
        self.degree = degree
        self.n_subcells = max(f.space.n_subcells for f in funcs)

    def eval_batch(self, cell):
        return self._combine(*(f.at(cell, self.order) for f in self.funcs))


def _derived_degree(f, order):
    return max(f.space.poly_degree - order, 0)


def fe_derivative(f, order):
    """Derivative of order `order` (0, 1 or 2) of a finite element function."""
    return _FeDerivedField([f], order, lambda d: d, (2,) * order, _derived_degree(f, order))


def fe_rotated_gradient(f):
    """Rotated gradient (-df/dy, df/dx) of a scalar function."""

    def combine(g):
        return np.stack([-g[..., 1], g[..., 0]], axis=-1)

    return _FeDerivedField([f], 1, combine, (2,), _derived_degree(f, 1))


def sym_curl_of_pair(f1, f2):
    """Symmetric part of the rowwise rotated gradient of (f1, f2).

    For Phi = (f1, f2) this is sym [[-f1_y, f1_x], [-f2_y, f2_x]].
    """

    def combine(g1, g2):
        out = np.empty(g1.shape[:-1] + (2, 2))
        out[..., 0, 0] = -g1[..., 1]
        out[..., 1, 1] = g2[..., 0]
        off = 0.5 * (g1[..., 0] - g2[..., 1])
        out[..., 0, 1] = off
        out[..., 1, 0] = off
        return out

    deg = max(_derived_degree(f1, 1), _derived_degree(f2, 1))
    return _FeDerivedField([f1, f2], 1, combine, (2, 2), deg)


def sym_gradient_of_pair(f1, f2):
    """Linear strain of the vector field (f1, f2): sym of the Jacobian."""

    def combine(g1, g2):
        out = np.empty(g1.shape[:-1] + (2, 2))
        out[..., 0, 0] = g1[..., 0]
        out[..., 1, 1] = g2[..., 1]
        off = 0.5 * (g1[..., 1] + g2[..., 0])
        out[..., 0, 1] = off
        out[..., 1, 0] = off
        return out

    deg = max(_derived_degree(f1, 1), _derived_degree(f2, 1))
    return _FeDerivedField([f1, f2], 1, combine, (2, 2), deg)


class _CombinedField(FieldBase):
    def __init__(self, fields, weights):
        shapes = {f.shape for f in fields}
        if len(shapes) != 1:
            raise ValueError("cannot combine fields of different shapes")
        self.fields = fields
        self.weights = weights
        self.shape = shapes.pop()
        if any(f.degree is None for f in fields):
            self.degree = None
        else:
            self.degree = max(f.degree for f in fields)
        self.n_subcells = max(f.n_subcells for f in fields)

    def eval_batch(self, cell):
        acc = None
        for w, f in zip(self.weights, self.fields):
            v = w * f.eval_batch(cell)
            acc = v if acc is None else acc + v
        return acc


def field_sum(a, b, wa=1.0, wb=1.0):
    return _CombinedField([a, b], [wa, wb])


class ExactSolution:
    """Reference solution with analytic derivatives up to second order.

    The optional ``parts(x, y, orders)`` returns a dict order -> derivative
    of that order, at full shape, for all of `orders` in one call, so that
    work shared by the value and its derivatives is done once.
    """

    def __init__(self, value, gradient=None, hessian=None, degree=None, parts=None):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.degree = degree
        self.parts = parts

    def eval(self, order, x, y):
        fn = (self.value, self.gradient, self.hessian)[order]
        if fn is None:
            raise ValueError(f"reference provides no derivative of order {order}")
        shape = ((), (2,), (2, 2))[order]
        out = np.asarray(fn(x, y), dtype=float)
        want = np.shape(x) + shape
        if out.shape != want:
            out = np.broadcast_to(out, want)
        return out
