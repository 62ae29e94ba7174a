import numpy as np
import pytest

from ncfem.mesh import l_shape_mesh
from ncfem.problems import get_problem

PI = np.pi


def polar_w_parts(x, y):
    """The singular factor r^(2/3) sin(2 theta/3) from polar unit vectors."""
    r = np.maximum(np.hypot(x, y), 1e-300)
    th = np.mod(np.arctan2(y, x), 2.0 * PI)
    sin_ = np.sin(2.0 * th / 3.0)
    cos_ = np.cos(2.0 * th / 3.0)
    w = r ** (2.0 / 3.0) * sin_
    fac = (2.0 / 3.0) * r ** (-1.0 / 3.0)
    er = np.stack([np.cos(th), np.sin(th)], axis=-1)
    et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
    grad_w = fac[..., None] * (sin_[..., None] * er + cos_[..., None] * et)
    return w, grad_w


def polar_grad_g(x, y):
    return np.stack([-2.0 * x * (1.0 - y**2), -2.0 * y * (1.0 - x**2)], axis=-1)


def polar_value(x, y):
    return (1.0 - x**2) * (1.0 - y**2) * polar_w_parts(x, y)[0]


def polar_gradient(x, y):
    w, grad_w = polar_w_parts(x, y)
    g = (1.0 - x**2) * (1.0 - y**2)
    return g[..., None] * grad_w + w[..., None] * polar_grad_g(x, y)


def polar_f(x, y):
    w, grad_w = polar_w_parts(x, y)
    lap_g = -2.0 * (1.0 - y**2) - 2.0 * (1.0 - x**2)
    dot = np.einsum("...d,...d->...", polar_grad_g(x, y), grad_w)
    return -(lap_g * w) - 2.0 * dot


def lshape_points():
    """Random points in the three quadrants, the four rays, r down to 1e-12."""
    rng = np.random.default_rng(7)
    quads = [(-1, 0, 0, 1), (-1, 0, -1, 0), (0, 1, 0, 1)]
    pts = [
        np.column_stack([rng.uniform(a, b, 200), rng.uniform(c, d, 200)])
        for a, b, c, d in quads
    ]
    radii = np.logspace(-12, 0, 25)
    for angle in (0.0, PI / 2, PI, 3 * PI / 2):
        pts.append(np.column_stack([radii * np.cos(angle), radii * np.sin(angle)]))
    # small radii at random angles of the domain
    th = rng.uniform(0.0, 1.5 * PI, 50)
    r = np.logspace(-12, -1, 50)
    pts.append(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    p = np.concatenate(pts)
    return p[:, 0].reshape(-1, 5), p[:, 1].reshape(-1, 5)


def assert_close(got, want, rtol=1e-12):
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


@pytest.fixture(scope="module")
def problem():
    return get_problem("lshape-singular-m1")


def test_w_parts_match_polar_form(problem):
    x, y = lshape_points()
    w, w_x, w_y = problem._w_parts(x, y)
    want_w, want_grad = polar_w_parts(x, y)
    assert_close(w, want_w)
    assert_close(np.stack([w_x, w_y], axis=-1), want_grad)


def test_reference_and_load_match_polar_form(problem):
    x, y = lshape_points()
    ref = problem.reference()
    assert_close(ref.eval(0, x, y), polar_value(x, y))
    assert_close(ref.eval(1, x, y), polar_gradient(x, y))
    f = problem.data(l_shape_mesh(1)).g
    assert_close(f.fn(x, y), polar_f(x, y))


def test_w_parts_accept_scalars(problem):
    w, w_x, w_y = problem._w_parts(-0.3, 0.4)
    want_w, want_grad = polar_w_parts(np.array(-0.3), np.array(0.4))
    assert np.shape(w) == ()
    assert w == pytest.approx(float(want_w), rel=1e-12)
    assert [w_x, w_y] == pytest.approx(want_grad.tolist(), rel=1e-12)
