import numpy as np
import pytest

from ncfem.mesh import l_shape_mesh
from ncfem.problems import get_problem
from ncfem.quadrature import MAX_TRIANGLE_DEGREE, cells

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
    got = ref.parts(x, y, (0, 1))
    assert_close(got[0], polar_value(x, y))
    assert_close(got[1], polar_gradient(x, y))
    f = problem.data(l_shape_mesh(1)).g
    assert_close(f.fn(x, y), polar_f(x, y))


def test_w_parts_accept_scalars(problem):
    w, w_x, w_y = problem._w_parts(-0.3, 0.4)
    want_w, want_grad = polar_w_parts(np.array(-0.3), np.array(0.4))
    assert np.shape(w) == ()
    assert w == pytest.approx(float(want_w), rel=1e-12)
    assert [w_x, w_y] == pytest.approx(want_grad.tolist(), rel=1e-12)


# The closed forms as plain expressions: the oracle for the buffered ones in
# ncfem.problems, which must keep every IEEE operation and its order.
def oracle_w_parts(x, y):
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


def oracle_g_parts(x, y):
    one_x = 1.0 - x**2
    one_y = 1.0 - y**2
    return one_x * one_y, -2.0 * x * one_y, -2.0 * y * one_x


def oracle_f(x, y):
    w, w_x, w_y = oracle_w_parts(x, y)
    _, g_x, g_y = oracle_g_parts(x, y)
    lap_g = -2.0 * (1.0 - y**2) - 2.0 * (1.0 - x**2)
    return -(lap_g * w) - 2.0 * (g_x * w_x + g_y * w_y)


def oracle_parts(x, y, orders):
    w, w_x, w_y = oracle_w_parts(x, y)
    g, g_x, g_y = oracle_g_parts(x, y)
    out = {}
    if 0 in orders:
        out[0] = g * w
    if 1 in orders:
        grad = np.empty(np.shape(w) + (2,))
        grad[..., 0] = g * w_x + w * g_x
        grad[..., 1] = g * w_y + w * g_y
        out[1] = grad
    return out


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_matches_oracle(problem, x, y, oracle_x=None, oracle_y=None):
    ox = x if oracle_x is None else oracle_x
    oy = y if oracle_y is None else oracle_y
    for got, want in zip(problem._w_parts(x, y), oracle_w_parts(ox, oy)):
        assert_bitwise(got, want)
    assert_bitwise(problem.data(l_shape_mesh(1)).g.fn(x, y), oracle_f(ox, oy))
    ref = problem.reference()
    for orders in ((0,), (1,), (0, 1)):
        got, want = ref.parts(x, y, orders), oracle_parts(ox, oy, orders)
        assert sorted(got) == sorted(want)
        for k in want:
            assert_bitwise(got[k], want[k])


# the origin (the 1e-300 guard), theta = pi, and both reentrant edges, the
# theta = 0 edge from either side of y = 0
EDGE_POINTS = [(0.0, 0.0), (-0.5, 0.0), (0.5, 0.0), (0.5, -0.0), (0.0, -0.5), (-0.0, -0.5)]


def cell_views():
    """Strided x and y views of the points of a real quadrature cell."""
    cell = next(cells(l_shape_mesh(2), MAX_TRIANGLE_DEGREE))[0]
    x, y = cell.phys[..., 0], cell.phys[..., 1]
    assert not x.flags.c_contiguous
    return x, y


@pytest.mark.parametrize(
    "points",
    [lshape_points, cell_views, lambda: np.array(EDGE_POINTS).T,
     lambda: (np.array(-0.3), np.array(-0.0))],
    ids=["lshape-points", "cell-views", "edges", "0-d"],
)
def test_closed_forms_match_the_oracle_bitwise(problem, points):
    assert_matches_oracle(problem, *points())


def test_closed_forms_of_python_scalars_match_the_oracle_of_0d_arrays(problem):
    # the oracle's x**2 on a Python float is libm pow, which can differ from
    # x * x in the last bit; the closed forms square every input as an array
    for x, y in EDGE_POINTS + [(-0.3, 0.4)]:
        assert_matches_oracle(problem, x, y, np.array(x), np.array(y))


def test_oracle_keeps_the_sign_of_zero_on_the_reentrant_edge():
    # the y = -0.0 edge point reaches a w of -0.0, so the sign checks above bite
    assert np.signbit(oracle_w_parts(np.array(0.5), np.array(-0.0))[0])
    assert not np.signbit(oracle_w_parts(np.array(0.5), np.array(0.0))[0])
