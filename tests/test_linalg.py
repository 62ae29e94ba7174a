import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ncfem.fespace import build_space
from ncfem.linalg import (
    EIG_RESIDUAL_TOL,
    EigenError,
    _fix_sign,
    max_generalized_eig,
    solve_spd,
)
from ncfem.mesh import unit_square_mesh
from ncfem.operators import compute_lambda0


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_diagonal_system():
    A = sp.diags([2.0, 4.0, 8.0])
    b = np.array([2.0, 4.0, 8.0])
    x, rep = solve_spd(A, b)
    assert np.allclose(x, 1.0)
    assert rep.converged


def test_two_by_two_hand_computed():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    x, rep = solve_spd(A, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_random_spd_against_dense_oracle(rng):
    A = random_spd(50, rng)
    b = rng.standard_normal(50)
    want = np.linalg.solve(A, b)
    x, rep = solve_spd(sp.csr_matrix(A), b)
    assert np.linalg.norm(x - want) / np.linalg.norm(want) <= 1e-10
    assert rep.residual <= 1e-12


def test_solver_linearity(rng):
    A = sp.csr_matrix(random_spd(30, rng))
    b1 = rng.standard_normal(30)
    b2 = rng.standard_normal(30)
    x1, _ = solve_spd(A, b1)
    x2, _ = solve_spd(A, b2)
    x12, _ = solve_spd(A, b1 + b2)
    assert np.linalg.norm(x12 - x1 - x2) <= 1e-10 * np.linalg.norm(x12)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.ones(4))
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.ones(3), tol=2.0)


def test_zero_rhs():
    x, rep = solve_spd(np.eye(4), np.zeros(4))
    assert np.all(x == 0) and rep.converged


def test_eig_b_equals_a(rng):
    A = sp.csr_matrix(random_spd(20, rng))
    lam, x = max_generalized_eig(A, A)
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_eig_diagonal_pair():
    B = sp.diags([1.0, 2.0, 5.0])
    A = sp.identity(3, format="csr")
    lam, x = max_generalized_eig(B, A)
    assert lam == pytest.approx(5.0, abs=1e-12)
    assert np.abs(x / np.linalg.norm(x)) @ np.array([0, 0, 1]) == pytest.approx(1.0)


def test_eig_against_dense_oracle(rng):
    import scipy.linalg as sla

    A = random_spd(30, rng)
    C = rng.standard_normal((30, 30))
    B = C @ C.T + 0.1 * np.eye(30)
    want = sla.eigh(B, A, eigvals_only=True)[-1]
    lam, x = max_generalized_eig(sp.csr_matrix(B), sp.csr_matrix(A))
    assert abs(lam - want) <= 1e-9 * max(1.0, abs(want))
    # contract: small eigen residual and A-normalization
    assert np.linalg.norm(B @ x - lam * (A @ x)) <= 1e-9 * np.linalg.norm(A @ x)
    assert x @ (A @ x) == pytest.approx(1.0, rel=1e-12)


def test_eig_nonconvergence_reports_residual(monkeypatch):
    A = sp.identity(5, format="csr")
    B = sp.diags([1.0, 2.0, 3.0, 4.0, 5.0])

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]), np.empty((5, 0)))

    def wrong_vector(*args, **kwargs):
        return np.array([5.0]), np.ones((5, 1))

    for fake in (no_convergence, wrong_vector):
        monkeypatch.setattr(spla, "eigsh", fake)
        with pytest.raises(EigenError) as err:
            max_generalized_eig(B, A)
        assert err.value.residual > 0


def test_eig_one_by_one_pencil():
    lam, x = max_generalized_eig(sp.csr_matrix([[6.0]]), sp.csr_matrix([[4.0]]))
    assert lam == 1.5
    assert x.shape == (1,) and x[0] == pytest.approx(0.5, rel=1e-15)


def test_eig_sign_convention(rng):
    B = sp.diags([1.0, 3.0])
    A = sp.identity(2, format="csr")
    _, x = max_generalized_eig(B, A)
    assert x[np.nonzero(np.abs(x) > 1e-12)[0][0]] > 0


def test_top_eigenpair_matches_full_eigh(rng):
    import scipy.linalg as sla

    n = 200
    A = random_spd(n, rng)
    C = rng.standard_normal((n, n))
    B = C + C.T
    w, V = sla.eigh(B, A)
    want = _fix_sign(V[:, -1])
    want = want / np.sqrt(want @ (A @ want))
    lam, x = max_generalized_eig(sp.csr_matrix(B), sp.csr_matrix(A))
    assert lam == pytest.approx(w[-1], rel=1e-12)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_cr_lambda0_bounded_under_refinement():
    # h-independence of ||1 - J||: nondecreasing and below 2.41 up to
    # square:32 (3008 dofs)
    values = []
    for n in (2, 4, 8, 16, 32):
        res = compute_lambda0(build_space(unit_square_mesh(n), "CR1_0"))
        assert res.residual <= EIG_RESIDUAL_TOL
        values.append(res.lambda0)
    assert values == sorted(values)
    assert values[-1] < 2.41
    assert values[0] == pytest.approx(2.2657, abs=1e-4)
    assert values[-1] == pytest.approx(2.4063, abs=1e-4)
