import numpy as np
import pytest
import scipy.sparse as sp

from ncfem.linalg import EigenError, _fix_sign, max_generalized_eig, solve_spd


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


def test_eig_iterative_path_matches_dense(rng):
    A = random_spd(40, rng)
    C = rng.standard_normal((40, 40))
    B = C @ C.T + np.eye(40)
    lam_d, _ = max_generalized_eig(sp.csr_matrix(B), sp.csr_matrix(A), dense_limit=100)
    lam_i, x = max_generalized_eig(
        sp.csr_matrix(B), sp.csr_matrix(A), dense_limit=1, tol=1e-10
    )
    assert lam_i == pytest.approx(lam_d, rel=1e-8)


def test_eig_nonconvergence_reports_residual(rng):
    A = sp.identity(50, format="csr")
    # two nearly equal top eigenvalues stall the power iteration
    d = np.ones(50)
    d[0] = 10.0
    d[1] = 10.0 - 1e-14
    B = sp.diags(d)
    with pytest.raises(EigenError) as err:
        max_generalized_eig(B, A, dense_limit=1, tol=1e-30, maxiter=3)
    assert err.value.residual > 0


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
