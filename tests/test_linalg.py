from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ncfem.linalg as linalg
from ncfem.linalg import (
    EIG_RESIDUAL_TOL,
    TRIM_MIN_ROWS,
    EigenError,
    _fix_sign,
    check_solution,
    factor,
    max_generalized_eig,
    solve_spd,
)
from ncfem.mesh import unit_square_mesh
from ncfem.operators import Discretization


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_diagonal_system():
    A = sp.diags([2.0, 4.0, 8.0], format="csr")
    b = np.array([2.0, 4.0, 8.0])
    x, rep = solve_spd(A, b, factor(A))
    assert np.allclose(x, 1.0)
    assert rep.converged


def test_two_by_two_hand_computed():
    A = sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]])
    x, rep = solve_spd(A, np.array([1.0, 1.0]), factor(A))
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_random_spd_against_dense_oracle(rng):
    A = random_spd(50, rng)
    b = rng.standard_normal(50)
    want = np.linalg.solve(A, b)
    A = sp.csr_matrix(A)
    x, rep = solve_spd(A, b, factor(A))
    assert np.linalg.norm(x - want) / np.linalg.norm(want) <= 1e-10
    assert rep.residual <= 1e-12


def test_solver_linearity(rng):
    A = sp.csr_matrix(random_spd(30, rng))
    b1 = rng.standard_normal(30)
    b2 = rng.standard_normal(30)
    lu = factor(A)
    x1, _ = solve_spd(A, b1, lu)
    x2, _ = solve_spd(A, b2, lu)
    x12, _ = solve_spd(A, b1 + b2, lu)
    assert np.linalg.norm(x12 - x1 - x2) <= 1e-10 * np.linalg.norm(x12)


def test_dimension_mismatch():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        solve_spd(A, np.ones(4), factor(A))


def test_zero_rhs():
    A = sp.identity(4, format="csr")
    x, rep = solve_spd(A, np.zeros(4), factor(A))
    assert np.all(x == 0) and rep.converged


def _biharmonic_1d(n=500):
    D = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    return (D @ D).tocsr(), np.ones(n)


def test_backward_error_accepts_an_ill_conditioned_direct_solve():
    # D^2 is condition ~1e10: its relative residual misses any fixed 1e-10,
    # but the solve is backward stable and the rule accepts it
    A, b = _biharmonic_1d()
    x, rep = solve_spd(A, b, factor(A))
    assert rep.converged and rep.method == "direct"
    assert rep.residual > 1e-8
    assert check_solution(A, x, b) == rep


def test_backward_error_rejects_perturbed_and_nan_solutions():
    A, b = _biharmonic_1d()
    x, _ = solve_spd(A, b, factor(A))
    noise = np.random.default_rng(0).standard_normal(x.size)
    assert not check_solution(A, x + 1e-9 * np.abs(x).max() * noise, b).converged
    x[7] = np.nan
    assert not check_solution(A, x, b).converged


def test_backward_error_accepts_zero_solution_of_zero_system():
    rep = check_solution(sp.identity(3, format="csr"), np.zeros(3), np.zeros(3))
    assert rep.converged and rep.residual == 0.0


def test_discretization_solve_raises_on_a_bad_solution(monkeypatch):
    disc = Discretization(unit_square_mesh(2), "MORLEY_0")
    rhs = np.ones(disc.space.ndofs)
    disc.solve(rhs)
    monkeypatch.setattr(disc, "lu", SimpleNamespace(solve=lambda b: 2.0 * b))
    with pytest.raises(RuntimeError, match="discrete solve failed"):
        disc.solve(rhs)


def test_heap_release_is_silent_without_malloc_trim(monkeypatch):
    import ctypes

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    linalg._release_free_heap()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no malloc_trim
    linalg._release_free_heap()


def test_factor_releases_the_heap_from_the_row_threshold_on(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_release_free_heap", lambda: calls.append(1))
    factor(sp.identity(TRIM_MIN_ROWS - 1, format="csr"))
    assert calls == []
    factor(sp.identity(TRIM_MIN_ROWS, format="csr"))
    assert calls == [1]


def test_solve_after_a_heap_release_is_bitwise_unchanged(monkeypatch, rng):
    # the 2-D five-point Laplacian on a 110 x 110 grid: 12,100 rows, above the threshold
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(110, 110))
    A = sp.kronsum(T, T, format="csr")
    assert A.shape[0] >= TRIM_MIN_ROWS
    b = rng.standard_normal(A.shape[0])
    trimmed = factor(A).solve(b)
    monkeypatch.setattr(linalg, "_release_free_heap", lambda: None)
    plain = factor(A).solve(b)
    assert trimmed.tobytes() == plain.tobytes()


def test_eig_b_equals_a(rng):
    A = sp.csr_matrix(random_spd(20, rng))
    lam, x, _ = max_generalized_eig(A, A, factor(A))
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_eig_diagonal_pair():
    B = sp.diags([1.0, 2.0, 5.0], format="csr")
    A = sp.identity(3, format="csr")
    lam, x, _ = max_generalized_eig(B, A, factor(A))
    assert lam == pytest.approx(5.0, abs=1e-12)
    assert np.abs(x / np.linalg.norm(x)) @ np.array([0, 0, 1]) == pytest.approx(1.0)


def test_eig_against_dense_oracle(rng):
    import scipy.linalg as sla

    A = random_spd(30, rng)
    C = rng.standard_normal((30, 30))
    B = C @ C.T + 0.1 * np.eye(30)
    want = sla.eigh(B, A, eigvals_only=True)[-1]
    A_csr = sp.csr_matrix(A)
    lam, x, res = max_generalized_eig(sp.csr_matrix(B), A_csr, factor(A_csr))
    assert abs(lam - want) <= 1e-9 * max(1.0, abs(want))
    # contract: small eigen residual, the one returned, and A-normalization
    assert np.linalg.norm(B @ x - lam * (A @ x)) <= 1e-9 * np.linalg.norm(A @ x)
    assert 0.0 <= res <= EIG_RESIDUAL_TOL
    assert x @ (A @ x) == pytest.approx(1.0, rel=1e-12)


def test_eig_nonconvergence_reports_residual(monkeypatch):
    A = sp.identity(5, format="csr")
    B = sp.diags([1.0, 2.0, 3.0, 4.0, 5.0], format="csr")

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]), np.empty((5, 0)))

    def wrong_vector(*args, **kwargs):
        return np.array([5.0]), np.ones((5, 1))

    for fake in (no_convergence, wrong_vector):
        monkeypatch.setattr(spla, "eigsh", fake)
        with pytest.raises(EigenError) as err:
            max_generalized_eig(B, A, factor(A))
        assert err.value.residual > 0


def test_eig_one_by_one_pencil():
    A = sp.csr_matrix([[4.0]])
    lam, x, _ = max_generalized_eig(sp.csr_matrix([[6.0]]), A, factor(A))
    assert lam == 1.5
    assert x.shape == (1,) and x[0] == pytest.approx(0.5, rel=1e-15)


def test_eig_sign_convention(rng):
    B = sp.diags([1.0, 3.0], format="csr")
    A = sp.identity(2, format="csr")
    _, x, _ = max_generalized_eig(B, A, factor(A))
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
    A_csr = sp.csr_matrix(A)
    lam, x, _ = max_generalized_eig(sp.csr_matrix(B), A_csr, factor(A_csr))
    assert lam == pytest.approx(w[-1], rel=1e-12)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_sign_comes_from_the_first_genuine_entry():
    # a leading entry that is roundoff of an exact zero (3.2e-12 of the
    # largest, as measured on a CR pencil) must not decide the sign
    x = np.array([-3.2e-12, 0.97, -1.0, 0.5])
    assert np.array_equal(_fix_sign(x), x)
    assert np.array_equal(_fix_sign(-x), x)


def test_cr_lambda0_bounded_under_refinement():
    # h-independence of ||1 - J||: nondecreasing and below 2.41 up to
    # square:32 (3008 dofs)
    values = []
    for n in (2, 4, 8, 16, 32):
        res = Discretization(unit_square_mesh(n), "CR1_0").lam0
        assert res.residual <= EIG_RESIDUAL_TOL
        values.append(res.lambda0)
    assert values == sorted(values)
    assert values[-1] < 2.41
    assert values[0] == pytest.approx(2.2657, abs=1e-4)
    assert values[-1] == pytest.approx(2.4063, abs=1e-4)
