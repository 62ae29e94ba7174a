"""Sparse SPD solves and the symmetric generalized eigensolver.

Thin, contract-checked wrappers around scipy: sparse LU for every SPD
system (an iterative solve cannot handle the h^-4 conditioning of Morley
systems), and one implicitly restarted Lanczos call (``eigsh``) for the
largest eigenpair of a generalized eigenproblem at every size.  Every
eigenpair returned meets the residual contract ``EIG_RESIDUAL_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "EigenError", "solve_spd", "max_generalized_eig"]

# relative eigen-residual ||Bx - lambda Ax|| / ||Ax|| every reported eigenpair meets
EIG_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SolveReport:
    method: str
    iterations: int
    residual: float
    converged: bool


class EigenError(RuntimeError):
    """The eigensolver did not reach the requested residual."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _as_csr(A):
    if sp.issparse(A):
        return A.tocsr()
    return sp.csr_matrix(np.asarray(A, dtype=float))


def solve_spd(A, b, tol=1e-12):
    """Solve a symmetric positive definite system by sparse LU.

    Returns (x, SolveReport); a relative residual above max(tol, 1e-10) is
    reported via ``converged=False`` rather than raised.
    """
    A = _as_csr(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or b.shape != (n,):
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has shape {b.shape}")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport("trivial", 0, 0.0, True)
    x = spla.splu(A.tocsc()).solve(b)
    res = float(np.linalg.norm(A @ x - b) / bnorm)
    return x, SolveReport("direct", 1, res, res <= max(tol, 1e-10))


def _fix_sign(x):
    nz = np.nonzero(np.abs(x) > 1e-12 * np.abs(x).max())[0]
    if nz.size and x[nz[0]] < 0:
        return -x
    return x


def max_generalized_eig(B, A):
    """Largest eigenpair of B x = lambda A x for symmetric B, SPD A.

    Implicitly restarted Lanczos (ARPACK, sparse LU of A as M^-1) from a fixed
    start vector; a 1x1 pencil is the quotient.  The eigenvector is scaled to
    sqrt(x' A x) = 1 with its first significant component positive.  Raises
    :class:`EigenError` unless ||Bx - lambda Ax|| <= EIG_RESIDUAL_TOL ||Ax||.
    """
    B = _as_csr(B)
    A = _as_csr(A)
    if B.shape != A.shape or B.shape[0] != B.shape[1]:
        raise ValueError(f"dimension mismatch: B is {B.shape}, A is {A.shape}")
    n = A.shape[0]
    if n == 1:
        lam, x = float(B[0, 0] / A[0, 0]), np.ones(1)
    else:
        Minv = spla.LinearOperator((n, n), matvec=spla.splu(A.tocsc()).solve, dtype=float)
        try:
            w, V = spla.eigsh(B, k=1, M=A, Minv=Minv, which="LA",
                              v0=np.ones(n) + np.arange(n) / n, ncv=min(40, n), tol=0)
        except spla.ArpackNoConvergence:
            raise EigenError("Lanczos iteration did not converge", np.inf) from None
        lam, x = float(w[0]), V[:, 0]
    x = _fix_sign(x)
    x = x / np.sqrt(float(x @ (A @ x)))
    res = float(np.linalg.norm(B @ x - lam * (A @ x)))
    ref = float(np.linalg.norm(A @ x))
    if res > EIG_RESIDUAL_TOL * ref:
        raise EigenError("generalized eigenpair misses the residual bound", res / ref)
    return lam, x
