"""Sparse SPD solves and the symmetric generalized eigensolver.

Thin, contract-checked wrappers around scipy: sparse LU for every SPD
system (an iterative solve cannot handle the h^-4 conditioning of Morley
systems); for the largest eigenpair of the generalized eigenproblem, dense `eigh` restricted to the top eigenpair below
a dimension threshold and deterministic power iteration with inner direct
solves above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "EigenError", "solve_spd", "max_generalized_eig"]

DENSE_EIG_LIMIT = 3_000


@dataclass(frozen=True)
class SolveReport:
    method: str
    iterations: int
    residual: float
    converged: bool


class EigenError(RuntimeError):
    """Eigeniteration did not reach the requested residual."""

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


def max_generalized_eig(B, A, tol=1e-9, dense_limit=DENSE_EIG_LIMIT, maxiter=500):
    """Largest eigenpair of B x = lambda A x for symmetric B, SPD A.

    The eigenvector is scaled to sqrt(x' A x) = 1 with its first
    significant component positive.  Raises :class:`EigenError` if the
    residual ||Bx - lambda Ax|| <= tol ||Ax|| cannot be reached.
    """
    B = _as_csr(B)
    A = _as_csr(A)
    if B.shape != A.shape or B.shape[0] != B.shape[1]:
        raise ValueError(f"dimension mismatch: B is {B.shape}, A is {A.shape}")
    n = A.shape[0]
    if n <= dense_limit:
        Bd = B.toarray()
        Ad = A.toarray()
        w, V = sla.eigh(Bd, Ad, subset_by_index=[n - 1, n - 1])
        lam = float(w[0])
        x = V[:, 0]
    else:
        lu = spla.splu(A.tocsc())
        x = np.ones(n) + np.arange(n) / n
        lam = 0.0
        for _ in range(maxiter):
            y = lu.solve(B @ x)
            x = y / np.sqrt(max(y @ (A @ y), np.finfo(float).tiny))
            Ax = A @ x
            Bx = B @ x
            lam = float(x @ Bx) / float(x @ Ax)
            if np.linalg.norm(Bx - lam * Ax) <= tol * np.linalg.norm(Ax):
                break
    x = _fix_sign(np.asarray(x, dtype=float))
    x = x / np.sqrt(float(x @ (A @ x)))
    res = float(np.linalg.norm(B @ x - lam * (A @ x)))
    ref = float(np.linalg.norm(A @ x))
    if res > tol * ref:
        raise EigenError("generalized eigeniteration did not converge", res / ref)
    return lam, x
