"""Sparse SPD solves and the symmetric generalized eigensolver.

Thin, contract-checked wrappers around scipy: sparse LU for every SPD
system (an iterative solve cannot handle the h^-4 conditioning of Morley
systems), and one implicitly restarted Lanczos call (``eigsh``) for the
largest eigenpair of a generalized eigenproblem at every size.  Every
eigenpair returned meets the residual contract ``EIG_RESIDUAL_TOL``.

Every discrete solve is accepted by one rule, :func:`check_solution`: a
normwise backward error ||Ax - b|| / (||A|| ||x|| + ||b||) (inf-norms) of at
most ``SOLVE_TOL`` (Rigal and Gaches 1967; Higham 2002, 7.1), which unlike
||Ax - b|| / ||b|| does not grow with the h^-4 conditioning.  It certifies a
backward-stable solve, not a small forward error: an error along the smooth
modes of A goes undetected, by the relative residual too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "EigenError", "check_solution", "factor", "solve_spd",
           "max_generalized_eig"]

# normwise backward error every accepted solve meets (see check_solution)
SOLVE_TOL = 1e-12

# relative eigen-residual ||Bx - lambda Ax|| / ||Ax|| every reported eigenpair meets
EIG_RESIDUAL_TOL = 1e-9

# factor() first hands glibc's free heap pages back to the OS for matrices of at
# least this many rows, so SuperLU's factor does not land on top of what the
# companion build freed (rates-cr-lshape, level 6: peak RSS about 192 -> 167 MB).
# Below it the pages released are a few MB that the next level faults straight
# back in: minor faults per rates-cr-lshape job were 20k without a trim, 40k
# with one before every factor and 28k with this gate.
TRIM_MIN_ROWS = 10_000


@dataclass(frozen=True)
class SolveReport:
    """`residual` is ||Ax - b||_2 / ||b||_2 (||Ax||_2 if b = 0); `converged` is a
    backward error of at most ``SOLVE_TOL``: a backward-stable solve, which does
    not bound the forward error (see the module docstring)."""
    method: str
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


def _release_free_heap():
    """Return the C heap's free pages to the OS with glibc's malloc_trim(0);
    a no-op where the C library has no malloc_trim."""
    import ctypes

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def factor(A):
    """Sparse LU factor (SuperLU) of the square matrix A."""
    A = _as_csr(A).tocsc()
    if A.shape[0] >= TRIM_MIN_ROWS:
        _release_free_heap()
    return spla.splu(A)


def check_solution(A, x, b):
    """The SolveReport of `x` for A x = b.  The rule is a product, so it needs no
    division, is False for NaN and true for x = b = 0."""
    A = _as_csr(A)
    r = A @ x - b
    bnorm = float(np.linalg.norm(b))
    res = float(np.linalg.norm(r) / bnorm) if bnorm else float(np.linalg.norm(r))
    bound = SOLVE_TOL * (spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max())
    return SolveReport("direct", res, bool(np.abs(r).max() <= bound))


def solve_spd(A, b, lu=None):
    """Solve a symmetric positive definite system by sparse LU.

    `lu`, when given, is ``factor(A)``.  Returns (x, :func:`check_solution`'s
    report); a solve that misses the rule reads ``converged=False`` rather
    than raising.
    """
    A = _as_csr(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or b.shape != (n,):
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has shape {b.shape}")
    if not b.any():
        return np.zeros(n), SolveReport("trivial", 0.0, True)
    x = (factor(A) if lu is None else lu).solve(b)
    return x, check_solution(A, x, b)


def _fix_sign(x):
    # far above roundoff: an entry that is zero in exact arithmetic never decides
    nz = np.nonzero(np.abs(x) > 1e-6 * np.abs(x).max())[0]
    if nz.size and x[nz[0]] < 0:
        return -x
    return x


def max_generalized_eig(B, A, lu=None):
    """Largest eigenpair of B x = lambda A x for symmetric B, SPD A.

    Implicitly restarted Lanczos (ARPACK, sparse LU of A as M^-1, `lu` when
    given) from a fixed start vector; a 1x1 pencil is the quotient.  The
    eigenvector is scaled to sqrt(x' A x) = 1 with its first significant
    component positive.  Returns (lambda, x, residual) with the relative
    residual ||Bx - lambda Ax|| / ||Ax||; raises :class:`EigenError` when it
    exceeds EIG_RESIDUAL_TOL.
    """
    B = _as_csr(B)
    A = _as_csr(A)
    if B.shape != A.shape or B.shape[0] != B.shape[1]:
        raise ValueError(f"dimension mismatch: B is {B.shape}, A is {A.shape}")
    n = A.shape[0]
    if n == 1:
        lam, x = float(B[0, 0] / A[0, 0]), np.ones(1)
    else:
        lu = factor(A) if lu is None else lu
        Minv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
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
    return lam, x, res / ref
