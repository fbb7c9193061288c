"""Small dense real linear algebra used by the trigger design procedures.

Matrices are plain ``numpy.ndarray`` objects. All norms are Euclidean for
vectors and induced-2 for matrices. Eigenvalues, Hurwitz tests and norms
come from numpy's LAPACK routines. The Lyapunov equation is solved
densely through its Kronecker vectorization, and every solution is
checked for its residual and definiteness before it is returned.
"""

from __future__ import annotations

import numpy as np

from .errors import DesignError

__all__ = [
    "sym_eig",
    "spectral_norm",
    "solve_lyapunov",
    "is_hurwitz",
]

# Relative asymmetry tolerated before an input is rejected as non-symmetric.
_SYMMETRY_RTOL = 1e-12


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def _require_symmetric(M, name="matrix"):
    M = _as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    scale = np.linalg.norm(M)
    if np.linalg.norm(M - M.T) > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric within tolerance {_SYMMETRY_RTOL}")
    return 0.5 * (M + M.T)


def sym_eig(M, vectors=False):
    """Eigenvalues (and optionally eigenvectors) of a symmetric matrix.

    Uses LAPACK's symmetric eigensolver (``numpy.linalg.eigh``) on the
    symmetrized input.

    Parameters
    ----------
    M : array_like
        Symmetric matrix. Asymmetry beyond a 1e-12 relative tolerance is
        rejected.
    vectors : bool, optional
        When true, also return the orthonormal eigenvector matrix.

    Returns
    -------
    values : ndarray
        Eigenvalues in ascending order.
    basis : ndarray, optional
        Columns are eigenvectors aligned with ``values``; only returned
        when ``vectors`` is true.
    """
    A = _require_symmetric(M, "sym_eig input")
    if vectors:
        return np.linalg.eigh(A)
    return np.linalg.eigvalsh(A)


def spectral_norm(M):
    """Induced 2-norm of a matrix, or Euclidean norm of a vector."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("spectral_norm input has non-finite entries")
    if M.ndim == 1:
        return float(np.linalg.norm(M))
    if M.ndim != 2:
        raise ValueError(f"spectral_norm expects a vector or matrix, got shape {M.shape}")
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def is_hurwitz(M):
    """Whether every eigenvalue of ``M`` has a strictly negative real part."""
    M = _as_matrix(M, "is_hurwitz input")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"is_hurwitz input must be square, got shape {M.shape}")
    return bool(np.all(np.linalg.eigvals(M).real < 0.0))


def solve_lyapunov(A_cl, Q):
    """Solve ``P A_cl + A_cl^T P = -Q`` for symmetric positive definite P.

    The equation is vectorized into an n^2 x n^2 dense linear system and
    solved by partial-pivot elimination. The residual is verified against
    ``1e-10 * ||Q||`` before the result is returned.

    Parameters
    ----------
    A_cl : array_like
        Hurwitz closed-loop matrix.
    Q : array_like
        Symmetric positive definite weight.

    Returns
    -------
    ndarray
        Symmetric positive definite solution P.

    Raises
    ------
    DesignError
        If ``A_cl`` is not Hurwitz or the computed solution fails the
        residual or definiteness checks.
    """
    A = _as_matrix(A_cl, "A_cl")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A_cl must be square, got shape {A.shape}")
    Qs = _require_symmetric(Q, "Q")
    if Qs.shape != A.shape:
        raise ValueError(f"Q shape {Qs.shape} does not match A_cl shape {A.shape}")
    if not is_hurwitz(A):
        raise DesignError("closed-loop matrix is not Hurwitz; Lyapunov design fails")
    n = A.shape[0]
    I = np.eye(n)
    # Column-stacking vectorization: vec(P A) = (A^T (x) I) vec(P),
    # vec(A^T P) = (I (x) A^T) vec(P).
    coeff = np.kron(A.T, I) + np.kron(I, A.T)
    vec_p = np.linalg.solve(coeff, -Qs.flatten(order="F"))
    P = vec_p.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(P @ A + A.T @ P + Qs)
    if residual > 1e-10 * np.linalg.norm(Qs):
        raise DesignError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    if sym_eig(P)[0] <= 0.0:
        raise DesignError("Lyapunov solution is not positive definite")
    return P
