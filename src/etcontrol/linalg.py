"""Small dense real linear algebra used by the trigger design procedures.

Matrices are plain ``numpy.ndarray`` objects. All norms are Euclidean for
vectors and induced-2 for matrices. Eigenvalues, Hurwitz tests and norms
come from numpy's LAPACK routines. The Lyapunov equation is solved
densely through its Kronecker vectorization, and every solution is
checked for its residual; a design's certificate checks definiteness.
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


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def _require_symmetric(M, name):
    M = _as_square(M, name)
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
    if not np.isfinite(M).all():
        raise ValueError("spectral_norm input has non-finite entries")
    if M.ndim != 2:
        return float(np.linalg.norm(M, 2))
    # np.linalg.norm(M, 2) reduces the same singular values the same way.
    return float(np.linalg.svd(M, compute_uv=False).max(initial=0.0))


def is_hurwitz(M):
    """Whether every eigenvalue of ``M`` has a strictly negative real part."""
    M = _as_square(M, "is_hurwitz input")
    return bool((np.linalg.eigvals(M).real < 0.0).all())


def solve_lyapunov(A_cl, Q):
    """Solve ``P A_cl + A_cl^T P = -Q`` for symmetric P.

    The equation is vectorized into an n^2 x n^2 dense linear system and
    solved by partial-pivot elimination. The residual is verified against
    ``1e-10 * ||Q||``; a design's ``LyapunovCertificate`` checks definiteness.

    Parameters
    ----------
    A_cl : array_like
        Hurwitz closed-loop matrix.
    Q : array_like
        Symmetric positive definite weight.

    Returns
    -------
    ndarray
        Exactly symmetric solution P; positive definite whenever Q is.

    Raises
    ------
    DesignError
        If ``A_cl`` is not Hurwitz, the linear system does not fit in
        memory, or the computed solution fails the residual check.
    """
    A = _as_square(A_cl, "A_cl")
    Qs = _require_symmetric(Q, "Q")
    if Qs.shape != A.shape:
        raise ValueError(f"Q shape {Qs.shape} does not match A_cl shape {A.shape}")
    if not is_hurwitz(A):
        raise DesignError("closed-loop matrix is not Hurwitz; Lyapunov design fails")
    n = A.shape[0]
    try:
        I = np.eye(n)
        # Column-stacking vectorization: vec(P A) = (A^T (x) I) vec(P),
        # vec(A^T P) = (I (x) A^T) vec(P). Entry [i, j, k, l] of a broadcast
        # product is the same product as Kronecker entry [i n + j, k n + l].
        coeff = A.T[:, None, :, None] * I[None, :, None, :]
        coeff += I[:, None, :, None] * A.T[None, :, None, :]
        vec_p = np.linalg.solve(coeff.reshape(n * n, n * n), -Qs.flatten(order="F"))
    except MemoryError:
        raise DesignError(f"the Lyapunov system of a {n}-state plant has {n * n} "
                          "unknowns, more than memory holds") from None
    P = vec_p.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(P @ A + A.T @ P + Qs)
    if not residual <= 1e-10 * np.linalg.norm(Qs):  # a NaN residual fails too
        raise DesignError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return P
