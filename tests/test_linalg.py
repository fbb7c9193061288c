"""Tests for the dense linear algebra kernel.

Expected values come from analytic identities, scipy reference solvers,
and an independent power-iteration oracle; none are produced by the code
under test.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from etcontrol.errors import DesignError
from etcontrol.linalg import (
    is_hurwitz,
    solve_lyapunov,
    spectral_norm,
    sym_eig,
)

# Batch-reactor open-loop matrix, reused as a well-conditioned 4x4 sample.
A_REACTOR = np.array([
    [1.38, -0.20, 6.71, -5.67],
    [-0.58, -4.29, 0.0, 0.67],
    [1.06, 4.27, -6.65, 5.89],
    [0.04, 4.27, 1.34, -2.10],
])
B_REACTOR = np.array([[0.0, 0.0], [5.67, 0.0], [1.13, -3.14], [1.13, 0.0]])
K_REACTOR = np.array([
    [0.1006, -0.2469, -0.0952, -0.2447],
    [1.4099, -0.1966, 0.0139, 0.0823],
])
ACL_REACTOR = A_REACTOR + B_REACTOR @ K_REACTOR

# Frozen from an independent scipy evaluation of the same matrix.
REACTOR_SPECTRAL_NORM = 12.987490042593132


def random_hurwitz(rng, n):
    """Random Hurwitz matrix: shift a random matrix left of its numerical range."""
    G = rng.standard_normal((n, n))
    return G - (np.linalg.norm(G, 2) + 0.5) * np.eye(n)


class TestSymEig:
    def test_identity(self):
        npt.assert_allclose(sym_eig(np.eye(2)), [1.0, 1.0], rtol=0, atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        npt.assert_allclose(sym_eig(np.diag([3.0, -2.0])), [-2.0, 3.0], atol=1e-14)

    def test_analytic_2x2(self):
        npt.assert_allclose(sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0],
                            rtol=1e-12)

    def test_reconstruction_random_symmetric(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 6):
            M = rng.standard_normal((n, n))
            M = M + M.T
            vals, vecs = sym_eig(M, vectors=True)
            recon = vecs @ np.diag(vals) @ vecs.T
            assert np.linalg.norm(recon - M) <= 1e-10 * np.linalg.norm(M)
            npt.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)

    def test_positive_definite_gives_positive_values(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((4, 4))
        vals = sym_eig(G.T @ G + np.eye(4))
        assert np.all(vals > 0.0)

    def test_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            M = rng.standard_normal((n, n))
            M = M + M.T
            npt.assert_allclose(sym_eig(M), np.sort(scipy.linalg.eigvalsh(M)),
                                rtol=1e-11, atol=1e-11)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.ones((2, 3)))

    def test_zero_matrix(self):
        npt.assert_allclose(sym_eig(np.zeros((3, 3))), np.zeros(3), atol=0)


class TestSpectralSummary:
    """The extremes callers read from `sym_eig` (the minimum is `vals[0]`)."""

    def test_extremes(self):
        vals = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert float(vals[0]) == pytest.approx(1.0)
        assert float(vals[-1]) == pytest.approx(3.0)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        M = M + M.T
        vals = sym_eig(M)
        assert float(vals[0]) == pytest.approx(float(np.min(vals)))
        assert float(vals[0]) <= float(vals[-1])


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 5.0])) == pytest.approx(5.0, rel=1e-12)

    def test_row_vector(self):
        assert spectral_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert spectral_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
        assert spectral_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)

    def test_reactor_matrix_vs_power_iteration(self):
        # Independent oracle: power iteration on A^T A with a fixed start.
        G = A_REACTOR.T @ A_REACTOR
        v = np.full(4, 0.5)
        for _ in range(2000):
            v = G @ v
            v /= np.linalg.norm(v)
        oracle = np.sqrt(v @ G @ v)
        result = spectral_norm(A_REACTOR)
        assert result == pytest.approx(oracle, rel=1e-8)
        assert result == pytest.approx(REACTOR_SPECTRAL_NORM, rel=1e-9)

    def test_transpose_and_scaling_invariance(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 5))
        assert spectral_norm(M) == pytest.approx(spectral_norm(M.T), rel=1e-12)
        assert spectral_norm(-2.5 * M) == pytest.approx(2.5 * spectral_norm(M), rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestIsHurwitz:
    def test_stable_cases(self):
        assert is_hurwitz(-np.eye(3))
        assert is_hurwitz(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        assert is_hurwitz(ACL_REACTOR)

    def test_unstable_cases(self):
        assert not is_hurwitz(np.array([[1.0]]))
        assert not is_hurwitz(A_REACTOR)

    def test_marginal_rotation_is_not_hurwitz(self):
        assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_stiff_diagonal_is_hurwitz(self):
        # Eigenvalues spread over four decades; characteristic-polynomial
        # roots misplace them, direct eigenvalues do not.
        assert is_hurwitz(np.diag(-np.logspace(0, 4, 10)))

    def test_agrees_with_eigvals_on_random_samples(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            M = rng.standard_normal((n, n)) - 0.8 * np.eye(n)
            expected = bool(np.all(np.linalg.eigvals(M).real < 0.0))
            assert is_hurwitz(M) == expected


class TestSolveLyapunov:
    def test_scalar_structure(self):
        # A = -I, Q = 2I: -2P = -Q gives P = I.
        P = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        npt.assert_allclose(P, np.eye(2), atol=1e-13)

    def test_against_scipy_reference(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        Q = np.eye(2)
        P = solve_lyapunov(A, Q)
        expected = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        npt.assert_allclose(P, expected, rtol=1e-12, atol=1e-12)

    def test_reactor_residual(self):
        Q = np.eye(4)
        P = solve_lyapunov(ACL_REACTOR, Q)
        residual = np.linalg.norm(P @ ACL_REACTOR + ACL_REACTOR.T @ P + Q)
        assert residual <= 1e-10 * np.linalg.norm(Q)
        expected = scipy.linalg.solve_continuous_lyapunov(ACL_REACTOR.T, -Q)
        npt.assert_allclose(P, expected, rtol=1e-9, atol=1e-12)

    def test_homogeneous_in_q(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        P1 = solve_lyapunov(A, np.eye(2))
        P5 = solve_lyapunov(A, 5.0 * np.eye(2))
        npt.assert_allclose(P5, 5.0 * P1, rtol=1e-12)

    def test_random_hurwitz_residuals_and_definiteness(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            A = random_hurwitz(rng, n)
            G = rng.standard_normal((n, n))
            Q = G.T @ G + np.eye(n)
            P = solve_lyapunov(A, Q)
            assert np.linalg.norm(P @ A + A.T @ P + Q) <= 1e-10 * np.linalg.norm(Q)
            assert sym_eig(P)[0] > 0.0

    def test_rejects_non_hurwitz(self):
        with pytest.raises(DesignError, match="Hurwitz"):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            solve_lyapunov(-np.eye(3), np.eye(2))

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
