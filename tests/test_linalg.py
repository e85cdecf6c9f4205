import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinnopt.linalg import (
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    inv_sqrt_psd,
    kron_sum_solve,
    pinv_psd,
    sym_eig,
)


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return m + m.T


def random_spd(rng, n, shift=None):
    a = rng.standard_normal((n, n))
    return a @ a.T + (shift if shift is not None else n) * np.eye(n)


class TestSymEig:
    def test_identity(self):
        evals, evecs = sym_eig(np.eye(3))
        assert np.allclose(evals, 1.0)
        assert np.allclose(evecs.T @ evecs, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        evals, evecs = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(evals, [1.0, 3.0])
        # eigenvectors are the permuted identity up to sign
        assert np.allclose(np.abs(evecs), [[0.0, 1.0], [1.0, 0.0]])

    def test_reconstruction_6x6(self):
        m = random_symmetric(np.random.default_rng(0), 6)
        evals, q = sym_eig(m)
        assert np.max(np.abs((q * evals) @ q.T - m)) <= 1e-8 * np.max(np.abs(m))

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSymmetricError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16))
    def test_orthogonality_and_reconstruction(self, seed, n):
        m = random_symmetric(np.random.default_rng(seed), n)
        evals, q = sym_eig(m)
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
        assert np.max(np.abs((q * evals) @ q.T - m)) <= 1e-8 * max(np.max(np.abs(m)), 1e-30)

    def test_size_64(self):
        m = random_symmetric(np.random.default_rng(64), 64)
        evals, q = sym_eig(m)
        assert np.max(np.abs(q.T @ q - np.eye(64))) <= 1e-10
        assert np.max(np.abs((q * evals) @ q.T - m)) <= 1e-8 * np.max(np.abs(m))


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(4), 0.0), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        got = inv_sqrt_psd(np.diag([4.0, 9.0]), 0.0)
        assert np.allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_multiplicative_inverse(self):
        m = random_spd(np.random.default_rng(1), 5)
        r = inv_sqrt_psd(m, 0.0)
        assert np.max(np.abs(r @ r @ m - np.eye(5))) <= 1e-8

    def test_jitter_shifts_eigenvalues(self):
        got = inv_sqrt_psd(np.diag([3.0, 0.0]), 1.0)
        assert np.allclose(got, np.diag([0.5, 1.0]), atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            inv_sqrt_psd(np.diag([1.0, -1.0]), 0.0)


class TestPinvPsd:
    def test_identity(self):
        assert np.allclose(pinv_psd(np.eye(3), 1e-12), np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        got = pinv_psd(np.diag([2.0, 0.0]), 1e-12)
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)

    def test_penrose_on_low_rank(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((5, 3))
        m = b @ b.T  # rank 3 PSD of size 5
        p = pinv_psd(m, 1e-12)
        assert np.max(np.abs(m @ p @ m - m)) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 32), st.integers(1, 32))
    @example(seed=24, n=17, rank=17)  # condition number 3.4e8
    def test_penrose_conditions(self, seed, n, rank):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, min(rank, n)))
        m = b @ b.T
        p = pinv_psd(m, 1e-12)
        scale = max(np.max(np.abs(m)), 1.0)
        assert np.max(np.abs(m @ p @ m - m)) <= 1e-8 * scale
        assert np.max(np.abs(p @ m @ p - p)) <= 1e-8 * max(np.max(np.abs(p)), 1.0)
        assert np.max(np.abs((m @ p).T - m @ p)) <= 1e-8
        assert np.max(np.abs((p @ m).T - p @ m)) <= 1e-8


class TestKronSumSolve:
    def test_all_identity(self):
        g = np.arange(4.0)
        assert np.allclose(kron_sum_solve(np.eye(2), np.eye(2), np.eye(2), np.eye(2), g), g / 2)

    def test_scalar_case(self):
        got = kron_sum_solve(
            np.array([[2.0]]), np.array([[3.0]]), np.eye(1), np.eye(1), np.array([7.0])
        )
        assert np.allclose(got, [1.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        a1, a2 = random_spd(rng, 3), random_spd(rng, 3)
        b1, b2 = random_spd(rng, 3), random_spd(rng, 3)
        g = rng.standard_normal(9)
        v = kron_sum_solve(a1, b1, a2, b2, g)
        dense = np.linalg.solve(np.kron(a1, b1) + np.kron(a2, b2), g)
        assert np.linalg.norm(v - dense) <= 1e-8 * np.linalg.norm(dense)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    def test_solution_recovers_rhs(self, seed, p, q):
        rng = np.random.default_rng(seed)
        a1, a2 = random_spd(rng, p), random_spd(rng, p)
        b1, b2 = random_spd(rng, q), random_spd(rng, q)
        g = rng.standard_normal(p * q)
        v = kron_sum_solve(a1, b1, a2, b2, g)
        back = (np.kron(a1, b1) + np.kron(a2, b2)) @ v
        assert np.linalg.norm(back - g) <= 1e-8 * np.linalg.norm(g)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kron_sum_solve(np.eye(2), np.eye(2), np.eye(3), np.eye(2), np.zeros(4))
        with pytest.raises(ValueError):
            kron_sum_solve(np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.zeros(5))

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            kron_sum_solve(np.eye(2), np.eye(2), np.diag([1.0, 0.0]), np.eye(2), np.zeros(4))
