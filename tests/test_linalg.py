import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinnopt.linalg import (
    NotPositiveSemidefiniteError,
    NotSymmetricError,
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


@pytest.mark.parametrize("error", [NotSymmetricError, NotPositiveSemidefiniteError])
def test_errors_are_lin_alg_errors(error):
    # raised inside a training step, either ends the run as diverged
    assert issubclass(error, np.linalg.LinAlgError)
    assert issubclass(error, ValueError)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # eigh returns NaN eigenvalues for a NaN entry without raising, and
        # the symmetry test compares NaN as False, so this must be explicit
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(np.linalg.LinAlgError, match="factor has non-finite entries"):
            sym_eig(m, "factor")

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
    @example(seed=8, n=20, rank=20)  # condition number 8.5e9: m @ p asymmetric by 1.2e-7
    def test_penrose_conditions(self, seed, n, rank):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, min(rank, n)))
        m = b @ b.T
        p = pinv_psd(m, 1e-12)
        # a float64 inverse errs by about n eps cond (first-order bound), cond
        # taken over the eigenvalues pinv_psd keeps; a fixed 1e-8 fails
        # well-computed inverses once cond passes about 1e6
        evals = np.linalg.eigvalsh(m)
        kept = evals[evals > 1e-12 * evals.max()]
        tol = 1e-8 + n * np.finfo(float).eps * kept.max() / kept.min()
        scale = max(np.max(np.abs(m)), 1.0)
        assert np.max(np.abs(m @ p @ m - m)) <= tol * scale
        assert np.max(np.abs(p @ m @ p - p)) <= tol * max(np.max(np.abs(p)), 1.0)
        assert np.max(np.abs((m @ p).T - m @ p)) <= tol
        assert np.max(np.abs((p @ m).T - p @ m)) <= tol


def factor_cases(first, *shapes):
    """``(which, p, q)`` for each factor of ``kron_sum_solve`` and factor sizes (p, q).

    Cases of the ``first`` shape are named by the factor alone, the others
    by factor and shape; (p, 1) and (1, q) take the path of a size-1 side.
    """
    return [
        pytest.param(which, p, q, id=which if (p, q) == first else f"{which}-{p}x{q}")
        for p, q in (first,) + shapes
        for which in ("a1", "b1", "a2", "b2")
    ]


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

    @pytest.mark.parametrize("which, p, q", factor_cases((3, 2), (3, 1), (1, 2)))
    def test_nan_factor_raises(self, which, p, q):
        # (3, 1) and (1, 2) take the Cholesky path of a side of size 1
        rng = np.random.default_rng(4)
        factors = {name: random_spd(rng, p if name[0] == "a" else q) for name in ("a1", "b1", "a2", "b2")}
        factors[which][0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match=rf"kron_sum_solve\({which}\) has non-finite"):
            kron_sum_solve(factors["a1"], factors["b1"], factors["a2"], factors["b2"], np.ones(p * q))

    @pytest.mark.parametrize("which, p, q", factor_cases((3, 2), (3, 1), (1, 2)))
    def test_asymmetric_factor_raises(self, which, p, q):
        factors = {name: np.eye(p if name[0] == "a" else q) for name in ("a1", "b1", "a2", "b2")}
        factors[which] = factors[which] + np.tri(*factors[which].shape, -1)
        if factors[which].shape == (1, 1):
            factors[which] = np.ones((1, 2))  # a 1 x 1 matrix is symmetric; a non-square one is not
        with pytest.raises(NotSymmetricError, match=rf"kron_sum_solve\({which}\)"):
            kron_sum_solve(factors["a1"], factors["b1"], factors["a2"], factors["b2"], np.ones(p * q))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    @example(7, 6, 1)
    @example(7, 1, 6)
    @example(7, 1, 1)
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

    @pytest.mark.parametrize("which, p, q", factor_cases((2, 2), (2, 1), (1, 2)))
    def test_rejects_non_pd(self, which, p, q):
        # a2 and b2 must be positive definite (singular is refused), a1 and b1
        # positive semidefinite; the error names the factor on every path
        factors = {name: np.eye(p if name[0] == "a" else q) for name in ("a1", "b1", "a2", "b2")}
        k = factors[which].shape[0]
        factors[which] = np.diag([1.0] * (k - 1) + [0.0]) if which[1] == "2" else -np.eye(k)
        with pytest.raises(NotPositiveSemidefiniteError, match=rf"kron_sum_solve\({which}\)"):
            kron_sum_solve(factors["a1"], factors["b1"], factors["a2"], factors["b2"], np.zeros(p * q))
