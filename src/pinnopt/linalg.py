"""Dense symmetric linear algebra for curvature preconditioning.

Everything works on float64 numpy arrays.  All functions are pure: inputs
are never mutated, so they are safe to call from multiple threads.

Conventions used throughout the package:

* matrices are vectorized column-by-column (first index varies fastest,
  ``X.flatten(order="F")``), so a Kronecker product ``A (x) B`` with
  ``A`` of size p and ``B`` of size q acts on the flattening of a q x p
  matrix ``X`` as ``vec(B @ X @ A.T)``;
* ``kron_sum_solve`` exploits this to solve Kronecker-sum systems without
  ever materializing the (p*q) x (p*q) matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "NotSymmetricError",
    "NotPositiveSemidefiniteError",
    "SymEig",
    "sym_eig",
    "pinv_psd",
    "kron_sum_solve",
]

#: absolute symmetry tolerance for inputs that claim to be symmetric
SYMMETRY_TOL = 1e-10

#: eigenvalues below -PSD_TOL * max|eig| trigger a not-PSD error
PSD_TOL = 1e-6


class NotSymmetricError(ValueError):
    """Raised when a matrix is not square or not symmetric within tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix has eigenvalues below the negative tolerance."""


class SymEig(NamedTuple):
    """Spectral decomposition M = Q diag(eigenvalues) Q^T.

    ``eigenvalues`` are sorted ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def sym_eig(m, name: str = "matrix") -> SymEig:
    """Eigendecomposition of a symmetric matrix.

    Raises NotSymmetricError if ``m`` is not square or deviates from
    symmetry by more than ``SYMMETRY_TOL`` (absolute), and
    ``numpy.linalg.LinAlgError`` if ``m`` has a non-finite entry or the
    eigensolver does not converge.  ``name`` labels ``m`` in the messages.
    A NaN entry must be caught here: the symmetry test compares it as
    False and the eigensolver returns NaN eigenvalues without raising.
    """
    m = _as_square(m, name)
    if not np.all(np.isfinite(m)):
        raise np.linalg.LinAlgError(f"{name} has non-finite entries")
    if m.size and float(np.max(np.abs(m - m.T))) > SYMMETRY_TOL:
        raise NotSymmetricError(f"{name} is not symmetric to 1e-10")
    evals, evecs = np.linalg.eigh(m)
    return SymEig(evals, evecs)


def _check_psd(evals, norm, what):
    if evals.size and float(evals[0]) < -PSD_TOL * max(norm, 1e-300):
        raise NotPositiveSemidefiniteError(
            f"{what}: smallest eigenvalue {evals[0]:.3e} below -{PSD_TOL:g} * norm"
        )


def pinv_psd(m, rcond: float) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Eigenvalues at or below ``rcond * lam_max`` are treated as zero rank
    and their inverse contribution is dropped.

    The eigendecomposition only decides the rank.  The inverse itself is
    taken by an LU inverse of the deflated matrix ``m + s P0`` (P0 the
    projector onto the dropped eigenvectors, s = lam_max), minus ``P0 / s``.
    Summing ``Q diag(1 / lam) Q^T`` instead scales the eigensolver's
    backward error (order eps * lam_max) by 1 / lam_min into one coherent
    error of ``m @ p``; on an input with condition number 3.4e8 that made
    ``m @ p`` asymmetric by 2.5e-8, where the LU inverse stays at 7e-9.
    """
    if rcond < 0:
        raise ValueError("rcond must be >= 0")
    evals, q = sym_eig(m, "pinv_psd(m)")
    norm = float(np.max(np.abs(evals))) if evals.size else 0.0
    _check_psd(evals, norm, "pinv_psd")
    lam_max = float(np.max(evals)) if evals.size else 0.0
    cutoff = rcond * max(lam_max, 0.0)
    q0 = q[:, evals <= cutoff]
    shift = lam_max if lam_max > 0.0 else 1.0
    proj0 = q0 @ q0.T
    p = np.linalg.inv(np.asarray(m, dtype=np.float64) + shift * proj0) - proj0 / shift
    return 0.5 * (p + p.T)


def _pd_inv_sqrt(m, what):
    """Eigendecompose a strictly PD matrix and return its inverse sqrt."""
    evals, q = sym_eig(m, what)
    norm = float(np.max(np.abs(evals))) if evals.size else 0.0
    if evals.size == 0 or float(evals[0]) <= 1e-14 * max(norm, 1e-300):
        raise NotPositiveSemidefiniteError(
            f"{what}: matrix must be positive definite (min eig "
            f"{evals[0] if evals.size else float('nan'):.3e})"
        )
    return (q * evals ** -0.5) @ q.T


def kron_sum_solve(a1, b1, a2, b2, g) -> np.ndarray:
    """Solve ``(A1 (x) B1 + A2 (x) B2) v = g`` for symmetric PD factors.

    ``a1, a2`` are p x p, ``b1, b2`` are q x q and ``g`` has length p*q in
    column-stacked order (see module docstring).  The system is solved by
    simultaneous diagonalization: with ``Ta = A2^(-1/2) A1 A2^(-1/2) =
    Ea diag(la) Ea^T`` and the analogous ``Tb``, the Kronecker sum becomes
    diagonal with entries ``la_i * lb_j + 1`` after the inverse-square-root
    transform.  ``g`` is reshaped to a q x p matrix and multiplied from
    both sides, so only p x p and q x q matrices are ever formed.
    """
    a1 = _as_square(a1, "a1")
    b1 = _as_square(b1, "b1")
    a2 = _as_square(a2, "a2")
    b2 = _as_square(b2, "b2")
    p, q = a1.shape[0], b1.shape[0]
    if a2.shape[0] != p or b2.shape[0] != q:
        raise ValueError("factor size mismatch between the two Kronecker terms")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (p * q,):
        raise ValueError(f"g must have length p*q = {p * q}, got shape {g.shape}")

    a2_isqrt = _pd_inv_sqrt(a2, "kron_sum_solve(a2)")
    b2_isqrt = _pd_inv_sqrt(b2, "kron_sum_solve(b2)")

    ta = a2_isqrt @ a1 @ a2_isqrt
    tb = b2_isqrt @ b1 @ b2_isqrt
    la, ea = sym_eig(0.5 * (ta + ta.T), "kron_sum_solve(a1)")
    lb, eb = sym_eig(0.5 * (tb + tb.T), "kron_sum_solve(b1)")
    _check_psd(la, float(np.max(np.abs(la))) if la.size else 0.0, "kron_sum_solve(a1)")
    _check_psd(lb, float(np.max(np.abs(lb))) if lb.size else 0.0, "kron_sum_solve(b1)")

    x = g.reshape((q, p), order="F")
    x = b2_isqrt @ x @ a2_isqrt
    y = eb.T @ x @ ea
    y = y / (np.outer(lb, la) + 1.0)
    x = eb @ y @ ea.T
    x = b2_isqrt @ x @ a2_isqrt
    return x.flatten(order="F")
