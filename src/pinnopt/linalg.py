"""Dense symmetric linear algebra for curvature preconditioning.

Everything works on float64 numpy arrays.  All functions are pure: inputs
are never mutated, so they are safe to call from multiple threads.

Conventions used throughout the package:

* matrices are vectorized column-by-column (first index varies fastest,
  ``X.flatten(order="F")``), so a Kronecker product ``A (x) B`` with
  ``A`` of size p and ``B`` of size q acts on the flattening of a q x p
  matrix ``X`` as ``vec(B @ X @ A.T)``;
* ``kron_sum_solve`` exploits this to solve Kronecker-sum systems without
  ever materializing the (p*q) x (p*q) matrix: each side's two factors are
  diagonalized together by Cholesky whitening and one ``sym_eig``, and a
  width-1 layer's system is one Cholesky solve.
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


class NotSymmetricError(np.linalg.LinAlgError):
    """A matrix is not square or not symmetric within tolerance (a LinAlgError: a failed step)."""


class NotPositiveSemidefiniteError(np.linalg.LinAlgError):
    """A matrix has eigenvalues below the negative tolerance, or no Cholesky factor (a failed step)."""


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
    return SymEig(*np.linalg.eigh(_checked(m, name)))


def _checked(m, name):
    """``m`` as a float64 matrix, checked to be square, finite and symmetric (see :func:`sym_eig`)."""
    m = _as_square(m, name)
    if not np.all(np.isfinite(m)):
        raise np.linalg.LinAlgError(f"{name} has non-finite entries")
    if m.size and float(np.max(np.abs(m - m.T))) > SYMMETRY_TOL:
        raise NotSymmetricError(f"{name} is not symmetric to 1e-10")
    return m


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


def _cholesky(m, what):
    """The Cholesky factor ``L L^T = m`` of a strictly PD matrix."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveSemidefiniteError(f"{what}: matrix must be positive definite") from None


def _whitened_eig(m1, m2, name1, name2):
    """``(lam, V)`` with ``V^T m2 V = I`` and ``V^T m1 V = diag(lam)``, lam >= 0.

    ``V = L^-T E`` for ``L L^T = m2`` and ``L^-1 m1 L^-T = E diag(lam) E^T``:
    one Cholesky factorization and one eigendecomposition.
    """
    l_inv = np.linalg.inv(_cholesky(m2, f"kron_sum_solve({name2})"))
    t = l_inv @ m1 @ l_inv.T
    lam, e = sym_eig(0.5 * (t + t.T), f"kron_sum_solve({name1})")
    _check_psd(lam, float(np.max(np.abs(lam))) if lam.size else 0.0, f"kron_sum_solve({name1})")
    return lam, l_inv.T @ e


def kron_sum_solve(a1, b1, a2, b2, g) -> np.ndarray:
    """Solve ``(A1 (x) B1 + A2 (x) B2) v = g`` for symmetric PD factors.

    ``a1, a2`` are p x p, ``b1, b2`` are q x q and ``g`` has length p*q in
    column-stacked order (see module docstring).  Every factor must be
    finite and symmetric, ``a2`` and ``b2`` positive definite and ``a1``,
    ``b1`` positive semidefinite; the error names the offending argument.

    Each side is whitened by a Cholesky factor (LAPACK ``sygv``'s
    reduction): with ``L L^T = A2`` and ``L^-1 A1 L^-T = E diag(la) E^T``,
    ``Va = L^-T E`` gives ``Va^T A2 Va = I`` and ``Va^T A1 Va = diag(la)``,
    and ``Vb`` likewise, so ``v = vec(Vb ((Vb^T G Va) / (lb la^T + 1)) Va^T)``
    for ``g = vec(G)``: one eigendecomposition per side.  For q = 1 (a
    width-1 output layer) the B factors are scalars and the system is one
    Cholesky solve with ``b1 A1 + b2 A2``.
    """
    a1, b1, a2, b2 = (
        _checked(m, f"kron_sum_solve({name})") for m, name in zip((a1, b1, a2, b2), ("a1", "b1", "a2", "b2"))
    )
    p, q = a1.shape[0], b1.shape[0]
    if a2.shape[0] != p or b2.shape[0] != q:
        raise ValueError("factor size mismatch between the two Kronecker terms")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (p * q,):
        raise ValueError(f"g must have length p*q = {p * q}, got shape {g.shape}")

    if q == 1:
        _cholesky(b2, "kron_sum_solve(b2)")
        _check_psd(b1[0], abs(float(b1[0, 0])), "kron_sum_solve(b1)")
        _cholesky(a2, "kron_sum_solve(a2)")
        # a2 and b2 are PD and b1 >= 0, so an indefinite system means a1 is not PSD
        l = _cholesky(b1[0, 0] * a1 + b2[0, 0] * a2, "kron_sum_solve(a1)")
        return np.linalg.solve(l.T, np.linalg.solve(l, g))

    la, va = _whitened_eig(a1, a2, "a1", "a2")
    lb, vb = _whitened_eig(b1, b2, "b1", "b2")
    y = vb.T @ g.reshape((q, p), order="F") @ va
    y /= np.outer(lb, la) + 1.0
    return (vb @ y @ va.T).flatten(order="F")
