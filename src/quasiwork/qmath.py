"""Dense complex linear algebra for small Hermitian/unitary matrices.

The eigensolver is LAPACK's Hermitian driver (``np.linalg.eigh``) wrapped in
the package's input checks and a deterministic eigenvector gauge.  Matrices
are numpy complex arrays at the API boundary; dimensions are tiny (d=3
throughout the package).  ``herm_eig`` and ``unitary_exp`` also take a
``(..., d, d)`` stack, diagonalized in one LAPACK call with per-matrix bits.

Conventions
-----------
* ``herm_eig`` returns eigenvalues ascending.
* Every eigenvector column is gauge-fixed: its largest-magnitude component
  (lowest index on ties within 1e-15) is rotated to be real and positive.
* ``unitary_exp(M, t)`` is exp(-1j*t*M), i.e. the Schrodinger propagator of a
  time-independent Hermitian generator over time t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "DimensionMismatch",
    "NonHermitianInput",
    "EigenSystem",
    "herm_eig",
    "unitary_exp",
    "unitarity_defect",
]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonHermitianInput(ValueError):
    """A Hermitian matrix was required but the input fails the tolerance."""


HERMITIAN_TOL = 1e-12  # max |M - M^dag| relative to max |M|


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):  # finite in both real and imaginary parts
        raise ValueError("matrix contains NaN or Inf")
    return a


def _hermiticity_defect(a: np.ndarray) -> float:
    """max |M - M^dag| scaled by max(|M|, 1); for a stack, the worst matrix on its own scale."""
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) / scale))


def unitarity_defect(u) -> float:
    """max entrywise deviation of U^dag U from the identity."""
    a = _as_square(u)
    return float(np.max(np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1]))))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    values   -- eigenvalues, ascending (real, e.g. rad/us for a Hamiltonian)
    vectors  -- orthonormal eigenvectors as columns, phase-gauged

    For a stack both carry the stack's leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """sum_k lambda_k |v_k><v_k|."""
        return (self.vectors * self.values[..., None, :]) @ self.vectors.conj().swapaxes(-1, -2)


def herm_eig(m) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix or a ``(..., d, d)`` stack.

    Raises NonHermitianInput when any matrix violates the Hermitian
    tolerance, each against its own scale.  Output is deterministic:
    ascending eigenvalues and a phase gauge making the largest component of
    each eigenvector real-positive.  A stack gives bitwise the results of
    per-matrix calls.
    """
    a = _as_square(m)
    defect = _hermiticity_defect(a)
    if defect > HERMITIAN_TOL:
        raise NonHermitianInput(f"hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    values, vectors = np.linalg.eigh(0.5 * (a + a.conj().swapaxes(-1, -2)))
    _phase_gauge(vectors)
    return EigenSystem(values=values, vectors=vectors)


def _phase_gauge(vectors: np.ndarray) -> None:
    """Rotate each unit column (axis -2) in place so its largest component is real > 0.

    Near-ties within 1e-15 keep the lowest index, so an eigensolver's last-bit
    noise cannot move the anchor.
    """
    mags = np.abs(vectors)
    best, anchor = mags[..., 0, :], vectors[..., 0, :]
    idx = np.zeros(best.shape, dtype=np.intp)
    for r in range(1, mags.shape[-2]):
        take = mags[..., r, :] > best + 1e-15
        best = np.where(take, mags[..., r, :], best)
        anchor = np.where(take, vectors[..., r, :], anchor)
        idx[take] = r
    # the anchor is set to exactly |anchor|, killing residual imaginary roundoff
    at_anchor = idx[..., None, :] == np.arange(mags.shape[-2])[:, None]
    vectors[...] = np.where(at_anchor, best[..., None, :], vectors * (anchor.conj() / best)[..., None, :])


def unitary_exp(m, t: float):
    """exp(-1j*t*M) for Hermitian M or a ``(..., d, d)`` stack, via the spectral decomposition.

    Exact up to eigensolver tolerance; the result passes the unitarity check.
    """
    eig = herm_eig(m)
    phases = np.exp(-1j * t * eig.values)
    return (eig.vectors * phases[..., None, :]) @ eig.vectors.conj().swapaxes(-1, -2)
