"""Dense complex linear algebra for small Hermitian/unitary matrices.

The eigensolver is LAPACK's Hermitian driver (``np.linalg.eigh``) wrapped in
the package's input checks and a deterministic eigenvector gauge.  Matrices
are numpy complex arrays at the API boundary; dimensions are tiny (d=3
throughout the package).

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
    "TOL",
    "Tolerances",
    "DimensionMismatch",
    "NonHermitianInput",
    "EigenSystem",
    "herm_eig",
    "unitary_exp",
    "hermiticity_defect",
    "unitarity_defect",
    "projector_defect",
]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonHermitianInput(ValueError):
    """A Hermitian matrix was required but the input fails the tolerance."""


@dataclass
class Tolerances:
    """Central table of numerical tolerances.

    Tests may relax these in one place; library code never hardcodes its own.
    """

    hermitian: float = 1e-12      # max |M - M^dag| relative to max |M|
    projector: float = 1e-10      # max |P^2 - P| entrywise


TOL = Tolerances()


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):  # finite in both real and imaginary parts
        raise ValueError("matrix contains NaN or Inf")
    return a


def hermiticity_defect(m) -> float:
    """max |M - M^dag| scaled by max(|M|, 1)."""
    a = _as_square(m)
    scale = max(float(np.max(np.abs(a))), 1.0)
    return float(np.max(np.abs(a - a.conj().T))) / scale


def unitarity_defect(u) -> float:
    """max entrywise deviation of U^dag U from the identity."""
    a = _as_square(u)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


def projector_defect(p) -> float:
    """max(|P^2 - P| entrywise, hermiticity defect of P)."""
    a = _as_square(p)
    return max(float(np.max(np.abs(a @ a - a))), hermiticity_defect(a))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    values   -- eigenvalues, ascending (real, e.g. rad/us for a Hamiltonian)
    vectors  -- orthonormal eigenvectors as columns, phase-gauged
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """sum_k lambda_k |v_k><v_k|."""
        return (self.vectors * self.values) @ self.vectors.conj().T


def herm_eig(m) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises NonHermitianInput when ``m`` violates the Hermitian tolerance.
    Output is deterministic: ascending eigenvalues and a phase gauge making
    the largest component of each eigenvector real-positive.
    """
    a = _as_square(m)
    defect = hermiticity_defect(a)
    if defect > TOL.hermitian:
        raise NonHermitianInput(f"hermiticity defect {defect:.3e} exceeds {TOL.hermitian:.0e}")
    values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
    for k in range(vectors.shape[1]):
        _phase_gauge(vectors[:, k])
    return EigenSystem(values=values, vectors=vectors)


def _phase_gauge(col: np.ndarray) -> None:
    """Rotate a column's global phase in place so its largest component is real >= 0."""
    mags = np.abs(col)
    idx = 0
    best = -1.0
    for r, az in enumerate(mags.tolist()):
        if az > best + 1e-15:
            best = az
            idx = r
    if best == 0.0:
        return
    col *= col[idx].conjugate() / best
    col[idx] = best  # kill residual imaginary roundoff at the anchor


def unitary_exp(m, t: float):
    """exp(-1j*t*M) for Hermitian M, via the spectral decomposition.

    Exact up to eigensolver tolerance; the result passes the unitarity check.
    """
    eig = herm_eig(m)
    phases = np.exp(-1j * t * eig.values)
    return (eig.vectors * phases) @ eig.vectors.conj().T
