"""Physical objects of the driven three-level system.

Basis conventions (global, all modules agree):

* Matrix indices (0, 1, 2) are the bare states (|+1>, |0>, |-1>).
* Energy labels (+, 0, -) index rows/columns of every joint table, ordered by
  descending instantaneous eigenvalue, so the (-,+) transition lives at table
  cell [2][0].

Units: hbar = 1, angular frequencies in rad/us, time in us.  A drive quoted
as an ordinary frequency nu in MHz enters as 2*pi*nu rad/us (handled at the
config boundary, never here).

The system is a qutrit driven on both the (|+1>,|0>) and (|0>,|-1>)
transitions with linearly ramping drive phases.  In the drive rotating frame

    H(t) = w1*(Sx1*cos(f1*t) + Sy1*sin(f1*t)) + w2*(Sx2*cos(f2*t) - Sy2*sin(f2*t)),

which is also e^{-i t D} H(0) e^{+i t D} with D = diag(f1, 0, f2).  A further
frame change makes the generator time independent:

    H_tilde = w1*Sx1 + w2*Sx2 - f1*|+1><+1| - f2*|-1><-1|.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qmath import herm_eig

__all__ = [
    "ENERGY_LABELS",
    "DriveParams",
    "InitialStateSpec",
    "EnergyBasis",
    "InvalidSpec",
    "hamiltonian_rot",
    "hamiltonian_tilde",
    "omega_eff",
    "energy_basis",
    "initial_state",
    "state_vector",
    "reference_params",
    "reference_state_spec",
]

log = logging.getLogger(__name__)

# Table index -> energy label; fixed ordering (+, 0, -), descending energy.
ENERGY_LABELS = ("+", "0", "-")


class InvalidSpec(ValueError):
    """Initial-state specification violates its invariants."""


@dataclass(frozen=True)
class DriveParams:
    """Drive amplitudes and phase ramp rates, all in rad/us.

    omega1, phi1 act on the (|+1>, |0>) transition; omega2, phi2 on
    (|0>, |-1>).  Amplitudes must be strictly positive.
    """

    omega1: float
    omega2: float
    phi1: float
    phi2: float

    def __post_init__(self):
        vals = (self.omega1, self.omega2, self.phi1, self.phi2)
        if not all(math.isfinite(v) for v in vals):  # TypeError for a non-number
            raise ValueError(f"drive parameters must be finite, got {vals}")
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("drive amplitudes omega1, omega2 must be positive")

    @classmethod
    def equal_drive(cls, omega: float, phi: float) -> "DriveParams":
        return cls(omega1=omega, omega2=omega, phi1=phi, phi2=phi)


def hamiltonian_rot(t: float, params: DriveParams) -> np.ndarray:
    """Rotating-frame Hamiltonian H(t), rad/us.

    Entry (0,1) is (omega1/sqrt2) e^{-i phi1 t}, entry (2,1) is
    (omega2/sqrt2) e^{-i phi2 t}; the diagonal vanishes.
    """
    return _hamiltonian_stack(t, params.omega1, params.omega2, params.phi1, params.phi2)


def _hamiltonian_stack(t, omega1, omega2, phi1, phi2) -> np.ndarray:
    """H(t) of ``hamiltonian_rot`` for arguments broadcast together, shape (..., 3, 3)."""
    a = (omega1 / np.sqrt(2.0)) * np.exp(-1j * phi1 * t)
    b = (omega2 / np.sqrt(2.0)) * np.exp(-1j * phi2 * t)
    h = np.zeros((*np.broadcast(a, b).shape, 3, 3), dtype=np.complex128)
    h[..., 0, 1], h[..., 1, 0], h[..., 2, 1], h[..., 1, 2] = a, np.conj(a), b, np.conj(b)
    return h


def hamiltonian_tilde(params: DriveParams) -> np.ndarray:
    """Time-independent Hamiltonian of the co-ramping frame.

    H_tilde = omega1*Sx1 - phi1*Sz1 + omega2*Sx2 + phi2*Sz2, i.e. H(0) with
    the phase ramp rates subtracted on the diagonal: diag(-phi1, 0, -phi2).
    """
    return _tilde_stack(params.omega1, params.omega2, params.phi1, params.phi2)


def _tilde_stack(omega1, omega2, phi1, phi2) -> np.ndarray:
    """H_tilde of ``hamiltonian_tilde`` for arguments broadcast together, shape (..., 3, 3)."""
    h = _hamiltonian_stack(0.0, omega1, omega2, phi1, phi2)
    h[..., 0, 0], h[..., 2, 2] = -phi1, -phi2
    return h


def omega_eff(omega1: float, omega2: float) -> float:
    """Ladder spacing sqrt((omega1^2 + omega2^2)/2), the W of the spectrum (+W, 0, -W).

    Python floats only: their ``x**2`` is libm pow, at times an ulp off numpy's x*x.
    """
    return math.sqrt(0.5 * (omega1**2 + omega2**2))


@dataclass(frozen=True)
class EnergyBasis:
    """Instantaneous eigensystem of H(t), labelled (+, 0, -) by descending energy.

    energies[k] is E_k(t) in rad/us and projectors[k] the rank-1 spectral
    projector onto |E_k(t)>.  ``vectors`` keeps the gauge-fixed eigenvector
    columns in the same label order (needed for gate construction).
    """

    t: float
    energies: np.ndarray
    vectors: np.ndarray
    projectors: tuple[np.ndarray, ...] = field(repr=False)

    def projector(self, k: int) -> np.ndarray:
        return self.projectors[k]

    def ket(self, k: int) -> np.ndarray:
        return self.vectors[:, k].copy()


def energy_basis(t: float, params: DriveParams) -> EnergyBasis:
    """Diagonalize H(t) and repackage with (+, 0, -) labels.

    The spectrum is always (+W, 0, -W) with W = ``omega_eff`` > 0, so the
    labels never collide.
    """
    eig = herm_eig(hamiltonian_rot(t, params))
    # ascending -> descending = (+, 0, -) labels; copied to C order for the matmuls
    energies = eig.values[::-1].copy()
    vectors = eig.vectors[:, ::-1].copy()
    projectors = tuple(np.outer(vectors[:, k], vectors[:, k].conj()) for k in range(3))
    return EnergyBasis(t=t, energies=energies, vectors=vectors, projectors=projectors)


@lru_cache(maxsize=256)
def _energy_basis0(params: DriveParams) -> EnergyBasis:
    """``energy_basis(0.0, params)``, diagonalized once per drive; its arrays are read-only."""
    basis = energy_basis(0.0, params)
    for arr in (basis.energies, basis.vectors, *basis.projectors):
        arr.flags.writeable = False
    return basis


@dataclass(frozen=True)
class InitialStateSpec:
    """Pure state written in the t=0 energy basis.

    weights[i] are squared amplitudes on |E_i(0)| for labels (+, 0, -);
    phases[i] are amplitude phases in radians.  Weights are renormalized to
    sum to one at construction; raw values are kept for logging/metadata.

    The amplitudes multiply eigenvectors in a fixed gauge (see
    ``state_vector``), so a (weights, phases) pair identifies one physical
    state, not a gauge orbit.
    """

    weights: tuple[float, float, float]
    phases: tuple[float, float, float]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        a = np.asarray(self.phases, dtype=float)
        if w.shape != (3,) or a.shape != (3,):
            raise InvalidSpec("need exactly three weights and three phases")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a))):
            raise InvalidSpec("weights/phases must be finite")
        if np.any(w < 0):
            raise InvalidSpec(f"negative weight in {self.weights}")
        if w.sum() <= 0:
            raise InvalidSpec("weights sum to zero")

    @property
    def normalized_weights(self) -> np.ndarray:
        w = np.asarray(self.weights, dtype=float)
        return w / w.sum()

    @property
    def raw_weight_sum(self) -> float:
        return float(np.sum(self.weights))


def _amplitude_gauge(vectors: np.ndarray) -> np.ndarray:
    """Re-phase eigenvector columns for amplitude specifications.

    Each column is rotated so its |-1> component is real and positive; a
    column whose |-1> component is exactly zero keeps the eigensolver's
    gauge.  The convention matches the textbook form of the equal-drive
    eigenstates (1, +-sqrt2, 1)/2 and (-1, 0, 1)/sqrt2, which is what the
    reference state phases were calibrated against.  The eigensolver's own
    gauge (largest component positive) would flip two of the three columns
    and silently change the encoded state.
    """
    z = vectors[2]
    return vectors * np.divide(z.conj(), np.abs(z), out=np.ones_like(z), where=z != 0)


def state_vector(spec: InitialStateSpec, basis0: EnergyBasis) -> np.ndarray:
    """|xi> = sum_i sqrt(p_i) e^{i a_i} |E_i(0)>, unit norm.

    The basis vectors enter in the amplitude gauge (see ``_amplitude_gauge``).
    """
    p = spec.normalized_weights
    amps = np.sqrt(p) * np.exp(1j * np.asarray(spec.phases))
    return _amplitude_gauge(basis0.vectors) @ amps


def initial_state(spec: InitialStateSpec, basis0: EnergyBasis) -> np.ndarray:
    """Density matrix |xi><xi| of the specified pure state."""
    if abs(spec.raw_weight_sum - 1.0) > 1e-12:
        log.info(
            "initial-state weights sum to %.6g; renormalizing", spec.raw_weight_sum
        )
    xi = state_vector(spec, basis0)
    return np.outer(xi, xi.conj())


# Reference operating point used by the bundled configs: equal-amplitude
# 2.219 MHz drives (angular: 2*pi*2.219 rad/us) with ramp rate 1.09x the
# amplitude, and an initial state tuned to make the (-,+) cell go negative.
REFERENCE_OMEGA = 2.0 * np.pi * 2.219
REFERENCE_PHI = 1.09 * REFERENCE_OMEGA
REFERENCE_STATE_WEIGHTS = (0.7654, 0.0009, 0.2338)
REFERENCE_STATE_PHASES = (0.0073, 0.2787, 0.0002)


def reference_params() -> DriveParams:
    """Drive point of the reference configuration (equal drives)."""
    return DriveParams.equal_drive(REFERENCE_OMEGA, REFERENCE_PHI)


def reference_state_spec() -> InitialStateSpec:
    """Reference initial pure state (raw weights sum to 1.0001)."""
    return InitialStateSpec(weights=REFERENCE_STATE_WEIGHTS, phases=REFERENCE_STATE_PHASES)
