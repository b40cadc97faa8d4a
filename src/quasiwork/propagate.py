"""Propagators for the time-dependent Hamiltonian, by two independent routes.

Closed form: the phase ramp is a frame rotation, H(t) = e^{-itD} H(0) e^{+itD}
with D = diag(phi1, 0, phi2), so the exact time-ordered exponential factorizes
as U(t) = e^{-itD} e^{-it H_tilde}.  This product is a derived identity, not a
definition, so the module self-checks it once per process against the
Schrodinger equation before trusting it.

Stepped form: a generic midpoint-sampled piecewise-constant product
U = prod_k exp(-i dt H(t_k)), t_k = (k - 1/2) dt, with O(dt^2) global error.
Each factor is exact: every H(t) has the spectrum (+W, 0, -W) with
W^2 = (omega1^2 + omega2^2)/2, so H^3 = W^2 H and

    exp(-i dt H) = I - i sin(dt W)/W H + (cos(dt W) - 1)/W^2 H^2.

The product never uses the frame factorization and serves as the
cross-validation oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DriveParams, _hamiltonian_stack, hamiltonian_rot, hamiltonian_tilde
from .qmath import herm_eig

__all__ = ["PropagatorResult", "propagator_closed", "frame_amplitudes", "propagator_stepped"]


@dataclass(frozen=True)
class PropagatorResult:
    """Unitary U(t) together with the method that produced it."""

    t: float
    u: np.ndarray
    method: str


_closed_form_validated = False


def _validate_closed_form() -> None:
    """One-time check of the factorized propagator against the Schrodinger ODE.

    Uses a central difference (U(t+d) - U(t-d))/(2d) ~ -i H(t) U(t) at three
    fixed pseudo-random (params, t) points; O(d^2) residual tolerance.
    """
    global _closed_form_validated
    if _closed_form_validated:
        return
    _closed_form_validated = True  # set first; _closed_u below must not recurse
    rng = np.random.default_rng(0x5EEDED)
    delta = 1e-6
    for _ in range(3):
        params = DriveParams(
            omega1=rng.uniform(5.0, 30.0),
            omega2=rng.uniform(5.0, 30.0),
            phi1=rng.uniform(-40.0, 40.0),
            phi2=rng.uniform(-40.0, 40.0),
        )
        t = rng.uniform(0.05, 0.5)
        lhs = (_closed_u(t + delta, params) - _closed_u(t - delta, params)) / (2 * delta)
        rhs = -1j * hamiltonian_rot(t, params) @ _closed_u(t, params)
        scale = max(np.linalg.norm(rhs), 1.0)
        if np.linalg.norm(lhs - rhs) / scale > 1e-6:
            _closed_form_validated = False
            raise AssertionError(
                "closed-form propagator failed its Schrodinger self-test; "
                "the frame factorization does not match the Hamiltonian"
            )


@lru_cache(maxsize=256)
def _tilde_eig(params: DriveParams):
    return herm_eig(hamiltonian_tilde(params))


def _closed_u(t: float, params: DriveParams) -> np.ndarray:
    d_phases = np.exp(-1j * t * np.array([params.phi1, 0.0, params.phi2]))
    eig = _tilde_eig(params)
    w = (eig.vectors * np.exp(-1j * t * eig.values)) @ eig.vectors.conj().T
    return d_phases[:, None] * w  # e^{-itD} is diagonal; row-scale


def propagator_closed(t: float, params: DriveParams) -> PropagatorResult:
    """Exact propagator U(t) = e^{-itD} e^{-it H_tilde}."""
    _validate_closed_form()
    return PropagatorResult(t=t, u=_closed_u(t, params), method="closed")


def frame_amplitudes(a: np.ndarray, values: np.ndarray, times, b: np.ndarray) -> np.ndarray:
    """a e^{-it diag(values)} b at every t of ``times``, shape (n, a rows, b columns).

    The amplitude kernel of the figure series; the identity behind it is in
    the ``schemes`` module docstring.
    """
    phases = np.exp(-1j * np.outer(times, values))
    return (a * phases[:, None, :]) @ b


def propagator_stepped(t: float, params: DriveParams, n_steps: int) -> PropagatorResult:
    """Midpoint-sampled time-ordered product over n_steps equal slices."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if t == 0.0:
        return PropagatorResult(t=0.0, u=np.eye(3, dtype=np.complex128), method=f"stepped({n_steps})")
    dt = t / n_steps
    omega = math.sqrt(0.5 * (params.omega1**2 + params.omega2**2))
    c1 = -1j * math.sin(dt * omega) / omega
    c2 = -2.0 * (math.sin(0.5 * dt * omega) / omega) ** 2  # cos - 1 without cancellation
    eye = np.eye(3, dtype=np.complex128)
    u = eye
    chunk = 1 << 15
    for start in range(0, n_steps, chunk):
        stop = min(start + chunk, n_steps)
        times = (np.arange(start, stop, dtype=np.float64) + 0.5) * dt
        h = _hamiltonian_stack(times, params.omega1, params.omega2, params.phi1, params.phi2)
        steps = eye + c1 * h + c2 * np.matmul(h, h)
        u = _ordered_product(steps) @ u
    return PropagatorResult(t=t, u=u, method=f"stepped({n_steps})")


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """prod_{k=n..1} mats[k-1] (later steps left-multiply) by pairwise folding."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        even = mats[0 : m - (m % 2) : 2]
        odd = mats[1 : m - (m % 2) + 1 : 2]
        folded = np.matmul(odd, even)
        if m % 2:
            folded = np.concatenate([folded, mats[-1:]], axis=0)
        mats = folded
    return mats[0]
