import numpy as np
import pytest

from quasiwork import model, propagate, qmath
from quasiwork.model import DriveParams, hamiltonian_rot
from quasiwork.propagate import propagator_closed, propagator_stepped

from conftest import random_drive


def test_closed_identity_at_zero(ref_params):
    res = propagator_closed(0.0, ref_params)
    assert res.method == "closed"
    assert np.max(np.abs(res.u - np.eye(3))) <= 1e-14


def test_stepped_identity_at_zero(ref_params):
    res = propagator_stepped(0.0, ref_params, 10)
    assert np.max(np.abs(res.u - np.eye(3))) == 0.0


def test_zero_ramp_reduces_to_static_exponential(rng):
    params = DriveParams(omega1=6.0, omega2=11.0, phi1=0.0, phi2=0.0)
    for _ in range(5):
        t = rng.uniform(0, 0.5)
        expected = qmath.unitary_exp(hamiltonian_rot(0.0, params), t)
        assert np.max(np.abs(propagator_closed(t, params).u - expected)) <= 1e-12


def test_closed_vs_stepped_reference(ref_params, ref_period):
    for frac in (0.21, 0.55, 1.0):
        t = frac * ref_period
        closed = propagator_closed(t, ref_params).u
        stepped = propagator_stepped(t, ref_params, 100_000).u
        assert np.linalg.norm(closed - stepped, "fro") <= 1e-6


def test_step_halving_quarters_error(ref_params, ref_period):
    t = 0.8 * ref_period
    closed = propagator_closed(t, ref_params).u
    err = [
        np.linalg.norm(closed - propagator_stepped(t, ref_params, n).u, "fro")
        for n in (2000, 4000, 8000)
    ]
    assert 3.0 <= err[0] / err[1] <= 5.0
    assert 3.0 <= err[1] / err[2] <= 5.0


def test_single_step_small_time_expansion(ref_params):
    # midpoint single-slice error is second order in t
    h0 = hamiltonian_rot(0.0, ref_params)
    norms = []
    for t in (1e-3, 5e-4, 2.5e-4):
        u = propagator_stepped(t, ref_params, 1).u
        norms.append(np.linalg.norm(u - (np.eye(3) - 1j * t * h0)))
    assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.2)
    assert norms[1] / norms[2] == pytest.approx(4.0, rel=0.2)


def test_unitarity_both_methods(rng):
    for _ in range(10):
        params = random_drive(rng)
        t = rng.uniform(0.01, 0.5)
        assert qmath.unitarity_defect(propagator_closed(t, params).u) <= 1e-9
        assert qmath.unitarity_defect(propagator_stepped(t, params, 512).u) <= 1e-9


def test_schroedinger_residual(rng):
    # closed form satisfies i dU/dt = H(t) U at 20 random (params, t) points
    delta = 1e-6
    for _ in range(20):
        params = random_drive(rng)
        t = rng.uniform(0.05, 0.6)
        lhs = (
            propagator_closed(t + delta, params).u - propagator_closed(t - delta, params).u
        ) / (2 * delta)
        rhs = -1j * hamiltonian_rot(t, params) @ propagator_closed(t, params).u
        assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1.0) <= 1e-6


def test_stepped_matches_explicit_product(rng):
    # n = 1 puts dt * W well above 1; odd and even n exercise both branches
    # of the pairwise folding in _ordered_product
    for _ in range(5):
        params = random_drive(rng)
        t = rng.uniform(0.05, 0.3)
        for n in (1, 7, 63, 64, 300):
            dt = t / n
            expected = np.eye(3, dtype=complex)
            for k in range(1, n + 1):
                step = qmath.unitary_exp(hamiltonian_rot((k - 0.5) * dt, params), dt)
                expected = step @ expected
            stepped = propagator_stepped(t, params, n).u
            assert np.max(np.abs(stepped - expected)) <= 1e-12


def test_stationary_state_probability_constant(ref_params, rng):
    # |E_0(0)> is an eigenvector of every H(t) for equal drives
    basis0 = model.energy_basis(0.0, ref_params)
    e0 = basis0.ket(1)
    for _ in range(10):
        t = rng.uniform(0.0, 0.6)
        for u in (
            propagator_closed(t, ref_params).u,
            propagator_stepped(t, ref_params, 700).u,
        ):
            assert abs(abs(np.vdot(e0, u @ e0)) ** 2 - 1.0) <= 1e-8


def test_eigenstate_mixture_projection_constant(ref_params, rng):
    # Tr[U rho U^dag Xi_0(t)] is t-independent for any t=0 eigenstate mixture
    basis0 = model.energy_basis(0.0, ref_params)
    w = rng.dirichlet([1, 1, 1])
    rho = sum(w[i] * basis0.projector(i) for i in range(3))
    values = []
    for t in np.linspace(0.0, 0.5, 9):
        u = propagator_closed(t, ref_params).u
        xi0 = model.energy_basis(t, ref_params).projector(1)
        values.append(np.trace(u @ rho @ u.conj().T @ xi0).real)
    assert np.max(np.abs(np.array(values) - values[0])) <= 1e-10


def test_closed_form_self_check_detects_wrong_generator(ref_params, monkeypatch):
    # the one-time factorization self-test must bite if the Hamiltonian and
    # the factorized propagator ever disagree
    monkeypatch.setattr(propagate, "_closed_form_validated", False)
    monkeypatch.setattr(
        propagate, "hamiltonian_rot", lambda t, p: np.eye(3, dtype=complex)
    )
    with pytest.raises(AssertionError):
        propagator_closed(0.1, ref_params)


def test_invalid_steps(ref_params):
    with pytest.raises(ValueError):
        propagator_stepped(0.1, ref_params, 0)


def test_method_labels(ref_params):
    assert propagator_stepped(0.1, ref_params, 37).method == "stepped(37)"
