import numpy as np
import pytest

from quasiwork import model, qmath
from quasiwork.model import (
    DriveParams,
    InitialStateSpec,
    InvalidSpec,
    energy_basis,
    hamiltonian_rot,
    hamiltonian_tilde,
    initial_state,
    state_vector,
)

from conftest import SPIN_OPS, random_drive

SQRT2 = np.sqrt(2.0)


def test_spin_ops():
    assert SPIN_OPS["Sx1"][0, 1] == pytest.approx(1.0 / SQRT2)
    for name in ("Sx1", "Sy1", "Sx2", "Sy2"):
        s = SPIN_OPS[name]
        assert qmath.hermiticity_defect(s) == 0.0
        assert abs(np.trace(s)) == 0.0
        assert abs(np.trace(s @ s) - 1.0) <= 1e-15
    assert np.array_equal(SPIN_OPS["Sz2"], np.diag([0.0, 0.0, -1.0]))
    assert np.array_equal(SPIN_OPS["Sz1"], np.diag([1.0, 0.0, 0.0]))
    comm = SPIN_OPS["Sx1"] @ SPIN_OPS["Sy1"] - SPIN_OPS["Sy1"] @ SPIN_OPS["Sx1"]
    assert np.allclose(comm, 1j * np.diag([1.0, -1.0, 0.0]), atol=1e-15)


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(omega1=0.0, omega2=1.0, phi1=0.0, phi2=0.0)
    with pytest.raises(ValueError):
        DriveParams(omega1=1.0, omega2=-2.0, phi1=0.0, phi2=0.0)
    with pytest.raises(ValueError):
        DriveParams(omega1=np.inf, omega2=1.0, phi1=0.0, phi2=0.0)
    with pytest.raises(ValueError, match="drive parameters must be finite"):
        DriveParams(omega1=1.0, omega2=1.0, phi1=float("nan"), phi2=0.0)
    with pytest.raises(ValueError, match="drive parameters must be finite"):
        DriveParams(omega1=1.0, omega2=1.0, phi1=0.0, phi2=np.float64(-np.inf))
    with pytest.raises(TypeError):
        DriveParams(omega1=1.0, omega2="2.0", phi1=0.0, phi2=0.0)
    with pytest.raises(TypeError):
        DriveParams(omega1=1.0, omega2=1.0, phi1=None, phi2=0.0)


def test_hamiltonian_rot_t0_equal_drive():
    omega = 7.3
    params = DriveParams.equal_drive(omega, 2.0)
    expected = (omega / SQRT2) * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.allclose(hamiltonian_rot(0.0, params), expected, atol=1e-15)


def test_hamiltonian_rot_entries():
    params = DriveParams(omega1=3.0, omega2=5.0, phi1=1.7, phi2=-0.9)
    t = 0.43
    h = hamiltonian_rot(t, params)
    assert h[0, 1] == pytest.approx((3.0 / SQRT2) * np.exp(-1j * 1.7 * t))
    assert h[2, 1] == pytest.approx((5.0 / SQRT2) * np.exp(-1j * -0.9 * t))
    assert np.all(np.diagonal(h) == 0.0)
    assert qmath.hermiticity_defect(h) <= 1e-16


def test_hamiltonian_rot_conjugation_identity(rng):
    # H(t) = e^{-itD} H(0) e^{+itD} with D = diag(phi1, 0, phi2)
    for _ in range(25):
        params = random_drive(rng)
        t = rng.uniform(-1.0, 1.0)
        d = np.array([params.phi1, 0.0, params.phi2])
        u_d = np.diag(np.exp(-1j * t * d))
        expected = u_d @ hamiltonian_rot(0.0, params) @ u_d.conj().T
        assert np.max(np.abs(hamiltonian_rot(t, params) - expected)) <= 1e-12


def test_hamiltonian_tilde_zero_ramp():
    params = DriveParams(omega1=4.0, omega2=9.0, phi1=0.0, phi2=0.0)
    assert np.array_equal(hamiltonian_tilde(params), hamiltonian_rot(0.0, params))


def test_hamiltonian_tilde_diagonal():
    params = DriveParams(omega1=4.0, omega2=9.0, phi1=1.25, phi2=-3.5)
    assert np.allclose(np.diagonal(hamiltonian_tilde(params)), [-1.25, 0.0, 3.5])


def test_hamiltonian_tilde_spin_operator_form(rng):
    for _ in range(10):
        params = random_drive(rng)
        built = (
            params.omega1 * SPIN_OPS["Sx1"]
            - params.phi1 * SPIN_OPS["Sz1"]
            + params.omega2 * SPIN_OPS["Sx2"]
            + params.phi2 * SPIN_OPS["Sz2"]
        )
        assert np.max(np.abs(hamiltonian_tilde(params) - built)) <= 1e-14


def test_hamiltonian_tilde_characteristic_polynomial(rng):
    # cubic det(H - x I) = -x^3 + c2 x^2 + c1 x + c0; roots are the spectrum
    for _ in range(20):
        params = random_drive(rng)
        h = hamiltonian_tilde(params)
        c2 = np.trace(h).real
        c1 = -0.5 * (np.trace(h).real ** 2 - np.trace(h @ h).real)
        c0 = np.linalg.det(h).real
        roots = np.sort(np.roots([-1.0, c2, c1, c0]).real)
        assert np.allclose(roots, qmath.herm_eig(h).values, atol=1e-8)


def test_energy_basis_labels_descending(rng):
    for _ in range(10):
        params = random_drive(rng)
        basis = energy_basis(rng.uniform(0, 1), params)
        assert basis.energies[0] > basis.energies[1] > basis.energies[2]
        omega_eff = np.sqrt(0.5 * (params.omega1**2 + params.omega2**2))
        assert np.allclose(basis.energies, [omega_eff, 0.0, -omega_eff], atol=1e-10)


def test_energy_basis_stationary_projector():
    params = model.reference_params()
    expected = 0.5 * np.array([[1, 0, -1], [0, 0, 0], [-1, 0, 1]], dtype=complex)
    for t in (0.0, 0.07, 0.19, 1.3):
        basis = energy_basis(t, params)
        assert np.max(np.abs(basis.projector(1) - expected)) <= 1e-10


def test_energy_basis_completeness(rng):
    for _ in range(25):
        params = random_drive(rng)
        basis = energy_basis(rng.uniform(0, 1), params)
        assert np.max(np.abs(sum(basis.projectors) - np.eye(3))) <= 1e-10
        for k in range(3):
            for l in range(3):
                prod = basis.projector(k) @ basis.projector(l)
                target = basis.projector(k) if k == l else np.zeros((3, 3))
                assert np.max(np.abs(prod - target)) <= 1e-10


def test_energy_basis_projector_energies(rng):
    for _ in range(25):
        params = random_drive(rng)
        t = rng.uniform(0, 1)
        basis = energy_basis(t, params)
        h = hamiltonian_rot(t, params)
        for k in range(3):
            assert abs(np.trace(basis.projector(k) @ h).real - basis.energies[k]) <= 1e-9


def test_energy_basis0_is_cached_and_read_only(rng, monkeypatch):
    from quasiwork import schemes

    params = random_drive(rng)
    ket = energy_basis(0.0, params).ket(0)
    rho = np.outer(ket, ket.conj())
    calls = []
    real = model.energy_basis
    monkeypatch.setattr(model, "energy_basis", lambda t, p: calls.append(t) or real(t, p))
    monkeypatch.setattr(schemes, "energy_basis", model.energy_basis)
    model._energy_basis0.cache_clear()
    for t in (0.1, 0.2, 0.3):
        schemes.kdq_direct(rho, t, params)
        schemes.tpm_table(rho, t, params)
    assert calls.count(0.0) == 1  # H(0) is diagonalized once for the drive
    basis = model._energy_basis0(DriveParams(params.omega1, params.omega2, params.phi1, params.phi2))
    fresh = real(0.0, params)
    assert np.array_equal(basis.vectors, fresh.vectors)
    assert np.array_equal(basis.energies, fresh.energies)
    for arr in (basis.energies, basis.vectors, *basis.projectors):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_equal_drive_eigenvector_residuals(rng):
    # the +- eigenvectors are (1, +-sqrt2 e^{i phi t}, 1)/2 at every instant
    omega, phi = 13.9, 15.1
    params = DriveParams.equal_drive(omega, phi)
    for _ in range(20):
        t = rng.uniform(0, 1)
        h = hamiltonian_rot(t, params)
        for sign in (+1.0, -1.0):
            v = 0.5 * np.array([1.0, sign * SQRT2 * np.exp(1j * phi * t), 1.0])
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(h @ v - sign * omega * v) <= 1e-10


def test_hamiltonian_periodicity(rng):
    for _ in range(10):
        omega = rng.uniform(3, 30)
        phi = rng.uniform(0.5, 30)
        params = DriveParams.equal_drive(omega, phi)
        t = rng.uniform(0, 1)
        period = 2 * np.pi / phi
        diff = hamiltonian_rot(t + period, params) - hamiltonian_rot(t, params)
        assert np.max(np.abs(diff)) <= 1e-10


def test_initial_state_single_component():
    params = model.reference_params()
    basis0 = energy_basis(0.0, params)
    spec = InitialStateSpec(weights=(1.0, 0.0, 0.0), phases=(0.4, 1.1, 2.2))
    rho = initial_state(spec, basis0)
    assert np.max(np.abs(rho - basis0.projector(0))) <= 1e-12


def test_initial_state_reference_population(ref_rho, ref_params):
    basis0 = energy_basis(0.0, ref_params)
    p_minus = np.trace(ref_rho @ basis0.projector(2)).real
    assert p_minus == pytest.approx(0.2338 / 1.0001, abs=1e-10)


def test_initial_state_tomography(ref_rho, ref_params, ref_spec):
    basis0 = energy_basis(0.0, ref_params)
    gauge = model._amplitude_gauge(basis0.vectors)
    rho_e = gauge.conj().T @ ref_rho @ gauge
    p = ref_spec.normalized_weights
    assert np.allclose(np.diagonal(rho_e).real, p, atol=1e-10)
    for i in range(3):
        for f in range(3):
            assert abs(rho_e[i, f]) == pytest.approx(np.sqrt(p[i] * p[f]), abs=1e-10)


def test_amplitude_gauge_anchors_a_small_minus_one_component():
    # omega2 << omega1: the +/- eigenvectors' |-1> components are only 7.1e-4,
    # yet they still anchor the gauge of every column
    vectors = energy_basis(0.0, DriveParams(10.0, 0.01, 3.0, -2.0)).vectors
    anchors = model._amplitude_gauge(vectors)[2]
    assert np.all(anchors.imag == 0.0) and np.all(anchors.real > 0.0)


def test_initial_state_purity_and_trace(rng):
    for _ in range(20):
        params = random_drive(rng)
        basis0 = energy_basis(0.0, params)
        spec = InitialStateSpec(
            weights=tuple(rng.dirichlet([1, 1, 1])), phases=tuple(rng.uniform(0, 2 * np.pi, 3))
        )
        rho = initial_state(spec, basis0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
        for i in range(3):
            p_i = np.trace(rho @ basis0.projector(i)).real
            assert p_i == pytest.approx(spec.normalized_weights[i], abs=1e-10)


def test_initial_state_renormalization(ref_spec):
    assert ref_spec.raw_weight_sum == pytest.approx(1.0001)
    assert ref_spec.normalized_weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_invalid_spec():
    with pytest.raises(InvalidSpec):
        InitialStateSpec(weights=(-0.1, 0.6, 0.5), phases=(0, 0, 0))
    with pytest.raises(InvalidSpec):
        InitialStateSpec(weights=(0.0, 0.0, 0.0), phases=(0, 0, 0))
    with pytest.raises(InvalidSpec):
        InitialStateSpec(weights=(np.nan, 0.5, 0.5), phases=(0, 0, 0))


def test_state_vector_unit_norm(rng):
    params = random_drive(rng)
    basis0 = energy_basis(0.0, params)
    spec = InitialStateSpec(
        weights=tuple(rng.dirichlet([1, 1, 1])), phases=tuple(rng.uniform(0, 2 * np.pi, 3))
    )
    assert np.linalg.norm(state_vector(spec, basis0)) == pytest.approx(1.0, abs=1e-12)
