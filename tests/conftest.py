import dataclasses

import numpy as np
import pytest

from quasiwork import explore, model, propagate, schemes

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Transition spin operators in the (|+1>, |0>, |-1>) ordering: Sx/Sy are the
# Gell-Mann matrices lambda1, lambda2 (upper) and lambda6, lambda7 (lower)
# over sqrt2; Sz1 = |+1><+1|, Sz2 = -|-1><-1|.
SPIN_OPS = {
    "Sx1": _INV_SQRT2 * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.complex128),
    "Sy1": _INV_SQRT2 * np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=np.complex128),
    "Sx2": _INV_SQRT2 * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.complex128),
    "Sy2": _INV_SQRT2 * np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=np.complex128),
    "Sz1": np.diag([1.0, 0.0, 0.0]).astype(np.complex128),
    "Sz2": np.diag([0.0, 0.0, -1.0]).astype(np.complex128),
}


def random_hermitian(rng, scale=1.0):
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return scale * (x + x.conj().T)


def random_pure_density(rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_drive(rng):
    return model.DriveParams(
        omega1=rng.uniform(5.0, 60.0),
        omega2=rng.uniform(5.0, 60.0),
        phi1=rng.uniform(-80.0, 80.0),
        phi2=rng.uniform(-80.0, 80.0),
    )


def drive_rows(params):
    """DriveParams as the (n, 4) rows (omega1, omega2, phi1, phi2) that the sweep kernel takes."""
    return np.array([(p.omega1, p.omega2, p.phi1, p.phi2) for p in params])


def twin_variants(params):
    """The two equal-ramp twins of a drive: phi2 := phi1, then phi1 := phi2."""
    return (dataclasses.replace(params, phi2=params.phi1), dataclasses.replace(params, phi1=params.phi2))


def epm_table(rho, t, params):
    """End-point distribution p_end[f] = Tr[U rho U^dag Xi_f(t)]; rho may be mixed."""
    u = propagate.propagator_closed(t, params).u
    vectors = model.energy_basis(t, params).vectors
    evolved = u @ np.asarray(rho, dtype=np.complex128) @ u.conj().T
    return np.diagonal(vectors.conj().T @ evolved @ vectors).real.copy()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def ref_params():
    return model.reference_params()


@pytest.fixture(scope="session")
def ref_spec():
    return model.reference_state_spec()


@pytest.fixture(scope="session")
def ref_rho(ref_params, ref_spec):
    return model.initial_state(ref_spec, model.energy_basis(0.0, ref_params))


@pytest.fixture(scope="session")
def ref_period(ref_params):
    return explore.time_window(ref_params)


@pytest.fixture(scope="session")
def ref_grid_data(ref_params, ref_rho, ref_period):
    """One pass over the 400-point (0, T] grid: tables, z, q per time."""
    n = 400
    times = np.linspace(ref_period / n, ref_period, n)
    series = schemes.scheme_series(ref_rho, times, ref_params)
    tables = [series.at(k) for k in range(n)]
    quasis = [schemes.kdq_direct(ref_rho, float(t), ref_params) for t in times]
    return times, tables, quasis
