import numpy as np
import pytest

from quasiwork import explore, model, schemes


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
