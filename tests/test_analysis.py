import numpy as np
import pytest

from quasiwork import model, schemes
from quasiwork.analysis import (
    NEGATIVITY_BOUND,
    DegenerateTable,
    avg_work_mhq,
    avg_work_tpm,
    classical_decomposition,
    negativity,
    s_stat,
    total_negativity,
)
from quasiwork.propagate import propagator_closed
from quasiwork.schemes import QuasiTable, kdq_direct, mhq_reconstruct, scheme_tables

from conftest import random_drive, random_pure_density


def _table(z, e=None):
    e = np.array([1.0, 0.0, -1.0]) if e is None else np.asarray(e)
    return QuasiTable(t=0.0, z=np.asarray(z, dtype=float), e_init=e, e_final=e)


def test_negativity_zero_for_distribution(ref_rho, ref_params):
    q = kdq_direct(ref_rho, 0.0, ref_params)
    assert abs(negativity(q)) <= 1e-9
    assert abs(total_negativity(q.z) - 1.0) <= 1e-9


def test_negativity_bound_on_system_tables(ref_grid_data):
    _, _, quasis = ref_grid_data
    for q in quasis:
        assert negativity(q) <= NEGATIVITY_BOUND + 1e-9
        assert total_negativity(q.z) - 1.0 <= NEGATIVITY_BOUND + 1e-9


def test_negativity_complex_vs_real_dispatch(ref_rho, ref_params, ref_period):
    q = kdq_direct(ref_rho, 0.4 * ref_period, ref_params)
    real_only = QuasiTable(t=q.t, z=q.z, e_init=q.e_init, e_final=q.e_final)
    assert negativity(q) >= negativity(real_only) - 1e-12
    assert negativity(real_only) == pytest.approx(total_negativity(q.z) - 1.0)


def test_total_negativity_arithmetic():
    z = np.zeros((3, 3))
    z[0, 0], z[1, 1], z[2, 2] = 0.5, 0.3, 0.2
    assert total_negativity(z) == pytest.approx(1.0)
    z2 = np.zeros((3, 3))
    z2[0, 0], z2[1, 1], z2[2, 0] = 0.6, 0.5, -0.1
    assert total_negativity(z2) == pytest.approx(1.2)


def test_negativity_consistency_with_total(ref_grid_data):
    _, _, quasis = ref_grid_data
    for q in quasis[::25]:
        aleph_z = total_negativity(q.z) - 1.0
        assert aleph_z == pytest.approx(negativity(_table(q.z)), abs=1e-12)


def test_classical_decomposition_positive_table():
    p = np.array([[0.25, 0.1, 0.05], [0.2, 0.1, 0.1], [0.05, 0.05, 0.1]])
    dec = classical_decomposition(_table(p))
    assert np.all(dec.signs == 1.0)
    assert dec.z_norm == pytest.approx(1.0)
    assert np.allclose(dec.mu, p)


def test_classical_decomposition_reference_sign_flip(ref_rho, ref_params, ref_period):
    # at the most negative (-,+) time the cell's contribution turns negative
    # although the bare transition energy E_+ - E_- = 2 Omega is positive
    q = kdq_direct(ref_rho, 0.5 * ref_period, ref_params)
    assert q.z[2, 0] < 0.0
    dec = classical_decomposition(q)
    assert dec.signs[2, 0] == -1.0
    term = dec.mu[2, 0] * (dec.e_final_eff[2, 0] - dec.e_init_eff[2, 0])
    assert term < 0.0
    assert q.e_final[0] - q.e_init[2] == pytest.approx(2.0 * ref_params.omega1, abs=1e-9)


def test_classical_decomposition_identity(rng):
    # mu * ||z|| * sign reproduces z and the work sum matches exactly
    for _ in range(200):
        z = rng.normal(size=(3, 3))
        e0 = np.sort(rng.normal(size=3))[::-1]
        e1 = np.sort(rng.normal(size=3))[::-1]
        table = QuasiTable(t=0.0, z=z, e_init=e0, e_final=e1)
        dec = classical_decomposition(table)
        assert np.max(np.abs(dec.mu * dec.z_norm * dec.signs - z)) <= 1e-12
        assert abs(dec.mu.sum() - 1.0) <= 1e-12
        assert dec.average_work() == pytest.approx(avg_work_mhq(table), abs=1e-12)


def test_classical_decomposition_degenerate():
    with pytest.raises(DegenerateTable):
        classical_decomposition(_table(np.zeros((3, 3))))


def test_avg_work_zero_at_t0(ref_rho, ref_params):
    assert avg_work_mhq(kdq_direct(ref_rho, 0.0, ref_params)) == pytest.approx(0.0, abs=1e-10)
    assert avg_work_tpm(scheme_tables(ref_rho, 0.0, ref_params)) == pytest.approx(0.0, abs=1e-10)


def test_avg_work_two_point_identity(rng):
    # <W> = Tr[U rho U^dag H(t)] - Tr[rho H(0)] on 500 random cases
    for _ in range(500):
        params = random_drive(rng)
        rho = random_pure_density(rng)
        t = rng.uniform(0, 0.5)
        q = kdq_direct(rho, t, params)
        u = propagator_closed(t, params).u
        expected = (
            np.trace(u @ rho @ u.conj().T @ model.hamiltonian_rot(t, params)).real
            - np.trace(rho @ model.hamiltonian_rot(0.0, params)).real
        )
        assert avg_work_mhq(q) == pytest.approx(expected, abs=1e-10)
        dec = classical_decomposition(q)
        assert dec.average_work() == pytest.approx(expected, abs=1e-10)


def test_avg_work_commuting_state(rng):
    params = random_drive(rng)
    basis0 = model.energy_basis(0.0, params)
    w = rng.dirichlet([1, 1, 1])
    rho = sum(w[i] * basis0.projector(i) for i in range(3))
    for t in (0.1, 0.3):
        q = kdq_direct(rho, t, params)
        tab_tpm = schemes.tpm_table(rho, t, params)
        basis_t = model.energy_basis(t, params)
        w_tpm = float(np.sum(tab_tpm * (basis_t.energies[None, :] - basis0.energies[:, None])))
        assert avg_work_mhq(q) == pytest.approx(w_tpm, abs=1e-12)


def test_avg_work_tpm_single_transition():
    omega = 5.0
    e = np.array([omega, 0.0, -omega])
    cond = np.eye(3)[[2, 1, 0]]  # + -> -, 0 -> 0, - -> +
    tables = schemes.SchemeTables(
        t=1.0,
        cond=cond,
        cond_bar=np.zeros((3, 3)),
        p_end=np.array([0.0, 0.0, 1.0]),
        p_init=np.array([1.0, 0.0, 0.0]),  # starts in + with certainty
        e_init=e,
        e_final=e,
    )
    p_tpm = np.zeros((3, 3))
    p_tpm[0, 2] = 1.0  # + -> - with certainty
    assert np.array_equal(tables.p_tpm, p_tpm)
    assert avg_work_tpm(tables) == pytest.approx(-2.0 * omega)


def test_avg_work_tpm_bounded(ref_rho, ref_params, ref_grid_data):
    _, tables, _ = ref_grid_data
    bound = 2.0 * ref_params.omega1 + 1e-9
    for tab in tables[::20]:
        assert abs(avg_work_tpm(tab)) <= bound


def test_s_stat_reference_constant(ref_grid_data, ref_spec):
    expected = float(np.sum(ref_spec.normalized_weights[:2]))
    _, _, quasis = ref_grid_data
    values = [s_stat(q.z) for q in quasis]
    assert np.max(np.abs(np.array(values) - expected)) <= 1e-10
    assert expected == pytest.approx((0.7654 + 0.0009) / 1.0001, abs=1e-12)
    assert 0.770 - 0.021 <= expected <= 0.770 + 0.021


def test_s_stat_lowest_eigenstate(ref_params):
    basis0 = model.energy_basis(0.0, ref_params)
    q = kdq_direct(basis0.projector(2), 0.2, ref_params)
    assert s_stat(q.z) == pytest.approx(0.0, abs=1e-12)


def test_s_stat_noisefree_under_sampling(ref_rho, ref_params):
    # sampled frequencies sum to one exactly and the composition weights are
    # exact, so the row-marginal statistic carries no shot noise at all
    vals = []
    for s in range(100):
        tab = scheme_tables(ref_rho, 0.1, ref_params, shots=10**6, seed=s)
        vals.append(s_stat(mhq_reconstruct(tab).z))
    assert np.std(vals) <= 1e-12


def test_negativity_from_row_decomposition(ref_grid_data):
    # aleph = -1 + s + sum_f |z[-][f]| when the other rows stay positive
    _, _, quasis = ref_grid_data
    for q in quasis[::10]:
        z = q.z
        assert np.all(z[:2] >= -1e-9)
        direct = total_negativity(z) - 1.0
        via_rows = -1.0 + s_stat(z) + np.abs(z[2]).sum()
        assert direct == pytest.approx(via_rows, abs=1e-10)


def test_grid_statistics_match_per_point_calls(ref_rho, ref_params, ref_period):
    # on grid-shaped tables each statistic is bitwise its per-point value
    from quasiwork.emitters import z_stderr_prediction

    times = np.linspace(0.0, 2 * ref_period, 57)
    series = schemes.scheme_series(ref_rho, times, ref_params, shots=1000,
                                   seeds=[np.random.SeedSequence(3, spawn_key=(k,)) for k in range(57)])
    grid = mhq_reconstruct(series)
    w_mhq, w_tpm = avg_work_mhq(grid), avg_work_tpm(series)
    aleph, se = total_negativity(grid.z), z_stderr_prediction(series, 1000)
    assert w_mhq.shape == w_tpm.shape == aleph.shape == (57,) and se.shape == (57, 3, 3)
    neg, s = negativity(grid), s_stat(grid.z)
    for k in range(57):
        tab = series.at(k)
        table = mhq_reconstruct(tab)
        assert np.array_equal(grid.z[k], table.z)
        assert w_mhq[k] == avg_work_mhq(table)
        assert w_tpm[k] == avg_work_tpm(tab)
        assert aleph[k] == total_negativity(table.z)
        assert neg[k] == negativity(table)
        assert s[k] == s_stat(table.z)
        assert np.array_equal(se[k], z_stderr_prediction(tab, 1000))
    assert isinstance(avg_work_tpm(series.at(0)), float)


def test_work_stats_bundle(ref_rho, ref_params, ref_period):
    # the per-point statistics of one consistent (tables, z) pair
    t = 0.5 * ref_period
    tab = scheme_tables(ref_rho, t, ref_params)
    table = mhq_reconstruct(tab)
    aleph = negativity(table)
    assert total_negativity(table.z) == pytest.approx(1.0 + aleph, abs=1e-12)
    assert aleph > 0.0
    assert avg_work_mhq(table) < avg_work_tpm(tab)
    assert 0.0 <= aleph <= NEGATIVITY_BOUND + 1e-9
