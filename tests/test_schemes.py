import numpy as np
import pytest

from quasiwork import model, schemes
from quasiwork.model import energy_basis
from quasiwork.schemes import (
    DegenerateComplement,
    InvalidDistribution,
    gate_to_zero,
    kdq_direct,
    ket_from_pure,
    mhq_reconstruct,
    run_protocol,
    scheme_series,
    scheme_tables,
    shot_noise_sample,
    tpm_table,
    wtpm_nonselective,
)

from conftest import epm_table, random_drive, random_pure_density


def _ket_row(psi, t, params):
    """p(f|psi) as the end-point row of the prepared ket."""
    return scheme_tables(np.outer(psi, psi.conj()), t, params).p_end


def test_conditional_prob_t0_eigenstate(ref_rho, ref_params):
    basis0 = energy_basis(0.0, ref_params)
    assert np.allclose(_ket_row(basis0.ket(0), 0.0, ref_params), [1, 0, 0], atol=1e-12)
    assert np.allclose(scheme_tables(ref_rho, 0.0, ref_params).cond, np.eye(3), atol=1e-12)


def test_conditional_prob_stationary(ref_rho, ref_params, rng):
    basis0 = energy_basis(0.0, ref_params)
    for _ in range(10):
        t = rng.uniform(0, 0.6)
        assert np.allclose(_ket_row(basis0.ket(1), t, ref_params), [0, 1, 0], atol=1e-10)
        assert np.allclose(scheme_tables(ref_rho, t, ref_params).cond[1], [0, 1, 0], atol=1e-10)


def test_conditional_prob_normalization(rng):
    for _ in range(20):
        params = random_drive(rng)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = _ket_row(v, rng.uniform(0, 0.5), params)
        assert np.all(p >= -1e-15)
        assert abs(p.sum() - 1.0) <= 1e-10


def test_conditional_prob_unnormalized_rejected(ref_params):
    v = np.array([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        scheme_tables(np.outer(v, v), 0.1, ref_params)


def test_conditional_curves_shape(ref_params, ref_spec, ref_period):
    # for the reference state: f=0 curve flat, f=+- oscillate; the frame
    # kernel's values agree with a stepped-propagator recomputation
    # (independent of the closed form)
    from quasiwork.propagate import propagator_stepped

    basis0 = energy_basis(0.0, ref_params)
    xi = model.state_vector(ref_spec, basis0)
    times = np.linspace(ref_period / 100, ref_period, 100)
    curves = scheme_series(np.outer(xi, xi.conj()), times, ref_params).p_end
    assert np.ptp(curves[:, 1]) <= 1e-10  # f=0 constant
    assert np.ptp(curves[:, 0]) > 0.1  # f=+ oscillates
    assert np.ptp(curves[:, 2]) > 0.1  # f=- oscillates
    for k in range(0, 100, 20):
        t = float(times[k])
        u = propagator_stepped(t, ref_params, 4000).u
        basis_t = energy_basis(t, ref_params)
        recomputed = np.abs(basis_t.vectors.conj().T @ (u @ xi)) ** 2
        assert np.max(np.abs(curves[k] - recomputed)) <= 1e-7


def _complement_rho(rho, i, basis0):
    """(I - Pi_i) rho (I - Pi_i) / (1 - p_i), built literally."""
    proj = np.eye(3) - basis0.projector(i)
    p_i = float(np.trace(rho @ basis0.projector(i)).real)
    return proj @ rho @ proj / (1.0 - p_i)


def test_complement_of_orthogonal_projector(ref_params):
    # the complement of outcome 2 of |E_0(0)> is the state itself
    basis0 = energy_basis(0.0, ref_params)
    rho = basis0.projector(0)
    assert np.max(np.abs(_complement_rho(rho, 2, basis0) - rho)) <= 1e-12
    for t in (0.0, 0.07, 0.21):
        tab = scheme_tables(rho, t, ref_params)
        assert np.array_equal(tab.cond_bar[0], np.zeros(3))  # p_0 = 1: dropped
        assert np.max(np.abs(tab.cond_bar[2] - tab.p_end)) <= 1e-12


def test_complement_populations(ref_rho, ref_params, ref_spec):
    # at t = 0 the not-2 row is the complement's populations p_f / (1 - p_2)
    basis0 = energy_basis(0.0, ref_params)
    p = ref_spec.normalized_weights
    row = scheme_tables(ref_rho, 0.0, ref_params).cond_bar[2]
    assert abs(row[2]) <= 1e-12
    for f in (0, 1):
        assert row[f] == pytest.approx(p[f] / (1.0 - p[2]), abs=1e-10)
    rho_bar = _complement_rho(ref_rho, 2, basis0)
    assert np.max(np.abs(row - epm_table(rho_bar, 0.0, ref_params))) <= 1e-12


def test_complement_purity(ref_rho, ref_params, ref_period):
    # each cond_bar row is the end-point row of the pure complement state
    basis0 = energy_basis(0.0, ref_params)
    for t in (0.13 * ref_period, 0.71 * ref_period):
        tab = scheme_tables(ref_rho, t, ref_params)
        for i in range(3):
            rho_bar = _complement_rho(ref_rho, i, basis0)
            assert np.trace(rho_bar @ rho_bar).real == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(tab.cond_bar[i] - epm_table(rho_bar, t, ref_params))) <= 1e-12


def test_complement_degenerate(ref_params):
    basis0 = energy_basis(0.0, ref_params)
    with pytest.raises(DegenerateComplement):
        schemes._complement_ket(basis0.ket(1), 1, basis0)
    tab = scheme_tables(basis0.projector(1), 0.1, ref_params)
    assert np.array_equal(tab.cond_bar[1], np.zeros(3))
    assert np.array_equal(tab.p_wtpm[1], tab.p_tpm[1])


def test_ket_from_pure_roundtrip(rng):
    for _ in range(10):
        rho = random_pure_density(rng)
        v = ket_from_pure(rho)
        assert np.max(np.abs(np.outer(v, v.conj()) - rho)) <= 1e-12
    with pytest.raises(ValueError):
        ket_from_pure(np.eye(3) / 3.0)
    with pytest.raises(ValueError):  # purity 1 - 1e-4, to 5e-9
        ket_from_pure(np.diag([1.0 - 5e-5, 5e-5, 0.0]))


def test_tables_at_t0(ref_rho, ref_params, ref_spec):
    tab = scheme_tables(ref_rho, 0.0, ref_params)
    p = ref_spec.normalized_weights
    assert np.allclose(tab.p_tpm, np.diag(p), atol=1e-10)
    assert np.allclose(tab.p_end, p, atol=1e-10)
    for i in range(3):
        for f in range(3):
            expected = p[i] if i == f else p[f]
            assert tab.p_wtpm[i, f] == pytest.approx(expected, abs=1e-10)


def test_tpm_row_marginal_constant(ref_rho, ref_params, rng):
    for _ in range(10):
        tab = scheme_tables(ref_rho, rng.uniform(0, 0.5), ref_params)
        assert tab.p_tpm[2].sum() == pytest.approx(0.2338 / 1.0001, abs=1e-10)


def test_scheme_invariants_random(rng):
    for _ in range(100):
        params = random_drive(rng)
        rho = random_pure_density(rng)
        t = rng.uniform(0, 0.5)
        tab = scheme_tables(rho, t, params)
        assert np.all(tab.p_tpm >= -1e-10)
        assert np.all(tab.p_wtpm >= -1e-10)
        assert np.all(tab.p_tpm <= 1 + 1e-10)
        assert np.all(tab.p_wtpm <= 1 + 1e-10)
        assert np.max(np.abs(tab.p_tpm.sum(axis=1) - tab.p_init)) <= 1e-10
        assert abs(tab.p_tpm.sum() - 1.0) <= 1e-10
        assert abs(tab.p_end.sum() - 1.0) <= 1e-10
        assert np.max(np.abs(tab.p_wtpm.sum(axis=1) - 1.0)) <= 1e-10


def test_wtpm_matches_nonselective_oracle(rng):
    for _ in range(100):
        params = random_drive(rng)
        rho = random_pure_density(rng)
        t = rng.uniform(0, 0.5)
        tab = scheme_tables(rho, t, params)
        assert np.max(np.abs(tab.p_wtpm - wtpm_nonselective(rho, t, params))) <= 1e-10


def _check_series_against_oracles(rho, params, times, tol=1e-12):
    series = scheme_series(rho, times, params)
    assert np.array_equal(series.t, times)
    z = mhq_reconstruct(series).z
    for k, t in enumerate(times.tolist()):
        tab = series.at(k)
        assert tab.t == t
        assert np.array_equal(mhq_reconstruct(tab).z, z[k])
        q = kdq_direct(rho, t, params)
        assert np.max(np.abs(mhq_reconstruct(tab).z - q.q.real)) <= tol
        assert np.max(np.abs(tab.p_end - epm_table(rho, t, params))) <= tol
        assert np.max(np.abs(tab.p_tpm - tpm_table(rho, t, params))) <= tol
        assert np.max(np.abs(tab.p_wtpm - wtpm_nonselective(rho, t, params))) <= tol
        for i in range(3):
            if 1.0 - tab.p_init[i] > schemes.COMPLEMENT_CUTOFF:
                rho_bar = _complement_rho(rho, i, energy_basis(0.0, params))
                assert np.max(np.abs(tab.cond_bar[i] - epm_table(rho_bar, t, params))) <= tol
        assert np.max(np.abs(tab.e_final - q.e_final)) <= tol
        assert np.array_equal(tab.e_init, q.e_init)


def test_scheme_series_matches_oracles_on_a_grid(rng):
    times = np.linspace(0.0, 0.5, 25)  # t = 0 included
    for _ in range(8):
        _check_series_against_oracles(random_pure_density(rng), random_drive(rng), times)


def test_scheme_series_drops_a_vanishing_complement(rng):
    # p_0 = 1 - 1e-13 lies within 1e-9 of one: the complement of outcome 0
    # is dropped, not prepared, and the dropped weight is below the tolerance
    params = random_drive(rng)
    basis0 = energy_basis(0.0, params)
    eps = 1e-13
    psi = np.sqrt(1.0 - eps) * basis0.ket(0) + np.sqrt(eps) * np.exp(0.3j) * basis0.ket(1)
    rho = np.outer(psi, psi.conj())
    times = np.linspace(0.0, 0.5, 25)
    series = scheme_series(rho, times, params)
    assert 1.0 - series.p_init[0] <= schemes.COMPLEMENT_CUTOFF
    assert np.array_equal(series.cond_bar[:, 0], np.zeros((times.size, 3)))
    assert np.array_equal(series.p_wtpm[:, 0], series.p_tpm[:, 0])
    _check_series_against_oracles(rho, params, times)
    with pytest.raises(DegenerateComplement):
        schemes._complement_ket(psi, 0, basis0)


def test_scheme_series_shots_match_per_point_calls(ref_rho, ref_params, ref_period):
    times = np.linspace(0.0, 2 * ref_period, 40)
    seeds = [np.random.SeedSequence(7, spawn_key=(3, k)) for k in range(times.size)]
    series = scheme_series(ref_rho, times, ref_params, shots=1000, seeds=seeds)
    for k in range(times.size):
        tab = series.at(k)
        one = scheme_tables(ref_rho, float(times[k]), ref_params, shots=1000, seed=seeds[k])
        for name in ("cond", "cond_bar", "p_tpm", "p_wtpm", "p_end", "p_init", "e_init", "e_final"):
            assert np.array_equal(getattr(tab, name), getattr(one, name))
        for name in ("cond", "cond_bar", "p_tpm", "p_wtpm", "p_end"):
            assert np.array_equal(getattr(series, name)[k], getattr(one, name))


def test_scheme_series_sub_grid_gives_the_same_rows(ref_rho, ref_params, ref_period):
    times = np.linspace(0.0, 2 * ref_period, 101)
    full = scheme_series(ref_rho, times, ref_params)
    part = scheme_series(ref_rho, times[17:60:3], ref_params)
    assert np.array_equal(part.t, full.t[17:60:3])
    for name in ("cond", "cond_bar", "p_tpm", "p_wtpm", "p_end"):
        assert np.array_equal(getattr(part, name), getattr(full, name)[17:60:3])


def test_tpm_epm_accept_mixed_states(rng):
    params = random_drive(rng)
    w = rng.dirichlet([1, 1, 1])
    basis0 = energy_basis(0.0, params)
    rho = sum(w[i] * basis0.projector(i) for i in range(3))
    t = 0.2
    p_tpm = tpm_table(rho, t, params)
    p_end = epm_table(rho, t, params)
    assert np.max(np.abs(p_tpm.sum(axis=1) - w)) <= 1e-10
    assert abs(p_end.sum() - 1.0) <= 1e-10


def test_mhq_t0_diagonal(ref_rho, ref_params, ref_spec):
    z = mhq_reconstruct(scheme_tables(ref_rho, 0.0, ref_params)).z
    assert np.allclose(z, np.diag(ref_spec.normalized_weights), atol=1e-10)


def test_mhq_negative_transition_cell(ref_rho, ref_params, ref_period):
    lows = [
        mhq_reconstruct(scheme_tables(ref_rho, t, ref_params)).z[2, 0]
        for t in np.linspace(ref_period / 40, ref_period, 40)
    ]
    assert min(lows) < 0.0


def test_reconstruction_matches_oracle(rng):
    # 200 random (state, params, t) triples: composed z equals Re q entrywise
    worst = 0.0
    for _ in range(200):
        params = random_drive(rng)
        rho = random_pure_density(rng)
        t = rng.uniform(0, 0.5)
        z = mhq_reconstruct(scheme_tables(rho, t, params)).z
        q = kdq_direct(rho, t, params)
        worst = max(worst, float(np.max(np.abs(z - q.q.real))))
    assert worst <= 1e-9


def test_kdq_commuting_state_is_tpm(rng):
    params = random_drive(rng)
    basis0 = energy_basis(0.0, params)
    w = rng.dirichlet([1, 1, 1])
    rho = sum(w[i] * basis0.projector(i) for i in range(3))
    for t in (0.0, 0.13, 0.37):
        q = kdq_direct(rho, t, params)
        assert np.max(np.abs(q.q.imag)) <= 1e-10
        assert np.max(np.abs(q.q.real - tpm_table(rho, t, params))) <= 1e-10


def test_kdq_t0_diagonal(ref_rho, ref_params, ref_spec):
    q = kdq_direct(ref_rho, 0.0, ref_params)
    assert np.allclose(q.q, np.diag(ref_spec.normalized_weights), atol=1e-12)


def test_kdq_row_marginal_constant(ref_rho, ref_params, rng):
    for _ in range(10):
        q = kdq_direct(ref_rho, rng.uniform(0, 0.5), ref_params)
        assert q.z[2].sum() == pytest.approx(0.2338 / 1.0001, abs=1e-10)
        assert abs(q.q.sum() - 1.0) <= 1e-10
        assert abs(q.q.sum().imag) <= 1e-10


def test_kdq_requires_unit_trace(ref_params):
    for trace in (2.0, 1.01):
        with pytest.raises(ValueError):
            kdq_direct(trace * np.eye(3) / 3.0, 0.1, ref_params)


def test_gate_fixes_zero_state():
    r = gate_to_zero(np.array([0.0, 1.0, 0.0]))
    assert abs(abs(r[1, 1]) - 1.0) <= 1e-12


def test_gate_conjugation_random(rng):
    target = np.zeros((3, 3), dtype=complex)
    target[1, 1] = 1.0
    for _ in range(50):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = gate_to_zero(v)
        assert np.max(np.abs(r @ np.outer(v, v.conj()) @ r.conj().T - target)) <= 1e-10
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9
        assert abs(abs(np.vdot(np.array([0, 1, 0]), r @ v)) - 1.0) <= 1e-10


def test_gate_readout_identity(ref_params, rng):
    # Tr[R U(rho) R^dag |0><0|] equals the conditional probability p(f|psi)
    from quasiwork.propagate import propagator_closed

    for _ in range(10):
        t = rng.uniform(0, 0.5)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        u = propagator_closed(t, ref_params).u
        basis_t = energy_basis(t, ref_params)
        expected = _ket_row(v, t, ref_params)
        evolved = u @ np.outer(v, v.conj()) @ u.conj().T
        for f in range(3):
            r = gate_to_zero(basis_t.ket(f))
            got = (r @ evolved @ r.conj().T)[1, 1].real
            assert got == pytest.approx(expected[f], abs=1e-10)


def test_gate_rejects_rank_two(ref_params):
    # the gate takes a unit ket: a rank-two projector (a matrix) and a non-unit ket fail
    basis0 = energy_basis(0.0, ref_params)
    for bad in (basis0.projector(0) + basis0.projector(1), (1.0 + 1e-6) * basis0.ket(0)):
        with pytest.raises(ValueError):
            gate_to_zero(bad)


def test_protocol_matches_tables(ref_spec, ref_rho, ref_params, ref_period):
    dropped = model.InitialStateSpec(weights=(0.0, 1.0, 0.0), phases=(0.0, 0.3, 0.0))
    dropped_rho = model.initial_state(dropped, energy_basis(0.0, ref_params))
    for spec, rho in ((ref_spec, ref_rho), (dropped, dropped_rho)):
        for t in (0.11 * ref_period, 0.64 * ref_period):
            measured = run_protocol(spec, t, ref_params)
            tab = scheme_tables(rho, t, ref_params)
            for name in ("cond", "cond_bar", "p_end", "p_tpm", "p_wtpm"):
                assert np.max(np.abs(getattr(measured, name) - getattr(tab, name))) <= 1e-12, name
    assert not measured.cond_bar[1].any()  # the complement of a certain outcome is not prepared


def test_protocol_shots_match_scheme_tables(ref_spec, ref_rho, ref_params, ref_period):
    # the same seed draws the same frequencies: one generator, rows in scheme_series' order
    for t in (0.11 * ref_period, 0.64 * ref_period):
        for shots in (1, 10**3, 10**6):
            for seed in range(40):
                measured = run_protocol(ref_spec, t, ref_params, shots=shots, seed=seed)
                tab = scheme_tables(ref_rho, t, ref_params, shots=shots, seed=seed)
                for name in ("cond", "cond_bar", "p_end"):
                    assert np.array_equal(getattr(measured, name), getattr(tab, name)), (t, shots, seed)


def test_protocol_single_shot_one_hot(ref_spec, ref_params):
    tab = run_protocol(ref_spec, 0.05, ref_params, shots=1, seed=3)
    for row in (*tab.cond, *tab.cond_bar, tab.p_end):
        assert sorted(row.tolist()) == [0.0, 0.0, 1.0]


def test_protocol_shot_noise_scale(ref_spec, ref_params, ref_period):
    # standard error of a measured conditional entry ~ sqrt(p(1-p)/shots)
    t = 0.3 * ref_period
    shots = 10**6
    exact = run_protocol(ref_spec, t, ref_params).p_end
    samples = np.array(
        [run_protocol(ref_spec, t, ref_params, shots=shots, seed=s).p_end for s in range(60)]
    )
    for f in range(3):
        predicted = np.sqrt(exact[f] * (1 - exact[f]) / shots)
        if predicted < 1e-6:
            assert samples[:, f].std() <= 4e-6
        else:
            assert 0.5 <= samples[:, f].std() / predicted <= 2.0


def test_shot_noise_deterministic_and_exact_sum():
    p = np.array([0.3, 0.45, 0.25])
    a = shot_noise_sample(p, 1000, seed=42)
    b = shot_noise_sample(p, 1000, seed=42)
    assert np.array_equal(a, b)
    rng = np.random.default_rng(0)
    for _ in range(300):
        q = rng.dirichlet([1, 1, 1])
        f = shot_noise_sample(q, int(rng.choice([3, 10, 1000, 10**6])), rng)
        assert float(np.sum(f)) == 1.0
        assert np.all(f >= 0.0)


def test_shot_noise_certain_outcome():
    assert np.array_equal(shot_noise_sample([1.0, 0.0, 0.0], 17, seed=1), [1.0, 0.0, 0.0])


def test_shot_noise_binomial_std():
    # empirical std of the first component across seeds vs sqrt(p(1-p)/N)
    shots = 10**6
    vals = [shot_noise_sample([0.5, 0.5, 0.0], shots, seed=s)[0] for s in range(100)]
    predicted = 0.5e-3
    assert 0.5 * predicted <= np.std(vals) <= 2.0 * predicted


def test_shot_noise_unbiased(ref_rho, ref_params, ref_period):
    # mean of sampled tables converges on the exact tables (4 sigma per entry)
    t = 0.45 * ref_period
    exact = scheme_tables(ref_rho, t, ref_params)
    shots, n_seeds = 4000, 1000
    acc_tpm = np.zeros((3, 3))
    acc_end = np.zeros(3)
    for s in range(n_seeds):
        tab = scheme_tables(ref_rho, t, ref_params, shots=shots, seed=s)
        acc_tpm += tab.p_tpm
        acc_end += tab.p_end
    acc_tpm /= n_seeds
    acc_end /= n_seeds
    se_end = np.sqrt(np.clip(exact.p_end * (1 - exact.p_end), 1e-12, None) / (shots * n_seeds))
    assert np.all(np.abs(acc_end - exact.p_end) <= 4 * se_end)
    p, cond = exact.p_init, exact.cond
    se_tpm = p[:, None] * np.sqrt(np.clip(cond * (1 - cond), 1e-12, None) / (shots * n_seeds))
    assert np.all(np.abs(acc_tpm - exact.p_tpm) <= 4 * np.maximum(se_tpm, 1e-12))


def test_shot_noise_invalid():
    with pytest.raises(InvalidDistribution):
        shot_noise_sample([0.5, 0.6, 0.2], 100, seed=0)
    with pytest.raises(InvalidDistribution):
        shot_noise_sample([0.9, 0.2, -0.1], 100, seed=0)
    with pytest.raises(InvalidDistribution):  # sums to 1 + 1e-4
        shot_noise_sample([0.5, 0.3, 0.2001], 100, seed=0)
    with pytest.raises(InvalidDistribution):
        shot_noise_sample([0.5, 0.3, 0.2], 0, seed=0)


def test_shot_noise_stack_matches_sequential_rows():
    # an (m, k) stack is drawn row after row from the one generator: bitwise
    # the frequencies of m one-row calls, and the generator ends in the same state
    rng = np.random.default_rng(11)
    random_rows = rng.dirichlet([1, 1, 1], size=12)
    zero_rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.3, 0.7], [0.5, 0.5, 0.0]])
    # with three outcomes the leading frequencies never sum above 1; with
    # four at 100 shots, counts such as (33, 56, 11, 0) do, and re-pin
    repin = np.tile([0.335, 0.555, 0.11, 0.0], (400, 1))
    cases = [(random_rows, 1000), (np.vstack([random_rows, zero_rows]), 10**6),
             (zero_rows, 1), (random_rows, 1), (repin, 100)]
    for rows, shots in cases:
        stacked, sequential = np.random.default_rng(5), np.random.default_rng(5)
        got = shot_noise_sample(rows, shots, stacked)
        want = np.stack([shot_noise_sample(row, shots, sequential) for row in rows])
        assert got.shape == rows.shape
        assert got.tobytes() == want.tobytes()
        assert stacked.random() == sequential.random()
        assert np.all(got >= 0.0)
    counts = np.random.default_rng(5).multinomial(100, repin / repin.sum(axis=1, keepdims=True))
    over = 1.0 - (counts[:, :-1] / 100).sum(axis=1) < 0.0
    assert over.any()  # the re-pin branch was taken
    got = shot_noise_sample(repin, 100, np.random.default_rng(5))
    assert np.array_equal(got[over, -1], np.zeros(over.sum()))
    assert np.array_equal(got[~over, :-1], counts[~over, :-1] / 100)
    assert not np.array_equal(got[over, :-1], counts[over, :-1] / 100)
    bad = np.vstack([random_rows[:3], [0.5, 0.6, 0.2], random_rows[3:]])
    with pytest.raises(InvalidDistribution):
        shot_noise_sample(bad, 100, np.random.default_rng(0))
    with pytest.raises(InvalidDistribution):
        shot_noise_sample(np.ones((2, 2, 3)) / 3.0, 100, np.random.default_rng(0))
    # non-finite rows, alone or as the one bad row of a stack, are not distributions
    nan, inf = float("nan"), float("inf")
    for row in ([nan, 0.5, 0.5], [nan, nan, nan], [inf, 0.5, 0.5], [inf, -inf, 1.0], [1.0, 0.0, nan]):
        for shots in (1, 100):
            with pytest.raises(InvalidDistribution):
                shot_noise_sample(row, shots, np.random.default_rng(0))
        with pytest.raises(InvalidDistribution):
            shot_noise_sample(np.vstack([random_rows[:5], row, random_rows[5:]]), 100,
                              np.random.default_rng(0))


def test_noisy_tables_keep_exact_row_marginals(ref_rho, ref_params):
    # composition weights are exact, sampled rows sum to one exactly, so the
    # reconstructed row marginals stay noise-free
    tab = scheme_tables(ref_rho, 0.12, ref_params, shots=1000, seed=9)
    z = mhq_reconstruct(tab).z
    assert np.max(np.abs(z.sum(axis=1) - tab.p_init)) <= 1e-12
