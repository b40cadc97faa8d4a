"""Property tests of the scheme rows, the sweep kernel and the oracle at extreme drives and states.

Drives span omega from 1e-3 to 1e3 rad/us with ramp-to-amplitude ratios up to
1e3, times reach ten characteristic periods for the measured rows and a
thousand for the oracle's invariants, and states include populations within
1e-9 of one, on both sides of the complement cutoff.  Scaling every drive
number by c scales H(t) by c and time by 1/c, which the sweep kernel and the
measured rows must both respect.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiwork.analysis import NEGATIVITY_BOUND
from quasiwork.explore import time_window, variant_extrema
from quasiwork.model import DriveParams, energy_basis, hamiltonian_rot
from quasiwork.propagate import propagator_closed
from quasiwork.qmath import unitarity_defect
from quasiwork.schemes import COMPLEMENT_CUTOFF, kdq_direct, mhq_reconstruct, scheme_series, scheme_tables

from conftest import drive_rows, twin_variants

_unit = st.floats(-1.0, 1.0)
_log_omega = st.floats(-3.0, 3.0)


@st.composite
def drives(draw):
    omega1, omega2 = 10.0 ** draw(_log_omega), 10.0 ** draw(_log_omega)
    ratio1, ratio2 = 1e3 * draw(_unit), 1e3 * draw(_unit)
    return DriveParams(omega1=omega1, omega2=omega2, phi1=ratio1 * omega1, phi2=ratio2 * omega2)


@st.composite
def pure_kets(draw, params):
    """A random ket, or one with 1 - p_i = eps for eps in [0, 1e-8]."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    v = np.array(parts[:3]) + 1j * np.array(parts[3:])
    if np.linalg.norm(v) < 1e-3:
        v = np.array([1.0, 0.5j, -0.25])
    v /= np.linalg.norm(v)
    if draw(st.booleans()):
        basis0 = energy_basis(0.0, params)
        i = draw(st.integers(0, 2))
        eps = draw(st.sampled_from([0.0, 1e-16]) | st.floats(1e-12, 1e-8))
        rest = v - basis0.ket(i) * np.vdot(basis0.ket(i), v)
        if np.linalg.norm(rest) < 1e-3:
            rest = basis0.ket((i + 1) % 3)
        rest /= np.linalg.norm(rest)
        v = np.sqrt(1.0 - eps) * basis0.ket(i) + np.sqrt(eps) * rest
    return v


@st.composite
def pure_states(draw, params):
    """The density matrix of a ``pure_kets`` draw."""
    v = draw(pure_kets(params))
    return np.outer(v, v.conj())


@st.composite
def cases(draw, periods=10.0):
    params = draw(drives())
    t = periods * time_window(params) * draw(st.floats(0.0, 1.0))
    return params, draw(pure_states(params)), t


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_measured_rows_compose_into_the_oracle_table(case, seed):
    params, rho, t = case
    tab = scheme_tables(rho, t, params)
    dropped = 1.0 - tab.p_init <= COMPLEMENT_CUTOFF
    for rows in (tab.cond, tab.cond_bar[~dropped], tab.p_end[None, :]):
        assert np.all(rows >= 0.0)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0), initial=0.0) <= 1e-12
    assert not np.any(tab.cond_bar[dropped])
    assert np.max(np.abs(tab.p_tpm.sum(axis=1) - tab.p_init)) <= 1e-12
    assert np.max(np.abs(mhq_reconstruct(tab).z - kdq_direct(rho, t, params).q.real)) <= 1e-9

    one = scheme_tables(rho, t, params, shots=1, seed=seed)
    for rows in (one.cond, one.cond_bar[~dropped], one.p_end[None, :]):
        assert np.all(np.sort(rows, axis=1) == [0.0, 0.0, 1.0])
    assert not np.any(one.cond_bar[dropped])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cases(periods=1e3))
def test_oracle_invariants_over_long_times(case):
    params, rho, t = case
    q = kdq_direct(rho, t, params)
    aleph = float(np.abs(q.q).sum()) - 1.0
    assert -1e-12 <= aleph <= NEGATIVITY_BOUND + 1e-12

    # two-point work identity: sum Re q dE = Tr[U rho U^dag H(t)] - Tr[rho H(0)]
    u = propagator_closed(t, params).u
    work = float((q.z * (q.e_final[None, :] - q.e_init[:, None])).sum())
    exact = np.trace(u @ rho @ u.conj().T @ hamiltonian_rot(t, params)).real
    exact -= np.trace(rho @ hamiltonian_rot(0.0, params)).real
    assert abs(work - exact) <= 1e-12 * np.max(np.abs(q.e_init))
    assert unitarity_defect(u) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sweep_kernel_matches_the_oracle_at_extreme_drives(data):
    # each drive with its equal-ramp twins and the twins at ramp +-0.0, scored
    # on one stack; every extremum against kdq_direct on the same grid
    drawn = data.draw(drives())
    w1, w2 = drawn.omega1, drawn.omega2
    variants = [drawn, *twin_variants(drawn), DriveParams(w1, w2, 0.0, 0.0),
                DriveParams(w1, w2, -0.0, -0.0)]
    ket = data.draw(pure_kets(drawn))
    rho = np.outer(ket, ket.conj())
    n_time = 20  # past one block of the kernel's angle-sum phase grid
    extrema = variant_extrema(drive_rows(variants), [ket] * len(variants), n_time)
    for p, (t_end, min_req, min_w, max_aleph) in zip(variants, extrema):
        scale = max(p.omega1, p.omega2, abs(p.phi1), abs(p.phi2), 1.0)
        p_init = np.abs(energy_basis(0.0, p).vectors.conj().T @ ket) ** 2
        z_min, w_min, aleph_max = np.inf, np.inf, -np.inf
        for k in range(1, n_time + 1):
            t = t_end * k / n_time
            q = kdq_direct(rho, t, p)
            work = float((q.z * (q.e_final[None, :] - q.e_init[:, None])).sum())
            if k % 5 == 0:  # the marginal form the kernel uses: END row and initial populations
                u = propagator_closed(t, p).u
                p_end = np.abs(energy_basis(t, p).vectors.conj().T @ u @ ket) ** 2
                assert abs(q.e_final @ p_end - q.e_init @ p_init - work) <= 1e-12 * scale
            z_min, w_min = min(z_min, float(q.z.min())), min(w_min, work)
            aleph_max = max(aleph_max, float(np.abs(q.q).sum()) - 1.0)
        assert abs(min_req - z_min) <= 1e-9
        assert abs(min_w - w_min) <= 1e-9 * scale
        assert abs(max_aleph - aleph_max) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drives(), st.floats(0.05, 20.0), st.data())
def test_drive_scale_invariance(params, c, data):
    # c H(c t) is H(t): windows shrink by c, grid points map onto grid points,
    # rows and min_req / max_aleph stay, and work values scale by c
    scaled = DriveParams(*(c * x for x in (params.omega1, params.omega2, params.phi1, params.phi2)))
    scale = max(params.omega1, params.omega2, abs(params.phi1), abs(params.phi2), 1.0)
    ket = data.draw(pure_kets(params))
    for n_time in (20, 200):
        base, big = variant_extrema(drive_rows([params, scaled]), [ket, ket], n_time)
        assert big[0] * c == pytest.approx(base[0], rel=1e-12, abs=0.0)
        assert abs(big[1] - base[1]) <= 1e-12
        assert abs(big[3] - base[3]) <= 1e-12
        assert abs(big[2] / c - base[2]) <= 1e-12 * scale

    rho = np.outer(ket, ket.conj())
    fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    times = 3.0 * time_window(params) * np.array(fractions)
    a, b = scheme_series(rho, times, params), scheme_series(rho, times / c, scaled)
    for name in ("cond", "cond_bar", "p_end"):
        assert np.max(np.abs(getattr(a, name) - getattr(b, name))) <= 1e-10, name
