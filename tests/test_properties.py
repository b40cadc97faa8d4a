"""Property tests of the scheme rows and the oracle over extreme drives and states.

Drives span omega from 1e-3 to 1e3 rad/us with ramp-to-amplitude ratios up to
1e3, times reach ten characteristic periods for the measured rows and a
thousand for the oracle's invariants, and states include populations within
1e-9 of one, on both sides of the complement cutoff.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiwork.analysis import NEGATIVITY_BOUND
from quasiwork.explore import time_window
from quasiwork.model import DriveParams, energy_basis, hamiltonian_rot
from quasiwork.propagate import propagator_closed
from quasiwork.qmath import unitarity_defect
from quasiwork.schemes import COMPLEMENT_CUTOFF, kdq_direct, mhq_reconstruct, scheme_tables

_unit = st.floats(-1.0, 1.0)
_log_omega = st.floats(-3.0, 3.0)


@st.composite
def drives(draw):
    omega1, omega2 = 10.0 ** draw(_log_omega), 10.0 ** draw(_log_omega)
    ratio1, ratio2 = 1e3 * draw(_unit), 1e3 * draw(_unit)
    return DriveParams(omega1=omega1, omega2=omega2, phi1=ratio1 * omega1, phi2=ratio2 * omega2)


@st.composite
def pure_states(draw, params):
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
