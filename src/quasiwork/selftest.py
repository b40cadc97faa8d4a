"""Reduced-count invariant suites for every module, runnable from the CLI.

Each check raises AssertionError with a diagnostic on failure; the runner
collects one PASS/FAIL line per check.  Counts are small enough for the full
battery to finish in seconds; the pytest suite runs the same invariants at
full strength.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import analysis, explore, model, propagate, qmath, schemes

__all__ = ["SelfTestReport", "run_selftest", "CHECKS"]


@dataclass
class SelfTestReport:
    results: list[tuple[str, bool, float, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _, _ in self.results)

    def lines(self) -> list[str]:
        out = []
        for name, passed, dt, msg in self.results:
            status = "PASS" if passed else "FAIL"
            suffix = "" if passed else f"  <- {msg}"
            out.append(f"{status}  {name}  ({dt:.2f}s){suffix}")
        out.append(f"selftest: {'OK' if self.ok else 'FAILED'}")
        return out


def _random_hermitian(rng) -> np.ndarray:
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return x + x.conj().T


def _random_pure_density(rng) -> np.ndarray:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_drive(rng) -> model.DriveParams:
    return model.DriveParams(
        omega1=rng.uniform(5.0, 60.0),
        omega2=rng.uniform(5.0, 60.0),
        phi1=rng.uniform(-80.0, 80.0),
        phi2=rng.uniform(-80.0, 80.0),
    )


def check_eigensolver(rng) -> None:
    for _ in range(200):
        h = _random_hermitian(rng)
        es = qmath.herm_eig(h)
        res = np.linalg.norm(es.reconstruct() - h)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(h)), f"residual {res:.2e}"
        orth = np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(3)))
        assert orth <= 1e-10, f"orthonormality {orth:.2e}"
        assert np.all(np.diff(es.values) >= 0.0), "values not ascending"


def check_unitary_group_law(rng) -> None:
    for _ in range(50):
        h = _random_hermitian(rng)
        s, t = rng.uniform(-2, 2, size=2)
        lhs = qmath.unitary_exp(h, s) @ qmath.unitary_exp(h, t)
        rhs = qmath.unitary_exp(h, s + t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9, "group law violated"
        assert qmath.unitarity_defect(lhs) <= 1e-10


def check_eigensolver_stability(rng) -> None:
    for _ in range(20):
        h = _random_hermitian(rng)
        es1 = qmath.herm_eig(h)
        es2 = qmath.herm_eig(h + 1e-15 * _random_hermitian(rng))
        assert np.max(np.abs(es1.values - es2.values)) <= 1e-12
        # same gauge-fixed vectors provided the spectrum is well separated
        if np.min(np.diff(es1.values)) > 1e-3:
            assert np.max(np.abs(es1.vectors - es2.vectors)) <= 1e-9


def check_energy_basis(rng) -> None:
    for _ in range(25):
        params = _random_drive(rng)
        t = rng.uniform(0.0, 1.0)
        basis = model.energy_basis(t, params)
        total = sum(basis.projectors)
        assert np.max(np.abs(total - np.eye(3))) <= 1e-10, "projectors incomplete"
        for k in range(3):
            for l in range(3):
                prod = basis.projector(k) @ basis.projector(l)
                target = basis.projector(k) if k == l else np.zeros((3, 3))
                assert np.max(np.abs(prod - target)) <= 1e-10
        h = model.hamiltonian_rot(t, params)
        for k in range(3):
            diff = abs(np.trace(basis.projector(k) @ h).real - basis.energies[k])
            assert diff <= 1e-9, f"projector energy mismatch {diff:.2e}"


def check_equal_drive_spectrum(rng) -> None:
    params = model.reference_params()
    for _ in range(25):
        t = rng.uniform(0.0, 1.0)
        basis = model.energy_basis(t, params)
        target = np.array([params.omega1, 0.0, -params.omega1])
        assert np.max(np.abs(basis.energies - target)) <= 1e-10


def check_hamiltonian_periodicity(rng) -> None:
    for _ in range(10):
        omega = rng.uniform(5.0, 40.0)
        phi = rng.uniform(1.0, 40.0)
        params = model.DriveParams.equal_drive(omega, phi)
        t = rng.uniform(0.0, 1.0)
        period = 2.0 * np.pi / phi
        diff = np.max(
            np.abs(model.hamiltonian_rot(t + period, params) - model.hamiltonian_rot(t, params))
        )
        assert diff <= 1e-10, f"H not periodic: {diff:.2e}"


def check_initial_state_roundtrip(rng) -> None:
    for _ in range(10):
        params = _random_drive(rng)
        basis0 = model.energy_basis(0.0, params)
        w = rng.dirichlet([1.0, 1.0, 1.0])
        spec = model.InitialStateSpec(weights=tuple(w), phases=tuple(rng.uniform(0, 2 * np.pi, 3)))
        rho = model.initial_state(spec, basis0)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        for i in range(3):
            p_i = np.trace(rho @ basis0.projector(i)).real
            assert abs(p_i - spec.normalized_weights[i]) <= 1e-10


def check_propagators(rng) -> None:
    for _ in range(3):
        params = _random_drive(rng)
        t = rng.uniform(0.05, 0.3)
        closed = propagate.propagator_closed(t, params).u
        stepped = propagate.propagator_stepped(t, params, 20000).u
        assert np.linalg.norm(closed - stepped) <= 1e-6
        assert qmath.unitarity_defect(closed) <= 1e-9
        assert qmath.unitarity_defect(stepped) <= 1e-9
        delta = 1e-6
        lhs = (
            propagate.propagator_closed(t + delta, params).u
            - propagate.propagator_closed(t - delta, params).u
        ) / (2 * delta)
        rhs = -1j * model.hamiltonian_rot(t, params) @ closed
        assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1.0) <= 1e-6


def check_stationary_state(rng) -> None:
    params = model.reference_params()
    basis0 = model.energy_basis(0.0, params)
    e0 = basis0.ket(1)
    for _ in range(10):
        t = rng.uniform(0.0, 0.5)
        u = propagate.propagator_closed(t, params).u
        survival = abs(np.vdot(e0, u @ e0)) ** 2
        assert abs(survival - 1.0) <= 1e-8, f"|E_0> moved: {survival}"


def check_reconstruction_equivalence(rng, n: int = 30, tol: float = 1e-9) -> float:
    """Max |reconstructed z - Re q| over random cases; asserts <= tol."""
    worst = 0.0
    for _ in range(n):
        params = _random_drive(rng)
        rho = _random_pure_density(rng)
        t = rng.uniform(0.0, 0.4)
        tables = schemes.scheme_tables(rho, t, params)
        z = schemes.mhq_reconstruct(tables).z
        q = schemes.kdq_direct(rho, t, params)
        worst = max(worst, float(np.max(np.abs(z - q.q.real))))
    assert worst <= tol, f"reconstruction deviates from oracle by {worst:.3e}"
    return worst


def check_marginals(rng) -> None:
    for _ in range(15):
        params = _random_drive(rng)
        rho = _random_pure_density(rng)
        t = rng.uniform(0.0, 0.4)
        tables = schemes.scheme_tables(rho, t, params)
        z = schemes.mhq_reconstruct(tables).z
        assert np.max(np.abs(tables.p_tpm.sum(axis=1) - tables.p_init)) <= 1e-10
        assert np.max(np.abs(tables.p_wtpm.sum(axis=1) - 1.0)) <= 1e-10
        assert abs(tables.p_end.sum() - 1.0) <= 1e-10
        assert np.max(np.abs(z.sum(axis=1) - tables.p_init)) <= 1e-10
        assert np.max(np.abs(z.sum(axis=0) - tables.p_end)) <= 1e-10
        ns = schemes.wtpm_nonselective(rho, t, params)
        assert np.max(np.abs(ns - tables.p_wtpm)) <= 1e-10


def check_classical_reduction(rng) -> None:
    params = _random_drive(rng)
    basis0 = model.energy_basis(0.0, params)
    for _ in range(10):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        rho = sum(w[i] * basis0.projector(i) for i in range(3))
        t = rng.uniform(0.0, 0.4)
        q = schemes.kdq_direct(rho, t, params)
        assert np.max(np.abs(q.q.imag)) <= 1e-10, "commuting state gave complex table"
        p_tpm = schemes.tpm_table(rho, t, params)
        assert np.max(np.abs(q.q.real - p_tpm)) <= 1e-10, "commuting state != TPM table"


def check_gates(rng) -> None:
    target = np.zeros((3, 3), dtype=complex)
    target[1, 1] = 1.0
    for _ in range(20):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = schemes.gate_to_zero(v)
        assert qmath.unitarity_defect(r) <= 1e-10
        assert np.max(np.abs(r @ np.outer(v, v.conj()) @ r.conj().T - target)) <= 1e-10
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9


def check_protocol_matches_tables(rng) -> None:
    params = model.reference_params()
    spec = model.reference_state_spec()
    rho = model.initial_state(spec, model.energy_basis(0.0, params))
    for t in (0.03, 0.11):
        measured = schemes.run_protocol(spec, t, params)
        tables = schemes.scheme_tables(rho, t, params)
        for name in ("cond", "cond_bar", "p_end", "p_tpm", "p_wtpm"):
            gap = np.max(np.abs(getattr(measured, name) - getattr(tables, name)))
            assert gap <= 1e-12, f"{name} at t={t}: gate chain off by {gap:.2e}"


def check_work_identities(rng) -> None:
    for _ in range(50):
        params = _random_drive(rng)
        rho = _random_pure_density(rng)
        t = rng.uniform(0.0, 0.4)
        q = schemes.kdq_direct(rho, t, params)
        w = analysis.avg_work_mhq(q)
        u = propagate.propagator_closed(t, params).u
        direct = np.trace(u @ rho @ u.conj().T @ model.hamiltonian_rot(t, params)).real
        direct -= np.trace(rho @ model.hamiltonian_rot(0.0, params)).real
        assert abs(w - direct) <= 1e-10, f"work identity off by {abs(w - direct):.2e}"
        decomp = analysis.classical_decomposition(q)
        assert abs(decomp.average_work() - w) <= 1e-10
        assert abs(decomp.mu.sum() - 1.0) <= 1e-12
        recon = decomp.mu * decomp.z_norm * decomp.signs
        assert np.max(np.abs(recon - q.z)) <= 1e-10


def check_negativity_bound(rng) -> None:
    params = model.reference_params()
    basis0 = model.energy_basis(0.0, params)
    rho = model.initial_state(model.reference_state_spec(), basis0)
    t_end = explore.time_window(params)
    for t in np.linspace(t_end / 100, t_end, 100):
        q = schemes.kdq_direct(rho, t, params)
        aleph = analysis.negativity(q)
        assert -1e-12 <= aleph <= analysis.NEGATIVITY_BOUND + 1e-9
        aleph_z = analysis.total_negativity(q.z) - 1.0
        assert aleph_z <= analysis.NEGATIVITY_BOUND + 1e-9
        s = analysis.s_stat(q.z)
        expected = float(np.sum(model.reference_state_spec().normalized_weights[:2]))
        assert abs(s - expected) <= 1e-10


def check_sweep_determinism(rng) -> None:
    cfg = explore.SweepConfig(n_sets=3, n_time=50, seed=7)
    res1, _ = explore.sweep(cfg)
    res2, _ = explore.sweep(cfg)
    bits = [[a.tobytes() for a in vars(res).values()] for res in (res1, res2)]
    assert bits[0] == bits[1], "sweep records differ between runs"
    _, min_req, _, max_aleph = res1.extrema.reshape(-1, 4).T
    assert np.all((0.0 <= max_aleph) & (max_aleph <= analysis.NEGATIVITY_BOUND + 1e-9))
    assert np.all(max_aleph[min_req < 0.0] > 0.0), "negative cell without non-classicality"


def check_shot_noise(rng) -> None:
    p = np.array([0.5, 0.3, 0.2])
    mean = np.zeros(3)
    n_seeds, shots = 200, 10000
    for s in range(n_seeds):
        f = schemes.shot_noise_sample(p, shots, np.random.default_rng(s))
        assert float(np.sum(f)) == 1.0, "frequencies do not sum to exactly 1"
        mean += f
    mean /= n_seeds
    stderr = np.sqrt(p * (1 - p) / (shots * n_seeds))
    assert np.all(np.abs(mean - p) <= 4.0 * stderr), f"biased sampling: {mean - p}"
    one = schemes.shot_noise_sample(p, 1, np.random.default_rng(0))
    assert sorted(one.tolist()) == [0.0, 0.0, 1.0], "single shot not one-hot"


def check_reconstruction_mutation_detected(rng) -> None:
    """A perturbed reconstruction coefficient must trip the equivalence check."""
    original = schemes.RECONSTRUCTION_HALF_WEIGHT
    schemes.RECONSTRUCTION_HALF_WEIGHT = original * (1.0 + 1e-3)
    try:
        try:
            check_reconstruction_equivalence(np.random.default_rng(123), n=5)
        except AssertionError:
            return  # the guard works
        raise AssertionError("perturbed reconstruction coefficient went undetected")
    finally:
        schemes.RECONSTRUCTION_HALF_WEIGHT = original


CHECKS = [
    ("qmath.eigensolver", check_eigensolver),
    ("qmath.unitary_group_law", check_unitary_group_law),
    ("qmath.eigensolver_stability", check_eigensolver_stability),
    ("model.energy_basis", check_energy_basis),
    ("model.equal_drive_spectrum", check_equal_drive_spectrum),
    ("model.hamiltonian_periodicity", check_hamiltonian_periodicity),
    ("model.initial_state_roundtrip", check_initial_state_roundtrip),
    ("propagate.cross_validation", check_propagators),
    ("propagate.stationary_state", check_stationary_state),
    ("schemes.reconstruction_equivalence", check_reconstruction_equivalence),
    ("schemes.marginals", check_marginals),
    ("schemes.classical_reduction", check_classical_reduction),
    ("schemes.gates", check_gates),
    ("schemes.protocol_matches_tables", check_protocol_matches_tables),
    ("analysis.work_identities", check_work_identities),
    ("analysis.negativity_bound", check_negativity_bound),
    ("explore.sweep_determinism", check_sweep_determinism),
    ("schemes.shot_noise", check_shot_noise),
    ("selftest.mutation_detected", check_reconstruction_mutation_detected),
]


def run_selftest(seed: int = 20260810) -> SelfTestReport:
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        try:
            fn(rng)
            results.append((name, True, time.perf_counter() - start, ""))
        except AssertionError as exc:
            results.append((name, False, time.perf_counter() - start, str(exc)))
    return SelfTestReport(results=results)
