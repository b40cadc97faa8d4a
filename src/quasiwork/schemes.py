"""The three measurement schemes and the quasiprobability reconstruction.

Everything is composed exactly the way a projective-readout experiment does
it: prepare a pure state with a gate from |0>, evolve, rotate the target
energy eigenstate onto |0>, read out the |0> population.  Three schemes
share that primitive:

* END  -- evolve the initial state, measure the final energy only.
* TPM  -- prepare each initial eigenstate |E_i(0)>, measure p(f|i), weight
          by p_i.  Classical joint distribution p_i * p(f|i).
* wTPM -- additionally prepare the normalized complement state (the "NOT i"
          outcome of a binary non-selective measurement) and form
          p_i * p(f|i) + (1 - p_i) * p(f|not-i).

``SchemeTables`` holds what such an experiment measures: the rows p(f|i),
p(f|not-i) and p_end, with the exact weights p_i, for one time point or, with
a leading time axis on the rows, for a whole grid.  Its ``p_tpm`` and
``p_wtpm`` properties are the only place the rows are composed into tables.

Every measured row is a Born distribution |<E_f(t)|U(t)|k>|^2 of a prepared
ket k.  By the frame identity H(t) = e^{-itD} H(0) e^{itD} the energies are
constant, |E_f(t)> = e^{-itD}|E_f(0)> up to a phase and U(t) = e^{-itD}
e^{-itH_tilde}, so with (L, W) the eigensystem of H_tilde and V0 the t=0
eigenvectors a whole grid is |(a e^{-itL}) b|^2, a = V0^dag W, b = W^dag K
for the stacked kets K: ``propagate.frame_amplitudes``.  The sweep evaluates
the same kernel batched across drives (``explore`` docstring).

The real part of the Kirkwood-Dirac quasiprobability follows from the three
tables without any ancilla:

    z[i][f] = p_tpm[i][f] - (p_wtpm[i][f] - p_end[f]) / 2

``kdq_direct`` computes q[i][f] = Tr[rho Pi_i U^dag Xi_f U] from the same
ingredients and is the oracle every reconstruction is tested against.

Tables are indexed [i][f] with labels (+, 0, -); the (-,+) transition is
cell [2][0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DriveParams, EnergyBasis, InitialStateSpec, _energy_basis0, energy_basis, state_vector
from .propagate import _tilde_eig, _validate_closed_form, frame_amplitudes, propagator_closed

__all__ = [
    "SchemeTables",
    "QuasiTable",
    "DegenerateComplement",
    "InvalidDistribution",
    "ket_from_pure",
    "tpm_table",
    "wtpm_nonselective",
    "scheme_series",
    "scheme_tables",
    "mhq_reconstruct",
    "kdq_direct",
    "gate_to_zero",
    "run_protocol",
    "shot_noise_sample",
]

# Weight of the (p_wtpm - p_end) correction in the reconstruction.  Module
# level so the selftest mutation check can perturb it and verify that the
# reconstruction-vs-oracle equivalence test actually bites.
RECONSTRUCTION_HALF_WEIGHT = 0.5

# A complement branch whose weight 1 - p_i is at most this is dropped, not
# prepared: the normalized complement is undefined as p_i -> 1.
COMPLEMENT_CUTOFF = 1e-9

_ZERO_KET = 1  # matrix index of the bare |0> state


class DegenerateComplement(ValueError):
    """Complement state undefined because p_i is (numerically) one."""


class InvalidDistribution(ValueError):
    """Probability vector has negative entries or does not sum to one."""


@dataclass(frozen=True)
class SchemeTables:
    """The measured rows of the three schemes at one time point or on a grid.

    cond[..., i, f] = p(f|i) after preparing |E_i(0)>, cond_bar[..., i, f] =
    p(f|not-i) after preparing the normalized complement (a zero row where
    that branch is dropped), the end-point rows p_end[..., f], and the exact
    initial-energy populations p_init[i].  On a grid ``t`` is the times array
    and the rows carry a leading time axis; ``at(k)`` is one point.  Energy
    ladders at t=0 and t ride along so downstream reconstructions can attach
    work values without re-deriving the model.
    """

    t: float | np.ndarray
    cond: np.ndarray
    cond_bar: np.ndarray
    p_end: np.ndarray
    p_init: np.ndarray
    e_init: np.ndarray
    e_final: np.ndarray

    def at(self, k: int) -> SchemeTables:
        """The tables at grid index k."""
        return SchemeTables(float(self.t[k]), self.cond[k], self.cond_bar[k], self.p_end[k],
                            self.p_init, self.e_init, self.e_final)

    @property
    def p_tpm(self) -> np.ndarray:
        """TPM joint table p_i * p(f|i)."""
        return self.p_init[:, None] * self.cond

    @property
    def p_wtpm(self) -> np.ndarray:
        """wTPM table p_i * p(f|i) + (1 - p_i) * p(f|not-i)."""
        return self.p_tpm + (1.0 - self.p_init)[:, None] * self.cond_bar


@dataclass(frozen=True)
class QuasiTable:
    """Quasiprobability table with its energy ladders.

    ``q`` is the complex Kirkwood-Dirac table when produced by the direct
    oracle, None when the table was reconstructed from measured schemes
    (the reconstruction only reaches the real part; on a grid ``t`` is the
    times array and ``z`` has a leading time axis).  ``z`` is always real.
    """

    t: float | np.ndarray
    z: np.ndarray
    e_init: np.ndarray
    e_final: np.ndarray
    q: np.ndarray | None = None

    @property
    def magnitudes(self) -> np.ndarray:
        """|q| when the full table is known, |z| otherwise."""
        return np.abs(self.z) if self.q is None else np.abs(self.q)


def ket_from_pure(rho) -> np.ndarray:
    """Extract the state vector of a pure density matrix (phase-gauged).

    The column with the largest diagonal entry fixes the gauge.
    """
    r = np.asarray(rho, dtype=np.complex128)
    purity = float(np.trace(r @ r).real)
    if abs(purity - 1.0) > 1e-8 or abs(float(np.trace(r).real) - 1.0) > 1e-8:
        raise ValueError(f"not a normalized pure state (purity {purity!r})")
    k = int(np.argmax(np.diagonal(r).real))
    return r[:, k] / np.sqrt(r[k, k].real)


def _conditional_from_u(psi: np.ndarray, basis_t: EnergyBasis, u: np.ndarray) -> np.ndarray:
    amps = basis_t.vectors.conj().T @ (u @ psi)
    p = np.abs(amps) ** 2
    return p / p.sum()  # unit-norm input: sum is 1 up to roundoff


def _complement_ket(psi: np.ndarray, i: int, basis0: EnergyBasis) -> np.ndarray:
    """Normalized (I - Pi_i)|psi>; DegenerateComplement when its weight is cut off."""
    v = psi - basis0.projector(i) @ psi
    n2 = float(np.vdot(v, v).real)
    if n2 < COMPLEMENT_CUTOFF:
        raise DegenerateComplement(f"state lies entirely in outcome {i}")
    return v / np.sqrt(n2)


def tpm_table(rho, t: float, params: DriveParams) -> np.ndarray:
    """Two-point-measurement joint table p_i * p(f|i); rho may be mixed."""
    r = np.asarray(rho, dtype=np.complex128)
    u = propagator_closed(t, params).u
    basis0 = _energy_basis0(params)
    basis_t = energy_basis(t, params)
    out = np.empty((3, 3))
    for i in range(3):
        p_i = float(np.trace(r @ basis0.projector(i)).real)
        cond = _conditional_from_u(basis0.ket(i), basis_t, u)
        out[i] = p_i * cond
    return out


def wtpm_nonselective(rho, t: float, params: DriveParams) -> np.ndarray:
    """Oracle route: evolve the dephased state Pi rho Pi + (I-Pi) rho (I-Pi) directly."""
    r = np.asarray(rho, dtype=np.complex128)
    u = propagator_closed(t, params).u
    basis0 = _energy_basis0(params)
    basis_t = energy_basis(t, params)
    eye = np.eye(3)
    out = np.empty((3, 3))
    for i in range(3):
        pi = basis0.projector(i)
        ns = pi @ r @ pi + (eye - pi) @ r @ (eye - pi)
        evolved = u @ ns @ u.conj().T
        for f in range(3):
            out[i, f] = float(np.trace(evolved @ basis_t.projector(f)).real)
    return out


def scheme_series(rho, times, params: DriveParams, shots: int | None = None,
                  seeds=None) -> SchemeTables:
    """The measured rows of all three schemes for a pure state on the grid ``times``.

    Returns one ``SchemeTables`` whose rows carry a leading time axis.
    Noiseless (shots=None) rows are exact Born probabilities.  With shots,
    each point's rows p(f|i), kept p(f|not-i) and p_end, in that order, are
    replaced by multinomial frequencies from one ``shot_noise_sample`` call
    on ``default_rng(seeds[k])``; the composition weights p_i stay exact
    (state calibration constants).
    """
    r = np.asarray(rho, dtype=np.complex128)
    psi = ket_from_pure(r)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    basis0 = _energy_basis0(params)
    _validate_closed_form()
    eig = _tilde_eig(params)

    p_init = np.array([float(np.trace(r @ basis0.projector(i)).real) for i in range(3)])
    has_complement = 1.0 - p_init > COMPLEMENT_CUTOFF
    comp = [_complement_ket(psi, i, basis0) for i in range(3) if has_complement[i]]
    kets = np.column_stack([basis0.vectors, *comp, psi])
    a = basis0.vectors.conj().T @ eig.vectors
    p = np.abs(frame_amplitudes(a, eig.values, times, eig.vectors.conj().T @ kets)) ** 2
    p = np.swapaxes(p / p.sum(axis=1, keepdims=True), 1, 2)  # [t, ket, f]
    if shots is not None:
        for k in range(times.size):
            rng = np.random.default_rng(None if seeds is None else seeds[k])
            p[k] = shot_noise_sample(p[k], shots, rng)
    cond_bar = np.zeros_like(p[:, :3])
    cond_bar[:, has_complement] = p[:, 3:-1]
    e = basis0.energies
    return SchemeTables(times, p[:, :3], cond_bar, p[:, -1], p_init, e.copy(), e.copy())


def scheme_tables(rho, t: float, params: DriveParams, shots: int | None = None,
                  seed=None) -> SchemeTables:
    """``scheme_series`` at the single time point ``t``, sampled from ``seed``."""
    return scheme_series(rho, [t], params, shots=shots, seeds=[seed]).at(0)


def mhq_reconstruct(tables: SchemeTables) -> QuasiTable:
    """Real quasiprobability table from the three measured schemes, per time point."""
    z = tables.p_tpm - RECONSTRUCTION_HALF_WEIGHT * (tables.p_wtpm - tables.p_end[..., None, :])
    return QuasiTable(
        t=tables.t, z=z, e_init=tables.e_init.copy(), e_final=tables.e_final.copy()
    )


def kdq_direct(rho, t: float, params: DriveParams) -> QuasiTable:
    """Kirkwood-Dirac table q[i][f] = Tr[rho Pi_i(0) U^dag Xi_f(t) U].

    Literal evaluation of the defining trace; this is the oracle the
    scheme-composed reconstruction is validated against.  rho may be mixed.
    """
    r = np.asarray(rho, dtype=np.complex128)
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace {tr!r} is not 1")
    u = propagator_closed(t, params).u
    basis0 = _energy_basis0(params)
    basis_t = energy_basis(t, params)
    q = np.empty((3, 3), dtype=np.complex128)
    for f in range(3):
        heis_f = u.conj().T @ basis_t.projector(f) @ u
        for i in range(3):
            q[i, f] = np.trace(r @ basis0.projector(i) @ heis_f)
    return QuasiTable(
        t=t,
        z=q.real.copy(),
        e_init=basis0.energies.copy(),
        e_final=basis_t.energies.copy(),
        q=q,
    )


def gate_to_zero(ket) -> np.ndarray:
    """Special-unitary gate R with R|v> proportional to |0> for the unit ket v.

    Householder reflection through (v - |0>), with v phase-gauged so the
    reflection is exact, then a global determinant-phase fix.  Raises
    ValueError unless v is a unit 3-vector.
    """
    v = np.asarray(ket, dtype=np.complex128)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    n2 = float(np.vdot(v, v).real)
    if not abs(n2 - 1.0) <= 1e-9:  # negated, so a NaN fails too
        raise ValueError(f"expected a unit ket, got <v|v> = {n2!r}")
    # phase so the |0> component is real >= 0; then v - e1 reflects v onto e1
    if abs(v[_ZERO_KET]) > 1e-15:
        v = v * (v[_ZERO_KET].conjugate() / abs(v[_ZERO_KET]))
    e = np.zeros(3, dtype=np.complex128)
    e[_ZERO_KET] = 1.0
    w = v - e
    wn2 = float(np.vdot(w, w).real)
    if wn2 < 1e-24:
        r = np.eye(3, dtype=np.complex128)
    else:
        r = np.eye(3, dtype=np.complex128) - 2.0 * np.outer(w, w.conj()) / wn2
    det = np.linalg.det(r)
    return r * np.exp(-1j * np.angle(det) / 3.0)


def run_protocol(spec: InitialStateSpec, t: float, params: DriveParams, shots: int | None = None,
                 seed=None) -> SchemeTables:
    """The rows of all three schemes at time ``t``, each measured through its own gate chain.

    Each ket -- |E_i(0)> (i = 0..2), the kept complements, then the state --
    is prepared from |0> by a gate, evolved by U(t), and read out by the gates
    that rotate each |E_f(t)> onto |0>; its normalised |0> populations are
    its row.  This is the literal experiment: it never reads the frame kernel
    of ``scheme_tables``, which it reproduces.  With ``shots`` the stacked rows
    are sampled by one ``shot_noise_sample`` call on ``default_rng(seed)``,
    in the order ``scheme_series`` draws them.
    """
    basis0 = _energy_basis0(params)
    xi = state_vector(spec, basis0)
    p_init = spec.normalized_weights
    has_complement = 1.0 - p_init > COMPLEMENT_CUTOFF
    kets = [basis0.ket(i) for i in range(3)]
    kets += [_complement_ket(xi, i, basis0) for i in range(3) if has_complement[i]]
    kets.append(xi)
    u = propagator_closed(t, params).u
    basis_t = energy_basis(t, params)
    readouts = [gate_to_zero(basis_t.ket(f)) for f in range(3)]
    rows = np.empty((len(kets), 3))
    for k, ket in enumerate(kets):
        evolved = u @ gate_to_zero(ket).conj().T[:, _ZERO_KET]  # R^dag |0>
        rows[k] = [abs((r @ evolved)[_ZERO_KET]) ** 2 for r in readouts]
    rows /= rows.sum(axis=1, keepdims=True)
    if shots is not None:
        rows = shot_noise_sample(rows, shots, np.random.default_rng(seed))
    cond_bar = np.zeros((3, 3))
    cond_bar[has_complement] = rows[3:-1]
    return SchemeTables(t, rows[:3], cond_bar, rows[-1], p_init, basis0.energies.copy(),
                        basis_t.energies.copy())


def shot_noise_sample(p, shots: int, seed=None) -> np.ndarray:
    """Multinomial outcome frequencies for ``shots`` repetitions.

    ``p`` is one probability vector or an (m, k) stack of them; a stack is
    drawn row after row from one generator, so it gives the same frequencies
    as m one-row calls.  Deterministic for a given seed (or Generator).  Every
    returned row sums to 1.0 exactly.
    """
    if shots < 1:
        raise InvalidDistribution(f"shots must be >= 1, got {shots}")
    prob = np.asarray(p, dtype=float)
    if prob.ndim not in (1, 2):
        raise InvalidDistribution(f"expected a probability vector or a stack, got shape {prob.shape}")
    # negated comparisons, so a NaN anywhere fails the check too
    if not (prob.min() >= -1e-9 and np.abs(prob.sum(axis=-1) - 1.0).max() <= 1e-6):
        raise InvalidDistribution(f"not a distribution: {p}")
    prob = np.maximum(0.0, prob)  # np.clip(prob, 0.0, None), but cheaper
    prob = prob / prob.sum(axis=-1, keepdims=True)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    freq = rng.multinomial(shots, prob) / shots
    rows = np.atleast_2d(freq)  # a view: writes land in freq
    # pin each row's float sum to exactly 1.0 (division can round each entry)
    tail = 1.0 - rows[:, :-1].sum(axis=-1)
    rows[:, -1] = np.maximum(tail, 0.0)
    for r in np.flatnonzero(tail < 0.0):  # only with four or more outcomes
        k = np.argmax(rows[r, :-1])
        rows[r, k] = 1.0 - (rows[r].sum() - rows[r, k])
    return freq
