"""Quasiprobability work statistics for a driven three-level system.

Reconstructs the real (Margenau-Hill) part of the Kirkwood-Dirac work
distribution from three projective measurement schemes, quantifies
non-classicality through negativity, compares work extraction against the
classical two-point-measurement baseline, and explores random drive
parameters for extremal behaviour.
"""

__version__ = "0.12.0"

from .analysis import (
    NEGATIVITY_BOUND,
    avg_work_mhq,
    avg_work_tpm,
    classical_decomposition,
    negativity,
    s_stat,
    total_negativity,
)
from .explore import SweepConfig, random_params, random_pure_state, sweep, time_window
from .model import (
    DriveParams,
    InitialStateSpec,
    energy_basis,
    hamiltonian_rot,
    hamiltonian_tilde,
    initial_state,
    reference_params,
    reference_state_spec,
    state_vector,
)
from .propagate import propagator_closed, propagator_stepped
from .qmath import EigenSystem, herm_eig, unitary_exp
from .schemes import (
    QuasiTable,
    SchemeTables,
    gate_to_zero,
    kdq_direct,
    mhq_reconstruct,
    run_protocol,
    scheme_series,
    scheme_tables,
    shot_noise_sample,
)

__all__ = [
    "__version__",
    "NEGATIVITY_BOUND",
    "DriveParams",
    "InitialStateSpec",
    "EigenSystem",
    "QuasiTable",
    "SchemeTables",
    "SweepConfig",
    "avg_work_mhq",
    "avg_work_tpm",
    "classical_decomposition",
    "energy_basis",
    "gate_to_zero",
    "hamiltonian_rot",
    "hamiltonian_tilde",
    "herm_eig",
    "initial_state",
    "kdq_direct",
    "mhq_reconstruct",
    "negativity",
    "propagator_closed",
    "propagator_stepped",
    "random_params",
    "random_pure_state",
    "reference_params",
    "reference_state_spec",
    "run_protocol",
    "s_stat",
    "scheme_series",
    "scheme_tables",
    "shot_noise_sample",
    "state_vector",
    "sweep",
    "time_window",
    "total_negativity",
    "unitary_exp",
]
