"""Non-classicality measures and work statistics of a quasiprobability table.

Negativity is -1 plus the sum of entry magnitudes: zero for a genuine joint
distribution, positive as soon as any entry is negative (real table) or
non-real (complex table), and bounded above by sqrt(d) - 1.  The average
work sum_{i,f} Re q[i][f] * (E_f - E_i) coincides with the two-point energy
expectation difference Tr[U rho U^dag H(t)] - Tr[rho H(0)], and any real
table admits a classical rewrite over the normalized magnitudes
mu[i][f] = |z[i][f]| / ||z|| with sign-flipped effective energies, which is
what lets a negative cell turn work done into work extracted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schemes import QuasiTable, SchemeTables

__all__ = [
    "ClassicalDecomposition",
    "DegenerateTable",
    "negativity",
    "total_negativity",
    "classical_decomposition",
    "avg_work_mhq",
    "avg_work_tpm",
    "s_stat",
    "NEGATIVITY_BOUND",
]

# Upper bound sqrt(d) - 1 for d = 3.
NEGATIVITY_BOUND = np.sqrt(3.0) - 1.0


class DegenerateTable(ValueError):
    """All-zero table: no classical decomposition exists."""


@dataclass(frozen=True)
class ClassicalDecomposition:
    """Rewrite of a real table as probabilities x signed, scaled energies.

    mu is a genuine distribution; mu * z_norm * signs reproduces z, and
    effective ladders e_init_eff[i][f] = z_norm * signs[i][f] * E_i(0)
    (same for e_final_eff with E_f(t)) reproduce the average work.
    """

    mu: np.ndarray
    signs: np.ndarray
    z_norm: float
    e_init_eff: np.ndarray
    e_final_eff: np.ndarray

    def average_work(self) -> float:
        return float(np.sum(self.mu * (self.e_final_eff - self.e_init_eff)))


def negativity(table: QuasiTable | np.ndarray) -> float | np.ndarray:
    """-1 + sum of magnitudes: complex modulus for a full Kirkwood-Dirac
    table, absolute value for a reconstructed real table."""
    mags = table.magnitudes if isinstance(table, QuasiTable) else np.abs(np.asarray(table))
    return _per_table_sum(mags) - 1.0


def _per_table_sum(x: np.ndarray) -> float | np.ndarray:
    """One sum per table over the last two axes, adding cells in row-major order."""
    total = x.reshape(*x.shape[:-2], -1).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def total_negativity(z) -> float | np.ndarray:
    """||z|| = sum |z[i][f]|; exceeds 1 exactly when some entry is negative."""
    return _per_table_sum(np.abs(np.asarray(z)))


def classical_decomposition(table: QuasiTable) -> ClassicalDecomposition:
    """Normalized-magnitude distribution and signed effective energy ladders."""
    z = table.z
    z_norm = total_negativity(z)
    if z_norm <= 0.0:
        raise DegenerateTable("table is identically zero")
    signs = np.where(z > 0.0, 1.0, -1.0)
    mu = np.abs(z) / z_norm
    scale = z_norm * signs
    return ClassicalDecomposition(
        mu=mu,
        signs=signs,
        z_norm=z_norm,
        e_init_eff=scale * table.e_init[:, None],
        e_final_eff=scale * table.e_final[None, :],
    )


def _work_weights(e_init, e_final) -> np.ndarray:
    return np.asarray(e_final)[None, :] - np.asarray(e_init)[:, None]


def avg_work_mhq(table: QuasiTable) -> float | np.ndarray:
    """<W> = sum_{i,f} Re q[i][f] * (E_f(t) - E_i(0))."""
    return _per_table_sum(table.z * _work_weights(table.e_init, table.e_final))


def avg_work_tpm(tables: SchemeTables) -> float | np.ndarray:
    """<W>_TPM = sum_{i,f} p_tpm[i][f] * (E_f(t) - E_i(0))."""
    return _per_table_sum(tables.p_tpm * _work_weights(tables.e_init, tables.e_final))


def s_stat(z) -> float | np.ndarray:
    """Summed quasiprobability mass of the two upper initial labels.

    sum_f z[+][f] + z[0][f]; equals p_+ + p_0 identically in t by the row
    marginal identity, so it is a constant consistency statistic.
    """
    z = np.asarray(z)
    total = z[..., 0, :].sum(axis=-1) + z[..., 1, :].sum(axis=-1)
    return float(total) if total.ndim == 0 else total

