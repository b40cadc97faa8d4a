"""Random-parameter search for negativity and work-extraction extrema.

Each set draws one random drive-parameter tuple and one random pure state,
then scores three variants over a window of one characteristic period: the
draw itself plus two equal-ramp twins with phi1 = phi2 pinned to each drawn
ramp rate.  Scored quantities per variant:

* min over time and cells of the real quasiprobability table,
* min over time of the average work (sign included, so "most extraction"),
* max over time of the non-classicality -1 + sum |q[i][f]| (complex modulus).

Per-set substreams (SeedSequence spawn keys) make the sweep deterministic and
order-independent, so records are identical whether sets run serially or in a
process pool.

The per-variant evaluation avoids the measurement pipeline: with rho_e the
state in t=0 energy coordinates and m(t) = a e^{-itL} a^dag the amplitude
kernel of the ``schemes`` docstring, q[t, i, f] = conj(m[f, i]) (m rho_e)[f, i]
over the whole grid, validated against the kdq_direct oracle in the tests.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import DriveParams, hamiltonian_rot, hamiltonian_tilde
from .propagate import frame_amplitudes
from .qmath import herm_eig

__all__ = [
    "SweepConfig",
    "VariantResult",
    "SweepRecord",
    "SweepSummary",
    "random_pure_state",
    "random_params",
    "time_window",
    "variant_extrema",
    "sweep",
    "InvalidThreadCount",
    "SweepSetFailed",
]

MHZ_TO_ANGULAR = 2.0 * math.pi  # ordinary MHz -> rad/us

VARIANT_KINDS = ("original", "twin_ramp1", "twin_ramp2")


class InvalidThreadCount(ValueError):
    """QUASIWORK_THREADS is set to something other than a positive integer."""


class SweepSetFailed(ValueError):
    """A variant of one sweep set could not be evaluated; names the set and variant."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep shape and sampling intervals.

    Amplitudes are drawn uniformly from ``omega_interval_mhz`` and ramp rates
    from [-ramp_factor*omega, +ramp_factor*omega] (same pre-conversion units).
    With ``angular_convention`` the drawn MHz values are scaled by 2*pi into
    rad/us; with it off they are used as plain rad/us (both conventions are
    runnable since the sampling statement is ambiguous about the factor).
    """

    n_sets: int = 1000
    n_time: int = 200
    seed: int = 20260810
    omega_interval_mhz: tuple[float, float] = (1.0, 20.0)
    ramp_factor: float = 2.0
    angular_convention: bool = True

    def __post_init__(self):
        if self.n_sets < 1:
            raise ValueError("n_sets must be >= 1")
        if self.n_time < 2:
            raise ValueError("n_time must be >= 2")
        lo, hi = self.omega_interval_mhz
        if not (0.0 < lo < hi):
            raise ValueError(f"bad amplitude interval {self.omega_interval_mhz}")


@dataclass(frozen=True)
class VariantResult:
    """Extrema of one parameter variant over its own time window."""

    kind: str
    params: DriveParams
    window_end: float
    min_req: float
    min_w: float
    max_aleph: float


@dataclass(frozen=True)
class SweepRecord:
    """One random set: the drawn state, the original draw and its two twins."""

    index: int
    state_ket: tuple[complex, complex, complex]
    state_draw: tuple[float, float, float, float]  # a, b, phi_a, phi_b
    variants: tuple[VariantResult, ...]

    @property
    def original(self) -> VariantResult:
        return self.variants[0]

    @property
    def twins(self) -> tuple[VariantResult, ...]:
        return self.variants[1:]


@dataclass
class SweepSummary:
    """Aggregate statistics of a finished sweep."""

    n_sets: int
    n_skipped: int
    seed: int
    n_time: int
    angular_convention: bool
    fraction_aleph_positive: float
    bound_violations: int
    median_min_w_original: float
    median_min_w_twins: float
    lowest_decile_twin_fraction: float
    global_max_aleph: float
    global_max_aleph_kind: str
    global_max_aleph_equal_ramps: bool


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Random qutrit ket (a e^{i phi_a}, b e^{i phi_b}, sqrt(1-a^2-b^2)).

    a ~ U[0,1], b ~ U[0, sqrt(1-a^2)], phases ~ U[0, 2pi).  This nested-box
    law is the search's fixed convention; it is deliberately not Haar-uniform.
    """
    ket, _ = _draw_state(rng)
    return ket


def _draw_state(rng: np.random.Generator) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    a = rng.uniform(0.0, 1.0)
    b = rng.uniform(0.0, math.sqrt(max(0.0, 1.0 - a * a)))
    phi_a = rng.uniform(0.0, 2.0 * math.pi)
    phi_b = rng.uniform(0.0, 2.0 * math.pi)
    rest = math.sqrt(max(0.0, 1.0 - a * a - b * b))
    ket = np.array(
        [a * np.exp(1j * phi_a), b * np.exp(1j * phi_b), rest], dtype=np.complex128
    )
    ket /= np.linalg.norm(ket)  # exact up to roundoff already
    return ket, (a, b, phi_a, phi_b)


def random_params(rng: np.random.Generator, config: SweepConfig | None = None) -> DriveParams:
    """Uniform draw of (omega1, phi1, omega2, phi2) in the configured boxes."""
    cfg = config if config is not None else SweepConfig()
    lo, hi = cfg.omega_interval_mhz
    scale = MHZ_TO_ANGULAR if cfg.angular_convention else 1.0
    omega1 = rng.uniform(lo, hi)
    phi1 = rng.uniform(-cfg.ramp_factor * omega1, cfg.ramp_factor * omega1)
    omega2 = rng.uniform(lo, hi)
    phi2 = rng.uniform(-cfg.ramp_factor * omega2, cfg.ramp_factor * omega2)
    return DriveParams(
        omega1=scale * omega1, omega2=scale * omega2, phi1=scale * phi1, phi2=scale * phi2
    )


def time_window(params: DriveParams) -> float:
    """Window length 2*pi / sqrt(2*(w1^2 + w2^2) + phi1^2), us.

    For equal ramp rates this is one full period of the dynamics.
    """
    return 2.0 * math.pi / math.sqrt(
        2.0 * (params.omega1**2 + params.omega2**2) + params.phi1**2
    )


def variant_extrema(params: DriveParams, rho: np.ndarray, n_time: int,
                    window: float | None = None) -> tuple[float, float, float, float]:
    """(window_end, min_req, min_w, max_aleph) on an (0, T] grid.

    Vectorized over the grid; see the module docstring for the identity used.
    """
    t_end = time_window(params) if window is None else window
    eig0 = herm_eig(hamiltonian_rot(0.0, params))
    v = eig0.vectors[:, ::-1]  # descending labels (+, 0, -)
    energies = eig0.values[::-1]
    eig_g = herm_eig(hamiltonian_tilde(params))
    a = v.conj().T @ eig_g.vectors
    rho_e = v.conj().T @ np.asarray(rho, dtype=np.complex128) @ v

    times = t_end * np.arange(1, n_time + 1) / n_time
    m = frame_amplitudes(a, eig_g.values, times, a.conj().T)
    r = np.matmul(m, rho_e)
    q = np.transpose(m.conj() * r, (0, 2, 1))  # q[t, i, f]

    z = q.real
    dw = energies[None, :] - energies[:, None]  # (i, f) work weights
    work = np.einsum("tif,if->t", z, dw)
    aleph = np.abs(q).sum(axis=(1, 2)) - 1.0
    return t_end, float(z.min()), float(work.min()), float(aleph.max())


def _twin_variants(params: DriveParams) -> tuple[DriveParams, DriveParams]:
    return (
        DriveParams(params.omega1, params.omega2, params.phi1, params.phi1),
        DriveParams(params.omega1, params.omega2, params.phi2, params.phi2),
    )


def _run_one_set(index: int, config: SweepConfig) -> SweepRecord:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(index,)))
    params = random_params(rng, config)
    ket, draw = _draw_state(rng)
    rho = np.outer(ket, ket.conj())
    variants = []
    for kind, p in zip(VARIANT_KINDS, (params, *_twin_variants(params))):
        try:
            extrema = variant_extrema(p, rho, config.n_time)
        except (ValueError, ArithmeticError) as exc:
            raise SweepSetFailed(f"set {index}, variant {kind}: {type(exc).__name__}: {exc}") from exc
        variants.append(VariantResult(kind, p, *extrema))
    return SweepRecord(
        index=index, state_ket=tuple(ket.tolist()), state_draw=draw, variants=tuple(variants)
    )


def _run_chunk(args: tuple[SweepConfig, int, int]) -> list[SweepRecord]:
    config, start, stop = args
    return [_run_one_set(i, config) for i in range(start, stop)]


def sweep(config: SweepConfig) -> tuple[list[SweepRecord], SweepSummary]:
    """Run the full sweep; deterministic for a given config.

    Honors the QUASIWORK_THREADS environment variable for process-parallel
    execution; results are identical to the serial run because every set owns
    an index-keyed substream and records are reassembled in index order.
    Unset or empty means one worker; any other value that is not a positive
    integer raises InvalidThreadCount.  A set that cannot be evaluated raises
    SweepSetFailed; no set is skipped, so ``n_skipped`` is always 0.
    """
    workers = _worker_count()
    if workers > 1 and config.n_sets >= 4 * workers:
        chunk = (config.n_sets + workers - 1) // workers
        spans = [
            (config, start, min(start + chunk, config.n_sets))
            for start in range(0, config.n_sets, chunk)
        ]
        records = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, spans):
                records.extend(part)
    else:
        records = [_run_one_set(i, config) for i in range(config.n_sets)]
    return records, _summarize(records, config)


def _worker_count() -> int:
    raw = os.environ.get("QUASIWORK_THREADS", "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidThreadCount(f"QUASIWORK_THREADS must be a positive integer, got {raw!r}")
    return workers


def _summarize(records: list[SweepRecord], config: SweepConfig) -> SweepSummary:
    bound = math.sqrt(3.0) - 1.0 + 1e-9
    all_variants = [v for r in records for v in r.variants]
    originals = [r.original for r in records]
    twins = [v for r in records for v in r.twins]

    min_w_all = np.array([v.min_w for v in all_variants])
    is_twin = np.array([v.kind != "original" for v in all_variants])
    decile_cut = np.quantile(min_w_all, 0.1) if min_w_all.size else float("nan")
    in_decile = min_w_all <= decile_cut
    twin_frac = float(is_twin[in_decile].mean()) if in_decile.any() else float("nan")

    best = max(all_variants, key=lambda v: v.max_aleph)
    return SweepSummary(
        n_sets=config.n_sets,
        n_skipped=0,
        seed=config.seed,
        n_time=config.n_time,
        angular_convention=config.angular_convention,
        fraction_aleph_positive=float(
            np.mean([r.original.max_aleph > 0.0 for r in records]) if records else 0.0
        ),
        bound_violations=sum(v.max_aleph > bound for v in all_variants),
        median_min_w_original=float(np.median([v.min_w for v in originals])),
        median_min_w_twins=float(np.median([v.min_w for v in twins])),
        lowest_decile_twin_fraction=twin_frac,
        global_max_aleph=best.max_aleph,
        global_max_aleph_kind=best.kind,
        global_max_aleph_equal_ramps=best.params.equal_phases,
    )
