"""Random-parameter search for negativity and work-extraction extrema.

Each set draws one random drive-parameter tuple and one random pure state,
then scores three variants over a window of one characteristic period: the
draw itself plus two equal-ramp twins with phi1 = phi2 pinned to each drawn
ramp rate.  Scored quantities per variant:

* min over time and cells of the real quasiprobability table,
* min over time of the average work (sign included, so "most extraction"),
* max over time of the non-classicality -1 + sum |q[i][f]| (complex modulus).

Per-set substreams (SeedSequence spawn keys) make the draws deterministic and
order-independent.  The sweep draws every set first, then scores the variants
in fixed-size chunks of one batched evaluation; records are identical for any
chunk size.

The per-variant evaluation avoids the measurement pipeline.  With psi the
state in t=0 energy coordinates and m(t) = a e^{-itL} a^dag the amplitude
kernel of the ``schemes`` docstring, the state is pure, so
q[t, i, f] = conj(m[t, f, i]) (m psi)[t, f] conj(psi[i]).  Three identities
make the whole grid a real product and a few elementwise passes:

* folded psi: with mt[t, f, i] = m[t, f, i] psi[i], q[t, i, f] =
  conj(mt[t, f, i]) (m psi)[t, f] and (m psi)[t, f] = sum_i mt[t, f, i], so the
  real and imaginary planes of mt are one real matmul of per-variant
  coefficients with cos(t L_k) and sin(t L_k);
* marginal work: summed over i, q gives the END row |(m psi)[t, f]|^2, and
  summed over f, |psi[i]|^2 (m is unitary), so <W>(t) = sum_{i,f} Re q
  (E_f - E_i) = sum_f E_f |(m psi)[t, f]|^2 - sum_i E_i |psi[i]|^2;
* factorised |q|: |q[t, i, f]| = |mt[t, f, i]| |(m psi)[t, f]|.

The time grid is uniform, so its phases come from the angle sums over blocks
of grid points (``_grid_amplitudes``).  The tests check every extremum
against the kdq_direct oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DriveParams, _hamiltonian_stack
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
    "SweepSetFailed",
]

MHZ_TO_ANGULAR = 2.0 * math.pi  # ordinary MHz -> rad/us

VARIANT_KINDS = ("original", "twin_ramp1", "twin_ramp2")

# Variants per batched evaluation.  Larger chunks run little faster and raise
# the sweep's peak memory (a chunk holds a (chunk, 18, n_time) amplitude
# array and a (chunk, 3, 3, n_time) table).
_CHUNK = 32

# Grid points per block of the angle-sum phase grid (see _grid_amplitudes).
_BLOCK = 16


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


def variant_extrema(params_seq, kets, n_time: int) -> np.ndarray:
    """Extrema of a stack of variants on their (0, T] grids, shape (n, 4).

    ``params_seq`` holds n DriveParams and ``kets`` the n pure states, shape
    (n, 3).  Row k is (window_end, min_req, min_w, max_aleph) of variant k;
    see the module docstring for the identities used.
    """
    kets = np.asarray(kets, dtype=np.complex128)
    t_end = np.array([time_window(p) for p in params_seq])
    w1, w2, f1, f2 = np.array([(p.omega1, p.omega2, p.phi1, p.phi2) for p in params_seq]).T
    h0 = _hamiltonian_stack(0.0, w1, w2, f1, f2)  # bitwise hamiltonian_rot(0.0, p) per variant
    h_tilde = h0.copy()
    h_tilde[:, 0, 0], h_tilde[:, 2, 2] = -f1, -f2  # and hamiltonian_tilde(p)
    eig0 = herm_eig(h0)
    eig_g = herm_eig(h_tilde)
    v = eig0.vectors[..., ::-1]  # descending labels (+, 0, -)
    energies = eig0.values[..., ::-1]
    a = v.conj().swapaxes(-1, -2) @ eig_g.vectors
    a_t = a.swapaxes(-1, -2)  # a_t[k, f] = a[f, k]
    psi = (v.conj().swapaxes(-1, -2) @ kets[..., None])[..., 0]
    n = len(kets)

    # mt[t, f, i] = m[t, f, i] psi_i = sum_k e^{-it L_k} c[k, f, i], so with
    # e^{-itL} = cos - i sin its real planes are cos Re c + sin Im c and its
    # imaginary planes cos Im c - sin Re c: a real (18, 6) map per variant.
    coeffs = (a_t[..., None] * (a_t.conj() * psi[:, None, :])[:, :, None, :]).reshape(n, 3, 9)
    real_map = np.empty((n, 18, 6))
    real_map[:, :9, :3] = real_map[:, 9:, 3:] = coeffs.real.swapaxes(-1, -2)
    real_map[:, 9:, :3] = real_map[:, :9, 3:] = coeffs.imag.swapaxes(-1, -2)
    real_map[:, 9:, 3:] *= -1.0
    amp = _grid_amplitudes(real_map, eig_g.values * (t_end / n_time)[:, None], n_time)

    re_mt, im_mt = amp[:, :9].reshape(n, 3, 3, n_time), amp[:, 9:].reshape(n, 3, 3, n_time)
    re_mp, im_mp = re_mt.sum(axis=2), im_mt.sum(axis=2)  # (m psi)[t, f] = sum_i mt[t, f, i]
    z = re_mt * re_mp[:, :, None]  # z[f, i, t] = Re q[t, i, f]
    z += im_mt * im_mp[:, :, None]

    pop = re_mp * re_mp
    pop += im_mp * im_mp  # the END row |(m psi)[t, f]|^2
    work = (energies[:, None, :] @ pop)[:, 0]
    work_init = (energies * (psi.real**2 + psi.imag**2)).sum(axis=-1)

    re_mt *= re_mt  # in place: amp is not read again
    im_mt *= im_mt
    re_mt += im_mt
    abs_q = np.sqrt(re_mt, out=re_mt).sum(axis=2)
    abs_q *= np.sqrt(pop, out=pop)  # sum_i |q[t, i, f]|
    return np.stack([t_end, z.min(axis=(1, 2, 3)), work.min(axis=1) - work_init,
                     abs_q.sum(axis=1).max(axis=1) - 1.0], axis=1)


def _grid_amplitudes(real_map: np.ndarray, theta: np.ndarray, n_time: int) -> np.ndarray:
    """``real_map @ [cos; sin](theta s)`` on the grid s = 1..n_time: (n, rows, n_time).

    ``real_map`` is (n, rows, 6) over the columns cos(theta_k s), then
    sin(theta_k s), and ``theta`` is (n, 3).  With s = _BLOCK j + r, the angle
    sums turn (cos, sin)(theta_k s) into the rotation by theta_k _BLOCK j of
    (cos, sin)(theta_k r).  One product folds the rotations of all blocks j
    into the map, a second applies the offsets r: per theta_k that takes
    n_time // _BLOCK + 1 + _BLOCK angles (29 at n_time = 200), not n_time.
    """
    n, rows, _ = real_map.shape
    n_blocks = n_time // _BLOCK + 1
    block = theta[..., None] * (_BLOCK * np.arange(n_blocks))
    offset = theta[..., None] * np.arange(_BLOCK)
    cb, sb = np.cos(block).swapaxes(0, 1), np.sin(block).swapaxes(0, 1)  # (3, n, n_blocks)
    k = np.arange(3)
    rot = np.zeros((n, 6, n_blocks, 6))  # rot[:, :, j]: the rotations of block j
    rot[:, k, :, k] = rot[:, k + 3, :, k + 3] = cb
    rot[:, k + 3, :, k] = sb
    rot[:, k, :, k + 3] = -sb
    per_block = (real_map @ rot.reshape(n, 6, -1)).reshape(n, rows * n_blocks, 6)
    amp = per_block @ np.concatenate([np.cos(offset), np.sin(offset)], axis=1)
    return amp.reshape(n, rows, -1)[..., 1 : n_time + 1]


def _twin_variants(params: DriveParams) -> tuple[DriveParams, DriveParams]:
    return (
        DriveParams(params.omega1, params.omega2, params.phi1, params.phi1),
        DriveParams(params.omega1, params.omega2, params.phi2, params.phi2),
    )


def _score_chunk(jobs: list, n_time: int) -> np.ndarray:
    """Extrema of (set index, kind, params, ket) jobs in one batched call.

    A failing chunk is re-run one variant at a time to name the variant that
    fails; if none does, the error still raises, naming the chunk's sets.
    """
    try:
        return variant_extrema([p for _, _, p, _ in jobs], [ket for *_, ket in jobs], n_time)
    except (ValueError, ArithmeticError) as exc:
        for index, kind, p, ket in jobs:
            try:
                variant_extrema([p], [ket], n_time)
            except (ValueError, ArithmeticError) as one:
                raise SweepSetFailed(f"set {index}, variant {kind}: {type(one).__name__}: {one}") from one
        raise SweepSetFailed(f"sets {jobs[0][0]}-{jobs[-1][0]}: {type(exc).__name__}: {exc}") from exc


def sweep(config: SweepConfig) -> tuple[list[SweepRecord], SweepSummary]:
    """Run the full sweep; deterministic for a given config.

    Every set is drawn from its own index-keyed substream, then the variants
    are scored ``_CHUNK`` at a time.  A set that cannot be evaluated raises
    SweepSetFailed; no set is skipped, so ``n_skipped`` is always 0.
    """
    rngs = (np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
            for i in range(config.n_sets))
    sets = [(random_params(rng, config), *_draw_state(rng)) for rng in rngs]
    jobs = [
        (i, kind, p, ket)
        for i, (params, ket, _) in enumerate(sets)
        for kind, p in zip(VARIANT_KINDS, (params, *_twin_variants(params)))
    ]
    rows = np.concatenate(
        [_score_chunk(jobs[k : k + _CHUNK], config.n_time) for k in range(0, len(jobs), _CHUNK)]
    ).tolist()
    variants = [VariantResult(kind, p, *row) for (_, kind, p, _), row in zip(jobs, rows)]
    records = [
        SweepRecord(i, tuple(ket.tolist()), draw, tuple(variants[3 * i : 3 * i + 3]))
        for i, (_, ket, draw) in enumerate(sets)
    ]
    return records, _summarize(records, config)


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
