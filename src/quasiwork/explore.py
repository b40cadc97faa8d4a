"""Random-parameter search for negativity and work-extraction extrema.

Each set draws one random drive-parameter tuple and one random pure state,
then scores three variants over a window of one characteristic period: the
draw itself plus two equal-ramp twins with phi1 = phi2 pinned to each drawn
ramp rate.  Scored quantities per variant:

* min over time and cells of the real quasiprobability table,
* min over time of the average work (sign included, so "most extraction"),
* max over time of the non-classicality -1 + sum |q[i][f]| (complex modulus).

Set i takes 8 doubles u from its own substream SeedSequence(seed,
spawn_key=(i,)), for omega1, phi1, omega2, phi2, a, b, phi_a, phi_b in that
order, and maps each onto its box [lo, hi) as lo + (hi - lo) u, which is how
Generator.uniform maps one double.  So the sets are deterministic and
order-independent, and ``random_params`` and ``random_pure_state`` (4 doubles
each) draw the same values from the same stream.  From the draw to the
summary the sweep holds its sets as arrays (``SweepResult``); it scores the
variants in fixed-size chunks of one batched evaluation, and the results are
identical for any chunk size.

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

from .model import DriveParams, _hamiltonian_stack, _tilde_stack
from .qmath import herm_eig

__all__ = [
    "SweepConfig",
    "SweepResult",
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
        if not (_finite_number(lo) and _finite_number(hi) and 0.0 < lo < hi):
            raise ValueError(f"bad amplitude interval {self.omega_interval_mhz}")
        if not (_finite_number(self.ramp_factor) and self.ramp_factor >= 0.0):
            raise ValueError(f"ramp_factor must be finite and >= 0, got {self.ramp_factor}")


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class SweepResult:
    """A finished sweep as arrays; axis 1 of ``drives`` and ``extrema`` follows VARIANT_KINDS."""

    drives: np.ndarray  # (n_sets, 3, 4): omega1, omega2, phi1, phi2 in rad/us
    draws: np.ndarray  # (n_sets, 4): the state draw a, b, phi_a, phi_b
    kets: np.ndarray  # (n_sets, 3): the drawn states
    extrema: np.ndarray  # (n_sets, 3, 4): window_end, min_req, min_w, max_aleph


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
    return _draw_states(rng.random((1, 4)))[1][0]


def random_params(rng: np.random.Generator, config: SweepConfig | None = None) -> DriveParams:
    """Uniform draw of (omega1, phi1, omega2, phi2) in the configured boxes."""
    return DriveParams(*_draw_drives(rng.random((1, 4)), config or SweepConfig())[0].tolist())


def _draw_drives(u: np.ndarray, config: SweepConfig) -> np.ndarray:
    """Drives (n, 4) as (omega1, omega2, phi1, phi2) in rad/us from the (n, 4) doubles."""
    lo, hi = (float(x) for x in config.omega_interval_mhz)
    omega = lo + (hi - lo) * u[:, ::2]
    phi_lo = -config.ramp_factor * omega
    phi = phi_lo + (config.ramp_factor * omega - phi_lo) * u[:, 1::2]
    scale = MHZ_TO_ANGULAR if config.angular_convention else 1.0
    return scale * np.concatenate([omega, phi], axis=1)


def _draw_states(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state draws (a, b, phi_a, phi_b), shape (n, 4), and kets (n, 3) from the (n, 4) doubles."""
    a = u[:, 0]
    b = np.sqrt(np.maximum(0.0, 1.0 - a * a)) * u[:, 1]
    phi_a, phi_b = 2.0 * math.pi * u[:, 2], 2.0 * math.pi * u[:, 3]
    rest = np.sqrt(np.maximum(0.0, 1.0 - a * a - b * b))
    kets = np.stack([a * np.exp(1j * phi_a), b * np.exp(1j * phi_b), rest], axis=1)
    # per-row dot products, as np.linalg.norm sums them; elementwise sums move kets by an ulp
    kets /= np.sqrt([re.dot(re) + im.dot(im) for re, im in zip(kets.real, kets.imag)])[:, None]
    return np.stack([a, b, phi_a, phi_b], axis=1), kets


def _with_twins(drawn: np.ndarray) -> np.ndarray:
    """Drives (n, 3, 4) in VARIANT_KINDS order: each draw, then phi2 := phi1, then phi1 := phi2."""
    drives = np.repeat(drawn[:, None, :], 3, axis=1)
    drives[:, 1, 3] = drawn[:, 2]
    drives[:, 2, 2] = drawn[:, 3]
    return drives


def _draw_sets(config: SweepConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drives (n_sets, 3, 4), state draws (n_sets, 4) and kets (n_sets, 3) of the sweep."""
    u = np.stack([np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,))).random(8)
                  for i in range(config.n_sets)])
    draws, kets = _draw_states(u[:, 4:])
    return _with_twins(_draw_drives(u[:, :4], config)), draws, kets


def time_window(params: DriveParams) -> float:
    """Window length 2*pi / sqrt(2*(w1^2 + w2^2) + phi1^2), us.

    For equal ramp rates this is one full period of the dynamics.
    """
    return _window(params.omega1, params.omega2, params.phi1)


def _window(omega1: float, omega2: float, phi1: float, *_) -> float:
    # Python floats, as in model.omega_eff: the window keeps its bits
    return 2.0 * math.pi / math.sqrt(2.0 * (omega1**2 + omega2**2) + phi1**2)


def variant_extrema(drives, kets, n_time: int) -> np.ndarray:
    """Extrema of a stack of variants on their (0, T] grids, shape (n, 4).

    ``drives`` holds the n drives as rows (omega1, omega2, phi1, phi2), shape
    (n, 4), and ``kets`` the n pure states, shape (n, 3).  Row k is
    (window_end, min_req, min_w, max_aleph) of variant k; see the module
    docstring for the identities used.
    """
    drives = np.asarray(drives, dtype=np.float64)
    kets = np.asarray(kets, dtype=np.complex128)
    t_end = np.array([_window(*row) for row in drives.tolist()])
    w1, w2, f1, f2 = drives.T
    eig0 = herm_eig(_hamiltonian_stack(0.0, w1, w2, f1, f2))  # bitwise hamiltonian_rot(0.0, p)
    eig_g = herm_eig(_tilde_stack(w1, w2, f1, f2))  # and hamiltonian_tilde(p), per variant
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


def _score_chunk(drives: np.ndarray, kets: np.ndarray, first: int, n_time: int) -> np.ndarray:
    """Extrema of one chunk of the flat variant stack in one batched call.

    ``first`` is the flat index of the chunk's first variant; flat index j is
    kind j % 3 of set j // 3.  A failing chunk is re-run one variant at a time
    to name the variant that fails; if none does, the error still raises,
    naming the chunk's sets.
    """
    try:
        return variant_extrema(drives, kets, n_time)
    except (ValueError, ArithmeticError) as exc:
        for k in range(len(drives)):
            try:
                variant_extrema(drives[k : k + 1], kets[k : k + 1], n_time)
            except (ValueError, ArithmeticError) as one:
                index, kind = divmod(first + k, 3)
                raise SweepSetFailed(
                    f"set {index}, variant {VARIANT_KINDS[kind]}: {type(one).__name__}: {one}"
                ) from one
        last = (first + len(drives) - 1) // 3
        raise SweepSetFailed(f"sets {first // 3}-{last}: {type(exc).__name__}: {exc}") from exc


def sweep(config: SweepConfig) -> tuple[SweepResult, SweepSummary]:
    """Run the full sweep; deterministic for a given config.

    Every set is drawn from its own index-keyed substream, then the variants
    are scored ``_CHUNK`` at a time into one ``SweepResult``.  A set that
    cannot be evaluated raises SweepSetFailed; no set is skipped, so
    ``n_skipped`` is always 0.
    """
    drives, draws, kets = _draw_sets(config)
    flat = drives.reshape(-1, 4)
    flat_kets = np.repeat(kets, 3, axis=0)
    extrema = np.concatenate([
        _score_chunk(flat[k : k + _CHUNK], flat_kets[k : k + _CHUNK], k, config.n_time)
        for k in range(0, len(flat), _CHUNK)
    ])
    result = SweepResult(drives, draws, kets, extrema.reshape(-1, 3, 4))
    return result, _summarize(result, config)


def _summarize(result: SweepResult, config: SweepConfig) -> SweepSummary:
    bound = math.sqrt(3.0) - 1.0 + 1e-9
    _, _, min_w, max_aleph = np.moveaxis(result.extrema, -1, 0)  # each (n_sets, 3)
    in_decile = min_w <= np.quantile(min_w, 0.1)
    best_set, best_kind = divmod(int(np.argmax(max_aleph)), 3)
    _, _, phi1, phi2 = result.drives[best_set, best_kind].tolist()
    return SweepSummary(
        n_sets=config.n_sets,
        n_skipped=0,
        seed=config.seed,
        n_time=config.n_time,
        angular_convention=config.angular_convention,
        fraction_aleph_positive=float(np.mean(max_aleph[:, 0] > 0.0)),
        bound_violations=int((max_aleph > bound).sum()),
        median_min_w_original=float(np.median(min_w[:, 0])),
        median_min_w_twins=float(np.median(min_w[:, 1:])),
        lowest_decile_twin_fraction=float(in_decile[:, 1:].sum() / in_decile.sum()),
        global_max_aleph=float(max_aleph[best_set, best_kind]),
        global_max_aleph_kind=VARIANT_KINDS[best_kind],
        global_max_aleph_equal_ramps=phi1 == phi2,
    )
