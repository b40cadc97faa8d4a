import math

import numpy as np
import pytest

from quasiwork import explore, model, schemes
from quasiwork.explore import (
    SweepConfig,
    SweepSetFailed,
    random_params,
    random_pure_state,
    sweep,
    time_window,
    variant_extrema,
)

from conftest import drive_rows, twin_variants


class _FixedRandom:
    """Duck-typed stand-in for a Generator with scripted random() draws."""

    def __init__(self, values):
        self._values = np.array(values, dtype=float)

    def random(self, size):
        return self._values.reshape(size)


def test_random_state_boundary():
    ket = random_pure_state(_FixedRandom([1.0, 0.0, 0.25, 0.5]))
    assert abs(ket[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(ket[1]) == 0.0
    assert abs(ket[2]) == 0.0


def test_random_state_norm_and_support(rng):
    for _ in range(500):
        ket = random_pure_state(rng)
        assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-12)
        assert ket[2].imag == 0.0 and ket[2].real >= 0.0


def test_random_state_first_moment():
    # a ~ U[0,1]: mean of |<+1|ket>| estimates 1/2 within 3 sigma; one batched
    # draw gives the same states as 100,000 random_pure_state calls would
    rng = np.random.default_rng(123)
    n = 100_000
    _, kets = explore._draw_states(rng.random((n, 4)))
    mean = sum(np.abs(kets[:, 0]).tolist()) / n
    sigma = (1.0 / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(mean - 0.5) <= 3.0 * sigma


@pytest.mark.parametrize("cfg", [
    SweepConfig(n_sets=200),
    SweepConfig(n_sets=50, seed=4, omega_interval_mhz=(2, 7), ramp_factor=0.5, angular_convention=False),
])
def test_sweep_draw_matches_one_uniform_at_a_time(cfg):
    # reference: each set's 8 values drawn one Generator.uniform call at a time
    drives, draws, kets = explore._draw_sets(cfg)
    lo, hi = cfg.omega_interval_mhz
    scale = explore.MHZ_TO_ANGULAR if cfg.angular_convention else 1.0
    for i in range(cfg.n_sets):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        w1 = rng.uniform(lo, hi)
        f1 = rng.uniform(-cfg.ramp_factor * w1, cfg.ramp_factor * w1)
        w2 = rng.uniform(lo, hi)
        f2 = rng.uniform(-cfg.ramp_factor * w2, cfg.ramp_factor * w2)
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(0.0, math.sqrt(max(0.0, 1.0 - a * a)))
        phi_a, phi_b = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        ket = np.array([a * np.exp(1j * phi_a), b * np.exp(1j * phi_b),
                        math.sqrt(max(0.0, 1.0 - a * a - b * b))])
        ket /= np.linalg.norm(ket)
        o1, o2, r1, r2 = (scale * x for x in (w1, w2, f1, f2))
        assert drives[i].tolist() == [[o1, o2, r1, r2], [o1, o2, r1, r1], [o1, o2, r2, r2]]
        assert draws[i].tolist() == [a, b, phi_a, phi_b]
        assert kets[i].tobytes() == ket.tobytes()


def test_random_params_boxes(rng):
    cfg = SweepConfig()
    scale = explore.MHZ_TO_ANGULAR
    for _ in range(1000):
        p = random_params(rng, cfg)
        assert scale * 1.0 <= p.omega1 <= scale * 20.0
        assert scale * 1.0 <= p.omega2 <= scale * 20.0
        assert abs(p.phi1) <= 2.0 * p.omega1
        assert abs(p.phi2) <= 2.0 * p.omega2


def test_random_params_plain_convention(rng):
    cfg = SweepConfig(angular_convention=False)
    for _ in range(100):
        p = random_params(rng, cfg)
        assert 1.0 <= p.omega1 <= 20.0


def test_time_window_formula():
    params = model.DriveParams.equal_drive(10.0, 4.0)
    assert time_window(params) == pytest.approx(2 * math.pi / math.sqrt(400 + 16))
    ref = model.reference_params()
    expected = 2 * math.pi / math.sqrt(4 * ref.omega1**2 + ref.phi1**2)
    assert time_window(ref) == pytest.approx(expected)
    assert time_window(ref) == pytest.approx(0.1978511270440108, abs=1e-12)


def test_time_window_monotone():
    base = model.DriveParams(omega1=10.0, omega2=12.0, phi1=5.0, phi2=3.0)
    t0 = time_window(base)
    assert time_window(model.DriveParams(11.0, 12.0, 5.0, 3.0)) < t0
    assert time_window(model.DriveParams(10.0, 13.0, 5.0, 3.0)) < t0
    assert time_window(model.DriveParams(10.0, 12.0, 6.0, 3.0)) < t0
    assert time_window(model.DriveParams(10.0, 12.0, -6.0, 3.0)) < t0


def _variant_stack(rng, n_sets):
    """Each draw and both of its equal-ramp twins, as the sweep scores them."""
    cfg = SweepConfig()
    params, kets = [], []
    for _ in range(n_sets):
        drawn = random_params(rng, cfg)
        ket = random_pure_state(rng)
        twins = twin_variants(drawn)
        assert all(twin.phi1 == twin.phi2 for twin in twins)
        params += [drawn, *twins]
        kets += [ket] * 3
    return params, np.array(kets)


def test_variant_extrema_matches_oracle(rng):
    n = 16
    params, kets = _variant_stack(rng, 8)
    extrema = variant_extrema(drive_rows(params), kets, n)
    assert extrema.shape == (24, 4)
    for p, ket, (t_end, min_req, min_w, max_aleph) in zip(params, kets, extrema):
        rho = np.outer(ket, ket.conj())
        assert t_end == time_window(p)
        zmin, wmin, amax = np.inf, np.inf, -np.inf
        for k in range(1, n + 1):
            q = schemes.kdq_direct(rho, t_end * k / n, p)
            zmin = min(zmin, float(q.z.min()))
            dw = q.e_final[None, :] - q.e_init[:, None]
            wmin = min(wmin, float((q.z * dw).sum()))
            amax = max(amax, float(np.abs(q.q).sum() - 1.0))
        assert min_req == pytest.approx(zmin, abs=1e-9)
        assert min_w == pytest.approx(wmin, abs=1e-9)
        assert max_aleph == pytest.approx(amax, abs=1e-9)


def test_variant_extrema_stack_matches_single_variants(rng):
    params, kets = _variant_stack(rng, 20)
    rows = drive_rows(params)
    extrema = variant_extrema(rows, kets, 50)
    for k, ket in enumerate(kets):
        assert np.array_equal(extrema[k], variant_extrema(rows[k : k + 1], [ket], 50)[0])


def test_hamiltonian_stacks_match_per_variant_builds(rng, monkeypatch):
    params, kets = _variant_stack(rng, 40)
    params += [model.DriveParams(1.0, 2.0, 0.0, -0.0), model.DriveParams(3.0, 0.5, -0.0, 7.0)]
    kets = np.vstack([kets, kets[:2]])
    stacks = []
    real = explore.herm_eig
    monkeypatch.setattr(explore, "herm_eig", lambda h: stacks.append(h.copy()) or real(h))
    variant_extrema(drive_rows(params), kets, 8)
    h0, h_tilde = stacks
    # bytes, so the signs of zero imaginary parts count too
    assert h0.tobytes() == np.stack([model.hamiltonian_rot(0.0, p) for p in params]).tobytes()
    assert h_tilde.tobytes() == np.stack([model.hamiltonian_tilde(p) for p in params]).tobytes()


def _bits(result):
    return [a.tobytes() for a in vars(result).values()]


def test_sweep_determinism():
    cfg = SweepConfig(n_sets=5, n_time=64, seed=99)
    res1, sum1 = sweep(cfg)
    res2, sum2 = sweep(cfg)
    assert _bits(res1) == _bits(res2)
    assert sum1 == sum2


def test_sweep_records_identical_across_chunk_sizes(monkeypatch):
    cfg = SweepConfig(n_sets=16, n_time=50, seed=5)
    default, _ = sweep(cfg)
    for chunk in (1, 7, 3 * cfg.n_sets):
        monkeypatch.setattr(explore, "_CHUNK", chunk)
        assert _bits(sweep(cfg)[0]) == _bits(default)


def test_sweep_chunk_failure_without_a_failing_variant_is_loud(monkeypatch):
    # only the batched call fails and every one-variant re-run succeeds: the
    # sweep still raises, naming the chunk's sets and the original error
    real = explore.variant_extrema

    def fails_batched(drives, kets, n_time):
        if len(drives) > 1:
            raise FloatingPointError("overflow in chunk")
        return real(drives, kets, n_time)

    monkeypatch.setattr(explore, "variant_extrema", fails_batched)
    with pytest.raises(SweepSetFailed, match=r"sets 0-3: FloatingPointError: overflow in chunk"):
        sweep(SweepConfig(n_sets=4, n_time=20, seed=3))


def test_sweep_record_structure():
    cfg = SweepConfig(n_sets=10, n_time=80, seed=1)
    result, summary = sweep(cfg)
    assert result.drives.shape == (10, 3, 4) and result.extrema.shape == (10, 3, 4)
    assert result.draws.shape == (10, 4) and result.kets.shape == (10, 3)
    bound = math.sqrt(3.0) - 1.0 + 1e-9
    # axis 1 is VARIANT_KINDS: the draw, then its twins at phi1 and at phi2
    assert explore.VARIANT_KINDS == ("original", "twin_ramp1", "twin_ramp2")
    for drives, extrema in zip(result.drives, result.extrema):
        original, *twins = (model.DriveParams(*row) for row in drives.tolist())
        assert original.phi1 != original.phi2
        assert tuple(twins) == twin_variants(original)
        for p, (window_end, min_req, _, max_aleph) in zip((original, *twins), extrema):
            assert 0.0 <= max_aleph <= bound
            assert window_end == pytest.approx(time_window(p))
            if min_req < -1e-12:
                assert max_aleph > 0.0
    assert summary.n_skipped == 0
    assert summary.bound_violations == 0


def test_summary_counts_aleph_past_the_bound():
    # one variant just past sqrt(3) - 1 is a violation; one at the bound is not
    bound = math.sqrt(3.0) - 1.0
    extrema = np.zeros((1, 3, 4))
    extrema[0, :, 3] = (bound + 1e-6, bound, 0.0)
    result = explore.SweepResult(drives=np.tile([10.0, 12.0, 5.0, 3.0], (1, 3, 1)),
                                 draws=np.zeros((1, 4)), kets=np.zeros((1, 3)), extrema=extrema)
    assert explore._summarize(result, SweepConfig(n_sets=1)).bound_violations == 1


def test_sweep_nonzero_negativity_fraction():
    _, summary = sweep(SweepConfig(n_sets=100, n_time=100, seed=13))
    assert summary.fraction_aleph_positive >= 0.95


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_sets=0)
    with pytest.raises(ValueError):
        SweepConfig(n_time=1)
    with pytest.raises(ValueError):
        SweepConfig(omega_interval_mhz=(5.0, 2.0))
    for interval in ((1.0, math.inf), (math.nan, 2.0), ("a", "b"), (True, 5.0)):
        with pytest.raises(ValueError, match="bad amplitude interval"):
            SweepConfig(omega_interval_mhz=interval)
    for ramp in (math.nan, math.inf, -1.0, "2"):
        with pytest.raises(ValueError, match="ramp_factor"):
            SweepConfig(ramp_factor=ramp)
