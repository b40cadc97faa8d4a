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


class _FixedUniform:
    """Duck-typed stand-in for a Generator with scripted uniform() draws."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self, lo, hi):
        frac = self._values.pop(0)
        return lo + frac * (hi - lo)


def test_random_state_boundary():
    ket = random_pure_state(_FixedUniform([1.0, 0.0, 0.25, 0.5]))
    assert abs(ket[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(ket[1]) == 0.0
    assert abs(ket[2]) == 0.0


def test_random_state_norm_and_support(rng):
    for _ in range(500):
        ket = random_pure_state(rng)
        assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-12)
        assert ket[2].imag == 0.0 and ket[2].real >= 0.0


def test_random_state_first_moment():
    # a ~ U[0,1]: mean of |<+1|ket>| estimates 1/2 within 3 sigma
    rng = np.random.default_rng(123)
    n = 100_000
    acc = 0.0
    for _ in range(n):
        acc += abs(random_pure_state(rng)[0])
    mean = acc / n
    sigma = (1.0 / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(mean - 0.5) <= 3.0 * sigma


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
        twins = explore._twin_variants(drawn)
        assert all(twin.equal_phases for twin in twins)
        params += [drawn, *twins]
        kets += [ket] * 3
    return params, np.array(kets)


def test_variant_extrema_matches_oracle(rng):
    n = 16
    params, kets = _variant_stack(rng, 8)
    extrema = variant_extrema(params, kets, n)
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
    extrema = variant_extrema(params, kets, 50)
    for k, (p, ket) in enumerate(zip(params, kets)):
        assert np.array_equal(extrema[k], variant_extrema([p], [ket], 50)[0])


def test_hamiltonian_stacks_match_per_variant_builds(rng, monkeypatch):
    params, kets = _variant_stack(rng, 40)
    params += [model.DriveParams(1.0, 2.0, 0.0, -0.0), model.DriveParams(3.0, 0.5, -0.0, 7.0)]
    kets = np.vstack([kets, kets[:2]])
    stacks = []
    real = explore.herm_eig
    monkeypatch.setattr(explore, "herm_eig", lambda h: stacks.append(h.copy()) or real(h))
    variant_extrema(params, kets, 8)
    h0, h_tilde = stacks
    # bytes, so the signs of zero imaginary parts count too
    assert h0.tobytes() == np.stack([model.hamiltonian_rot(0.0, p) for p in params]).tobytes()
    assert h_tilde.tobytes() == np.stack([model.hamiltonian_tilde(p) for p in params]).tobytes()


def test_sweep_determinism():
    cfg = SweepConfig(n_sets=5, n_time=64, seed=99)
    rec1, sum1 = sweep(cfg)
    rec2, sum2 = sweep(cfg)
    assert rec1 == rec2
    assert sum1 == sum2


def test_sweep_records_identical_across_chunk_sizes(monkeypatch):
    cfg = SweepConfig(n_sets=16, n_time=50, seed=5)
    default, _ = sweep(cfg)
    for chunk in (1, 7, 3 * cfg.n_sets):
        monkeypatch.setattr(explore, "_CHUNK", chunk)
        assert sweep(cfg)[0] == default


def test_sweep_chunk_failure_without_a_failing_variant_is_loud(monkeypatch):
    # only the batched call fails and every one-variant re-run succeeds: the
    # sweep still raises, naming the chunk's sets and the original error
    real = explore.variant_extrema

    def fails_batched(params_seq, kets, n_time):
        if len(params_seq) > 1:
            raise FloatingPointError("overflow in chunk")
        return real(params_seq, kets, n_time)

    monkeypatch.setattr(explore, "variant_extrema", fails_batched)
    with pytest.raises(SweepSetFailed, match=r"sets 0-3: FloatingPointError: overflow in chunk"):
        sweep(SweepConfig(n_sets=4, n_time=20, seed=3))


def test_sweep_record_structure():
    cfg = SweepConfig(n_sets=10, n_time=80, seed=1)
    records, summary = sweep(cfg)
    assert len(records) == 10
    bound = math.sqrt(3.0) - 1.0 + 1e-9
    for rec in records:
        assert [v.kind for v in rec.variants] == list(explore.VARIANT_KINDS)
        assert rec.original.params.phi1 != rec.original.params.phi2
        for twin, phi in zip(rec.twins, (rec.original.params.phi1, rec.original.params.phi2)):
            assert twin.params.equal_phases
            assert twin.params.phi1 == phi
            assert twin.params.omega1 == rec.original.params.omega1
        for v in rec.variants:
            assert 0.0 <= v.max_aleph <= bound
            assert v.window_end == pytest.approx(time_window(v.params))
            if v.min_req < -1e-12:
                assert v.max_aleph > 0.0
    assert summary.n_skipped == 0
    assert summary.bound_violations == 0


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
