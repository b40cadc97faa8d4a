"""Tests of the benchmark itself: tiny workloads run clean, checks bite.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import PER_LAYER, Tracer
from workloads import Figures, FiguresShots, Oracle, Size, Sweep, read_files

ROOT = Path(__file__).resolve().parent.parent
TINY = Size(
    grid_points=12,
    n_sets=4,
    n_time=16,
    stepped_steps=20_000,
    stepped_times=2,
    check_stride=2,
    check_sets=4,
)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def make(cls, tmp_path, seed=7, size=TINY):
    wl = cls(seed, tmp_path, size)
    wl.setup()
    return wl


def first_op(wl):
    wl.prepare_op()
    return wl.op()


@pytest.mark.parametrize("cls", [Figures, FiguresShots, Sweep, Oracle])
def test_workload_runs_clean_at_tiny_size(cls, tmp_path):
    wl = make(cls, tmp_path)
    runner = run.Runner(wl)
    untraced, traced = runner.measure(0.0)
    assert len(untraced) == 1 and traced == []
    assert runner.attempted == 2 * wl.items_per_op
    assert runner.failed == 0, wl.notes


def test_traced_run_covers_import_sites_and_restores_them(tmp_path):
    from quasiwork import explore, model, propagate, qmath

    original = qmath.herm_eig
    wl = make(Oracle, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert qmath.herm_eig is not original
        assert model.herm_eig is qmath.herm_eig is explore.herm_eig is propagate.herm_eig
    finally:
        tracer.uninstall()
    assert model.herm_eig is original and explore.herm_eig is original

    runner = run.Runner(wl, tracer)
    untraced, traced = runner.measure(0.0)
    assert len(traced) == 1 and runner.failed == 0
    metrics = tracer.layer_metrics()
    assert set(metrics) == {name for name, _ in PER_LAYER} - {"trace.overhead_ms"}
    assert metrics["qmath.herm_eig.calls"] > 0
    assert metrics["propagate.propagator_stepped.steps"] >= TINY.stepped_steps * TINY.stepped_times
    assert metrics["schemes.kdq_direct.self_ms"] > 0
    assert tracer.hook_errors == []


def test_tracer_refuses_a_missing_layer(monkeypatch):
    from quasiwork import qmath

    monkeypatch.delattr(qmath, "herm_eig")
    with pytest.raises(LookupError, match="herm_eig"):
        Tracer()


def test_tracer_records_a_failed_counter_hook():
    tracer = Tracer()
    tracer.wrap("explore.sweep", lambda: None)()  # no (records, summary) to count skips in
    assert tracer.hook_errors and tracer.hook_errors[0].startswith("explore.sweep")


def test_reference_clock_scales_by_the_kernel_times_around_the_work(monkeypatch):
    kernel = iter([0.05, 0.05, 0.05, 0.15])  # warm-up, before, after work 1, after work 2
    monkeypatch.setattr(run, "reference_seconds", lambda: next(kernel))
    clock = run.ReferenceClock()
    assert clock.scale(1.0) == pytest.approx(1.0 * run.REFERENCE_SECONDS / 0.05)
    assert clock.scale(1.0) == pytest.approx(1.0 * run.REFERENCE_SECONDS / 0.10)
    assert clock.kernel == [0.05, 0.05, 0.15]


def test_setup_times_bracket_each_probe_with_reference_imports(monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd[2:])
        seconds = "0.05" if cmd[2:] == ["reference"] else "0.2"
        return type("Proc", (), {"stdout": seconds + "\n"})()

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    wall, scaled = run.setup_times(ROOT)
    assert calls == [["reference"]] + [[], ["reference"]] * run.SETUP_PROBES
    assert wall == [0.2] * run.SETUP_PROBES
    assert scaled == pytest.approx([0.2 * run.REFERENCE_SECONDS / 0.05] * run.SETUP_PROBES)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.names[:] = ["outer", "inner"]
    # outer [0, 100) holds inner [10, 40) and [50, 60)
    tracer.spans[:] = [(0, 0, 100, -1, 0), (1, 10, 40, 0, 0), (1, 50, 60, 0, 0)]
    row = tracer.per_op()[0]
    assert row["outer.self_ms"] == pytest.approx(60 / 1e6)
    assert row["inner.self_ms"] == pytest.approx(40 / 1e6)
    assert row["inner.calls"] == 2


def test_figures_check_catches_perturbed_reconstruction(tmp_path, monkeypatch):
    from quasiwork import schemes

    monkeypatch.setattr(schemes, "RECONSTRUCTION_HALF_WEIGHT", 0.5 * (1.0 + 1e-3))
    wl = make(Figures, tmp_path)
    assert wl.check(first_op(wl)) > 0


def test_figures_check_catches_truncated_csv(tmp_path):
    wl = make(Figures, tmp_path)
    first_op(wl)
    files = read_files(wl.out)
    assert wl.check_files(files) == set()
    data = files["fig3_series.csv"]
    files["fig3_series.csv"] = data[: len(data) // 2]
    assert wl.check_files(files)


def test_figures_check_catches_broken_marginal_negativity_and_work(tmp_path):
    wl = make(Figures, tmp_path)
    first_op(wl)
    files = read_files(wl.out)
    lines = files["fig2_series.csv"].decode().splitlines(keepends=True)
    t, series, value, stderr = lines[1].rstrip("\r\n").split(",")
    lines[1] = f"{t},{series},{float(value) + 1e-6!r},{stderr}\r\n"
    broken = dict(files, **{"fig2_series.csv": "".join(lines).encode()})
    assert ("fig2", t) in wl.check_files(broken)
    text = files["fig3_series.csv"].decode()
    row = next(line for line in text.splitlines() if ",negativity," in line)
    bad = row.rsplit(",", 2)[0] + ",0.75,"
    assert wl.check_files(dict(files, **{"fig3_series.csv": text.replace(row, bad).encode()}))
    lines = files["fig4_series.csv"].decode().splitlines(keepends=True)
    for k, line in enumerate(lines):
        t, series, value, stderr = line.rstrip("\r\n").split(",")
        if series == "w_mhq":
            lines[k] = f"{t},{series},{float(value) + 1e-6!r},{stderr}\r\n"
    failed = wl.check_files(dict(files, **{"fig4_series.csv": "".join(lines).encode()}))
    assert failed and all(target == "fig4" for target, *_ in failed)


def test_figures_check_fails_outputs_that_differ_between_operations(tmp_path):
    wl = make(FiguresShots, tmp_path)
    assert wl.check(first_op(wl)) == 0
    wl.seed += 1  # a different shot stream: same files, other bytes
    assert wl.check(first_op(wl)) == wl.items_per_op


def test_shots_check_catches_biased_z(tmp_path, monkeypatch):
    from quasiwork import schemes

    monkeypatch.setattr(schemes, "RECONSTRUCTION_HALF_WEIGHT", 0.5 * 1.2)
    wl = make(FiguresShots, tmp_path)
    assert wl.check(first_op(wl)) > 0


def test_sweep_check_catches_skipped_set(tmp_path, monkeypatch):
    from quasiwork import explore

    real = explore.variant_extrema
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("degenerate draw")
        return real(*args, **kwargs)

    monkeypatch.setattr(explore, "variant_extrema", fails_once)
    wl = make(Sweep, tmp_path)
    assert wl.check(first_op(wl)) >= 1


def test_sweep_check_catches_wrong_extrema_and_bound_violation(tmp_path):
    wl = make(Sweep, tmp_path)
    first_op(wl)
    files = read_files(wl.out)
    assert wl.check_files(files) == set()
    lines = files["sweep_records.csv"].decode().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    for column, value in (("min_req", 1e-6), ("max_aleph", 1.0)):
        cells = lines[1].rstrip("\r\n").split(",")
        k = header.index(column)
        cells[k] = repr(float(cells[k]) + value)
        edited = "".join([lines[0], ",".join(cells) + "\r\n", *lines[2:]]).encode()
        assert 0 in wl.check_files(dict(files, **{"sweep_records.csv": edited}))


def test_sweep_other_seed_changes_records_and_passes(tmp_path):
    records = []
    for seed in (7, 8):
        wl = make(Sweep, tmp_path / str(seed), seed=seed)
        assert wl.check(first_op(wl)) == 0, wl.notes
        records.append(read_files(wl.out)["sweep_records.csv"])
    assert records[0] != records[1]


def test_oracle_check_catches_failed_selftest_and_stepped_mismatch(tmp_path, monkeypatch):
    from quasiwork import propagate, schemes

    wl = make(Oracle, tmp_path)
    monkeypatch.setattr(schemes, "RECONSTRUCTION_HALF_WEIGHT", 0.5 * (1.0 + 1e-3))
    assert wl.check(wl.op()) >= 1
    monkeypatch.undo()

    real = propagate.propagator_stepped

    def drifted(t, params, n_steps):
        res = real(t, params, n_steps)
        return dataclasses.replace(res, u=res.u * np.exp(1e-5j))

    monkeypatch.setattr(propagate, "propagator_stepped", drifted)
    report, pairs = wl.op()
    assert wl.check((report, pairs)) >= len(wl.times)


def test_run_exits_nonzero_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "figures", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_reported_metrics():
    import json

    from workloads import WORKLOADS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
