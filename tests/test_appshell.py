import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasiwork import model
from quasiwork.cli import main
from quasiwork.config import ConfigError, load_config
from quasiwork.emitters import emit_figure, figure_times, z_stderr_prediction
from quasiwork.explore import time_window
from quasiwork.schemes import scheme_tables

from conftest import twin_variants


def _write(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


def test_load_config_without_a_file_matches_reference():
    cfg = load_config(None)
    ref = model.reference_params()
    assert cfg.params.omega1 == pytest.approx(ref.omega1, rel=1e-12)
    assert cfg.params.phi1 == pytest.approx(ref.phi1, rel=1e-6)
    assert tuple(cfg.state.weights) == model.REFERENCE_STATE_WEIGHTS
    assert cfg.grid_points == 400
    assert cfg.shots is None


def test_unit_conversions(tmp_path):
    base = """
drive:
  unit: {unit}
  omega1: 2.0
  omega2: 3.0
  phi1: 1.0
  phi2: -1.0
"""
    cfg = load_config(_write(tmp_path, base.format(unit="MHz_times_2pi")))
    assert cfg.params.omega1 == pytest.approx(2.0 * 2 * math.pi)
    cfg = load_config(_write(tmp_path, base.format(unit="angular_rad_per_us")))
    assert cfg.params.omega1 == pytest.approx(2.0)
    cfg = load_config(_write(tmp_path, base.format(unit="MHz_plain")))
    assert cfg.params.omega1 == pytest.approx(2.0)


def test_config_round_trip(tmp_path):
    path = _write(
        tmp_path,
        """
drive: {unit: angular_rad_per_us, omega1: 10.0, omega2: 12.0, phi1: 3.0, phi2: 4.0}
state: {weights: [0.5, 0.25, 0.25], phases: [0.0, 1.0, 2.0]}
grid: {start: 0.0, end: 0.5, points: 11}
shots: 500
seed: 7
out_dir: somewhere
sweep: {n_sets: 9, n_time: 33}
""",
    )
    cfg = load_config(path)
    assert cfg.params.omega2 == 12.0
    assert cfg.grid_end == 0.5
    assert cfg.grid_points == 11
    assert cfg.shots == 500
    assert cfg.seed == 7
    assert cfg.sweep.n_sets == 9
    assert cfg.sweep.n_time == 33
    assert cfg.sweep.seed == 7
    assert str(cfg.out_dir) == "somewhere"


def test_config_overrides(tmp_path):
    path = _write(tmp_path, "seed: 1\n")
    cfg = load_config(path, seed=42, shots=100, out_dir="elsewhere", grid_points=23)
    assert cfg.seed == 42
    assert cfg.shots == 100
    assert str(cfg.out_dir) == "elsewhere"
    assert cfg.grid_points == 23
    assert cfg.sweep.n_time == 23


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("drive: {omega1: -1.0}", "drive"),
        ("drive: {unit: fortnights}", "drive.unit"),
        ("drive: {omega1: [1]}", "drive.omega1"),
        ("state: {weights: [0.5, 0.5]}", "state.weights"),
        ("state: {weights: [-0.1, 0.6, 0.5]}", "state"),
        ("grid: {points: 1}", "grid.points"),
        ("grid: {start: 1.0, end: 0.5}", "grid.end"),
        ("shots: 0", "shots"),
        ("sweep: {n_sets: 0}", "sweep"),
        ("sweep: {wibble: 3}", "sweep"),
        ("unknown_block: {}", "top level"),
        ("grid: [1, 2]", "grid"),
    ],
)
def test_config_errors(tmp_path, text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    assert fragment in str(err.value)


def test_config_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "drive: {unit: 'a"))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_figure_times_default_window():
    cfg = load_config(None)
    times = figure_times(cfg)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(2.0 * time_window(cfg.params))
    assert len(times) == cfg.grid_points


def test_fig3_t0_rows(tmp_path):
    cfg = load_config(None, out_dir=tmp_path, grid_points=5)
    emit_figure(cfg, "fig3")
    lines = (tmp_path / "fig3_series.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t_us", "series", "value", "stderr"]
    t0 = [l.split(",") for l in lines[1:] if l.startswith("0.0,")]
    values = {row[1]: float(row[2]) for row in t0}
    p = cfg.state.normalized_weights
    for i, li in enumerate(model.ENERGY_LABELS):
        for f, lf in enumerate(model.ENERGY_LABELS):
            expected = p[i] if i == f else 0.0
            assert values[f"z:i={li}:f={lf}"] == pytest.approx(expected, abs=1e-10)
    assert values["negativity"] == pytest.approx(0.0, abs=1e-10)
    assert values["ref:bound"] == pytest.approx(math.sqrt(3.0) - 1.0)


def test_fig3_has_negative_transition_cell(tmp_path):
    cfg = load_config(None, out_dir=tmp_path, grid_points=80)
    emit_figure(cfg, "fig3")
    neg = [
        float(l.split(",")[2])
        for l in (tmp_path / "fig3_series.csv").read_text().splitlines()[1:]
        if l.split(",")[1] == "z:i=-:f=+"
    ]
    assert min(neg) < -0.05


def test_fig4_series_differ_at_peak(tmp_path):
    cfg = load_config(None, out_dir=tmp_path, grid_points=80)
    emit_figure(cfg, "fig4")
    rows = [l.split(",") for l in (tmp_path / "fig4_series.csv").read_text().splitlines()[1:]]
    w = {}
    for r in rows:
        w.setdefault(r[1], []).append(float(r[2]))
    diff = np.abs(np.array(w["w_mhq"]) - np.array(w["w_tpm"]))
    assert diff.max() > 1.0
    om = math.sqrt(0.5 * (cfg.params.omega1**2 + cfg.params.omega2**2))
    assert np.allclose(np.array(w["w_mhq_over_omega"]) * om, w["w_mhq"], atol=1e-9)


def test_fig2_tomography(tmp_path):
    cfg = load_config(None, out_dir=tmp_path, grid_points=4)
    emit_figure(cfg, "fig2")
    rows = [l.split(",") for l in (tmp_path / "fig2_tomography.csv").read_text().splitlines()[1:]]
    assert len(rows) == 9
    p = cfg.state.normalized_weights
    diag = {r[0]: float(r[2]) for r in rows if r[0] == r[1]}
    assert diag["+"] == pytest.approx(p[0], abs=1e-10)
    assert diag["-"] == pytest.approx(p[2], abs=1e-10)
    offdiag = {(r[0], r[1]): float(r[4]) for r in rows}
    assert offdiag[("+", "-")] == pytest.approx(math.sqrt(p[0] * p[2]), abs=1e-10)


def test_emitters_byte_stable(tmp_path):
    cfg_a = load_config(None, out_dir=tmp_path / "a", grid_points=12, shots=5000)
    cfg_b = load_config(None, out_dir=tmp_path / "b", grid_points=12, shots=5000)
    for target in ("fig2", "fig3", "fig4"):
        emit_figure(cfg_a, target)
        emit_figure(cfg_b, target)
        for name in (f"{target}_series.csv", f"{target}_meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_noisy_emission_fills_stderr(tmp_path):
    cfg = load_config(None, out_dir=tmp_path, grid_points=6, shots=10**6, seed=5)
    emit_figure(cfg, "fig3")
    rows = [l.split(",") for l in (tmp_path / "fig3_series.csv").read_text().splitlines()[1:]]
    z_rows = [r for r in rows if r[1].startswith("z:")]
    assert all(r[3] != "" for r in z_rows)
    assert any(float(r[3]) > 0 for r in z_rows)


def test_z_stderr_prediction_shape(ref_rho, ref_params):
    tab = scheme_tables(ref_rho, 0.1, ref_params)
    se = z_stderr_prediction(tab, 10**6)
    assert se.shape == (3, 3)
    assert np.all(se >= 0.0)
    assert np.all(se <= 1e-3)


def test_cli_selftest_exit_code():
    assert main(["selftest"]) == 0


def test_cli_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("drive: {omega1: -3}")
    code = main(["reproduce-fig3", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_reproduce_and_sweep(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["reproduce-fig3", "--out", str(out), "--steps", "8"]) == 0
    assert (out / "fig3_series.csv").exists()
    assert (out / "fig3_meta.json").exists()

    cfg = tmp_path / "sweep.yaml"
    cfg.write_text("sweep: {n_sets: 12, n_time: 40}\nseed: 3\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "sweep_records.csv").exists()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["n_sets"] == 12
    assert summary["bound_violations"] == 0
    rec_lines = (out / "sweep_records.csv").read_text().splitlines()
    assert len(rec_lines) == 1 + 12 * 3  # header + three variants per set


@pytest.mark.parametrize(
    "setting",
    [
        "ramp_factor: .nan",
        "omega_interval_mhz: [1.0, .inf]",
        "omega_interval_mhz: [a, b]",
        "ramp_factor: -1.0",
    ],
)
def test_cli_bad_sweep_setting_is_a_config_error(tmp_path, capsys, setting):
    cfg = _write(tmp_path, f"sweep: {{n_sets: 3, n_time: 20, {setting}}}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: sweep: ")
    assert not (tmp_path / "o").exists()


_SMALL_SWEEP = "sweep: {n_sets: 3, n_time: 20}"


@pytest.mark.parametrize(
    "command, text, flags",
    [
        ("reproduce-fig3", "seed: abc", []),
        ("reproduce-fig3", "shots: abc", []),
        ("reproduce-fig3", "shots: 1.5e400", []),
        ("reproduce-fig3", "shots: 1.0e+20", []),
        ("reproduce-fig3", "grid: {points: .inf}", []),
        ("reproduce-fig3", "drive: {omega1: 1.0e+200}", []),
        ("reproduce-fig3", "out_dir: 5", []),
        ("reproduce-fig3", "out_dir: null", []),
        ("reproduce-fig3", "drive: {unit: [a]}", []),
        ("sweep", f"seed: -1\n{_SMALL_SWEEP}", []),
        ("sweep", "sweep: {n_sets: 3, n_time: 20, omega_interval_mhz: [1.0, 1.0e+300]}", []),
        ("reproduce-fig3", "grid: {end: .nan}", []),
        ("reproduce-fig3", "grid: {points: 2.9}", []),
        ("sweep", "sweep: {n_sets: 3, n_time: 20, angular_convention: 'false'}", []),
        ("sweep", "sweep: {n_sets: '3', n_time: 20}", []),
        ("reproduce-fig3", "drive: {unit: angular_rad_per_us, omega1: 1.0e-200, omega2: 1.0e-200,"
                           " phi1: 0.0, phi2: 0.0}", []),
        ("reproduce-fig4", "drive: {unit: angular_rad_per_us, omega1: 1.0e-170, omega2: 1.0e-170,"
                           " phi1: 1.0, phi2: 1.0}", []),
        ("reproduce-fig3", "grid: {points: 3}", ["--seed", "-1"]),
        ("reproduce-fig3", "grid: {points: 3}", ["--steps", "1"]),
        ("reproduce-fig3", "grid: {points: 3}", ["--shots", "0"]),
        ("sweep", _SMALL_SWEEP, ["--steps", "1"]),
        ("reproduce-fig3", "grid: {points: 1.0e+15}", []),
        ("sweep", "sweep: {n_sets: 3, n_time: 100001}", []),
        ("sweep", "sweep: {n_sets: 1.0e+15, n_time: 20}", []),
        ("reproduce-fig3", "grid: {points: 3}", ["--steps", "100001"]),
        ("reproduce-fig3", "grid: {start: -1.0e-6}", []),
        ("reproduce-fig3", "grid: {end: 1.0e+307}", []),
        ("reproduce-fig3", "grid: {start: 1.0e+307, end: null}", []),
        ("reproduce-fig3", "grid: {start: 1.0e+20}", []),
    ],
)
def test_cli_bad_setting_is_one_config_error_line(tmp_path, capsys, monkeypatch, command, text, flags):
    # no --out flag, so out_dir comes from the file; the default "out" lands in tmp_path
    cfg = _write(tmp_path, text + "\n")
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]


def test_integral_floats_still_load(tmp_path):
    cfg = load_config(_write(tmp_path, "grid: {points: 400.0}\nshots: 1.0e+6\nseed: 7.0\n"))
    assert (cfg.grid_points, cfg.shots, cfg.seed) == (400, 10**6, 7)
    assert all(type(x) is int for x in (cfg.grid_points, cfg.shots, cfg.seed))


def test_counts_at_their_caps_still_load(tmp_path):
    cfg = load_config(_write(tmp_path, "grid: {points: 100000}\nsweep: {n_time: 100000, n_sets: 1000000}\n"))
    assert (cfg.grid_points, cfg.sweep.n_time, cfg.sweep.n_sets) == (10**5, 10**5, 10**6)


def test_integer_ramp_factor_is_summarised_as_a_float(tmp_path):
    cfg = _write(tmp_path, "sweep: {n_sets: 3, n_time: 20, ramp_factor: 2}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "sweep_summary.json").read_text()
    assert '"ramp_factor": 2.0,' in text


def test_json_artefacts_refuse_nan(tmp_path):
    from quasiwork.emitters import _write_json

    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"value": float("nan")})


def test_series_csv_refuses_nan_and_writes_nothing(tmp_path):
    from quasiwork.emitters import _write_series

    path = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        _write_series(path, np.array([0.0, 1.0]), [("a", np.array([0.5, np.nan]), None)])
    assert not path.exists()


@pytest.mark.parametrize(
    "command, out",
    [("reproduce-fig3", "afile"), ("reproduce-fig3", "afile/sub"), ("sweep", "afile")],
)
def test_cli_out_naming_a_file_is_one_output_error_line(tmp_path, capsys, command, out):
    cfg = _write(tmp_path, _SMALL_SWEEP + "\ngrid: {points: 4}\n")
    (tmp_path / "afile").write_bytes(b"keep me\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("output error: ")
    assert (tmp_path / "afile").read_bytes() == b"keep me\n"


def test_cli_selftest_takes_no_flags(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_cli_sweep_archive_reproducible(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("sweep: {n_sets: 6, n_time: 30}\nseed: 11\n")
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "sweep_records.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_shots_and_seed_flags(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    args = ["reproduce-fig2", "--steps", "5", "--shots", "1000"]
    assert main(args + ["--out", str(out1), "--seed", "1"]) == 0
    assert main(args + ["--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "fig2_series.csv").read_bytes() != (out2 / "fig2_series.csv").read_bytes()


# sha256 of the series and tomography files at 40 points, recorded from
# v0.5.0: the figure outputs are byte-stable across the grid-batched rewrite
_PINNED_SHA256 = {
    (): {
        "fig2_series.csv": "c95ff8c0d2b15b97d084bbfea03b49038d32f80723626d0f92053851863db1fa",
        "fig2_tomography.csv": "57fe457febcb9c9d66958722fdaff7ab128bed1667588edf8a7f2024b4a1aed4",
        "fig3_series.csv": "264ea4358f3e082fadf059a27f6f6028ca6d8c8ff8d3ddb31c670b7ad27deb7c",
        "fig4_series.csv": "2fc6d9440713f22eb1eecc4edea38c8a8f70e9200ed45f735d836266d4ef025e",
    },
    ("--shots", "1000"): {
        "fig2_series.csv": "1ecc063c4adcfd32d98d8e98d4b10ba7559b8256b68376d6362a84fc36899c11",
        "fig2_tomography.csv": "57fe457febcb9c9d66958722fdaff7ab128bed1667588edf8a7f2024b4a1aed4",
        "fig3_series.csv": "16a48597266c91b2443dfb54533342e703bfe3e6be4f357317fa3cfea18986e5",
        "fig4_series.csv": "c9b117d7699144d4d57557b3d11481f40ab60a2c3a29cc73d4c3fbd18267a987",
    },
}


@pytest.mark.parametrize("extra", list(_PINNED_SHA256), ids=["exact", "shots1000"])
def test_figure_files_match_pinned_bytes(tmp_path, extra):
    for target in ("fig2", "fig3", "fig4"):
        assert main([f"reproduce-{target}", "--steps", "40", *extra, "--out", str(tmp_path)]) == 0
    for name, digest in _PINNED_SHA256[extra].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# The sweep archive of 30 sets at n_time 200 and the default seed, recorded
# from v0.7.0.  Only the v0.7.0 columns and summary keys are hashed, read back
# from the files, so later columns and keys leave the pin alone; the summary
# leaves out "generator", which names the version.
_SWEEP_PIN_COLUMNS = (
    "set", "variant", "omega1", "omega2", "phi1", "phi2", "equal_ramps",
    "state_a", "state_b", "state_phi_a", "state_phi_b", "window_end_us", "omega_eff",
    "min_req", "min_w_rad_per_us", "min_w_over_omega", "max_aleph",
)
_SWEEP_PIN_KEYS = (
    "angular_convention", "bound_violations", "fraction_aleph_positive", "global_max_aleph",
    "global_max_aleph_equal_ramps", "global_max_aleph_kind", "lowest_decile_twin_fraction",
    "median_min_w_original", "median_min_w_twins", "n_sets", "n_skipped", "n_time",
    "negativity_bound", "omega_interval_mhz", "ramp_factor", "seed",
)
_SWEEP_PIN_SHA256 = {
    "sweep_records.csv": "c14ff1607443fcd7ed2469e47ab346f2e5275cdf09d752e28e7d1c69e0a2a2a7",
    "sweep_summary.json": "fbdc4f3c6c554dfcd356d0416a25d16803bac45c52ed5ff74c9906d5ed53cfcd",
}


def test_sweep_archive_matches_pinned_bytes(tmp_path):
    cfg = _write(tmp_path, "sweep: {n_sets: 30, n_time: 200}\nseed: 20260810\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    with (tmp_path / "o" / "sweep_records.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 90
    records = "".join(",".join(row[k] for k in _SWEEP_PIN_COLUMNS) + "\n" for row in rows)
    summary = json.loads((tmp_path / "o" / "sweep_summary.json").read_text())
    summary = json.dumps({k: summary[k] for k in _SWEEP_PIN_KEYS}, sort_keys=True)
    for name, text in (("sweep_records.csv", records), ("sweep_summary.json", summary)):
        assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_PIN_SHA256[name], name


def test_fig2_zero_weight_state_keeps_its_conditionals(tmp_path):
    # a state with p_0 = 0 still measures p(f|0); |E_0> is stationary under
    # the reference drive's equal ramps, so that row is (0, 1, 0)
    cfg = load_config(_write(tmp_path, "state: {weights: [0.5, 0.0, 0.5]}\n"),
                      out_dir=tmp_path, grid_points=25)
    emit_figure(cfg, "fig2")
    rows = [l.split(",") for l in (tmp_path / "fig2_series.csv").read_text().splitlines()[1:]]
    by_t: dict = {}
    for t, series, value, _ in rows:
        by_t.setdefault(t, {})[series] = float(value)
    assert len(by_t) == 25
    labels = model.ENERGY_LABELS
    for values in by_t.values():
        for kind in ("cond", "comp"):
            for li in labels:
                assert sum(values[f"{kind}:i={li}:f={lf}"] for lf in labels) == pytest.approx(1.0, abs=1e-12)
        row = [values[f"cond:i=0:f={lf}"] for lf in labels]
        assert np.allclose(row, [0.0, 1.0, 0.0], atol=1e-12)


def test_cli_sweep_failed_set_is_loud(tmp_path, capsys, monkeypatch):
    from quasiwork import explore

    cfg = _write(tmp_path, "sweep: {n_sets: 4, n_time: 20}\n")
    sweep_cfg = load_config(cfg).sweep
    rng = np.random.default_rng(np.random.SeedSequence(sweep_cfg.seed, spawn_key=(1,)))
    drawn = explore.random_params(rng, sweep_cfg)
    twin = twin_variants(drawn)[0]
    twin_ramp1 = [twin.omega1, twin.omega2, twin.phi1, twin.phi2]
    real = explore.variant_extrema

    def fails_on_set_1_twin(drives, kets, n_time):
        if (np.asarray(drives) == twin_ramp1).all(axis=1).any():
            raise np.linalg.LinAlgError("eigh did not converge")
        return real(drives, kets, n_time)

    monkeypatch.setattr(explore, "variant_extrema", fails_on_set_1_twin)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "set 1" in err and "twin_ramp1" in err and "eigh did not converge" in err
    assert not (tmp_path / "o").exists()


def test_sweep_archive_normalizes_work_by_omega_eff(tmp_path):
    from quasiwork.emitters import emit_sweep, omega_eff
    from quasiwork.explore import SweepConfig, sweep

    result, summary = sweep(SweepConfig(n_sets=5, n_time=30, seed=2))
    emit_sweep(load_config(None, out_dir=tmp_path), result, summary)
    lines = (tmp_path / "sweep_records.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "omega_norm" not in header
    assert len(lines) == 1 + 15
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        om = omega_eff(float(row["omega1"]), float(row["omega2"]))
        assert float(row["omega_eff"]) == om
        assert float(row["min_w_over_omega"]) == float(row["min_w_rad_per_us"]) / om


def test_readme_python_block_runs():
    # the documented library example, run against this tree's src/
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
