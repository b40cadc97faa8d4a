"""Figure-equivalent data emission: tidy CSV series plus JSON metadata.

Each figure evaluates its whole time grid with one ``scheme_series`` call
(the frame identity in the ``schemes`` docstring).  Every emitted row is a
pure function of (config, seed); with shots set, per-time-point sampling
seeds derive from SeedSequence(seed, figure_tag, time_index), so files are
byte-stable for a fixed configuration and independent of evaluation order.

Series files share one schema: columns (t_us, series, value, stderr); the
stderr column is empty for exact (noiseless) runs.  Work values, in fig4
and in the sweep archive, are emitted both in rad/us and normalized by the
ladder spacing omega_eff = sqrt((omega1^2 + omega2^2)/2).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import NEGATIVITY_BOUND, avg_work_mhq, avg_work_tpm, total_negativity
from .config import RunConfig
from .explore import SweepRecord, SweepSummary, time_window
from .model import ENERGY_LABELS, DriveParams, _amplitude_gauge, energy_basis, initial_state
from .schemes import SchemeTables, mhq_reconstruct, scheme_series

__all__ = [
    "SeriesRow",
    "figure_times",
    "emit_figure",
    "emit_sweep",
    "z_stderr_prediction",
]

_FIG_TAGS = {"fig2": 2, "fig3": 3, "fig4": 4}


@dataclass(frozen=True)
class SeriesRow:
    t_us: float
    series: str
    value: float
    stderr: float | None


def figure_times(config: RunConfig) -> np.ndarray:
    """Inclusive time grid; the default window is two characteristic periods."""
    end = config.grid_end
    if end is None:
        end = config.grid_start + 2.0 * time_window(config.params)
    return np.linspace(config.grid_start, end, config.grid_points)


def omega_eff(params: DriveParams) -> float:
    """Ladder spacing sqrt((omega1^2 + omega2^2)/2) that normalizes every work value."""
    return math.sqrt(0.5 * (params.omega1**2 + params.omega2**2))


def _series(config: RunConfig, fig_tag: str, times: np.ndarray) -> list[SchemeTables]:
    rho = initial_state(config.state, energy_basis(0.0, config.params))
    seeds = None
    if config.shots is not None:
        tag = _FIG_TAGS[fig_tag]
        seeds = [np.random.SeedSequence(config.seed, spawn_key=(tag, k)) for k in range(len(times))]
    return scheme_series(rho, times, config.params, shots=config.shots, seeds=seeds)


def z_stderr_prediction(tables: SchemeTables, shots: int) -> np.ndarray:
    """Binomial error propagation for the reconstructed real table.

    z[i][f] = p_i c[i][f]/2 - (1-p_i) cbar[i][f]/2 + e[f]/2 where c, cbar and
    e are the independently measured conditional distributions, each from
    ``shots`` repetitions, so
    Var z = (p_i^2 Var c + (1-p_i)^2 Var cbar + Var e) / 4 with
    Var x = x(1-x)/shots.
    """
    p = tables.p_init
    c = np.clip(tables.cond, 0.0, 1.0)
    cbar = np.clip(tables.cond_bar, 0.0, 1.0)
    e = np.clip(tables.p_end, 0.0, 1.0)
    var = (
        p[:, None] ** 2 * c * (1.0 - c)
        + (1.0 - p)[:, None] ** 2 * cbar * (1.0 - cbar)
        + (e * (1.0 - e))[None, :]
    ) / (4.0 * shots)
    return np.sqrt(var)


def _conditional_stderr(value: np.ndarray, shots: int) -> np.ndarray:
    v = np.clip(value, 0.0, 1.0)
    return np.sqrt(v * (1.0 - v) / shots)


def _fig2_rows(config: RunConfig, times: np.ndarray) -> list[SeriesRow]:
    rows: list[SeriesRow] = []
    shots = config.shots
    for t, tab in zip(times, _series(config, "fig2", times)):
        if shots is not None:
            se_end, se_cond, se_bar = (
                _conditional_stderr(x, shots).tolist() for x in (tab.p_end, tab.cond, tab.cond_bar)
            )
        for f, lf in enumerate(ENERGY_LABELS):
            se = None if shots is None else se_end[f]
            rows.append(SeriesRow(float(t), f"end:f={lf}", float(tab.p_end[f]), se))
        for i, li in enumerate(ENERGY_LABELS):
            for f, lf in enumerate(ENERGY_LABELS):
                se = None if shots is None else se_cond[i][f]
                rows.append(SeriesRow(float(t), f"cond:i={li}:f={lf}", float(tab.cond[i, f]), se))
                se = None if shots is None else se_bar[i][f]
                rows.append(SeriesRow(float(t), f"comp:i={li}:f={lf}", float(tab.cond_bar[i, f]), se))
    return rows


def _fig3_rows(config: RunConfig, times: np.ndarray) -> list[SeriesRow]:
    rows: list[SeriesRow] = []
    shots = config.shots
    for t, tab in zip(times, _series(config, "fig3", times)):
        z = mhq_reconstruct(tab).z
        se_z = None if shots is None else z_stderr_prediction(tab, shots)
        for i, li in enumerate(ENERGY_LABELS):
            for f, lf in enumerate(ENERGY_LABELS):
                se = None if se_z is None else float(se_z[i, f])
                rows.append(SeriesRow(float(t), f"z:i={li}:f={lf}", float(z[i, f]), se))
        se_row = None if se_z is None else float(np.sqrt((se_z[2] ** 2).sum()))
        rows.append(SeriesRow(float(t), "sum_abs_z:i=-", float(np.abs(z[2]).sum()), se_row))
        se_all = None if se_z is None else float(np.sqrt((se_z**2).sum()))
        rows.append(SeriesRow(float(t), "negativity", float(total_negativity(z) - 1.0), se_all))
        rows.append(SeriesRow(float(t), "ref:zero", 0.0, None))
        rows.append(SeriesRow(float(t), "ref:bound", float(NEGATIVITY_BOUND), None))
    return rows


def _fig4_rows(config: RunConfig, times: np.ndarray) -> list[SeriesRow]:
    rows: list[SeriesRow] = []
    shots = config.shots
    om = omega_eff(config.params)
    for t, tab in zip(times, _series(config, "fig4", times)):
        table = mhq_reconstruct(tab)
        w = avg_work_mhq(table)
        w_tpm = avg_work_tpm(tab)
        if shots is None:
            se_w = se_t = None
        else:
            # neglects cross-cell covariance; stated in the metadata
            se_z = z_stderr_prediction(tab, shots)
            dw = tab.e_final[None, :] - tab.e_init[:, None]
            se_w = float(np.sqrt(((se_z * dw) ** 2).sum()))
            se_c = _conditional_stderr(tab.cond, shots)
            se_t = float(np.sqrt(((tab.p_init[:, None] * se_c * dw) ** 2).sum()))
        rows.append(SeriesRow(float(t), "w_mhq", w, se_w))
        rows.append(SeriesRow(float(t), "w_tpm", w_tpm, se_t))
        rows.append(SeriesRow(float(t), "w_mhq_over_omega", w / om, None if se_w is None else se_w / om))
        rows.append(SeriesRow(float(t), "w_tpm_over_omega", w_tpm / om, None if se_t is None else se_t / om))
    return rows


def _tomography_rows(config: RunConfig) -> list[dict]:
    basis0 = energy_basis(0.0, config.params)
    rho = initial_state(config.state, basis0)
    gauge = _amplitude_gauge(basis0.vectors)
    rho_e = gauge.conj().T @ rho @ gauge
    rows = []
    for i, li in enumerate(ENERGY_LABELS):
        for f, lf in enumerate(ENERGY_LABELS):
            val = rho_e[i, f]
            rows.append(
                {
                    "bra": li,
                    "ket": lf,
                    "re": float(val.real),
                    "im": float(val.imag),
                    "abs": float(abs(val)),
                }
            )
    return rows


def _metadata(config: RunConfig, target: str, times: np.ndarray, extra: dict) -> dict:
    p = config.params
    meta = {
        "generator": f"quasiwork {__version__}",
        "target": target,
        "drive_unit": config.unit,
        "drive_raw": config.raw_drive,
        "drive_rad_per_us": {
            "omega1": p.omega1,
            "omega2": p.omega2,
            "phi1": p.phi1,
            "phi2": p.phi2,
        },
        "state_weights_raw": list(config.state.weights),
        "state_weights_sum": config.state.raw_weight_sum,
        "state_weights_normalized": config.state.normalized_weights.tolist(),
        "state_phases_rad": list(config.state.phases),
        "omega_eff_rad_per_us": omega_eff(p),
        "window_period_us": time_window(p),
        "grid": {"start": float(times[0]), "end": float(times[-1]), "points": len(times)},
        "shots": config.shots,
        "seed": config.seed,
    }
    if config.shots is not None:
        meta["stderr_note"] = (
            "per-entry binomial propagation; aggregate series neglect cross-cell covariance"
        )
    meta.update(extra)
    return meta


def emit_figure(config: RunConfig, target: str) -> list[Path]:
    """Write the series CSV (and tomography table for fig2) plus metadata JSON."""
    if target not in _FIG_TAGS:
        raise ValueError(f"unknown figure target {target!r}")
    times = figure_times(config)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    builder = {"fig2": _fig2_rows, "fig3": _fig3_rows, "fig4": _fig4_rows}[target]
    rows = builder(config, times)
    series_path = out / f"{target}_series.csv"
    _write_series(series_path, rows)
    written.append(series_path)

    extra: dict = {"series": sorted({r.series for r in rows})}
    if target == "fig2":
        tomo_path = out / "fig2_tomography.csv"
        _write_dict_rows(tomo_path, _tomography_rows(config), ["bra", "ket", "re", "im", "abs"])
        written.append(tomo_path)
        extra["tomography_file"] = tomo_path.name
    if target == "fig3":
        extra["negativity_bound"] = float(NEGATIVITY_BOUND)
        extra["s_expected"] = float(
            config.state.normalized_weights[0] + config.state.normalized_weights[1]
        )

    meta_path = out / f"{target}_meta.json"
    _write_json(meta_path, _metadata(config, target, times, extra))
    written.append(meta_path)
    return written


def emit_sweep(config: RunConfig, records: list[SweepRecord], summary: SweepSummary) -> list[Path]:
    """Write the sweep archive: one CSV row per (set, variant) plus a summary."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rec in records:
        a, b, phi_a, phi_b = rec.state_draw
        for v in rec.variants:
            om = omega_eff(v.params)
            rows.append(
                {
                    "set": rec.index,
                    "variant": v.kind,
                    "omega1": v.params.omega1,
                    "omega2": v.params.omega2,
                    "phi1": v.params.phi1,
                    "phi2": v.params.phi2,
                    "equal_ramps": int(v.params.equal_phases),
                    "state_a": a,
                    "state_b": b,
                    "state_phi_a": phi_a,
                    "state_phi_b": phi_b,
                    "window_end_us": v.window_end,
                    "omega_eff": om,
                    "min_req": v.min_req,
                    "min_w_rad_per_us": v.min_w,
                    "min_w_over_omega": v.min_w / om,
                    "max_aleph": v.max_aleph,
                }
            )
    records_path = out / "sweep_records.csv"
    _write_dict_rows(records_path, rows, list(rows[0].keys()) if rows else [])

    summary_doc = {
        "generator": f"quasiwork {__version__}",
        **summary.__dict__,
        "omega_interval_mhz": list(config.sweep.omega_interval_mhz),
        "ramp_factor": config.sweep.ramp_factor,
        "negativity_bound": float(NEGATIVITY_BOUND),
    }
    summary_path = out / "sweep_summary.json"
    _write_json(summary_path, summary_doc)
    return [records_path, summary_path]


def _write_series(path: Path, rows: list[SeriesRow]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_us", "series", "value", "stderr"])
        for r in rows:
            writer.writerow(
                [repr(r.t_us), r.series, repr(r.value), "" if r.stderr is None else repr(r.stderr)]
            )


def _write_dict_rows(path: Path, rows: list[dict], fields: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in fields])


def _cell(val) -> str:
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
