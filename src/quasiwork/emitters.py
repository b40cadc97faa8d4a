"""Figure-equivalent data emission: tidy CSV series plus JSON metadata.

Each figure evaluates its whole time grid with one ``scheme_series`` call
(the frame identity in the ``schemes`` docstring) and computes every series
as an array along that grid; only the CSV writer loops over time points.
Every emitted row is a pure function of (config, seed); with shots set,
per-time-point sampling seeds derive from SeedSequence(seed, figure_tag,
time_index), so files are byte-stable for a fixed configuration and
independent of evaluation order.

Series files share one schema: columns (t_us, series, value, stderr); the
stderr column is empty for exact (noiseless) runs.  Work values, in fig4
and in the sweep archive, are emitted both in rad/us and normalized by the
ladder spacing ``model.omega_eff``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import NEGATIVITY_BOUND, _per_table_sum, avg_work_mhq, avg_work_tpm, total_negativity
from .config import RunConfig
from .explore import VARIANT_KINDS, SweepResult, SweepSummary, time_window
from .model import ENERGY_LABELS, _amplitude_gauge, _energy_basis0, initial_state, omega_eff
from .schemes import SchemeTables, mhq_reconstruct, scheme_series

__all__ = [
    "figure_times",
    "emit_figure",
    "emit_sweep",
    "z_stderr_prediction",
]

_FIG_TAGS = {"fig2": 2, "fig3": 3, "fig4": 4}

# One figure series: (name, value per time point, stderr per time point or None).
Series = tuple[str, np.ndarray, "np.ndarray | None"]


def figure_times(config: RunConfig) -> np.ndarray:
    """Inclusive time grid from ``grid_start`` to ``grid_end``."""
    return np.linspace(config.grid_start, config.grid_end, config.grid_points)


def _tables(config: RunConfig, fig_tag: str, times: np.ndarray) -> SchemeTables:
    rho = initial_state(config.state, _energy_basis0(config.params))
    seeds = None
    if config.shots is not None:
        tag = _FIG_TAGS[fig_tag]
        seeds = [np.random.SeedSequence(config.seed, spawn_key=(tag, k)) for k in range(len(times))]
    return scheme_series(rho, times, config.params, shots=config.shots, seeds=seeds)


def z_stderr_prediction(tables: SchemeTables, shots: int) -> np.ndarray:
    """Binomial error propagation for the reconstructed real table, per time point.

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
        + (e * (1.0 - e))[..., None, :]
    ) / (4.0 * shots)
    return np.sqrt(var)


def _conditional_stderr(value: np.ndarray, shots: int) -> np.ndarray:
    v = np.clip(value, 0.0, 1.0)
    return np.sqrt(v * (1.0 - v) / shots)


def _fig2_series(config: RunConfig, times: np.ndarray) -> list[Series]:
    tab = _tables(config, "fig2", times)
    values = {f"end:f={lf}": tab.p_end[:, f] for f, lf in enumerate(ENERGY_LABELS)}
    for i, li in enumerate(ENERGY_LABELS):
        for f, lf in enumerate(ENERGY_LABELS):
            values[f"cond:i={li}:f={lf}"] = tab.cond[:, i, f]
            values[f"comp:i={li}:f={lf}"] = tab.cond_bar[:, i, f]
    shots = config.shots
    return [(name, v, None if shots is None else _conditional_stderr(v, shots))
            for name, v in values.items()]


def _fig3_series(config: RunConfig, times: np.ndarray) -> list[Series]:
    shots = config.shots
    tab = _tables(config, "fig3", times)
    z = mhq_reconstruct(tab).z
    se_z = None if shots is None else z_stderr_prediction(tab, shots)
    series: list[Series] = [(f"z:i={li}:f={lf}", z[:, i, f], None if se_z is None else se_z[:, i, f])
                            for i, li in enumerate(ENERGY_LABELS) for f, lf in enumerate(ENERGY_LABELS)]
    se_row = None if se_z is None else np.sqrt((se_z[:, 2] ** 2).sum(axis=-1))
    series.append(("sum_abs_z:i=-", np.abs(z[:, 2]).sum(axis=-1), se_row))
    # the two whole-table sums run over (f, i), the memory order in which the
    # per-point sums of v0.5.0 added them; this keeps the file's bytes
    se_all = None if se_z is None else np.sqrt(_per_table_sum((se_z**2).swapaxes(-1, -2)))
    series.append(("negativity", total_negativity(z.swapaxes(-1, -2)) - 1.0, se_all))
    series.append(("ref:zero", np.zeros(len(times)), None))
    series.append(("ref:bound", np.full(len(times), float(NEGATIVITY_BOUND)), None))
    return series


def _fig4_series(config: RunConfig, times: np.ndarray) -> list[Series]:
    shots = config.shots
    om = omega_eff(config.params.omega1, config.params.omega2)
    tab = _tables(config, "fig4", times)
    w = avg_work_mhq(mhq_reconstruct(tab))
    w_tpm = avg_work_tpm(tab)
    se_w = se_t = None
    if shots is not None:
        # neglects cross-cell covariance; stated in the metadata
        dw = tab.e_final[None, :] - tab.e_init[:, None]
        se_w = np.sqrt(_per_table_sum((z_stderr_prediction(tab, shots) * dw) ** 2))
        se_c = _conditional_stderr(tab.cond, shots)
        se_t = np.sqrt(_per_table_sum((tab.p_init[:, None] * se_c * dw) ** 2))
    return [
        ("w_mhq", w, se_w),
        ("w_tpm", w_tpm, se_t),
        ("w_mhq_over_omega", w / om, None if se_w is None else se_w / om),
        ("w_tpm_over_omega", w_tpm / om, None if se_t is None else se_t / om),
    ]


def _tomography_rows(config: RunConfig) -> list[dict]:
    basis0 = _energy_basis0(config.params)
    rho = initial_state(config.state, basis0)
    gauge = _amplitude_gauge(basis0.vectors)
    rho_e = gauge.conj().T @ rho @ gauge
    rows = []
    for i, li in enumerate(ENERGY_LABELS):
        for f, lf in enumerate(ENERGY_LABELS):
            v = rho_e[i, f]
            rows.append({"bra": li, "ket": lf, "re": float(v.real), "im": float(v.imag), "abs": float(abs(v))})
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
        "omega_eff_rad_per_us": omega_eff(p.omega1, p.omega2),
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

    builder = {"fig2": _fig2_series, "fig3": _fig3_series, "fig4": _fig4_series}[target]
    series = builder(config, times)
    series_path = out / f"{target}_series.csv"
    _write_series(series_path, times, series)
    written.append(series_path)

    extra: dict = {"series": sorted(name for name, _, _ in series)}
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


_SWEEP_FIELDS = (
    "set", "variant", "omega1", "omega2", "phi1", "phi2", "equal_ramps",
    "state_a", "state_b", "state_phi_a", "state_phi_b", "window_end_us", "omega_eff",
    "min_req", "min_w_rad_per_us", "min_w_over_omega", "max_aleph",
)


def _sweep_rows(result: SweepResult):
    """The archive rows in ``_SWEEP_FIELDS`` order, from ``.tolist()`` columns."""
    draws = result.draws.tolist()
    variants = zip(result.drives.reshape(-1, 4).tolist(), result.extrema.reshape(-1, 4).tolist())
    for k, ((w1, w2, f1, f2), (window_end, min_req, min_w, max_aleph)) in enumerate(variants):
        om = omega_eff(w1, w2)
        yield (k // 3, VARIANT_KINDS[k % 3], w1, w2, f1, f2, int(f1 == f2), *draws[k // 3],
               window_end, om, min_req, min_w, min_w / om, max_aleph)


def emit_sweep(config: RunConfig, result: SweepResult, summary: SweepSummary) -> list[Path]:
    """Write the sweep archive: one CSV row per (set, variant) plus a summary."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "sweep_records.csv"
    with records_path.open("w", newline="") as fh:
        writer = csv.writer(fh)  # writes a float as str(), which equals its repr()
        writer.writerow(_SWEEP_FIELDS)
        writer.writerows(_sweep_rows(result))

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


def _write_series(path: Path, times: np.ndarray, series: list[Series]) -> None:
    """One row per (time point, series), time-major; ``.tolist()`` so repr gives plain floats.

    Refuses a NaN or infinite value before the file is opened, as ``_write_json`` does.
    """
    if not all(np.isfinite(v).all() and (se is None or np.isfinite(se).all()) for _, v, se in series):
        raise ValueError(f"{path}: a series holds a non-finite value")
    cells = [(name, v.tolist(), None if se is None else se.tolist()) for name, v, se in series]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_us", "series", "value", "stderr"])
        for k, t in enumerate(times.tolist()):
            t_us = repr(t)
            writer.writerows(
                [t_us, name, repr(v[k]), "" if se is None else repr(se[k])] for name, v, se in cells
            )


def _write_dict_rows(path: Path, rows: list[dict], fields: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)  # writes a float as str(), which equals its repr()
        writer.writerow(fields)
        writer.writerows([row[k] for k in fields] for row in rows)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")  # a NaN fails loudly
