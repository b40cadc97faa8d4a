#!/usr/bin/env python3
"""Per-layer timings of this checkout, printed to stdout as one JSON object.

    python3 scripts/bench_layers.py

Each entry times one layer on the reference configuration with ``timeit``:
``number`` calls per repeat (chosen by ``Timer.autorange``), ``REPEATS``
repeats, and the best, median and worst seconds per call.  The layers:

* ``herm_eig`` on one matrix and on a ``STACK``-matrix stack;
* ``energy_basis``, ``propagator_closed``, the ``kdq_direct`` oracle and
  the gate chain ``run_protocol`` (all three schemes' rows) at one time
  point;
* ``propagator_stepped`` at ``STEPS`` steps over one characteristic period;
* ``scheme_series`` on the figures' 400-point grid, exact and with
  ``SHOTS`` shots per row (fig2's per-point seeds);
* ``variant_extrema`` on a fixed ``STACK``-variant stack: the sweep's first
  ``STACK // 3`` sets with their twins, whatever ``explore._CHUNK`` is;
* the in-process ``sweep(SweepConfig())`` (1,000 sets, serial, no writing),
  and ``emit_sweep`` writing that sweep's archive;
* the CSV writer on fig2's 400-point series and the JSON writer on its
  metadata.

``scripts/bench.py`` runs this in a fresh interpreter with perfbench's pinned
environment and stores the result under ``layers``.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from quasiwork import emitters, explore, model, propagate, qmath, schemes  # noqa: E402
from quasiwork.config import load_config  # noqa: E402

REPEATS = 7
STACK = 96
STEPS = 100_000
SHOTS = 1_000_000


def timing(fn) -> dict:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    runs = [t / number for t in timer.repeat(REPEATS, number)]
    return {"best_s": min(runs), "median_s": statistics.median(runs), "worst_s": max(runs),
            "number": number, "repeats": REPEATS}


def sweep_stack() -> tuple[np.ndarray, np.ndarray]:
    """The sweep's first STACK // 3 sets, each with its two twins: STACK variants."""
    drives, _, kets = explore._draw_sets(explore.SweepConfig())
    return drives[: STACK // 3].reshape(-1, 4), np.repeat(kets[: STACK // 3], 3, axis=0)


def main() -> int:
    cfg = load_config(None)
    p = cfg.params
    times = emitters.figure_times(cfg)
    rho = model.initial_state(cfg.state, model.energy_basis(0.0, p))
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(2, k)) for k in range(times.size)]
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(size=(STACK, 3, 3)) + 1j * rng.normal(size=(STACK, 3, 3))
    stack = x + x.conj().swapaxes(-1, -2)
    h0 = model.hamiltonian_rot(0.0, p)
    period = explore.time_window(p)
    stack_drives, stack_kets = sweep_stack()
    sweep_result, sweep_summary = explore.sweep(explore.SweepConfig())
    series = emitters._fig2_series(cfg, times)
    meta = emitters._metadata(cfg, "fig2", times, {"series": sorted(name for name, _, _ in series)})

    out = {
        "herm_eig_one": timing(lambda: qmath.herm_eig(h0)),
        f"herm_eig_stack{STACK}": timing(lambda: qmath.herm_eig(stack)),
        "energy_basis": timing(lambda: model.energy_basis(0.1 * period, p)),
        "propagator_closed": timing(lambda: propagate.propagator_closed(0.1 * period, p)),
        "kdq_direct": timing(lambda: schemes.kdq_direct(rho, 0.1 * period, p)),
        "run_protocol_one_point": timing(lambda: schemes.run_protocol(cfg.state, 0.1 * period, p)),
        f"propagator_stepped_{STEPS}": timing(lambda: propagate.propagator_stepped(period, p, STEPS)),
        "scheme_series_400_exact": timing(lambda: schemes.scheme_series(rho, times, p)),
        "scheme_series_400_shots": timing(
            lambda: schemes.scheme_series(rho, times, p, shots=SHOTS, seeds=seeds)),
        f"variant_extrema_stack{STACK}": timing(
            lambda: explore.variant_extrema(stack_drives, stack_kets, explore.SweepConfig().n_time)),
        "sweep_1000_in_process": timing(lambda: explore.sweep(explore.SweepConfig())),
    }
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as scratch:
        out["write_fig2_series_csv"] = timing(
            lambda: emitters._write_series(Path(scratch) / "s.csv", times, series))
        out["write_fig2_meta_json"] = timing(lambda: emitters._write_json(Path(scratch) / "m.json", meta))
        sweep_cfg = load_config(None, out_dir=Path(scratch) / "sweep")
        out["emit_sweep_1000"] = timing(lambda: emitters.emit_sweep(sweep_cfg, sweep_result, sweep_summary))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
