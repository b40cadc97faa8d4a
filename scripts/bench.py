#!/usr/bin/env python3
"""Write BENCH_<LABEL>.json: a performance snapshot of this checkout.

Run from anywhere; it measures the checkout it lives in:

    python3 scripts/bench.py LABEL

It records, in one JSON file at the root of the checkout:

* ``perfbench/run.py`` for every workload, with ``--trace 0`` (end-to-end
  metrics) and ``--trace 1`` (per-layer metrics), each for BENCHMARK.json's
  ``run_seconds`` at seed ``SEED``, so snapshots compare with the benchmark;
* wall times of CLI commands in fresh interpreters, best, median and worst
  of ``REPEATS``: ``reproduce-fig2/3/4``, fig4 with ``--shots 1000000``,
  ``sweep`` at 1,000 and 10,000 sets, and ``selftest``;
* per-layer min-of-N ``timeit`` timings from ``scripts/bench_layers.py``
  (eigensolver, ``energy_basis``, the propagators, the gate chain,
  ``scheme_series``, a 96-variant sweep-kernel stack, the in-process
  1,000-set sweep, CSV/JSON writing), in a fresh interpreter;
* one run of the Tier-1 test suite;
* the provenance perfbench prints (CPU, cores, Python, numpy, BLAS, git rev).

The snapshot reports only and gates nothing.  Subprocesses run with
perfbench's pinned environment (single-threaded BLAS), so the CLI timings
and perfbench's see the same machine.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import PINNED_ENV, WORKLOAD_NAMES  # noqa: E402

FIG_SHOTS = 1_000_000
SWEEP_SIZES = (1_000, 10_000)
REPEATS = 3
SEED = 1
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    path = env.get("PYTHONPATH")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src if not path else f"{src}{os.pathsep}{path}"
    return env


def perfbench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("# provenance "))
    detail = next(json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("# detail "))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "op_wall_p50_ms": detail["op_wall_p50_ms"],
        "provenance": prov,
    }


def timed(args: list[str], cwd: Path) -> dict:
    """Best, median and worst wall time of ``REPEATS`` fresh-interpreter runs."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                              capture_output=True, text=True)
        runs.append(time.perf_counter() - start)
        if proc.returncode != 0:
            return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:], "runs_s": runs}
    return {"best_s": min(runs), "median_s": statistics.median(runs), "worst_s": max(runs),
            "runs_s": runs}


def cli_timings(scratch: Path) -> dict:
    reference = ROOT / "configs" / "reference.yaml"
    configs = {}
    for n_sets in SWEEP_SIZES:
        data = yaml.safe_load(reference.read_text())
        data["sweep"]["n_sets"] = n_sets
        configs[n_sets] = scratch / f"sweep{n_sets}.yaml"
        configs[n_sets].write_text(yaml.safe_dump(data))

    def cli(*args: str) -> list[str]:
        return ["-m", "quasiwork.cli", *args, "--out", str(scratch / "out")]

    commands = {f"reproduce-{fig}": cli(f"reproduce-{fig}", "--config", str(reference))
                for fig in ("fig2", "fig3", "fig4")}
    commands["reproduce-fig4 --shots 1000000"] = cli(
        "reproduce-fig4", "--config", str(reference), "--shots", str(FIG_SHOTS))
    for n_sets, path in configs.items():
        commands[f"sweep {n_sets} sets"] = cli("sweep", "--config", str(path))
    commands["selftest"] = ["-m", "quasiwork.cli", "selftest"]  # takes no flags
    return {name: timed(args, scratch) for name, args in commands.items()}


def layer_timings() -> dict:
    proc = subprocess.run([sys.executable, "scripts/bench_layers.py"], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout)


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error|skipped)", tail)}
    return {"seconds": seconds, "returncode": proc.returncode, "summary": tail, "counts": counts}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python3 scripts/bench.py LABEL  (writes BENCH_<LABEL>.json)", file=sys.stderr)
        return 2
    label = args[0]

    bench = {"label": label,
             "settings": {"label": label, "seconds": RUN_SECONDS, "repeats": REPEATS, "seed": SEED}}
    bench["perfbench"] = {w: {f"trace{t}": perfbench(w, t) for t in (0, 1)} for w in WORKLOAD_NAMES}
    first = bench["perfbench"][WORKLOAD_NAMES[0]]["trace0"].get("provenance", {})
    bench["provenance"] = {k: first.get(k) for k in
                           ("cpu_model", "cpu_count", "affinity", "python", "numpy", "blas",
                            "git_rev", "env")}
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
        bench["cli"] = cli_timings(Path(scratch))
    bench["layers"] = layer_timings()
    bench["tier1"] = tier1()

    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
