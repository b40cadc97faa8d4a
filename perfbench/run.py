"""quasiwork benchmark: one workload, timed end to end or traced per layer.

Run from the root of a quasiwork checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 18 --trace 0

``--trace 0`` times operations with tracing off and reports the end-to-end
metrics in reference seconds (see ``reference.py``); ``--trace 1`` alternates untraced and traced operations and reports
the per-layer metrics from the traced ones.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the provenance and every metric by name
with its unit.  Spans of a traced run are written to
``.perfbench_out/trace-<workload>-seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import REFERENCE_SECONDS, reference_seconds

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_PROBES = 10
# Serial program, serial BLAS: an inherited environment cannot change a run.
PINNED_ENV = {
    "QUASIWORK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
WORKLOAD_NAMES = ("figures", "figures_shots", "sweep", "oracle")
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (taken mod 2**32)")
    parser.add_argument("--seconds", type=float, required=True, help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment(root: Path) -> None:
    os.environ.update(PINNED_ENV)
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not path else f"{src}{os.pathsep}{path}"
    sys.path.insert(0, src)


def git_rev(root: Path) -> str | None:
    """Commit of the checkout, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path, seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_rev": git_rev(root),
        "seed": seed,
        "env": {k: os.environ[k] for k in PINNED_ENV},
        "loadavg_start": os.getloadavg(),
    }


class ReferenceClock:
    """Converts wall times to reference seconds (see ``reference.py``).

    The reference kernel runs once on creation and once more after each timed
    piece of work.  The work's wall time is scaled by ``REFERENCE_SECONDS``
    over the mean of the kernel's times right before and right after it, so a
    host that runs slower for a while slows the kernel as much as the work.
    """

    def __init__(self):
        reference_seconds()  # warm-up
        self.kernel = [reference_seconds()]

    def scale(self, wall: float) -> float:
        """Reference seconds of the work that just took ``wall`` seconds."""
        self.kernel.append(reference_seconds())
        return wall * REFERENCE_SECONDS / ((self.kernel[-2] + self.kernel[-1]) / 2)


def setup_times(root: Path) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_PROBES fresh interpreters: (wall, reference seconds).

    Each ``setup_probe.py`` run lies between two runs of ``setup_probe.py
    reference``, a fresh interpreter that only imports quasiwork's
    dependencies.  Set-up is mostly interpreter start and imports, which a
    slow host slows unlike the compute kernel of ``reference.py``, so a probe's
    wall time is scaled by ``REFERENCE_SECONDS`` over the mean of the two
    import times around it.
    """

    def probe(*args: str) -> float:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        return float(proc.stdout.split()[-1])

    imports = [probe("reference")]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        wall.append(probe())
        imports.append(probe("reference"))
        scaled.append(wall[-1] * REFERENCE_SECONDS / ((imports[-2] + imports[-1]) / 2))
    return wall, scaled


class Runner:
    """Runs one workload's operations and tallies items and failures."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.traced_op = tracer.wrap("op", workload.op) if tracer else None
        self.clock: ReferenceClock | None = None
        self.attempted = 0
        self.failed = 0
        self.traced_ops = 0
        self.wall: list[float] = []  # every timed operation, in seconds

    def one(self, traced: bool = False, timed: bool = True) -> float:
        """One operation; returns its time in reference seconds if ``timed``."""
        wl, tracer = self.workload, self.tracer
        wl.prepare_op()
        if traced:
            tracer.op = self.traced_ops
            self.traced_ops += 1
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            result = self.traced_op() if traced else wl.op()
        except Exception as exc:  # the program failed this operation
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            tracer.op = -1
        if timed:
            self.wall.append(elapsed)
            elapsed = self.clock.scale(elapsed)
        self.attempted += wl.items_per_op
        if error is not None:
            wl.note(f"operation raised {error!r}")
            self.failed += wl.items_per_op
        else:
            self.failed += wl.check(result)
        return elapsed

    def measure(self, seconds: float) -> tuple[list[float], list[float]]:
        """Warm up once, then run until the operations took ``seconds`` of wall time.

        Without a tracer every operation is untraced; with one, untraced and
        traced operations alternate.  Returns their times in reference
        seconds.
        """
        self.one(timed=False)
        self.clock = ReferenceClock()
        untraced: list[float] = []
        traced: list[float] = []
        while True:
            if self.tracer is None or len(untraced) <= len(traced):
                untraced.append(self.one())
            else:
                traced.append(self.one(traced=True))
            if sum(self.wall) >= seconds and (self.tracer is None or traced):
                return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "quasiwork" / "__init__.py").is_file() or not (
        root / "configs" / "reference.yaml"
    ).is_file():
        print(
            "perfbench: src/quasiwork and configs/reference.yaml not found; "
            "run from the root of a quasiwork checkout",
            file=sys.stderr,
        )
        return 2
    seed = args.seed % 2**32
    pin_environment(root)
    prov = provenance(root, seed)

    from workloads import WORKLOADS

    (root / OUT_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / OUT_DIR))
    try:
        wl = WORKLOADS[args.workload](seed, workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer

            try:
                tracer = Tracer()
            except LookupError as exc:  # a layer was renamed or removed
                print(f"perfbench: {exc}", file=sys.stderr)
                return 3
        wl.setup()
        setup_wall, setup_scaled = ([], []) if args.trace else setup_times(root)
        runner = Runner(wl, tracer)
        untraced, traced = runner.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov["loadavg_end"] = os.getloadavg()

    op_p50 = statistics.median(untraced)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "op_p50_ms": op_p50 * 1e3,
            "items_per_s": wl.items_per_op / op_p50,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        from tracer import PER_LAYER

        values = tracer.layer_metrics()
        values["trace.overhead_ms"] = (statistics.median(traced) - op_p50) * 1e3
        units = dict(PER_LAYER)
        spans_path = root / OUT_DIR / f"trace-{args.workload}-seed{seed}.csv"
        tracer.write(spans_path)
        prov["spans_file"] = str(spans_path.relative_to(root))
        prov["spans"] = len(tracer.spans)
        if tracer.hook_errors:
            # a counter the traced run could not record would read as 0
            print("perfbench: layer counters failed: " + "; ".join(tracer.hook_errors[:5]), file=sys.stderr)
            return 3

    detail = {
        "workload": args.workload,
        "items_per_op": wl.items_per_op,
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "op_wall_ms": [round(x * 1e3, 3) for x in runner.wall],
        "op_wall_p50_ms": statistics.median(runner.wall) * 1e3,
        "reference_kernel_ms": [round(x * 1e3, 3) for x in runner.clock.kernel],
        "setup_wall_s": setup_wall,
        "notes": wl.notes,
    }
    print("# provenance " + json.dumps(prov))
    print("# detail " + json.dumps(detail))
    for name, unit in units.items():
        print(f"# metric {name} = {values[name]!r} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
