"""The four benchmark workloads: one timed operation each, plus output checks.

Every workload drives quasiwork through its public functions only.  ``op``
is the timed operation; ``check`` runs outside the timed region and returns
the number of failed items of that operation.  An item is a time-grid point
(figure workloads), a parameter set (``sweep``) or one oracle comparison
(``oracle``).  The first operation of a run is checked in full and becomes
the reference; a later operation whose output bytes equal the reference has
the reference's failures, and one whose bytes differ fails every item.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

REFERENCE_CONFIG = Path("configs") / "reference.yaml"

# Figure series expected at every time point (the README's output schema).
_LABELS = ("+", "0", "-")
FIGURE_SERIES = {
    "fig2": {f"end:f={f}" for f in _LABELS}
    | {f"{kind}:i={i}:f={f}" for kind in ("cond", "comp") for i in _LABELS for f in _LABELS},
    "fig3": {f"z:i={i}:f={f}" for i in _LABELS for f in _LABELS}
    | {"sum_abs_z:i=-", "negativity", "ref:zero", "ref:bound"},
    "fig4": {"w_mhq", "w_tpm", "w_mhq_over_omega", "w_tpm_over_omega"},
}

Z_TOL = 1e-9  # fig3 z and sweep extrema against kdq_direct
MARGINAL_TOL = 1e-10
NEGATIVITY_SLACK = 1e-9
STEPPED_TOL = 1e-6  # closed vs stepped propagator, Frobenius norm
# Shot-noise check: |z - Re q| <= Z_SIGMAS * stderr + COUNT_SLACK / shots.
# The slack covers cells whose sampled count is zero, where the emitted
# stderr (computed from the sampled frequencies) is zero too.
Z_SIGMAS = 6.0
COUNT_SLACK = 3.0


@dataclass(frozen=True)
class Size:
    """Problem size; the defaults are the benchmark's, smaller ones are for tests."""

    # Halved from the reference config's 400 points and 1000 sets: a run then
    # holds twice the operations, and its median is steadier.
    grid_points: int | None = 200  # figures; None keeps the config's 400
    n_sets: int | None = 500  # sweep; None keeps the config's 1000
    n_time: int | None = None  # sweep; None keeps the config's 200
    stepped_steps: int = 100_000
    stepped_times: int = 3
    check_stride: int = 4  # figures: oracle check on every k-th time
    check_sets: int = 2  # sweep: sets re-evaluated with kdq_direct


def cli(args: list[str]) -> int:
    """Run one quasiwork CLI command in this process; return its exit code."""
    from quasiwork import cli as qcli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return qcli.main(args)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code if isinstance(exc.code, int) else 1


def read_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class Workload:
    """Base: set-up, the timed operation, and reference-based checking."""

    def __init__(self, seed: int, workdir: Path, size: Size = Size()):
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = size
        self.out = self.workdir / "out"
        self.rng = np.random.default_rng(seed)
        self.reference: tuple[str, int] | None = None
        self.notes: list[str] = []
        self.config_path = self._config_file()

    def note(self, *texts) -> None:
        """Keep the first few failure descriptions for the report."""
        self.notes.extend(str(t) for t in texts[: max(10 - len(self.notes), 0)])

    def _overrides(self) -> dict:
        return {}

    def _config_file(self) -> Path:
        """The reference config, or a copy with the sweep size overridden."""
        sweep = self._overrides()
        if not sweep:
            return REFERENCE_CONFIG
        data = yaml.safe_load(REFERENCE_CONFIG.read_text())
        data.setdefault("sweep", {}).update(sweep)
        path = self.workdir / "config.yaml"
        self.workdir.mkdir(parents=True, exist_ok=True)
        path.write_text(yaml.safe_dump(data))
        return path

    def setup(self) -> None:
        """Load the config and pay the one-time propagator self-check."""
        from quasiwork.config import load_config
        from quasiwork.propagate import propagator_closed

        self.config = load_config(self.config_path, seed=self.seed, grid_points=self.size.grid_points)
        propagator_closed(0.0, self.config.params)
        self.out.mkdir(parents=True, exist_ok=True)

    @property
    def items_per_op(self) -> int:
        raise NotImplementedError

    def prepare_op(self) -> None:
        """Untimed: remove the previous operation's files."""
        for p in self.out.iterdir():
            p.unlink()

    def op(self):
        raise NotImplementedError

    def check(self, codes: list[int]) -> int:
        """Failed items of one operation, given its CLI exit codes."""
        if any(codes):
            self.note(f"exit codes {codes}")
            return self.items_per_op
        files = read_files(self.out)
        key = digest(files)
        if self.reference is None:
            failures = self.check_files(files)
            self.note(*sorted(map(str, failures)))
            self.reference = (key, len(failures))
        elif key != self.reference[0]:
            self.note("outputs differ from the first operation's")
            return self.items_per_op
        return self.reference[1]

    def check_files(self, files: dict[str, bytes]) -> set:
        """Identifiers of the failed items in one operation's files."""
        raise NotImplementedError


def parse_series(data: bytes) -> dict[str, dict[str, tuple[float, float | None]]]:
    """t_us text -> series -> (value, stderr); malformed rows are dropped."""
    out: dict[str, dict] = {}
    rows = csv.reader(io.StringIO(data.decode("utf-8", "replace")))
    if next(rows, None) != ["t_us", "series", "value", "stderr"]:
        return out
    for row in rows:
        if len(row) != 4:
            continue
        try:
            t = float(row[0])
            value = float(row[2])
            stderr = float(row[3]) if row[3] else None
        except ValueError:
            continue
        if math.isfinite(t):
            out.setdefault(row[0], {})[row[1]] = (value, stderr)
    return out


class Figures(Workload):
    """reproduce-fig2/3/4 on the reference config; exact, or with shot noise."""

    targets = ("fig2", "fig3", "fig4")

    def __init__(self, seed: int, workdir: Path, size: Size = Size(), shots: int | None = None):
        super().__init__(seed, workdir, size)
        self.shots = shots
        self.offset = int(self.rng.integers(size.check_stride))

    @property
    def items_per_op(self) -> int:
        return len(self.targets) * self.config.grid_points

    def args(self, target: str) -> list[str]:
        args = [f"reproduce-{target}", "--config", str(self.config_path), "--out", str(self.out)]
        args += ["--seed", str(self.seed)]
        if self.shots is not None:
            args += ["--shots", str(self.shots)]
        if self.size.grid_points is not None:
            args += ["--steps", str(self.size.grid_points)]
        return args

    def op(self):
        return [cli(self.args(target)) for target in self.targets]

    def oracle(self, t: float):
        from quasiwork.model import energy_basis, initial_state
        from quasiwork.schemes import kdq_direct

        params = self.config.params
        rho = initial_state(self.config.state, energy_basis(0.0, params))
        return kdq_direct(rho, t, params)

    def check_files(self, files: dict[str, bytes]) -> set:
        failed: set = set()
        series = {}
        for target in self.targets:
            data = series[target] = parse_series(files.get(f"{target}_series.csv", b""))
            complete = {t for t, s in data.items() if FIGURE_SERIES[target] <= s.keys()}
            failed |= {(target, t) for t in data.keys() - complete}
            missing = self.config.grid_points - len(complete)
            failed |= {(target, "missing", k) for k in range(max(missing, 0))}
            series[target] = {t: data[t] for t in complete}
            if f"{target}_meta.json" not in files:
                failed.add((target, "meta"))
        times = sorted(series["fig3"], key=float)
        checked = set(times[self.offset :: self.size.check_stride])
        if self.shots is None:
            failed |= self._check_exact(series, checked)
        else:
            failed |= self._check_shots(series, set(times))
        return failed

    def _check_exact(self, series, checked) -> set:
        from quasiwork.analysis import NEGATIVITY_BOUND, avg_work_mhq

        failed = set()
        fig2, fig3, fig4 = series["fig2"], series["fig3"], series["fig4"]
        p_init = self.config.state.normalized_weights
        for t, s in fig2.items():
            end = [s[f"end:f={f}"][0] for f in _LABELS]
            sums = [sum(end)] + [
                sum(s[f"{kind}:i={i}:f={f}"][0] for f in _LABELS)
                for kind in ("cond", "comp")
                for i in _LABELS
            ]
            bad = max(abs(x - 1.0) for x in sums) > MARGINAL_TOL
            if t in fig3:
                z = _z_table(fig3[t])
                bad |= np.max(np.abs(z.sum(axis=0) - end)) > MARGINAL_TOL
                bad |= np.max(np.abs(z.sum(axis=1) - p_init)) > MARGINAL_TOL
            if bad:
                failed.add(("fig2", t))
        for t, s in fig3.items():
            if s["negativity"][0] > NEGATIVITY_BOUND + NEGATIVITY_SLACK:
                failed.add(("fig3", t))
        for t in checked:
            q = self.oracle(float(t))
            if np.max(np.abs(_z_table(fig3[t]) - q.q.real)) > Z_TOL:
                failed.add(("fig3", t))
            if t in fig4:
                dw = q.e_final[None, :] - q.e_init[:, None]
                if abs(fig4[t]["w_mhq"][0] - avg_work_mhq(q)) > Z_TOL * np.abs(dw).sum():
                    failed.add(("fig4", t))
        return failed

    def _check_shots(self, series, times) -> set:
        failed = set()
        fig3 = series["fig3"]
        for t in times:
            z = _z_table(fig3[t])
            se = _z_table(fig3[t], column=1)
            q = self.oracle(float(t))
            limit = Z_SIGMAS * se + COUNT_SLACK / self.shots
            if not np.all(np.abs(z - q.q.real) <= limit):
                failed.add(("fig3", t))
        return failed


def _z_table(row: dict, column: int = 0) -> np.ndarray:
    z = np.empty((3, 3))
    for a, i in enumerate(_LABELS):
        for b, f in enumerate(_LABELS):
            v = row[f"z:i={i}:f={f}"][column]
            z[a, b] = np.nan if v is None else v
    return z


class FiguresShots(Figures):
    """The figure commands with shot noise on every measured distribution."""

    SHOTS = 1_000_000

    def __init__(self, seed: int, workdir: Path, size: Size = Size()):
        super().__init__(seed, workdir, size, shots=self.SHOTS)


class Sweep(Workload):
    """The random-parameter sweep at the workload seed, then emit_sweep."""

    def _overrides(self) -> dict:
        over = {}
        if self.size.n_sets is not None:
            over["n_sets"] = self.size.n_sets
        if self.size.n_time is not None:
            over["n_time"] = self.size.n_time
        return over

    @property
    def items_per_op(self) -> int:
        return self.config.sweep.n_sets

    def op(self):
        args = ["sweep", "--config", str(self.config_path), "--out", str(self.out)]
        return [cli(args + ["--seed", str(self.seed)])]

    def check_files(self, files: dict[str, bytes]) -> set:
        from quasiwork.analysis import NEGATIVITY_BOUND

        n_sets = self.items_per_op
        try:
            summary = json.loads(files["sweep_summary.json"])
            rows = list(csv.DictReader(io.StringIO(files["sweep_records.csv"].decode())))
            sets: dict[int, list[dict]] = {}
            for row in rows:
                sets.setdefault(int(row["set"]), []).append(row)
        except (KeyError, ValueError, UnicodeDecodeError) as exc:
            self.note(f"unreadable sweep output: {exc!r}")
            return set(range(n_sets))
        failed = {k for k in range(n_sets) if len(sets.get(k, ())) != 3}  # skipped or cut
        for k, variants in sets.items():
            if any(float(v["max_aleph"]) > NEGATIVITY_BOUND + NEGATIVITY_SLACK for v in variants):
                failed.add(k)
        if summary.get("n_skipped", 0) or summary.get("bound_violations", 0):
            failed.add("summary")
        complete = sorted(set(sets) - failed)
        n_check = min(self.size.check_sets, len(complete))
        for k in self.rng.choice(complete, size=n_check, replace=False) if n_check else []:
            if not all(self._matches_oracle(v, summary["n_time"]) for v in sets[int(k)]):
                failed.add(int(k))
        return failed

    def _matches_oracle(self, row: dict, n_time: int) -> bool:
        """Re-evaluate one variant's extrema with kdq_direct on the same grid."""
        from quasiwork.model import DriveParams
        from quasiwork.schemes import kdq_direct

        params = DriveParams(*(float(row[k]) for k in ("omega1", "omega2", "phi1", "phi2")))
        a, b = float(row["state_a"]), float(row["state_b"])
        ket = np.array(
            [
                a * np.exp(1j * float(row["state_phi_a"])),
                b * np.exp(1j * float(row["state_phi_b"])),
                math.sqrt(max(0.0, 1.0 - a * a - b * b)),
            ]
        )
        ket /= np.linalg.norm(ket)
        rho = np.outer(ket, ket.conj())
        t_end = float(row["window_end_us"])
        zmin, wmin, amax = np.inf, np.inf, -np.inf
        for k in range(1, n_time + 1):
            q = kdq_direct(rho, t_end * k / n_time, params)
            dw = q.e_final[None, :] - q.e_init[:, None]
            zmin = min(zmin, float(q.z.min()))
            wmin = min(wmin, float((q.z * dw).sum()))
            amax = max(amax, float(np.abs(q.q).sum() - 1.0))
        return (
            abs(float(row["min_req"]) - zmin) <= Z_TOL
            and abs(float(row["min_w_rad_per_us"]) - wmin) <= Z_TOL
            and abs(float(row["max_aleph"]) - amax) <= Z_TOL
        )


class Oracle(Workload):
    """run_selftest(seed) plus closed-vs-stepped propagators on reference-grid times."""

    def setup(self) -> None:
        from quasiwork.emitters import figure_times
        from quasiwork.selftest import CHECKS

        super().setup()
        grid = figure_times(self.config)
        picks = self.rng.choice(np.arange(1, grid.size), size=self.size.stepped_times, replace=False)
        self.times = [float(grid[k]) for k in sorted(picks)]
        self.n_checks = len(CHECKS)

    @property
    def items_per_op(self) -> int:
        return self.n_checks + len(self.times)

    def prepare_op(self) -> None:
        pass

    def op(self):
        from quasiwork.propagate import propagator_closed, propagator_stepped
        from quasiwork.selftest import run_selftest

        report = run_selftest(self.seed)
        params = self.config.params
        pairs = [
            (propagator_closed(t, params).u, propagator_stepped(t, params, self.size.stepped_steps).u)
            for t in self.times
        ]
        return report, pairs

    def check(self, result) -> int:
        report, pairs = result
        failed = [name for name, passed, _, _ in report.results if not passed]
        failed += ["missing selftest check"] * max(self.n_checks - len(report.results), 0)
        for t, (closed, stepped) in zip(self.times, pairs):
            if not np.linalg.norm(closed - stepped, "fro") <= STEPPED_TOL:
                failed.append(f"stepped t={t!r}")
        self.note(*failed)
        return len(failed)


WORKLOADS = {
    "figures": Figures,
    "figures_shots": FiguresShots,
    "sweep": Sweep,
    "oracle": Oracle,
}
