"""Command-line interface.

Subcommands map one-to-one onto the deliverables: ``reproduce-fig2``,
``reproduce-fig3``, ``reproduce-fig4`` emit figure-equivalent series files,
``sweep`` runs the random-parameter study, ``selftest`` runs the reduced
invariant battery.  Exit codes: 0 success, 1 configuration error, a sweep
set that cannot be evaluated or an output that cannot be written, 2 selftest
failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .emitters import emit_figure, emit_sweep
from .explore import SweepSetFailed
from .explore import sweep as run_sweep
from .selftest import run_selftest

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiwork",
        description="Quasiprobability work statistics for a driven three-level system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="YAML config file (optional)")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--shots", type=int, default=None, help="readout repetitions per point")
        p.add_argument(
            "--steps",
            type=int,
            default=None,
            help="time-grid points (figures) / per-window grid points (sweep)",
        )

    for target in ("fig2", "fig3", "fig4"):
        p = sub.add_parser(f"reproduce-{target}", help=f"emit the {target} data series")
        add_common(p)

    p = sub.add_parser("sweep", help="random-parameter extrema study")
    add_common(p)

    sub.add_parser("selftest", help="run reduced invariant suites")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "selftest":
        report = run_selftest()
        for line in report.lines():
            print(line)
        return 0 if report.ok else 2

    try:
        config = load_config(
            args.config,
            out_dir=args.out,
            seed=args.seed,
            shots=args.shots,
            grid_points=args.steps,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "sweep":
            try:
                result, summary = run_sweep(config.sweep)
            except SweepSetFailed as exc:
                print(f"sweep error: {exc}", file=sys.stderr)
                return 1
            paths = emit_sweep(config, result, summary)
            print(
                f"sweep: {summary.n_sets} sets, "
                f"max aleph {summary.global_max_aleph:.4f} ({summary.global_max_aleph_kind})"
            )
        else:
            paths = emit_figure(config, args.command.removeprefix("reproduce-"))
    except OSError as exc:  # the output directory cannot be made or written
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
