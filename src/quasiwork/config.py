"""Run configuration: one YAML file drives every CLI command.

Schema (all keys optional; defaults reproduce the bundled reference setup)::

    drive:
      unit: MHz_times_2pi     # angular_rad_per_us | MHz_times_2pi | MHz_plain
      omega1: 2.219           # amplitude, upper transition
      omega2: 2.219           # amplitude, lower transition
      phi1: 2.41871           # phase ramp rate, upper transition
      phi2: 2.41871           # phase ramp rate, lower transition
    state:
      weights: [0.7654, 0.0009, 0.2338]   # populations on (+, 0, -), renormalized
      phases: [0.0073, 0.2787, 0.0002]    # amplitude phases, radians
    grid:
      start: 0.0              # us
      end: null               # us; null = two characteristic periods
      points: 400
    shots: null               # per-readout repetitions; null = exact Born values
    seed: 20260810
    out_dir: out
    sweep:
      n_sets: 1000
      n_time: 200
      omega_interval_mhz: [1.0, 20.0]
      ramp_factor: 2.0
      angular_convention: true

``unit`` converts the four drive numbers into the internal angular rad/us:
``MHz_times_2pi`` multiplies by 2*pi (ordinary-frequency MHz), ``MHz_plain``
uses the numbers unscaled, ``angular_rad_per_us`` is the identity.

Keyword overrides (the CLI flags) replace the file values first, and every
value is then read once by a typed check; a bad one raises ``ConfigError``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .explore import MHZ_TO_ANGULAR, SweepConfig, _window
from .model import REFERENCE_STATE_PHASES, REFERENCE_STATE_WEIGHTS, DriveParams, InitialStateSpec

__all__ = ["ConfigError", "RunConfig", "load_config", "UNIT_SCALES"]

UNIT_SCALES = {"angular_rad_per_us": 1.0, "MHz_times_2pi": 2.0 * math.pi, "MHz_plain": 1.0}

_DRIVE_KEYS = ("omega1", "omega2", "phi1", "phi2")

# One cap for grid.points and sweep.n_time, which --steps both writes.  A sweep
# holds about 10 KB per time point, so a run at the cap peaks near 1 GB.
MAX_TIME_POINTS = 10**5

_DEFAULT_DRIVE = {"unit": "MHz_times_2pi", "omega1": 2.219, "omega2": 2.219,
                  "phi1": 1.09 * 2.219, "phi2": 1.09 * 2.219}


# libyaml's parser when PyYAML was built with it (about 10x faster), else pure Python
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Configuration file is malformed; message carries the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with drive parameters already in rad/us."""

    params: DriveParams
    state: InitialStateSpec
    grid_start: float
    grid_end: float | None  # None = auto (two periods)
    grid_points: int
    shots: int | None
    seed: int
    out_dir: Path
    sweep: SweepConfig
    unit: str
    raw_drive: dict = field(default_factory=dict)


def load_config(path: str | Path | None, **overrides) -> RunConfig:
    """Parse a YAML config file; CLI flags enter as keyword overrides.

    With ``path`` None the built-in reference configuration is read, no file needed.
    """
    data: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = yaml.load(text, Loader=_YAML_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
    return _build_config(data, overrides)


def _build_config(data: dict, overrides: dict) -> RunConfig:
    _reject_unknown(data, {"drive", "state", "grid", "shots", "seed", "out_dir", "sweep"}, "top level")
    data = {**data, **{key: _section(data, key) for key in ("drive", "state", "grid", "sweep")}}
    for key in ("seed", "shots", "out_dir"):
        if overrides.get(key) is not None:
            data[key] = overrides[key]
    if overrides.get("grid_points") is not None:
        data["grid"]["points"] = data["sweep"]["n_time"] = overrides["grid_points"]

    drive = {**_DEFAULT_DRIVE, **data["drive"]}
    _reject_unknown(drive, set(_DEFAULT_DRIVE), "drive")
    unit = drive["unit"]
    if not isinstance(unit, str) or unit not in UNIT_SCALES:
        raise ConfigError(f"drive.unit: {unit!r} not one of {sorted(UNIT_SCALES)}")
    values = [UNIT_SCALES[unit] * _number(drive[k], f"drive.{k}") for k in _DRIVE_KEYS]
    try:
        params = DriveParams(*values)
    except ValueError as exc:
        raise ConfigError(f"drive: {exc}") from exc
    _check_windows("drive", (params.omega1, params.omega2, params.phi1), (params.omega1, params.omega2, 0.0))

    state = {"weights": REFERENCE_STATE_WEIGHTS, "phases": REFERENCE_STATE_PHASES, **data["state"]}
    _reject_unknown(state, {"weights", "phases"}, "state")
    weights, phases = (_numbers(state[k], 3, f"state.{k}") for k in ("weights", "phases"))
    try:
        state_spec = InitialStateSpec(weights=tuple(weights), phases=tuple(phases))
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc

    grid = {"start": 0.0, "end": None, "points": 400, **data["grid"]}
    _reject_unknown(grid, {"start", "end", "points"}, "grid")
    start = _number(grid["start"], "grid.start")
    end = None if grid["end"] is None else _number(grid["end"], "grid.end")
    points = _integer(grid["points"], "grid.points", 2, MAX_TIME_POINTS)
    if start < -1e-12:
        raise ConfigError(f"grid.start: must be >= 0, got {start}")
    # the grid's last time, as figure_times computes it; t * (omega_eff + max|phi|) bounds
    # every |t * lambda| (Weyl), so a finite product keeps each exp(-i t lambda) finite
    last = start + 2.0 * _window(params.omega1, params.omega2, params.phi1) if end is None else end
    where = "grid.start" if end is None else "grid.end"
    if not last > start:
        raise ConfigError(f"{where}: the last time {last} us must exceed grid.start {start}")
    if not math.isfinite(last * (math.sqrt(0.5 * (params.omega1**2 + params.omega2**2))
                                 + max(abs(params.phi1), abs(params.phi2)))):
        raise ConfigError(f"{where}: the last time {last} us is too far off for this drive")

    # numpy's multinomial takes a C long; SeedSequence takes no negative seed
    shots = None if data.get("shots") is None else _integer(data["shots"], "shots", 1, 2**63 - 1)
    seed = _integer(data.get("seed", SweepConfig.seed), "seed", 0)
    out_dir = data.get("out_dir", "out")
    if not (isinstance(out_dir, str) and out_dir or isinstance(out_dir, os.PathLike)):
        raise ConfigError(f"out_dir: expected a directory name, got {out_dir!r}")

    readers = {
        "n_sets": lambda v, where: _integer(v, where, 1, 10**6),
        "n_time": lambda v, where: _integer(v, where, 2, MAX_TIME_POINTS),
        "omega_interval_mhz": _interval,
        "ramp_factor": _number,
        "angular_convention": _boolean,
    }
    _reject_unknown(data["sweep"], set(readers), "sweep")
    try:  # only the keys given: SweepConfig holds the defaults
        sweep = SweepConfig(seed=seed, **{k: readers[k](v, k) for k, v in data["sweep"].items()})
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    lo, hi = (float(x) for x in sweep.omega_interval_mhz)
    top, bottom = (x * (MHZ_TO_ANGULAR if sweep.angular_convention else 1.0) for x in (hi, lo))
    _check_windows("sweep: drawn drive", (top, top, top * sweep.ramp_factor), (bottom, bottom, 0.0))

    return RunConfig(params=params, state=state_spec, grid_start=start, grid_end=end, grid_points=points,
                     shots=shots, seed=seed, out_dir=Path(out_dir), sweep=sweep, unit=unit,
                     raw_drive={k: drive[k] for k in _DRIVE_KEYS})


def _section(data: dict, key: str) -> dict:
    sec = data.get(key) or {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: must be a mapping, got {type(sec).__name__}")
    return dict(sec)


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _number(val, where: str) -> float:
    """A finite int or float, never a bool, as a float."""
    try:
        if not isinstance(val, bool) and math.isfinite(val):
            return float(val)
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        pass
    raise ConfigError(f"{where}: expected a finite number, got {val!r}")


def _integer(val, where: str, lo: int, hi: float = math.inf) -> int:
    """An int, or an integral float, in [lo, hi]."""
    if isinstance(val, bool) or not isinstance(val, int):
        val = _number(val, where)
        if not val.is_integer():
            raise ConfigError(f"{where}: expected an integer, got {val!r}")
        val = int(val)
    if not lo <= val <= hi:
        raise ConfigError(f"{where}: must lie in [{lo}, {hi}], got {val}")
    return val


def _numbers(val, n: int, where: str) -> list[float]:
    if not isinstance(val, (list, tuple)) or len(val) != n:
        raise ConfigError(f"{where}: expected a list of {n} numbers, got {val!r}")
    return [_number(x, f"{where}[{j}]") for j, x in enumerate(val)]


def _interval(val, where: str) -> tuple:
    _numbers(val, 2, where)
    return tuple(val)  # as written: the sweep summary echoes it


def _boolean(val, where: str) -> bool:
    if not isinstance(val, bool):
        raise ConfigError(f"{where}: expected true or false, got {val!r}")
    return val


def _check_windows(where: str, *drives: tuple[float, float, float]) -> None:
    """Refuse drives (omega1, omega2, phi1), rad/us, that overflow or underflow the window's float squares.

    With phi1 = 0 this also covers omega_eff, which squares the amplitudes alone.
    """
    for drive in drives:
        try:
            ok = _window(*drive) > 0.0
        except (OverflowError, ZeroDivisionError):
            ok = False
        if not ok:
            raise ConfigError(f"{where}: (omega1, omega2, phi1) = {drive} rad/us is out of range "
                              "for the time window")
