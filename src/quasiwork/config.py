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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .explore import SweepConfig
from .model import (
    DriveParams,
    InitialStateSpec,
    REFERENCE_STATE_PHASES,
    REFERENCE_STATE_WEIGHTS,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "default_config", "UNIT_SCALES"]

UNIT_SCALES = {
    "angular_rad_per_us": 1.0,
    "MHz_times_2pi": 2.0 * math.pi,
    "MHz_plain": 1.0,
}

_DEFAULT_DRIVE = {
    "unit": "MHz_times_2pi",
    "omega1": 2.219,
    "omega2": 2.219,
    "phi1": 1.09 * 2.219,
    "phi2": 1.09 * 2.219,
}


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


def default_config(**overrides) -> RunConfig:
    """The built-in reference configuration (no file needed)."""
    return _build_config({}, overrides)


def load_config(path: str | Path | None, **overrides) -> RunConfig:
    """Parse a YAML config file; CLI flags enter as keyword overrides."""
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

    drive = {**_DEFAULT_DRIVE, **_section(data, "drive")}
    _reject_unknown(drive, set(_DEFAULT_DRIVE), "drive")
    unit = drive["unit"]
    if unit not in UNIT_SCALES:
        raise ConfigError(f"drive.unit: {unit!r} not one of {sorted(UNIT_SCALES)}")
    scale = UNIT_SCALES[unit]
    try:
        params = DriveParams(
            omega1=scale * _number(drive, "omega1", "drive"),
            omega2=scale * _number(drive, "omega2", "drive"),
            phi1=scale * _number(drive, "phi1", "drive"),
            phi2=scale * _number(drive, "phi2", "drive"),
        )
    except ValueError as exc:
        raise ConfigError(f"drive: {exc}") from exc

    state_map = {
        "weights": list(REFERENCE_STATE_WEIGHTS),
        "phases": list(REFERENCE_STATE_PHASES),
        **_section(data, "state"),
    }
    _reject_unknown(state_map, {"weights", "phases"}, "state")
    try:
        state = InitialStateSpec(
            weights=tuple(_triple(state_map, "weights", "state")),
            phases=tuple(_triple(state_map, "phases", "state")),
        )
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc

    grid = {"start": 0.0, "end": None, "points": 400, **_section(data, "grid")}
    _reject_unknown(grid, {"start", "end", "points"}, "grid")
    start = _number(grid, "start", "grid")
    end = None if grid["end"] is None else _number(grid, "end", "grid")
    points = int(grid["points"])
    if "grid_points" in overrides and overrides["grid_points"] is not None:
        points = int(overrides["grid_points"])
    if start < -1e-12:
        raise ConfigError(f"grid.start: must be >= 0, got {start}")
    if end is not None and end <= start:
        raise ConfigError(f"grid.end: must exceed grid.start, got {end} <= {start}")
    if points < 2:
        raise ConfigError(f"grid.points: need at least 2, got {points}")

    shots = data.get("shots")
    if "shots" in overrides and overrides["shots"] is not None:
        shots = overrides["shots"]
    if shots is not None:
        shots = int(shots)
        if shots < 1:
            raise ConfigError(f"shots: must be positive, got {shots}")

    seed = int(data.get("seed", 20260810))
    if "seed" in overrides and overrides["seed"] is not None:
        seed = int(overrides["seed"])

    out_dir = Path(overrides.get("out_dir") or data.get("out_dir", "out"))

    sweep_map = _section(data, "sweep")
    _reject_unknown(
        sweep_map,
        {"n_sets", "n_time", "omega_interval_mhz", "ramp_factor", "angular_convention"},
        "sweep",
    )
    n_time = int(sweep_map.get("n_time", 200))
    if "grid_points" in overrides and overrides["grid_points"] is not None:
        n_time = int(overrides["grid_points"])
    try:
        sweep_cfg = SweepConfig(
            n_sets=int(sweep_map.get("n_sets", 1000)),
            n_time=n_time,
            seed=seed,
            omega_interval_mhz=tuple(sweep_map.get("omega_interval_mhz", (1.0, 20.0))),
            ramp_factor=float(sweep_map.get("ramp_factor", 2.0)),
            angular_convention=bool(sweep_map.get("angular_convention", True)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc

    return RunConfig(
        params=params,
        state=state,
        grid_start=start,
        grid_end=end,
        grid_points=points,
        shots=shots,
        seed=seed,
        out_dir=out_dir,
        sweep=sweep_cfg,
        unit=unit,
        raw_drive={k: drive[k] for k in ("omega1", "omega2", "phi1", "phi2")},
    )


def _section(data: dict, key: str) -> dict:
    sec = data.get(key) or {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: must be a mapping, got {type(sec).__name__}")
    return dict(sec)


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _number(mapping: dict, key: str, where: str) -> float:
    val = mapping[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {val!r}")
    return float(val)


def _triple(mapping: dict, key: str, where: str) -> list[float]:
    val = mapping[key]
    if not isinstance(val, (list, tuple)) or len(val) != 3:
        raise ConfigError(f"{where}.{key}: expected a list of three numbers, got {val!r}")
    out = []
    for j, x in enumerate(val):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{where}.{key}[{j}]: expected a number, got {x!r}")
        out.append(float(x))
    return out
