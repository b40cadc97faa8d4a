"""Span tracer that wraps quasiwork's public functions from outside.

A traced function is replaced by a wrapper at every module attribute that
holds it, so import sites such as ``model.herm_eig`` and ``explore.herm_eig``
are covered as well as ``qmath.herm_eig``.  Each call records a span
``(name, start_ns, end_ns, parent, op)`` in memory; ``parent`` is the index of
the enclosing span and ``op`` the operation id set by the caller.  Nothing
under ``src/`` is edited: wrappers are bound on ``install`` and the original
functions are bound back on ``uninstall``.

Self time of a span is its duration minus the durations of its direct child
spans.  All traced calls run on one thread, so children never overlap and
their durations add up to the part of the parent they cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# Functions traced as layers, by module.  A name the module no longer has is
# an error, so a renamed or removed layer cannot read as 0 and pass for a
# faster one.  ``analysis`` is traced whole (every public function).
LAYERS = {
    "qmath": ("herm_eig",),
    "model": ("energy_basis", "initial_state"),
    "propagate": ("propagator_closed", "propagator_stepped"),
    "schemes": ("scheme_tables", "shot_noise_sample", "kdq_direct", "run_protocol"),
    "analysis": None,
    "explore": ("variant_extrema", "sweep"),
    "emitters": ("emit_figure", "emit_sweep"),
    "config": ("load_config",),
}

# Per-layer metrics: (name, unit).  Calls, times and counts are per operation.
CALLS_AND_SELF = (
    "qmath.herm_eig",
    "model.energy_basis",
    "model.initial_state",
    "propagate.propagator_closed",
    "schemes.scheme_tables",
    "schemes.shot_noise_sample",
    "schemes.kdq_direct",
    "schemes.run_protocol",
    "explore.variant_extrema",
)
SELF_ONLY = (
    "propagate.propagator_stepped",
    "explore.sweep",
    "emitters.emit_figure",
    "emitters.emit_sweep",
    "config.load_config",
)
PER_LAYER = (
    [(f"{n}.calls", "count") for n in CALLS_AND_SELF]
    + [(f"{n}.self_ms", "ms") for n in CALLS_AND_SELF + SELF_ONLY]
    + [
        ("model.energy_basis.distinct_ratio", "ratio"),
        ("propagate.propagator_stepped.steps", "count"),
        ("analysis.self_ms", "ms"),
        ("explore.sets_skipped", "count"),
        ("emitters.bytes_written", "bytes"),
        ("trace.overhead_ms", "ms"),
    ]
)


def _public_functions(module) -> list[str]:
    return [
        name
        for name in getattr(module, "__all__", ())
        if callable(getattr(module, name, None))
        and getattr(getattr(module, name), "__module__", None) == module.__name__
        and not isinstance(getattr(module, name), type)
    ]


class Tracer:
    """Records spans for the layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int = -1
        # per-operation counters: op -> key -> value
        self.counters: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self.energy_keys: dict[int, set] = defaultdict(set)
        self.hook_errors: list[str] = []
        self._pairs: list[tuple] = []  # (original, wrapper)
        self._build()

    def _build(self) -> None:
        import importlib

        for short, names in LAYERS.items():
            module = importlib.import_module(f"quasiwork.{short}")
            if names is None:
                names = _public_functions(module)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    raise LookupError(f"quasiwork.{short} has no {name}; update LAYERS in perfbench/tracer.py")
                self._pairs.append((fn, self.wrap(f"{short}.{name}", fn)))

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    # a changed signature fails the traced run, not the call
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    # -- counters recorded at the layer boundary -----------------------------

    def _hook_model_energy_basis(self, args, kwargs, result) -> None:
        self.energy_keys[self.op].add((result.t, args[1] if len(args) > 1 else kwargs.get("params")))

    def _hook_propagate_propagator_stepped(self, args, kwargs, result) -> None:
        steps = args[2] if len(args) > 2 else kwargs["n_steps"]
        self.counters[self.op]["propagate.propagator_stepped.steps"] += steps

    def _hook_explore_sweep(self, args, kwargs, result) -> None:
        self.counters[self.op]["explore.sets_skipped"] += result[1].n_skipped

    def _hook_emitters_emit_figure(self, args, kwargs, result) -> None:
        self.counters[self.op]["emitters.bytes_written"] += sum(Path(p).stat().st_size for p in result)

    _hook_emitters_emit_sweep = _hook_emitters_emit_figure

    # -- binding --------------------------------------------------------------

    def _rebind(self, swap: dict) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "quasiwork" or mod_name.startswith("quasiwork.")):
                continue
            for attr, value in list(vars(module).items()):
                new = swap.get(id(value))
                if new is not None and new[0] is value:
                    setattr(module, attr, new[1])

    def install(self) -> None:
        self._rebind({id(fn): (fn, w) for fn, w in self._pairs})

    def uninstall(self) -> None:
        self._rebind({id(w): (w, fn) for fn, w in self._pairs})

    # -- reduction ------------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, float]]:
        """Calls, self time and counters of each operation id >= 0."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for k, (name_id, start, end, parent, op) in enumerate(spans):
            if op < 0:
                continue
            name = self.names[name_id]
            row = out[op]
            row[f"{name}.calls"] += 1
            self_ms = (end - start - child_ns[k]) / 1e6
            row[f"{name}.self_ms"] += self_ms
            if name.startswith("analysis."):
                row["analysis.self_ms"] += self_ms
        for op, counters in self.counters.items():
            if op >= 0:
                out[op].update(counters)
        for op, keys in self.energy_keys.items():
            calls = out[op].get("model.energy_basis.calls", 0)
            if op >= 0 and calls:
                out[op]["model.energy_basis.distinct_ratio"] = len(keys) / calls
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Median over operations of every per-layer metric but the overhead."""
        rows = list(self.per_op().values())
        result = {}
        for name, _unit in PER_LAYER:
            if name == "trace.overhead_ms":
                continue
            values = [row.get(name, 0.0) for row in rows] or [0.0]
            result[name] = float(statistics.median(values))
        return result

    def write(self, path: Path) -> None:
        """Write every span as CSV: name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]},{start},{end},{parent},{op}\n")

