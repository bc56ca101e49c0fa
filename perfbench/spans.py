"""Per-layer spans and counters for a traced benchmark run.

The tracer wraps the public functions of each qcirc module (the layers) in
place, in every qcirc module namespace that holds them, so calls the CLI makes
and calls one layer makes into another are both timed. Spans nest: a layer's
self time is the time during which its span is the innermost traced one, and
its from-CLI time is the time inside calls `cli.main` made into it directly,
so the from-CLI times and the CLI's self time add up to `cli.main`. Totals are
aggregated on the fly; nothing is written while jobs run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("serialize", "circuit", "scheduling", "semantics", "linalg", "deferral", "cli")

TRACED = {
    "serialize": ("parse_circuit", "serialize_circuit", "matrix_to_json",
                  "state_from_json", "schedule_to_json"),
    "circuit": ("validate_circuit",),
    "scheduling": ("greedy_schedule", "validate_schedule", "enumerate_linear_schedules"),
    "semantics": ("run", "aggregate_measurement", "track_probability"),
    "linalg": ("embed",),
    "deferral": ("defer_measurements", "check_faithful", "red_gates"),
    "cli": ("main", "_emit"),
}


def span_names() -> list:
    return [f"{layer}.{fn.lstrip('_')}" for layer, fns in TRACED.items() for fn in fns]


def counter_names() -> list:
    return ["semantics.shots", "semantics.bouts_fired", "semantics.tracks",
            "circuit.gates", "scheduling.bouts", "scheduling.linear_schedules",
            "deferral.ancillas_added", "deferral.gates_added", "deferral.tracks_checked",
            "serialize.output_bytes",
            "linalg.dim_max", "linalg.density_bytes_computed"]


class Tracer:
    """Install with `install()`, remove with `uninstall()`; read `totals`,
    `calls`, `self_time`, `from_cli` and `counters` afterwards."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.from_cli = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []  # [name, layer, start, child time]
        self._patched = []  # (module, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, fns in TRACED.items():
            mod = sys.modules[f"qcirc.{layer}"]
            for fn in fns:
                orig = getattr(mod, fn)
                wrappers[id(orig)] = (orig, self._wrap(f"{layer}.{fn.lstrip('_')}", layer, orig))
        for name, mod in list(sys.modules.items()):
            if name != "qcirc" and not name.startswith("qcirc."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, layer: str, fn):
        stack, clock = self._stack, time.perf_counter
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            frame = [name, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[2]
                stack.pop()
                self.totals[name] += dur
                self.calls[name] += 1
                self.self_time[layer] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                    if stack[-1][0] == "cli.main":
                        self.from_cli[layer] += dur
            if after is not None:
                after(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric as name -> (value, unit)."""
        out = {}
        for name in span_names():
            out[f"{name}_ms"] = (self.totals[name] * 1e3, "ms")
            out[f"{name}_calls"] = (self.calls[name], "count")
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self.self_time[layer] * 1e3, "ms")
            if layer != "cli":
                out[f"{layer}.from_cli_ms"] = (self.from_cli[layer] * 1e3, "ms")
        for name in counter_names():
            out[name] = (self.counters[name], "bytes" if "bytes" in name else "count")
        return out


def _see_dim(counters, n_registers: int) -> None:
    dim = 2**n_registers
    if dim > counters["linalg.dim_max"]:
        counters["linalg.dim_max"] = dim
        counters["linalg.density_bytes_computed"] = 16 * dim * dim  # complex128 dim x dim


def _after_run(counters, args, result) -> None:
    counters["semantics.shots"] += 1
    counters["semantics.bouts_fired"] += len(result.step_log)
    _see_dim(counters, args[0].n_registers)


def _after_aggregate(counters, args, result) -> None:
    counters["semantics.tracks"] += len(result.operators)
    _see_dim(counters, args[0].n_registers)


def _after_parse(counters, args, result) -> None:
    counters["circuit.gates"] += len(result.gates)


def _after_greedy(counters, args, result) -> None:
    counters["scheduling.bouts"] += len(result)


def _after_enumerate(counters, args, result) -> None:
    counters["scheduling.linear_schedules"] += len(result)


def _after_defer(counters, args, result) -> None:
    source, out = args[0], result.circuit
    counters["deferral.ancillas_added"] += len(result.ancilla_registers)
    counters["deferral.gates_added"] += len(out.gates) - len(source.gates)


def _after_check(counters, args, result) -> None:
    counters["deferral.tracks_checked"] += result.tracks_checked
    _see_dim(counters, args[1].n_registers)


def _after_track_probability(counters, args, result) -> None:
    _see_dim(counters, args[0].n_registers)


_AFTER = {
    "semantics.run": _after_run,
    "semantics.aggregate_measurement": _after_aggregate,
    "semantics.track_probability": _after_track_probability,
    "serialize.parse_circuit": _after_parse,
    "scheduling.greedy_schedule": _after_greedy,
    "scheduling.enumerate_linear_schedules": _after_enumerate,
    "deferral.defer_measurements": _after_defer,
    "deferral.check_faithful": _after_check,
}
