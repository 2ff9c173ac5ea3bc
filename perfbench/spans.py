"""Spans around every public function of lindblad2, and per-layer metrics.

``Tracer.install`` wraps each public function of each lindblad2 module (and
the ``__post_init__`` validation of its dataclasses) in a span recording
name, start, end and parent. The modules bind each other's functions with
``from .x import y``, so the wrapper replaces the name in every lindblad2
module that holds it; otherwise calls between layers would go unseen.
Spans stay in memory, in flat arrays, until the run ends.

A span's self time is its duration minus the durations of its direct
children. A layer's self time is the sum over the spans of its module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "lindblad2"
LAYERS = ("cli", "forms", "cpcheck", "dynamics", "asymptotics", "core")


def _form_tag(form) -> str:
    name = type(form).__name__
    if name in ("FormA", "FormB"):
        return name[-1]
    return "matrix" if isinstance(form, np.ndarray) else "ops"


# Functions whose spans carry a variant in their name and a unit count
# (steps, times) for per-unit figures: (args, kwargs, result) -> (tag, units).
DESCRIBE = {
    "dynamics.evolve_density": lambda a, k, r: (_form_tag(a[1] if len(a) > 1 else k["form"]), len(r.times) - 1),
    "dynamics.evolve_rk4": lambda a, k, r: (None, len(r.times) - 1),
    "cpcheck.is_completely_positive": lambda a, k, r: ("cp" if r[0].cp else "notcp", 1),
    "cpcheck.choi_check": lambda a, k, r: (None, len(r)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        base = self._id(name)
        describe = DESCRIBE.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(base)
            self.parent.append(stack[-1] if stack else -1)
            self.units.append(1.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if describe is not None:
                tag, units = describe(args, kwargs, result)
                if tag is not None:
                    self.name_id[idx] = self._id(f"{name}.{tag}")
                self.units[idx] = units
            return result

        return traced

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    init = vars(obj)["__post_init__"]
                    self._patched.append((obj, "__post_init__", init))
                    setattr(obj, "__post_init__", self.wrap(f"{layer}.{attr}", init))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "units": np.frombuffer(self.units, dtype=np.float64).copy(),
        }


def summarize(spans: dict) -> dict:
    """Per span name: [calls, inclusive s, self s, units]; key "" holds the
    total duration of top-level spans."""
    names = list(spans["names"])
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - children
    k = len(names)
    table = np.stack(
        [
            np.bincount(nid, minlength=k).astype(float),
            np.bincount(nid, weights=dur, minlength=k),
            np.bincount(nid, weights=own, minlength=k),
            np.bincount(nid, weights=spans["units"], minlength=k),
        ],
        axis=1,
    )
    out = {name: table[i].tolist() for i, name in enumerate(names) if table[i, 0] > 0}
    out[""] = [float(np.sum(~nested)), float(np.sum(dur[~nested])), 0.0, 0.0]
    return out


def merge(total: dict, part: dict) -> dict:
    for name, row in part.items():
        acc = total.setdefault(name, [0.0, 0.0, 0.0, 0.0])
        for i, v in enumerate(row):
            acc[i] += v
    return total


# (metric, span name, measure); measure is "call" (inclusive us per call) or
# "unit" (inclusive us per step / time).
FUNCTIONS = (
    ("dynamics.evolve_density.A.us_per_step", "dynamics.evolve_density.A", "unit"),
    ("dynamics.evolve_density.B.us_per_step", "dynamics.evolve_density.B", "unit"),
    ("dynamics.evolve_density.matrix.us_per_step", "dynamics.evolve_density.matrix", "unit"),
    ("dynamics.evolve_rk4.us_per_step", "dynamics.evolve_rk4", "unit"),
    ("dynamics.evolve_expm.us_per_call", "dynamics.evolve_expm", "call"),
    ("dynamics.matrix_exponential.us_per_call", "dynamics.matrix_exponential", "call"),
    ("dynamics.generator_spectrum.us_per_call", "dynamics.generator_spectrum", "call"),
    ("asymptotics.spectral_gap.us_per_call", "asymptotics.spectral_gap", "call"),
    ("asymptotics.classify.us_per_call", "asymptotics.classify", "call"),
    ("cpcheck.is_completely_positive.cp.us_per_call", "cpcheck.is_completely_positive.cp", "call"),
    ("cpcheck.is_completely_positive.notcp.us_per_call", "cpcheck.is_completely_positive.notcp", "call"),
    ("cpcheck.choi_check.us_per_time", "cpcheck.choi_check", "unit"),
    ("forms.reduce_terms.us_per_call", "forms.reduce_terms", "call"),
    ("forms.form_b_from_dissipation.us_per_call", "forms.form_b_from_dissipation", "call"),
    ("forms.form_a_to_form_b.us_per_call", "forms.form_a_to_form_b", "call"),
    ("forms.gks_matrix.us_per_call", "forms.gks_matrix", "call"),
    ("forms.dissipation_matrix.us_per_call", "forms.dissipation_matrix", "call"),
    ("cli.load_model.us_per_call", "cli.load_model", "call"),
)


def layer_metrics(summary: dict, rows: int, process: dict) -> dict:
    """The per-layer metrics of one traced run.

    ``rows`` counts CSV rows written by ``cmd_evolve``; ``process`` holds
    ``calls`` and ``self_s`` (interpreter time outside any span) and the
    median ``numpy_ms`` and ``lindblad2_ms`` import times.
    """
    empty = [0.0, 0.0, 0.0, 0.0]
    out = {}
    for metric, name, measure in FUNCTIONS:
        calls, incl, _, units = summary.get(name, empty)
        count = units if measure == "unit" else calls
        out[metric] = (1e6 * incl / count if count else 0.0, "us")
    evolve_self = summary.get("cli.cmd_evolve", empty)[2]
    out["cli.cmd_evolve.write_us_per_row"] = (1e6 * evolve_self / rows if rows else 0.0, "us")
    out["core.entropy_from_bloch.calls"] = (summary.get("core.entropy_from_bloch", empty)[0], "count")
    out["process.numpy_import_ms"] = (process["numpy_ms"], "ms")
    out["process.lindblad2_import_ms"] = (process["lindblad2_ms"], "ms")
    for layer in LAYERS:
        rows_of = [row for name, row in summary.items() if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(r[0] for r in rows_of), "count")
        out[f"{layer}.self_ms"] = (1e3 * sum(r[2] for r in rows_of), "ms")
    out["process.calls"] = (process["calls"], "count")
    out["process.self_ms"] = (1e3 * process["self_s"], "ms")
    return out
