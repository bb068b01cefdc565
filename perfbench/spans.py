"""Span tracing of the dendrite layers, installed from outside the package.

A `Tracer` wraps every public function of each layer module, and
`Metric.dist` on its class, and installs each wrapper on every alias of
the function it wraps: the defining module, every module namespace that
did `from .x import f`, and module-level dicts such as the CLI's command
table.  A call records one span (name, start, end, parent); the spans of
one process share a run id.  A generator function's body runs when it is
resumed, not when it is called, so its wrapper records one span per
resume (each value it yields, and the last resume that ends it), and its
calls count resumes.  Spans are kept in flat arrays in memory and
written out once, at the end of the traced pass.

A span's self time is its duration minus the part its child spans cover.
Calls are nested and single-threaded, so children of one span never
overlap and the covered part is the sum of their durations.  A wrapper's
own bookkeeping falls outside the span it records, so it lands in the
caller's self time; `trace.overhead_frac` measures its total.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from pathlib import Path

LAYERS = (
    "addressing",
    "metric",
    "network",
    "dirichlet",
    "closed_forms",
    "reduction",
    "measure",
    "exit_time",
    "harnack",
    "cli",
)

# Named stages inside a layer.  Each reports `<stage>.self_s`, the summed
# self time of the spans listed.  The solver stages split solve_dirichlet
# spans by their arithmetic mode.
STAGES = {
    "network.build": (
        "network.build_cells_graph",
        "network.build_level_graph",
        "network.ball_graph",
        "network.ball_cell_words",
        "network.word_conductance",
    ),
    "network.ball": ("network.ball",),
    "network.schur_trace": ("network.schur_trace",),
    "dirichlet.exact": ("dirichlet.solve_dirichlet[exact]",),
    "dirichlet.float": ("dirichlet.solve_dirichlet[float]",),
    "dirichlet.energy": ("dirichlet.dirichlet_energy",),
    "measure.cell_measure": ("measure.cell_measure",),
    "measure.classify": ("measure.classify_region_cells",),
    "measure.ball_bounds": (
        "measure.measure_ball_bounds",
        "measure.ball_measure",
        "measure.doubling_ratio",
    ),
    "measure.quadrature": (
        "measure.integrate_pw_harmonic",
        "measure.integrate_closed",
        "measure.harmonic_weights",
        "measure.subdivision_quadrature_row",
        "measure.extension_matrices",
    ),
}

# Call counts reported as `<metric>`: the spans counted.
COUNTS = {
    "network.builds": ("network.build_cells_graph",),
    "dirichlet.solves.exact": ("dirichlet.solve_dirichlet[exact]",),
    "dirichlet.solves.float": ("dirichlet.solve_dirichlet[float]",),
    "measure.cell_measure.calls": ("measure.cell_measure",),
    "addressing.canonicalize.calls": ("addressing.canonicalize",),
    "metric.dist.calls": ("metric.Metric.dist",),
}

_BUILD = "network.build_cells_graph"
_SOLVE = "dirichlet.solve_dirichlet"


def _solve_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[3] if len(args) > 3 else "exact")


class Tracer:
    """Records spans for calls into the dendrite layers of this process."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.build_keys: set = set()
        self.vertices_built = 0
        self.solve_vertices = 0
        self._patched: list[tuple[object, str, object]] = []
        self._dict_patched: list[tuple[dict, object, object]] = []

    def name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name: str):
        """A traced stand-in for `fn`, recording spans named `name`."""
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        nid = self.name_id(name)
        is_solve, is_build = name == _SOLVE, name == _BUILD
        modes = {m: self.name_id(f"{name}[{m}]") for m in ("exact", "float")} if is_solve else {}
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # The body of a generator runs on each resume, inside whoever
            # consumes it, so each resume is one span.
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = len(end)
                    name_of.append(nid)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield value

            return functools.update_wrapper(traced_gen, fn)

        def traced(*args, **kwargs):
            span_name = nid
            if is_solve:
                span_name = modes.get(_solve_mode(args, kwargs), nid)
                tracer.solve_vertices += len(args[0].vertices)
            i = len(end)
            name_of.append(span_name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if is_build:
                tracer.build_keys.add((hash(result.words), result.s0, result.level))
                tracer.vertices_built += len(result.vertices)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the public functions of every layer and patch all their aliases."""
        modules = {layer: importlib.import_module(f"dendrite.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        metric_cls = modules["metric"].Metric
        dist = metric_cls.__dict__["dist"]
        self._patched.append((metric_cls, "dist", dist))
        setattr(metric_cls, "dist", self.wrap(dist, "metric.Metric.dist"))

        package = importlib.import_module("dendrite")
        namespaces = [package] + [
            importlib.import_module(f"dendrite.{m.name}") for m in pkgutil.iter_modules(package.__path__)
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._dict_patched.append((obj, key, value))
                            obj[key] = hit[1]
        missing = [
            n
            for names in list(STAGES.values()) + list(COUNTS.values())
            for n in names
            if n.split("[")[0] not in self._name_ids
        ]
        if missing:
            raise RuntimeError(f"traced stages name functions that do not exist: {missing}")

    def uninstall(self) -> None:
        """Put every original function back."""
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        for table, key, original in reversed(self._dict_patched):
            table[key] = original
        self._patched.clear()
        self._dict_patched.clear()

    def spans(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": list(self.names),
            "name_of": self.name_of,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four arrays in binary."""
        header = {"run_id": self.run_id, "names": self.names, "count": len(self.end)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of the recorded spans over a traced pass of `wall` seconds."""
        out = layer_metrics(self.spans(), wall)
        builds = out["network.builds"]
        out["network.build.distinct_ratio"] = len(self.build_keys) / builds if builds else 0.0
        out["network.vertices_built"] = self.vertices_built
        out["dirichlet.solve.vertices"] = self.solve_vertices
        return out


def load_spans(path: Path) -> dict:
    """Read spans written by `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = {}
        for key, code in (("name_of", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays[key] = arr
    return {"run_id": header["run_id"], "names": header["names"], **arrays}


def self_times(spans: dict) -> list[float]:
    """Self time of every span: its duration minus its direct children's durations."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_metrics(spans: dict, wall: float) -> dict:
    """Counts and self times per layer and stage, and how much of `wall` spans cover."""
    names = spans["names"]
    own = self_times(spans)
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    top = 0.0
    for i, nid in enumerate(spans["name_of"]):
        calls[nid] += 1
        self_s[nid] += own[i]
        if spans["parent"][i] < 0:
            top += spans["end"][i] - spans["start"][i]
    by_name = {n: (calls[i], self_s[i]) for i, n in enumerate(names)}

    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [v for n, v in by_name.items() if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(c for c, _ in rows)
        out[f"{layer}.self_s"] = sum(s for _, s in rows)
    for stage, members in STAGES.items():
        out[f"{stage}.self_s"] = sum(by_name.get(n, (0, 0.0))[1] for n in members)
    for metric, members in COUNTS.items():
        out[metric] = sum(by_name.get(n, (0, 0.0))[0] for n in members)
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(own)
    out["trace.coverage_frac"] = top / wall if wall > 0 else 0.0
    out["trace.gap_s"] = wall - top
    return out
