"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions and methods
of every chebrace layer module.  Each wrapped call records one span: its name
(``<module>.<function>`` or ``<module>.<Class>.<method>``), start, end, the
index of the span that was open when it started, and the id of the verb call
it belongs to.  Spans stay in memory until the benchmark ends.

Calls into ``cyclotomic`` are too fine for spans; they are counted instead,
and their time falls into the callers' self time.  A few other counts are
taken where the work happens (integrand evaluations, oscillation terms,
sampled ordinates, Monte Carlo pairs).
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("cyclotomic", "groups", "characters", "arithmetic", "zeros",
          "races", "density", "experiments", "cli")
# Modules whose cyclotomic calls are counted (the exact layers' callers).
CYCLO_CALLERS = ("characters", "races")
CYCLO_OPS = ("add", "sub", "mul", "scale", "cos_pair", "root_power")
# Report plumbing that only the CLI calls is counted in the cli layer.
CLI_OWNED = ("report_json",)


def _module(layer: str):
    return importlib.import_module(f"chebrace.{layer}")


def _public_callables(module):
    """(owner, attribute, function, kind) for every public function and
    method defined in the module; properties are left alone."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield None, name, obj, None
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mname, attr in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(attr, (staticmethod, classmethod)):
                    yield obj, mname, attr.__func__, type(attr)
                elif inspect.isfunction(attr):
                    yield obj, mname, attr, None


class Tracer:
    """Spans and counts for one benchmark process.  ``install`` patches the
    package; ``uninstall`` restores every patched name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order; parents, nesting and run ids
        # are worked out afterwards, which keeps the wrappers cheap
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.runs: list[tuple[int, int]] = []  # (first span index, run id)
        self._levels: set = set()
        self._last_terms = 0
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def begin_call(self, run_id: int) -> None:
        self.runs.append((len(self.start), run_id))
        self._levels.clear()

    def end_call(self) -> None:
        self.counts["races.levels"] += len(self._levels)
        self._levels.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        name_ids, starts, ends = self.name_id, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            name_ids.append(nid)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observers: counts taken from arguments and results ---------------

    def _observers(self) -> dict:
        c = self.counts

        def terms(args, kwargs, model):
            c["races.terms"] += model.terms.size
            self._last_terms = model.terms.size

        def ordinates(args, kwargs, zs):
            c["zeros.ordinates"] += len(zs)

        def montecarlo(args, kwargs, est):
            model = args[0] if args else kwargs["model"]
            pairs = est.samples_or_nodes // 2
            c["density.mc.pairs"] += pairs
            c["density.mc.cos_evals"] += pairs * model.terms.size

        def fourier(args, kwargs, est):
            c["density.fourier.reported_nodes"] += est.samples_or_nodes

        def shared_mc(args, kwargs, report):
            pairs = max(report["samples"] // 2, 1)
            c["experiments.shared_mc.cos_evals"] += pairs * self._last_terms

        def level(args, kwargs, _):
            scenario = args[0] if args else kwargs["scenario"]
            lvl = args[1] if len(args) > 1 else kwargs["level"]
            self._levels.add((id(scenario), lvl))

        def report_bytes(args, kwargs, text):
            c["cli.report_bytes"] += len(text)

        return {
            "races.term_list": terms,
            "zeros.sample_zero_set": ordinates,
            "density.density_montecarlo": montecarlo,
            "density.density_fourier": fourier,
            "experiments.monotonicity_experiment": shared_mc,
            "races.level_orders": level,
            "cli.report_json": report_bytes,
        }

    # -- patching ---------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = {layer: _module(layer) for layer in LAYERS}
        cyclo = modules["cyclotomic"]
        self._set(cyclo.CycloInt, "__post_init__",
                  self._count("cyclotomic.values_built",
                              cyclo.CycloInt.__post_init__))
        for caller in CYCLO_CALLERS:
            mod = modules[caller]
            for op in CYCLO_OPS:
                if op in vars(mod):
                    self._set(mod, op, self._count("cyclotomic.ops", getattr(mod, op)))
        density = modules["density"]
        self._set(density, "j0",
                  self._count("density.fourier.integrand_evals", density.j0))

        observers = self._observers()
        for layer in LAYERS[1:]:
            for owner, name, fn, kind in list(_public_callables(modules[layer])):
                if owner is not None:
                    span = f"{layer}.{owner.__name__}.{name}"
                    wrapped = self._span(span, fn, observers.get(span))
                    self._set(owner, name, kind(wrapped) if kind else wrapped)
                    continue
                for mod_layer, mod in modules.items():
                    if vars(mod).get(name) is not fn:
                        continue
                    owned = mod_layer == "cli" and name in CLI_OWNED
                    span = f"cli.{name}" if owned else f"{layer}.{name}"
                    self._set(mod, name, self._span(span, fn, observers.get(span)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- analysis ---------------------------------------------------------

    def parents(self) -> array:
        """Index of the enclosing span, or -1; spans nest because the
        traced calls run on one thread."""
        starts, ends = self.start, self.end
        out = array("q", bytes(8 * len(starts)))
        stack: list[int] = []
        for i, t0 in enumerate(starts):
            while stack and ends[stack[-1]] <= t0:
                stack.pop()
            out[i] = stack[-1] if stack else -1
            stack.append(i)
        return out

    def spans_by_name(self) -> dict[str, dict[str, float]]:
        """calls, busy and self seconds per span name, and per layer under
        the bare layer name.  Busy time counts only the outermost of nested
        spans of the same name (or layer); self time is a span's duration
        minus that of its direct children."""
        starts, ends, name_ids = self.start, self.end, self.name_id
        layer_of = [name.split(".", 1)[0] for name in self.names]
        parents = self.parents()
        child = [0.0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, dict[str, float]] = {}

        def row(key: str) -> dict:
            return out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

        # the open spans, with how many of each name and layer they hold
        stack: list[int] = []
        open_names: Counter = Counter()
        open_layers: Counter = Counter()
        for i, p in enumerate(parents):
            while stack and stack[-1] != p:
                j = stack.pop()
                open_names[name_ids[j]] -= 1
                open_layers[layer_of[name_ids[j]]] -= 1
            nid = name_ids[i]
            layer = layer_of[nid]
            dur = ends[i] - starts[i]
            for key, outer in ((self.names[nid], open_names[nid] == 0),
                               (layer, open_layers[layer] == 0)):
                r = row(key)
                r["calls"] += 1
                r["self_s"] += dur - child[i]
                if outer:
                    r["busy_s"] += dur
            stack.append(i)
            open_names[nid] += 1
            open_layers[layer] += 1
        return out

    def root_busy_s(self) -> float:
        return sum(self.end[i] - self.start[i]
                   for i, p in enumerate(self.parents()) if p < 0)

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated text, one span a line."""
        parents = self.parents()
        bounds = self.runs + [(len(self.start), -1)]
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun\n")
            for (first, run), (stop, _) in zip(bounds, bounds[1:]):
                for i in range(first, stop):
                    fh.write(f"{i}\t{self.names[self.name_id[i]]}\t"
                             f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                             f"{parents[i]}\t{run}\n")
