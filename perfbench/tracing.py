"""Layer spans and call counts, recorded from outside the program.

The layers are randlab's modules.  `Tracer.install` wraps every public
function of each module, every public method and operator of its classes
and, because the scenario and generator modules bind names such as
`run_fireworks` or `w2r_encode` at import time, every other module
attribute that still points at an original.  `uninstall` puts every one of
them back.

A span opens only where a call crosses from one layer into another, so a
layer's nested calls into itself cost a counter increment and no span.
Spans live in flat arrays while the pass runs and are written out at the
end; self time per layer is span time minus the time of its child spans.

`bitstring` and `dyadic` are wrapped only by `Counter`, which counts calls
and keeps no clock: their calls are so many and so short that spans around
them would cost more than the work they time.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from types import FunctionType, ModuleType
from typing import Callable, Dict, List, Optional, Tuple

SPAN_LAYERS = ("cli", "scenario", "reports", "generators", "fireworks", "coding",
               "demuth", "minpair", "staged", "cylinders")
COUNT_LAYERS = ("bitstring", "dyadic")

# Dunders that carry no work of the layer, or that frozen dataclasses use
# only to refuse mutation.
_SKIP_DUNDERS = {"__new__", "__init_subclass__", "__class_getitem__", "__subclasshook__",
                 "__getattribute__", "__getattr__", "__setattr__", "__delattr__",
                 "__reduce__", "__reduce_ex__", "__format__", "__sizeof__", "__dir__"}

CYLINDER_OPS = ("CylinderSet.__or__", "CylinderSet.__and__", "CylinderSet.__sub__",
                "CylinderSet.complement", "CylinderSet.shift", "CylinderSet.is_subset",
                "CylinderSet.intersects", "CylinderSet.__eq__", "CylinderSet.__hash__")
# cylinder() builds through normalize(), so normalize() alone counts every build.
CYLINDER_BUILDS = ("CylinderSet.normalize",)
# Each takes the stage as its last positional argument.
STAGED_QUERIES = ("Enumerator.at", "StagedOpenSet.open_at", "TuringFunctional.axioms_at",
                  "TuringFunctional.apply", "TuringFunctional.preimage",
                  "Pi01Tree.removed_open", "Pi01Tree.leftmost_intact",
                  "Pi01Tree.rightmost_intact", "Pi01Tree.viable")
ACCEPTING = ("build_working_w2r", "hitting_run")


def _module(layer: str) -> ModuleType:
    return importlib.import_module(f"randlab.{layer}")


def _randlab_modules() -> List[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "randlab" or name.startswith("randlab."))]


def _targets(layer: str):
    """(owner, attribute, qualified name, raw attribute value, function) for
    every public callable a layer defines."""
    mod = _module(layer)
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, FunctionType):
            yield mod, name, name, obj, obj
        elif isinstance(obj, type) and not issubclass(obj, (enum.Enum, BaseException)):
            for attr, raw in sorted(vars(obj).items()):
                is_dunder = attr.startswith("__") and attr.endswith("__")
                if (attr.startswith("_") and not is_dunder) or attr in _SKIP_DUNDERS:
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    fn = raw.__func__
                elif isinstance(raw, property):
                    fn = raw.fget
                else:
                    fn = raw
                if isinstance(fn, FunctionType):
                    yield obj, attr, f"{name}.{attr}", raw, fn


def _rewrap(raw, wrapper: Callable):
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper)
    if isinstance(raw, classmethod):
        return classmethod(wrapper)
    if isinstance(raw, property):
        return property(wrapper, raw.fset, raw.fdel, raw.__doc__)
    return wrapper


class _Patches:
    """Every attribute replaced, with its original, so all can be restored."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def wrap_layer(self, layer: str, make: Callable[[str, FunctionType], Callable]) -> None:
        """Wrap a layer's public callables and rebind module-level copies."""
        rebind: Dict[int, Callable] = {}
        for owner, attr, qualname, raw, fn in list(_targets(layer)):
            wrapper = make(qualname, fn)
            self.set(owner, attr, _rewrap(raw, wrapper))
            if isinstance(owner, ModuleType):
                rebind[id(fn)] = wrapper
        for mod in _randlab_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in rebind and vars(mod)[attr] is not rebind[id(value)]:
                    self.set(mod, attr, rebind[id(value)])

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


class Counter:
    """Counts calls into the `bitstring` and `dyadic` layers, with no clock."""

    def __init__(self) -> None:
        self.calls: Dict[str, List[int]] = {}
        self._patches = _Patches()

    def install(self) -> None:
        for layer in COUNT_LAYERS:
            self._patches.wrap_layer(layer, functools.partial(self._wrap, layer))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, layer: str, qualname: str, fn: FunctionType) -> Callable:
        cell = self.calls.setdefault(f"{layer}.{qualname}", [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def layer_calls(self, layer: str) -> int:
        return sum(c[0] for name, c in self.calls.items() if name.startswith(layer + "."))


class Tracer:
    """Spans at layer boundaries and call counts, for one or more passes."""

    def __init__(self) -> None:
        self.names: List[str] = []        # "layer.qualname", indexed by name id
        self._index: Dict[str, int] = {}
        self.name_layer: List[int] = []
        self.calls: List[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.layer = -1                   # -1: the benchmark itself
        self.span = -1
        self.query_keys: set = set()
        self.query_repeats = 0
        self.behaviours: set = set()
        self.scheme_attempts = 0
        self.schemes_accepted = 0
        self._alive: List[object] = []    # keeps the ids used as keys unique
        self._fingerprints: Dict[int, tuple] = {}
        self._patches = _Patches()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer in SPAN_LAYERS:
            self._patches.wrap_layer(layer, functools.partial(self._wrap, layer))
        handlers = _module("scenario").HANDLERS
        for kind in sorted(handlers):
            self._patches.set(handlers, kind,
                              self._wrap("scenario", f"handler.{kind}", handlers[kind]))

    def uninstall(self) -> None:
        self._patches.restore()

    def reset(self) -> None:
        """Forget the spans and counts of earlier passes."""
        self.calls[:] = [0] * len(self.calls)
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.query_keys.clear()
        self.query_repeats = 0
        self.behaviours.clear()
        self.scheme_attempts = self.schemes_accepted = 0
        self._alive.clear()
        self._fingerprints.clear()

    def _wrap(self, layer: str, qualname: str, fn: FunctionType) -> Callable:
        name = f"{layer}.{qualname}"
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
            self.name_layer.append(SPAN_LAYERS.index(layer))
            self.calls.append(0)
        hook = self._hook(layer, qualname)
        my_layer = SPAN_LAYERS.index(layer)
        calls = self.calls
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def in_layer(f, *args, **kwargs):
            outer, parent = tracer.layer, tracer.span
            if outer == my_layer:
                return f(*args, **kwargs)
            sid = len(starts)
            names.append(idx)
            parents.append(parent)
            ends.append(0.0)
            tracer.layer, tracer.span = my_layer, sid
            starts.append(clock())
            try:
                return f(*args, **kwargs)
            finally:
                ends[sid] = clock()
                tracer.layer, tracer.span = outer, parent

        if inspect.isgeneratorfunction(fn):
            # The body runs when the caller iterates, so each resumption is
            # a span of its own.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[idx] += 1
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = in_layer(next, gen)
                    except StopIteration:
                        return
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[idx] += 1
            outer = tracer.layer
            result = in_layer(fn, *args, **kwargs)
            if hook is not None:
                hook(args, result, outer)
            return result
        return traced

    def _hook(self, layer: str, qualname: str) -> Optional[Callable]:
        if layer == "staged" and qualname in STAGED_QUERIES:
            return functools.partial(self._note_query, qualname)
        if layer == "fireworks" and qualname == "run_fireworks":
            return self._note_run
        if layer == "coding" and qualname == "W2RScheme.__init__":
            return self._note_scheme
        if layer == "generators" and qualname in ACCEPTING:
            return self._note_accept
        return None

    def _note_query(self, qualname: str, args: tuple, result, outer: int) -> None:
        obj, stage = args[0], args[-1]
        key = (qualname, id(obj), stage)
        if key in self.query_keys:
            self.query_repeats += 1
        else:
            self.query_keys.add(key)
            self._alive.append(obj)

    def _note_run(self, args: tuple, run, outer: int) -> None:
        cfg = args[0]
        fp = self._fingerprints.get(id(cfg))
        if fp is None:
            # Runs read caps only at decision points; everything else that
            # shapes a run is the adversaries, the target and the budget.
            fp = (tuple((w.events, w.horizon) for w in cfg.adversaries),
                  cfg.target_length, cfg.stage_budget)
            self._fingerprints[id(cfg)] = fp
            self._alive.append(cfg)
        records = tuple((r.outcome.value, r.guesses_made, r.final_guess, r.active_stage,
                         r.answer_stage, r.failure_proven) for r in run.records)
        self.behaviours.add((fp, run.x_prefix, run.stages_used, run.halted_by, records))

    def _note_scheme(self, args: tuple, result, outer: int) -> None:
        if outer == SPAN_LAYERS.index("generators"):
            self.scheme_attempts += 1

    def _note_accept(self, args: tuple, result, outer: int) -> None:
        self.schemes_accepted += 1

    # -- results --------------------------------------------------------

    def count(self, *qualnames: str) -> int:
        """Calls of the named functions ('Class.method' or 'function'), any layer."""
        return sum(c for name, c in zip(self.names, self.calls)
                   if name.partition(".")[2] in qualnames)

    def count_prefix(self, prefix: str) -> int:
        """Calls of every wrapped name starting with `prefix`, e.g. 'demuth.'."""
        return sum(c for name, c in zip(self.names, self.calls) if name.startswith(prefix))

    def self_times(self) -> Dict[str, float]:
        """Seconds each layer spent in itself: its spans minus their children."""
        out = [0.0] * len(SPAN_LAYERS)
        layer_of = self.name_layer
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            out[layer_of[names[i]]] += d
            p = parents[i]
            if p >= 0:
                out[layer_of[names[p]]] -= d
        return dict(zip(SPAN_LAYERS, out))

    def write_spans(self, path: Path) -> None:
        """One span per line: id, parent id (-1 for none), name, start, end (ns)."""
        with open(path, "w") as f:
            f.write("span\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i, (n, p, s, e) in enumerate(zip(self.span_name, self.span_parent,
                                                  self.span_start, self.span_end)):
                f.write(f"{i}\t{p}\t{names[n]}\t{round((s - t0) * 1e9)}\t"
                        f"{round((e - t0) * 1e9)}\n")
