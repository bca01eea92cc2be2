"""In-memory call tracing of carrieslab's modules, installed from outside.

Every public function of the measured modules is wrapped, and the wrapper is
bound at every place the function is reachable: its defining module, each
module that imported it by name (``from .spectral import ...``), the package
namespace and module-level dicts such as ``verify.SUITES``.  Methods of
``RationalMatrix`` are wrapped on the class.  Each call is a frame; its self
time is its duration minus the time of the frames nested inside it.  Calls
are aggregated per function (count, self time, total time) and recorded as
spans (id, parent id, name, start, end) that are written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
import types

LAYERS = ("process", "ratmat", "spectral", "moments", "colored", "shuffle", "verify", "cli")

# Called about 1e5 to 1e6 times per run: count and time only, no span per call.
AGGREGATE_ONLY = frozenset({
    "process.step_carry", "colored.compose", "colored.descent_count",
    "colored.dash_descent_count", "shuffle.gsr_to_permutation",
    "ratmat.construct", "ratmat.matmul", "ratmat.eq",
})
# Spans kept per function; later calls are still counted and timed.
SPAN_CAP = 2000
# Per-letter sort keys: wrapping them would cost more than the work they do,
# so their time stays with the caller (``descent_count``).
UNWRAPPED = frozenset({"colored.standard_key", "colored.dash_key"})
# RationalMatrix methods whose time the caller keeps.
UNWRAPPED_METHODS = frozenset({"__setattr__", "__getitem__", "__hash__", "__repr__"})
METHOD_NAMES = {"__init__": "construct", "__matmul__": "matmul", "__eq__": "eq"}
# Calls timed separately per value of their first argument (n).
SIZED = frozenset({"spectral.right_eigen_matrix"})


class Tracer:
    """Wraps carrieslab's public functions and aggregates every call into them."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.sized: dict[str, list] = {}  # "name.n<N>" -> [calls, total_s]
        self.elements: dict[str, int] = {}  # generator name -> items yielded
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, time of nested frames]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        self._package = None

    # --- frames ----------------------------------------------------------

    def _timed(self, name, stats, fn, args, kwargs):
        stack = self._stack
        frame = [next(self._ids), 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][1] += elapsed
            stats[0] += 1
            stats[1] += elapsed - frame[1]
            stats[2] += elapsed
            if name not in AGGREGATE_ONLY and stats[0] <= SPAN_CAP:
                self.spans.append((frame[0], parent, name, start, end))
            if name in SIZED:
                bucket = self.sized.setdefault(f"{name}.n{args[0]}", [0, 0.0])
                bucket[0] += 1
                bucket[1] += elapsed

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        timed = self._timed
        if inspect.isgeneratorfunction(fn):
            # Each resumption is one frame, so the generator's own work is
            # charged to its module rather than to whoever iterates it.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed(name, stats, next, (items,), {})
                    except StopIteration:
                        return
                    self.elements[name] = self.elements.get(name, 0) + 1
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(name, stats, fn, args, kwargs)

        return wrapper

    # --- installation ----------------------------------------------------

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s measured modules."""
        self._package = package
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers: dict = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self._wrap(name, obj)
        matrix = package.ratmat.RationalMatrix
        for attr, obj in list(vars(matrix).items()):
            if attr in UNWRAPPED_METHODS:
                continue
            name = "ratmat." + METHOD_NAMES.get(attr, attr)
            if isinstance(obj, classmethod):
                self._set(matrix, attr, classmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(matrix, attr, self._wrap(name, obj))
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            self._set(obj, key, wrappers[value])

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def raw(self) -> dict:
        """Aggregates in a JSON-ready form (spans are written separately)."""
        cache = self._package.spectral.stirling_first.cache_info()
        return {
            "stats": self.stats,
            "sized": self.sized,
            "elements": self.elements,
            "stirling_first": [cache.hits, cache.misses],
        }


def per_layer_metrics(raw: dict, names, extras: dict) -> dict[str, float]:
    """Value of every per-layer metric in ``names``.

    ``raw`` is ``Tracer.raw()`` of one traced pass and ``extras`` holds the
    values measured outside the tracer (case counts, output bytes, overhead).
    A name that matches no rule or no wrapped function raises KeyError.
    """
    stats, sized = raw["stats"], raw["sized"]
    out = {}
    for metric in names:
        key, field = metric.rsplit(".", 1)
        if metric in extras:
            value = extras[metric]
        elif metric == "spectral.stirling_first.hit_ratio":
            hits, misses = raw["stirling_first"]
            value = hits / (hits + misses) if hits + misses else 0.0
        elif key in LAYERS and field == "self_s":
            value = sum(s[1] for name, s in stats.items() if name.startswith(key + "."))
        elif key.startswith("verify.") and field == "wall_s":
            suite = "verify.suite_" + key.split(".", 1)[1].replace("-", "_")
            value = stats[suite][2]
        elif field.startswith("n") and field.endswith("_s") and key in SIZED:
            calls, total = sized.get(f"{key}.{field[:-2]}", [0, 0.0])
            value = total / calls if calls else 0.0
        elif field == "elements":
            value = raw["elements"].get(key, 0)
        elif field in ("calls", "self_s"):
            value = stats[key][0 if field == "calls" else 1]
        else:
            raise KeyError(f"no rule for per-layer metric {metric!r}")
        out[metric] = value
    return out
