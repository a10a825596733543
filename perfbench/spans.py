"""Span tracing around the public calls into each padicharm layer.

Every public function of a layer module, and every public method of the
classes it defines (plus the arithmetic dunders of plain classes such as
RationalFunctionZ), is replaced by a wrapper that records one span:
(name, start, end, parent).  The wrappers are installed by rebinding the
original object wherever a padicharm module holds it, so calls made through
`from .x import f` bindings are traced too.  Spans live in typed arrays in
memory and are written once, when the run ends.

A few leaf calls run millions of times per workload (character values, the
additive character, unit-group orders).  A span each would dominate both the
run time and the memory, so those are timed and counted in aggregate: their
time is charged to the open span as covered child time and to their own
module's self time.  A traced call made inside such a leaf is only counted.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "pvszeta", "fxspace", "ratfunc", "abelian", "padic", "gdist")
HOT = frozenset({"abelian.UnitCharacter.value", "padic.psi_frac", "padic.unit_order"})
PLAIN_CLASS_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__call__"})

# per-layer metric base name -> span name, where the two differ
SPAN_OF = {
    "abelian.character_value": "abelian.UnitCharacter.value",
    "ratfunc.partial_fractions": "ratfunc.RationalFunctionZ.partial_fractions",
    "ratfunc.laurent_coeff_at_zero": "ratfunc.RationalFunctionZ.laurent_coeff_at_zero",
}


class Tracer:
    """Span recorder; one per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.leaf_cover = array("d")    # hot-leaf time directly inside the span
        self.nested = array("b")        # inside another span of the same name
        self.stack = [-1]
        self.active: list[int] = []
        self.leaf_depth = 0
        self.inner_calls: list[int] = []   # calls made inside a hot leaf
        self.leaf_calls: list[int] = []
        self.leaf_time: list[float] = []
        self.sweep_passes = 0
        self._restore: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            for col in (self.active, self.inner_calls, self.leaf_calls):
                col.append(0)
            self.leaf_time.append(0.0)
        return self.name_id[name]

    # ---------------------------------------------------------- wrappers

    def _span(self, fn, name):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            if self.leaf_depth:
                self.inner_calls[nid] += 1
                return fn(*args, **kwargs)
            i = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1])
            self.nested.append(1 if self.active[nid] else 0)
            self.leaf_cover.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            self.active[nid] += 1
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.active[nid] -= 1
                self.stack.pop()

        return functools.update_wrapper(traced, fn)

    def _leaf(self, fn, name):
        nid = self._intern(name)

        def counted(*args, **kwargs):
            if self.leaf_depth:
                self.inner_calls[nid] += 1
                return fn(*args, **kwargs)
            self.leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.leaf_depth -= 1
                self.leaf_calls[nid] += 1
                self.leaf_time[nid] += dt
                top = self.stack[-1]
                if top >= 0:
                    self.leaf_cover[top] += dt

        return functools.update_wrapper(counted, fn)

    def _wrap(self, fn, name):
        return (self._leaf if name in HOT else self._span)(fn, name)

    # ------------------------------------------------------ installation

    def install(self):
        """Wrap every public callable of the layer modules."""
        modules = {m: importlib.import_module(f"padicharm.{m}") for m in LAYERS}
        rebind: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(short, obj)
                elif callable(obj):
                    rebind[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        self._count_sweep_passes(modules["pvszeta"], rebind)
        for mname, mod in list(sys.modules.items()):
            if mname != "padicharm" and not mname.startswith("padicharm."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = rebind.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def _install_class(self, short, cls):
        plain = not dataclasses.is_dataclass(cls)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (plain and attr in PLAIN_CLASS_DUNDERS):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))

    def _count_sweep_passes(self, pvszeta, rebind):
        """pvszeta.sweep_passes: precompute_jobs calls that had a job to sweep."""
        orig = pvszeta.precompute_jobs
        spanned = rebind[id(orig)][1]
        cache = getattr(pvszeta, "_SWEEP_CACHE", None)

        def precompute_jobs(p, k, jobs):
            if cache is None or any(j not in cache.get((p, k), {}) for j in jobs):
                self.sweep_passes += 1
            return spanned(p, k, jobs)

        rebind[id(orig)] = (orig, functools.update_wrapper(precompute_jobs, orig))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # ----------------------------------------------------------- results

    def arrays(self) -> dict:
        n = len(self.start)
        return {
            "names": np.array(self.names),
            "span_name": np.frombuffer(self.span_name, dtype=np.int32, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int64, count=n),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n),
            "leaf_cover": np.frombuffer(self.leaf_cover, dtype=np.float64, count=n),
            "nested": np.frombuffer(self.nested, dtype=np.int8, count=n),
            "inner_calls": np.array(self.inner_calls, dtype=np.int64),
            "leaf_calls": np.array(self.leaf_calls, dtype=np.int64),
            "leaf_time": np.array(self.leaf_time, dtype=np.float64),
        }

    def write(self, path):
        np.savez(path, sweep_passes=self.sweep_passes, **self.arrays())


def layer_metrics(t: dict, sweep_passes: int, wanted) -> dict:
    """Derive per-layer metrics from recorded spans.

    `X.s` is inclusive time (spans nested in a span of the same name are not
    counted twice), `X.calls` counts every call, and `<layer>.self_s` is span
    time minus the time its child spans and hot leaves cover, plus the
    layer's hot-leaf time.
    """
    names = list(t["names"])
    dur = t["end"] - t["start"]
    has_parent = t["parent"] >= 0
    covered = np.bincount(t["parent"][has_parent], weights=dur[has_parent],
                          minlength=len(dur)) + t["leaf_cover"]
    own = dur - covered
    nid = t["span_name"]
    n = len(names)
    incl = np.bincount(nid, weights=np.where(t["nested"] == 0, dur, 0.0), minlength=n)
    calls = np.bincount(nid, minlength=n) + t["inner_calls"] + t["leaf_calls"]
    by_layer = np.bincount(nid, weights=own, minlength=n) + t["leaf_time"]
    layer_self = {}
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(by_layer[i])
    out = {}
    for metric in wanted:
        base, _, kind = metric.rpartition(".")
        if metric == "pvszeta.sweep_passes":
            out[metric] = sweep_passes
        elif kind == "self_s":
            out[metric] = layer_self.get(base, 0.0)
        elif kind in ("s", "calls"):
            span = SPAN_OF.get(base, base)
            i = names.index(span) if span in names else None
            if i is None:
                out[metric] = 0.0 if kind == "s" else 0
            else:
                out[metric] = float(incl[i]) if kind == "s" else int(calls[i])
    return out
