"""Span and count tracing of the ``algopt`` layers, installed from outside.

The tracer wraps every public function of each package module (the layers),
plus a few hot methods, and rebinds every module attribute that refers to the
original, so names imported with ``from .x import y`` are traced too.  Spans
(name, start, end, parent, op id) and call counts stay in memory; the caller
writes them out when the run ends.

Hot functions are counted only: a timing wrapper around ``rk4_step`` or
``costate_rhs`` costs about as much as the call it measures.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "scenarios", "pmp", "control", "core", "paths", "numerics", "serialize")

# Qualified names that get a call count and no span.
COUNT_ONLY = frozenset({
    "numerics.rk4_step",
    "control.costate_rhs",
    "pmp.hamiltonian",
    "core.anchor_at",
    "core.structure_at",
    "paths.EPath.base_at",
})

# Methods traced in addition to module-level functions, by metric name:
# (layer, class, method).  The chart methods are named by layer alone.
METHODS = {
    "core.anchor_at": ("core", "ChartAlgebroid", "anchor_at"),
    "core.structure_at": ("core", "ChartAlgebroid", "structure_at"),
    "paths.EPath.base_at": ("paths", "EPath", "base_at"),
}


@dataclass(frozen=True)
class Span:
    name: str       # "<layer>.<function>"
    start: float    # perf_counter seconds
    end: float
    parent: int     # index into the span list, -1 at the top
    op: int         # op id the span belongs to

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans and counts while installed; see :meth:`install`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self._stack
        after = _after_hook(name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package: str = "algopt") -> None:
        """Wrap the public functions of every layer and rebind each module
        attribute (in any ``algopt`` module) that refers to one of them."""
        modules = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
        loaded = [m for k, m in sys.modules.items()
                  if m is not None and (k == package or k.startswith(package + "."))]
        replacements = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counted if name in COUNT_ONLY else self._timed
                replacements[obj] = wrap(name, obj)
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._set(mod, attr, replacements[obj])
        for name, (layer, cls_name, meth) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            wrap = self._counted if name in COUNT_ONLY else self._timed
            self._set(cls, meth, wrap(name, vars(cls)[meth]))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _count_switches(tracer: Tracer, args, flow) -> None:
    tracer.add("pmp.switches", len(flow.switch_times))


def _bytes_written(tracer: Tracer, args, result) -> None:
    tracer.add("serialize.bytes_written", os.path.getsize(args[0]))


def _after_hook(name: str):
    """Counter taken from a traced function's result, at the same boundary."""
    if name == "pmp.integrate_pmp_flow":
        return _count_switches
    if name.startswith("serialize.write_"):
        return _bytes_written
    return None


# ---------------------------------------------------------------------------
# Analysis of recorded spans
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Per-span layer self time.

    A span's self time is its duration minus the part of its interval that is
    covered by its nearest descendants in other layers.  Descendants in the
    same layer are the layer's own work, so the walk passes through them.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = []
        todo = list(children[i])
        while todo:
            j = todo.pop()
            if spans[j].layer == s.layer:
                todo.extend(children[j])
            else:
                covered.append((spans[j].start, spans[j].end))
        out.append((s.end - s.start) - _union_length(covered, s.start, s.end))
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Totals per qualified name: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for name, n in tracer.counts.items():
        out[name] = {"calls": n, "s": 0.0, "self_s": 0.0}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        entry = out[span.name]
        entry["s"] += span.end - span.start
        entry["self_s"] += own
    return out


def nested_count(spans: list[Span], outer: str, inner: str) -> int:
    """Number of ``inner`` spans that have an ``outer`` span as an ancestor."""
    total = 0
    for s in spans:
        if s.name != inner:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != outer:
            p = spans[p].parent
        total += p >= 0
    return total
