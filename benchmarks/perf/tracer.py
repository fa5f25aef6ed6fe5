"""Span tracer that wraps the public names of the tropt modules from outside.

:func:`install` replaces every function named in a module's ``__all__`` by a
wrapper, and rebinds the wrapper wherever a ``tropt`` module imported the
name, so calls between modules are seen too.  Classes named in ``__all__``
get their public methods and a few operators wrapped in place.  A name
added to ``__all__`` later is traced without a change here; a metric whose
span never occurs reads as zero.

Each wrapped call records a span: name, start, end, parent span and the
exception that escaped it, if any.  Spans are kept for one operation at a
time and folded into per-name totals by :meth:`Tracer.end_op`.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import importlib
import sys
import types
from time import perf_counter

PACKAGE = "tropt"
MODULES = ("semifield", "linalg", "_kernels", "systems", "solve", "oracle", "location",
           "probfile", "svg", "cli")
# operators traced besides the public methods of a class
DUNDERS = ("__init__", "__matmul__", "__add__", "__mul__")

NAME, START, END, PARENT, EXC = range(5)


def _matmul_bytes(args, kwargs, result):
    a, b = args[0], args[1]
    yield "kernels.matmul.bytes_computed", a.shape[0] * a.shape[1] * b.shape[1] * 8


def _grid_scan_points(args, kwargs, result):
    feasible, _ = result
    yield "oracle.points_scanned", len(feasible)
    yield "oracle.points_feasible", int(feasible.sum())


# counters recorded at a span boundary, keyed by span name
HOOKS = {
    "kernels.matmul": _matmul_bytes,
    "kernels.grid_scan": _grid_scan_points,
}


def fold(spans) -> dict:
    """Per-name ``[calls, total_s, self_s]`` over one operation's spans.

    Self time is a span's duration minus the durations of its direct
    children.  Total time counts only spans with no ancestor of the same
    name, so a recursive call is not counted twice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict = {}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        rec = out.setdefault(s[NAME], [0, 0.0, 0.0])
        rec[0] += 1
        rec[2] += dur - child[i]
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != s[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            rec[1] += dur
    return out


class Tracer:
    """Collects spans of one operation at a time and keeps per-name totals."""

    def __init__(self):
        self.active = True
        self.spans: list = []
        self._stack: list = []
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counters: dict = {}
        self.ops = 0

    def call(self, name, fn, args, kwargs):
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[EXC] = exc
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        hook = HOOKS.get(name)
        if hook is not None:
            for key, value in hook(args, kwargs, result):
                self.count(key, value)
        return result

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def end_op(self):
        """Fold the current operation's spans into the totals."""
        for name, (calls, total, self_s) in fold(self.spans).items():
            rec = self.stats.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        # an exception counts once per layer it escaped from, however many
        # nested spans of that layer it passed through
        escaped: dict = {}
        for s in self.spans:
            if s[EXC] is not None:
                escaped.setdefault(s[NAME].split(".")[0], set()).add(id(s[EXC]))
        for layer, ids in escaped.items():
            self.count(f"{layer}.errors", len(ids))
        self.spans.clear()
        self.ops += 1

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def per_op(self, name: str, field: str) -> float:
        """calls, total_ms or self_ms of span ``name`` per operation; 0 if unseen."""
        rec = self.stats.get(name)
        if rec is None or self.ops == 0:
            return 0.0
        value = {"calls": rec[0], "total_ms": rec[1] * 1e3, "self_ms": rec[2] * 1e3}[field]
        return value / self.ops


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)

    traced.__traced__ = True
    return traced


def _traceable_class(obj) -> bool:
    return isinstance(obj, type) and not issubclass(obj, (enum.Enum, BaseException))


def install(tracer: Tracer) -> list:
    """Wrap the public names of the tropt modules; returns the undo list."""
    undo = []

    def rebind(target, attr, new, old):
        setattr(target, attr, new)
        undo.append((target, attr, old))

    for short in MODULES:
        try:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
        except ImportError:
            continue
        layer = short.lstrip("_")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if isinstance(obj, types.FunctionType) and not hasattr(obj, "__traced__"):
                wrapper = _wrap(tracer, f"{layer}.{name}", obj)
                for other in [m for key, m in sys.modules.items()
                              if key == PACKAGE or key.startswith(PACKAGE + ".")]:
                    for attr, val in list(vars(other).items()):
                        if val is obj:
                            rebind(other, attr, wrapper, obj)
            elif _traceable_class(obj):
                for attr, val in list(vars(obj).items()):
                    wanted = not attr.startswith("_") or attr in DUNDERS
                    if wanted and isinstance(val, types.FunctionType) and not hasattr(val, "__traced__"):
                        rebind(obj, attr, _wrap(tracer, f"{layer}.{obj.__name__}.{attr}", val), val)
    return undo


def uninstall(undo: list) -> None:
    for target, attr, old in reversed(undo):
        setattr(target, attr, old)


@contextlib.contextmanager
def traced(tracer: Tracer):
    undo = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(undo)
