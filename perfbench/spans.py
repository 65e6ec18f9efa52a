"""Span tracing installed from outside the program, for the traced pass only.

`Tracer.install()` rebinds every public function and method of the traced
smoothconvex modules, including names one module re-imports from another
(such as `stochastic.project_two_balls`) and the function table
`cli.EXPERIMENTS`; `uninstall()` puts the originals back. Each call records a
span (name, parent span, start, end) in parallel in-memory arrays; nothing is
written until `Spans.save` at the end of the run.

Functions are named `<module>.<function>`. Methods are named by the class of
the instance they run on, `<module>.<Class>.<method>`, so a subclass calling
`super().observe` nests a span of its own name.
"""

from __future__ import annotations

import array
import collections
import importlib
import inspect
import time

import numpy as np

MODULES = ("core", "problems", "stochastic", "metrics", "online", "adversary", "cli")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans around the public functions of the traced modules.

    `hooks` maps a span name to `f(args, kwargs, result) -> number`; the
    numbers are summed per name into `quantities` (solver steps, bytes).
    """

    def __init__(self, hooks: dict | None = None):
        self.modules = [importlib.import_module(f"smoothconvex.{m}") for m in MODULES]
        self.hooks = hooks or {}
        self.quantities: collections.Counter = collections.Counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, resolve):
        """Wrap fn; resolve(args) gives (name id, name) of the span to record."""
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, hooks, quantities = self._stack, self.hooks, self.quantities
        perf = time.perf_counter

        def traced(*args, **kwargs):
            nid, name = resolve(args)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                quantities[name] += hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _function_span(self, fn):
        name = f"{_short(fn.__module__)}.{fn.__name__}"
        key = (self._id(name), name)
        return self._wrap(fn, lambda args: key)

    def _method_span(self, fn, attr: str):
        by_class: dict = {}

        def resolve(args):
            cls = type(args[0])
            key = by_class.get(cls)
            if key is None:
                name = f"{_short(cls.__module__)}.{cls.__name__}.{attr}"
                key = by_class[cls] = (self._id(name), name)
            return key

        return self._wrap(fn, resolve)

    def _set(self, owner, attr, value, item: bool = False) -> None:
        if item:
            old = owner[attr]
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = vars(owner)[attr]
            setattr(owner, attr, value)
            self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        traced_names = {m.__name__ for m in self.modules}
        wrapped = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in traced_names:
                    if obj not in wrapped:
                        wrapped[obj] = self._function_span(obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            self._set(obj, mattr, self._method_span(meth, mattr))
        # rebind every module-level name bound to a wrapped function,
        # re-imports included
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        experiments = self.modules[MODULES.index("cli")].EXPERIMENTS
        for key, (fn, defaults) in list(experiments.items()):
            if fn in wrapped:
                self._set(experiments, key, (wrapped[fn], defaults), item=True)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> "Spans":
        return Spans(self.names, self.name_ids, self.parents, self.starts, self.ends,
                     dict(self.quantities))


class Spans:
    """Recorded spans as arrays, with self time and per-name aggregates."""

    def __init__(self, names, name_ids, parents, starts, ends, quantities):
        self.names = list(names)
        self.name_id = np.array(name_ids, dtype=np.int64)
        self.parent = np.array(parents, dtype=np.int64)
        self.start = np.array(starts, dtype=np.float64)
        self.end = np.array(ends, dtype=np.float64)
        self.quantities = quantities
        dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self.duration = dur
        self.self_time = dur - covered
        k = len(self.names)
        self._calls = np.bincount(self.name_id, minlength=k)
        self._self = np.bincount(self.name_id, weights=self.self_time, minlength=k)

    def _mask(self, names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def matching(self, predicate) -> list[str]:
        return [n for n in self.names if predicate(n)]

    def calls(self, name: str) -> int:
        return int(self._calls[self.names.index(name)]) if name in self.names else 0

    def self_s(self, name: str) -> float:
        return float(self._self[self.names.index(name)]) if name in self.names else 0.0

    def outermost(self, names) -> np.ndarray:
        """Mask of spans named in `names` with no ancestor named in `names`."""
        member = self._mask(names)
        nested = np.zeros_like(member)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            nested[live] |= member[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return member & ~nested

    def outer_calls(self, names) -> int:
        return int(self.outermost(names).sum())

    def inclusive_s(self, names) -> float:
        """Wall seconds spent inside calls to `names`, nested calls counted once."""
        return float(self.duration[self.outermost(names)].sum())

    def table(self) -> dict:
        return {n: {"calls": int(self._calls[i]), "self_s": float(self._self[i])}
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end,
                 self_time=self.self_time)
