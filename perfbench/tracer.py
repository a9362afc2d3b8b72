"""Outside-in tracer for the ``prorl`` package.

``Tracer.install`` rebinds every public module-level function of every
``prorl`` module to a timing wrapper, in every ``prorl`` namespace that holds
it: the defining module's globals and each module that imported the function
by name (``pipelines.solve_regularized``, ``saddle.empirical_lagrangian_members``
and so on). A call between layers therefore passes through a wrapper however
the caller looked the function up. Public methods of the package's classes
(``Regularizer.deriv_inverse`` and so on) are wrapped on the class. The
package source is not touched; ``uninstall`` restores every binding.

Spans stay in memory as ``[name, start, end, parent, op]`` lists, where
``parent`` is the index of the enclosing span (-1 at top level) and ``op`` is
the operation id current when the span opened. ``write_jsonl`` saves them when
the run ends. A span's self time is its duration minus the durations of its
direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "prorl"


class Tracer:
    """Span recorder; ``hooks`` map "layer.function" to a counter callback.

    A hook is called as ``hook(bound_arguments, result, exc)`` after the span
    closes, so its own cost lands in the caller's self time, never in the
    traced function's.
    """

    def __init__(self, hooks=None):
        self.spans: list = []
        self.op = -1
        self.hooks = dict(hooks or {})
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and name.startswith(prefix)
        ]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if not origin.startswith(prefix):
                    continue
                if inspect.isclass(obj) and origin == mod.__name__:
                    self._wrap_methods(obj, origin[len(prefix):])
                elif inspect.isfunction(obj) and not obj.__name__.startswith("_"):
                    if obj not in wrappers:
                        layer = origin[len(prefix):]
                        wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def _wrap_methods(self, cls, layer: str) -> None:
        """Public plain, static and class methods of a class defined in the package."""
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(obj, (staticmethod, classmethod)):
                wrapped = type(obj)(self._wrap(obj.__func__, name))
            elif inspect.isfunction(obj):
                wrapped = self._wrap(obj, name)
            else:
                continue
            self._saved.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if hook:
                    hook(_bind(signature, args, kwargs), None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if hook:
                hook(_bind(signature, args, kwargs), result, None)
            return result

        return traced

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def totals(self) -> dict:
        """{"layer.function": [calls, self seconds]} over all spans."""
        out: dict = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        return out

    def write_jsonl(self, path: str) -> None:
        """A header line naming the fields, then one JSON array per span.

        Times are seconds from the first span's start, to the microsecond.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    [name, round(start - origin, 6), round(end - origin, 6), parent, op]
                ) + "\n")


def _bind(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
