"""Function-level spans around the public functions of a package, from outside.

The tracer replaces each target function with a wrapper in every loaded
module of the package that holds it under any name, because modules import
one another's functions by name (``cli`` and ``crosscheck`` both bind
``evaluate_oracle``).  Spans stay in memory; ``summary`` turns them into call
counts, self times and error counts.  Self time is a span's duration minus
the durations of its child spans.  Spans nest on one stack, so the traced
code must run on a single thread.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Context manager that traces ``targets``, each ``"module.function"``
    relative to ``package``.  Targets that do not exist are reported in
    ``absent`` and keep zero counts instead of failing the trace."""

    def __init__(self, package: str, targets: list[str]):
        self.package = package
        self.targets = list(targets)
        self.absent: list[str] = []
        self.spans: list[list] = []            # [target index, start, end, parent span]
        self._errors = [0] * len(self.targets)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}                           # id of an original function -> its wrapper
        for index, target in enumerate(self.targets):
            module_name, _, func_name = target.rpartition(".")
            module = sys.modules.get(f"{self.package}.{module_name}")
            func = getattr(module, func_name, None)
            if not callable(func):
                self.absent.append(target)
                continue
            wrappers[id(func)] = self._wrap(index, func)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, index: int, func):
        spans, stack, errors, clock = self.spans, self._stack, self._errors, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            except BaseException:
                errors[index] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def summary(self) -> dict[str, LayerStats]:
        """Per-target totals over every span recorded."""
        stats = [LayerStats() for _ in self.targets]
        for index, start, end, parent in self.spans:
            duration = end - start
            stats[index].calls += 1
            stats[index].self_s += duration
            if parent >= 0:
                stats[self.spans[parent][0]].self_s -= duration
        for stat, errors in zip(stats, self._errors):
            stat.errors = errors
        return dict(zip(self.targets, stats))
