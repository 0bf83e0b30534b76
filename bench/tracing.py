"""Spans around the library's public functions, recorded from outside the library.

``Tracer.install`` replaces a function in the module namespace where its
caller looks it up (``segue.playlist.rank_candidates`` is what ``generate``
calls) with a wrapper that records a span: its name, its parent span, and its
start and end. Spans stay in memory until the run ends. A name that a later
refactor removed is recorded as absent instead of failing the run.

A hook attached to a name turns the call's arguments and result into counts,
so ratios are measured where the work happens. Span times are wall seconds.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

Hook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, parent index or -1, start, end].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, targets: list[tuple[str, str, Hook | None]]) -> None:
        """Wrap each ``(module, attribute, hook)``; the span is named ``module.attribute``."""
        for module_name, attr, hook in targets:
            module = importlib.import_module(f"segue.{module_name}")
            original = getattr(module, attr, None)
            name = f"{module_name}.{attr}"
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(name, original, hook))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one round."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original, hook: Hook | None):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total minus child spans)."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for index, (name, _, start, end) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return table

    def records(self) -> list[dict]:
        return [
            {"id": index, "name": name, "parent": parent, "start": start, "end": end}
            for index, (name, parent, start, end) in enumerate(self.spans)
        ]

