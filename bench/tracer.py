"""In-memory span recorder that wraps library functions from outside.

A wrapper replaces a module or class attribute, so it sees exactly the calls
made through that name. Each call records a span (name, start, end, parent);
counters record calls too cheap to time. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named `name` around every call through owner.attr."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        self.patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls through owner.attr without timing them."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, counted)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr to `replacement` until uninstall()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive ms and self ms (the span's
        duration minus the time its direct children cover)."""
        child_ms = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            ms = (end - start) * 1e3
            entry["calls"] += 1
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[index]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
