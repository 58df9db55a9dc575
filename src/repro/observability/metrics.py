"""Dependency-free counters and timers.

A :class:`MetricsRegistry` is a flat namespace of named
:class:`Counter` and :class:`Timer` objects.  Registries are cheap to
create, safe to update from multiple threads (single bytecode-level
increments under the GIL plus an explicit lock for dict mutation), and
serialise to plain dictionaries for the JSON artifacts.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict

__all__ = ["Counter", "Timer", "MetricsRegistry"]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self):
        return f"Counter(value={self.value})"


class Timer:
    """Accumulated wall time over any number of timed sections."""

    __slots__ = ("total_seconds", "count")

    def __init__(self):
        self.total_seconds = 0.0
        self.count = 0

    def add(self, seconds: float) -> None:
        self.total_seconds += float(seconds)
        self.count += 1

    @contextmanager
    def time(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(time.perf_counter() - start)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def __repr__(self):
        return (f"Timer(total_seconds={self.total_seconds:.6f}, "
                f"count={self.count})")


class MetricsRegistry:
    """A named collection of counters and timers."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def timer(self, name: str) -> Timer:
        """The timer called ``name``, created on first use."""
        with self._lock:
            if name not in self._timers:
                self._timers[name] = Timer()
            return self._timers[name]

    def absorb(self, snapshot: dict) -> None:
        """Add another registry's :meth:`snapshot` (e.g. one taken in
        a worker process) into this registry."""
        for name, value in snapshot["counters"].items():
            self.counter(name).inc(value)
        for name, spent in snapshot["timers"].items():
            timer = self.timer(name)
            timer.total_seconds += spent["total_seconds"]
            timer.count += spent["count"]

    def snapshot(self) -> dict:
        """Plain-data view: ``{"counters": {...}, "timers": {...}}``."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            timers = {name: {"total_seconds": t.total_seconds,
                             "count": t.count}
                      for name, t in self._timers.items()}
        return {"counters": counters, "timers": timers}

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._timers)
