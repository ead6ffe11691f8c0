"""Flat, mergeable counter registry.

The compile service's own aggregate (``CompileService.registry``): each
job runs under a private :class:`~repro.obs.tracer.Tracer`, whose span
tree holds that job's counters, and the service folds the tree's totals
in with :meth:`CounterRegistry.merge`.  The registry is thread-safe, so
the service's worker threads share it.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Mapping, Tuple, Union

Number = Union[int, float]


class CounterRegistry:
    """Named monotonic counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, Number] = {}

    def add(self, name: str, delta: Number = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + delta

    def get(self, name: str, default: Number = 0) -> Number:
        return self._counts.get(name, default)

    def snapshot(self) -> Dict[str, Number]:
        """A picklable copy, suitable for crossing a process boundary."""
        with self._lock:
            return dict(self._counts)

    def merge(self, other: Mapping[str, Number]) -> None:
        """Fold another registry's snapshot into this one."""
        with self._lock:
            for name, value in other.items():
                self._counts[name] = self._counts.get(name, 0) + value

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()

    def items(self) -> Iterator[Tuple[str, Number]]:
        return iter(self.snapshot().items())

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __repr__(self) -> str:
        return f"CounterRegistry({self._counts!r})"
