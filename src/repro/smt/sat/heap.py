"""Max-heap keyed by VSIDS activity, with in-place position tracking.

The CDCL branching heuristic needs three operations that the standard
library's ``heapq`` cannot provide together: pop-max, increase-key for an
arbitrary element, and membership re-insertion.  This binary heap keeps a
``positions`` index so all three run in O(log n).
"""

from __future__ import annotations

from typing import Iterable, List


class ActivityHeap:
    """Binary max-heap over variable indices ordered by an activity array."""

    def __init__(self, activity: List[float]) -> None:
        self._activity = activity
        self._heap: List[int] = []
        self._pos: List[int] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, var: int) -> bool:
        return var < len(self._pos) and self._pos[var] >= 0

    def grow_to(self, nvars: int) -> None:
        """Extend the position table so variables < nvars can be inserted."""
        while len(self._pos) < nvars:
            self._pos.append(-1)

    def insert(self, var: int) -> None:
        """Insert a variable; no-op if already present."""
        self.grow_to(var + 1)
        if self._pos[var] >= 0:
            return
        self._heap.append(var)
        self._pos[var] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def build(self, vars: Iterable[int]) -> None:
        """Bulk-load from scratch with Floyd heapify: O(n) where n
        single inserts cost O(n log n).  The solver uses this when it
        first materializes the branching order — with tens of thousands
        of variables per synthesis query, first-decision latency is
        visible in profiles."""
        self._heap = list(vars)
        if self._heap:
            self.grow_to(max(self._heap) + 1)
        for i in range(len(self._pos)):
            self._pos[i] = -1
        for i, var in enumerate(self._heap):
            self._pos[var] = i
        for i in range(len(self._heap) // 2 - 1, -1, -1):
            self._sift_down(i)

    def pop_max(self) -> int:
        """Remove and return the variable with the highest activity."""
        top = self._heap[0]
        last = self._heap.pop()
        self._pos[top] = -1
        if self._heap:
            self._heap[0] = last
            self._pos[last] = 0
            self._sift_down(0)
        return top

    def bumped(self, var: int) -> None:
        """Restore heap order after var's activity increased."""
        if var < len(self._pos) and self._pos[var] >= 0:
            self._sift_up(self._pos[var])

    def _sift_up(self, i: int) -> None:
        heap, pos, act = self._heap, self._pos, self._activity
        item = heap[i]
        item_act = act[item]
        while i > 0:
            parent = (i - 1) >> 1
            pvar = heap[parent]
            if act[pvar] >= item_act:
                break
            heap[i] = pvar
            pos[pvar] = i
            i = parent
        heap[i] = item
        pos[item] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, act = self._heap, self._pos, self._activity
        n = len(heap)
        item = heap[i]
        item_act = act[item]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            best = left
            right = left + 1
            if right < n and act[heap[right]] > act[heap[left]]:
                best = right
            if act[heap[best]] <= item_act:
                break
            heap[i] = heap[best]
            pos[heap[i]] = i
            i = best
        heap[i] = item
        pos[item] = i
