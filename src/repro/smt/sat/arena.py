"""Flat clause storage for the CDCL core.

All clause literals live in one flat list of ints; a clause is referred
to by an integer *clause reference* (``cref``), the index of its header
inside the list.  (A ``array('i')`` would be more compact, but CPython
boxes a fresh int object on every ``array`` subscript while list reads
return existing references — measured ~1.5x slower reads and ~2x slower
writes in the propagation loop, so the arena trades memory for the hot
path.)  Layout, per clause::

    data[cref]      header word: (size << 2) | (deleted << 1) | learnt
    data[cref + 1]  activity index (slot in ``activities``; -1 for input
                    clauses, which are never activity-sorted)
    data[cref + 2]  literal 0   (first watched literal)
    data[cref + 3]  literal 1   (second watched literal)
    ...
    data[cref + 1 + size]  literal size-1

Compared to one Python object per clause this removes an attribute
dereference and an object allocation from every propagation step, keeps
the literals of a clause adjacent in memory, and makes deletion O(1): the
``deleted`` bit is set and the words are counted as ``wasted``; watcher
lists drop dead crefs lazily the next time they are traversed.  When the
wasted fraction grows past :data:`GC_FRACTION` the solver compacts the
arena with :meth:`ClauseArena.compact`.

Learnt-clause activities live in a side list of floats (``activities``)
rather than in the arena (the arena is integer-typed); the *index* into
that list is what the second header word stores, so activities survive
compaction without any fix-up.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

# Number of words preceding a clause's literals.
HEADER_WORDS = 2

# cref sentinel for "no clause" (used by the solver's reason column).
CREF_NONE = -1

# Compact once deleted clauses waste more than this fraction of the arena.
GC_FRACTION = 0.5

_DELETED_BIT = 2
_LEARNT_BIT = 1


class ClauseArena:
    """A bump allocator for clauses with lazy deletion and compaction."""

    __slots__ = ("data", "wasted", "activities", "_free_slots")

    def __init__(self) -> None:
        self.data: List[int] = []
        self.wasted = 0
        self.activities: List[float] = []
        self._free_slots: List[int] = []

    # ------------------------------------------------------------------
    # Allocation and deletion
    # ------------------------------------------------------------------
    def alloc(self, lits: Iterable[int], learnt: bool = False) -> int:
        """Append a clause; returns its cref.  ``lits`` must have >= 2
        literals (units and empties are handled by the solver's trail)."""
        lits = list(lits)
        size = len(lits)
        if size < 2:
            raise ValueError(f"arena clauses need >= 2 literals, got {size}")
        cref = len(self.data)
        if learnt:
            if self._free_slots:
                slot = self._free_slots.pop()
                self.activities[slot] = 0.0
            else:
                slot = len(self.activities)
                self.activities.append(0.0)
        else:
            slot = -1
        self.data.append((size << 2) | (_LEARNT_BIT if learnt else 0))
        self.data.append(slot)
        self.data += lits
        return cref

    def delete(self, cref: int) -> None:
        """Mark a clause deleted (lazy: watchers drop it on next visit)."""
        header = self.data[cref]
        if header & _DELETED_BIT:
            return
        self.data[cref] = header | _DELETED_BIT
        self.wasted += (header >> 2) + HEADER_WORDS
        slot = self.data[cref + 1]
        if slot >= 0:
            self._free_slots.append(slot)
            self.data[cref + 1] = -1

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def size(self, cref: int) -> int:
        return self.data[cref] >> 2

    def is_learnt(self, cref: int) -> bool:
        return bool(self.data[cref] & _LEARNT_BIT)

    def is_deleted(self, cref: int) -> bool:
        return bool(self.data[cref] & _DELETED_BIT)

    def literals(self, cref: int) -> List[int]:
        base = cref + HEADER_WORDS
        return self.data[base : base + (self.data[cref] >> 2)]

    def activity(self, cref: int) -> float:
        slot = self.data[cref + 1]
        return self.activities[slot] if slot >= 0 else 0.0

    def bump_activity(self, cref: int, inc: float) -> float:
        slot = self.data[cref + 1]
        value = self.activities[slot] + inc
        self.activities[slot] = value
        return value

    def rescale_activities(self, factor: float) -> None:
        acts = self.activities
        for i in range(len(acts)):
            acts[i] *= factor

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def should_collect(self) -> bool:
        return self.wasted > 0 and self.wasted > len(self.data) * GC_FRACTION

    def compact(self, live_crefs: Iterable[int]) -> Dict[int, int]:
        """Relocate the given live clauses into a fresh arena.

        The caller passes every cref it still holds; anything not listed
        is dropped.  Returns the old-cref -> new-cref mapping; the caller
        remaps its clause lists and reason column and rebuilds watcher
        lists.  Activity slots are stable across compaction, so learnt
        activities need no fix-up.
        """
        old = self.data
        new: List[int] = []
        mapping: Dict[int, int] = {}
        for cref in live_crefs:
            header = old[cref]
            if header & _DELETED_BIT:
                continue
            stride = (header >> 2) + HEADER_WORDS
            mapping[cref] = len(new)
            new.extend(old[cref : cref + stride])
        self.data = new
        self.wasted = 0
        return mapping

    def __len__(self) -> int:
        return len(self.data)
