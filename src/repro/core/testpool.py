"""Shared test pool: cross-budget counterexample reuse.

Counterexamples and directed seed tests are semantic properties of the
*specification*, not of the resource budget that happened to discover
them: any input/output pair valid for the spec must be satisfied by every
correct implementation at every budget.  The budget search, however, used
to throw everything away between budgets — each counterexample had to be
re-discovered at every subsequent budget, and each re-discovery costs a
full SAT solve plus a product-equivalence verification (the two expensive
halves of a CEGIS round).

A :class:`TestPool` records every test discovered anywhere in a compile
exactly once (keyed by input bits, with the spec's expected
:class:`~repro.ir.simulator.ParseResult` memoized) and replays the pool
as *up-front constraints* into every subsequent budget's CEGIS run.
Because the extra constraints are valid for the spec, they can only prune
spec-inequivalent candidates: per-budget feasibility — and therefore the
minimal budget found — is semantically unchanged, while most of the
re-discovery round-trips disappear.

Pools are strictly per bit **layout**: counterexample inputs live in the
*synthesis* spec's bit positions, and Opt2/Opt6 scaling changes that
layout per portfolio arm, so each arm's budget search keeps its own pool.

Determinism contract (crash-resume): the pool's *content and insertion
order* at the moment each budget's run starts is what that run's solver
sees.  ``repro.persist`` therefore snapshots the pool in order at every
checkpoint write, plus a per-budget ``pool_base`` (the pool size when the
budget started), and a resumed run reconstructs exactly that prefix —
see :meth:`TestPool.prefix` and ``CheckpointManager.track_pool``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.bits import Bits
from ..ir.simulator import OUTCOME_OVERRUN, ParseResult, simulate_spec
from ..ir.spec import ParserSpec

ORIGIN_SEED = "seed"     # directed seed test (initial_tests)
ORIGIN_CEX = "cex"       # CEGIS counterexample (verifier)


@dataclass
class PoolEntry:
    """One recorded test input with its memoized expectation."""

    bits: Bits
    origin: str
    # Memoized simulate_spec output and the step count it actually used
    # (len(result.path)).  A non-overrun result is valid at any step
    # bound >= that count; anything else is re-simulated on demand.
    result: Optional[ParseResult] = None
    steps: int = 0


class TestPool:
    """Insertion-ordered, deduplicated set of tests for one spec layout."""

    def __init__(self, spec: ParserSpec) -> None:
        self.spec = spec
        self._entries: Dict[Tuple[int, int], PoolEntry] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, bits: Bits) -> bool:
        return (bits.uint(), len(bits)) in self._entries

    def add(self, bits: Bits, origin: str = ORIGIN_CEX) -> bool:
        """Record a test input; returns True if it was new."""
        key = (bits.uint(), len(bits))
        if key in self._entries:
            return False
        self._entries[key] = PoolEntry(bits, origin)
        return True

    # ------------------------------------------------------------------
    def prefix(self, size: Optional[int] = None) -> List[PoolEntry]:
        """The first ``size`` entries in insertion order (all if None)."""
        entries = list(self._entries.values())
        if size is None:
            return entries
        return entries[:size]

    def expected(
        self, entry: PoolEntry, max_steps: int
    ) -> Optional[ParseResult]:
        """The spec's output for ``entry`` under ``max_steps``, memoized.

        Returns None when the spec overruns the bound on this input (the
        entry is kept — a later budget with a larger unroll may still use
        it) — callers must skip such entries."""
        if (
            entry.result is not None
            and entry.result.outcome != OUTCOME_OVERRUN
            and entry.steps <= max_steps
        ):
            return entry.result
        result = simulate_spec(self.spec, entry.bits, max_steps)
        entry.result = result
        entry.steps = len(result.path)
        if result.outcome == OUTCOME_OVERRUN:
            return None
        return result

    def tests(
        self, max_steps: int, size: Optional[int] = None
    ) -> List[Tuple[Bits, ParseResult, str]]:
        """Replayable ``(bits, expected, origin)`` triples, in pool order,
        limited to the first ``size`` entries (the faithful-resume prefix)
        and to inputs the spec resolves within ``max_steps``."""
        out: List[Tuple[Bits, ParseResult, str]] = []
        for entry in self.prefix(size):
            expected = self.expected(entry, max_steps)
            if expected is None:
                continue
            out.append((entry.bits, expected, entry.origin))
        return out

    def has_seeds(self, size: Optional[int] = None) -> bool:
        """Whether the (prefix of the) pool already carries seed tests —
        if so, a budget run can skip regenerating its own directed
        seeds and reuse the recorded ones."""
        return any(
            e.origin == ORIGIN_SEED for e in self.prefix(size)
        )
