"""A CDCL SAT solver: two-watched literals, VSIDS, 1-UIP learning,
Luby restarts, phase saving, learnt-clause reduction, and incremental
clause addition between solves.

The solver is deliberately self-contained (standard library only) because it
is the combinatorial search substrate for the whole ParserHawk reproduction:
the paper offloads its search to Z3; we offload ours to this module.

Clause storage is a flat :class:`~repro.smt.sat.arena.ClauseArena`: all
literals live in one flat list of ints and clauses are integer references
(crefs) into it, so the propagation loop reads small ints out of a
contiguous buffer instead of chasing per-clause Python objects.  Watcher
lists hold crefs in the exact order the previous object-based solver
held its clauses: propagation order — and therefore every model the
solver returns — is bit-identical to the pre-arena implementation.
(A dedicated inline watch list for binary clauses is measurably faster
per propagation, but it reorders implications, which changes returned
models, which changes every CEGIS counterexample downstream; keeping
the search deterministic across representations is worth more than the
constant factor.)  Deletion is lazy — ``_reduce_db`` only flips a header bit and
watcher lists drop dead crefs the next time propagation walks them —
which removes the full watcher rebuild (quadratic in the limit) the
previous object-based representation needed.  A compacting GC runs when
deleted clauses waste more than half the arena.

There is no preprocessing, no assumption solving and no clause
retraction: the compiler only ever adds clauses and solves, so a DRAT
log (:mod:`repro.smt.sat.proof`) holds only what this search derives.
"""

from __future__ import annotations

import time
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from .arena import CREF_NONE, ClauseArena

TRUE = 1
FALSE = 0
UNDEF = -1


class Budget:
    """Resource budget for a single ``solve`` call.

    Conflict-count limits are checked exactly on every conflict; the
    wall-clock limit polls the clock only every
    :data:`CLOCK_CHECK_INTERVAL` conflicts — the clock read was a
    measurable fraction of conflict handling when checked every time,
    and a sub-interval overshoot is harmless for the budgets the
    compile pipeline uses.

    Conflicts alone are not enough: a propagation-heavy solve with few
    conflicts never reaches the conflict-path check and can blow far
    past a portfolio arm's deadline.  The search loop therefore also
    polls the clock at every restart boundary and — via
    :meth:`note_propagations` — after every
    :data:`PROPS_PER_CLOCK_CHECK` propagated literals.

    ``clock`` defaults to ``time.monotonic``; tests inject a fake to
    make deadline behaviour deterministic.
    """

    CLOCK_CHECK_INTERVAL = 64
    PROPS_PER_CLOCK_CHECK = 1 << 16

    def __init__(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        clock=None,
    ) -> None:
        self.max_conflicts = max_conflicts
        self.max_seconds = max_seconds
        self._clock = time.monotonic if clock is None else clock
        self._start = self._clock()
        self._conflicts = 0
        self._props_since_check = 0
        self._out = False

    def note_conflict(self) -> None:
        self._conflicts += 1

    def poll(self) -> bool:
        """Direct wall-clock check, regardless of conflict counters."""
        if self._out:
            return True
        if (
            self.max_seconds is not None
            and self._clock() - self._start >= self.max_seconds
        ):
            self._out = True
            return True
        return False

    def note_propagations(self, props: int) -> bool:
        """Accumulate propagation work; poll the clock periodically."""
        if self._out:
            return True
        if self.max_seconds is None:
            return False
        self._props_since_check += props
        if self._props_since_check < self.PROPS_PER_CLOCK_CHECK:
            return False
        self._props_since_check = 0
        return self.poll()

    def exhausted(self) -> bool:
        if self._out:
            return True
        if (
            self.max_conflicts is not None
            and self._conflicts >= self.max_conflicts
        ):
            self._out = True
            return True
        if self.max_seconds is not None and (
            self._conflicts % self.CLOCK_CHECK_INTERVAL <= 1
        ):
            if self._clock() - self._start >= self.max_seconds:
                self._out = True
                return True
        return False


_LUBY_CACHE: Dict[int, int] = {}


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    (1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...).

    Memoized per index: the restart schedule queries successive indices
    for the solver's whole lifetime and the naive recurrence walk is
    re-done from scratch on every call otherwise."""
    hit = _LUBY_CACHE.get(i)
    if hit is not None:
        return hit
    j = i
    while True:
        if (j + 1) & j == 0:  # j+1 is a power of two
            result = (j + 1) >> 1
            break
        k = 1
        while (1 << (k + 1)) - 1 < j:
            k += 1
        j -= (1 << k) - 1
    _LUBY_CACHE[i] = result
    return result


class SatSolver:
    """CDCL solver over packed literals (see :mod:`repro.smt.sat.clause`)
    with arena clause storage (see :mod:`repro.smt.sat.arena`)."""

    def __init__(self) -> None:
        self.arena = ClauseArena()
        self.clauses: List[int] = []         # input clause crefs
        self.learnts: List[int] = []         # learnt clause crefs
        self.watches: List[List[int]] = []   # per-literal watching crefs
        self.assign: List[int] = []          # per-var: TRUE/FALSE/UNDEF
        # Dual-rail mirror of `assign`, indexed by packed literal:
        # vals[l] is 1/0/-1 for true/false/unassigned.  Propagation reads
        # literal values millions of times; one subscript replaces the
        # shift-mask-xor dance against `assign`.  Every assign write
        # mirrors into vals (enqueue, the propagate fast path, cancel).
        self.vals: List[int] = []            # per-lit: 1/0/-1
        self.level: List[int] = []           # per-var: decision level
        self.reason: List[int] = []          # per-var: cref or CREF_NONE
        self.trail: List[int] = []           # assigned literals, in order
        self.trail_lim: List[int] = []       # trail index per decision level
        self.qhead = 0
        self.activity: List[float] = []
        self.polarity: List[bool] = []       # phase saving
        self.order = None                    # lazy ActivityHeap
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.ok = True
        self._seen = bytearray()             # scratch for _analyze
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_restarts = 0
        self.num_learned = 0
        self.num_gcs = 0
        # Input clauses handed to add_clause (before level-0 simplification
        # drops satisfied/tautological ones).  The bit-blaster's constant
        # folding shows up here: fewer emitted clauses for the same query.
        self.num_clauses_added = 0
        # DRAT proof logging; None (the default) keeps every hook to a
        # single attribute test so the hot path is untouched.
        self.proof = None
        # Per-phase wall time (seconds): the solver's own breakdown, so
        # profiling the hot path needs no external tooling.
        self.propagate_seconds = 0.0
        self.analyze_seconds = 0.0
        # Deltas accumulated by the most recent ``solve`` call (the
        # lifetime totals above keep growing across incremental calls).
        self.last_solve_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Variable and clause management
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable, returning its 0-based index."""
        v = len(self.assign)
        self.assign.append(UNDEF)
        self.vals.append(UNDEF)
        self.vals.append(UNDEF)
        self.level.append(-1)
        self.reason.append(CREF_NONE)
        self.activity.append(0.0)
        self.polarity.append(False)
        self._seen.append(0)
        self.watches.append([])
        self.watches.append([])
        if self.order is not None:
            self.order.insert(v)
        return v

    @property
    def num_vars(self) -> int:
        return len(self.assign)

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def value_lit(self, literal: int) -> int:
        a = self.assign[literal >> 1]
        if a == UNDEF:
            return UNDEF
        return a ^ (literal & 1)

    def enable_proof(self):
        """Turn on DRAT proof logging (idempotent).

        Must be called before any clause is added: the log's ``inputs``
        double as the original-formula record a checker verifies
        against.  Returns the :class:`~repro.smt.sat.proof.ProofLog`.
        """
        if self.proof is None:
            from .proof import ProofLog

            if self.num_clauses_added or not self.ok:
                raise ValueError(
                    "enable_proof() must precede the first add_clause()"
                )
            self.proof = ProofLog()
        return self.proof

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add an input clause. Returns False if the formula became UNSAT."""
        if not self.ok:
            return False
        self.num_clauses_added += 1
        proof = self.proof
        if proof is not None:
            lits = list(lits)
            proof.log_input(lits)
        if self.trail_lim:
            # Incremental use: retract the previous solve's decisions.
            self._cancel_until(0)
        assign = self.assign
        if type(lits) is list and len(lits) == 2:
            # Fast path for binary clauses — the overwhelming majority of
            # what gate encodings emit.  Skips the dedup set; semantics
            # match the general loop below exactly.
            l0, l1 = lits
            v0 = l0 >> 1
            v1 = l1 >> 1
            if v0 < len(assign) and v1 < len(assign):
                a0 = assign[v0]
                a1 = assign[v1]
                if a0 < 0 and a1 < 0:
                    if l0 == l1:
                        lits = [l0]  # duplicate literal: unit
                    elif l0 == l1 ^ 1:
                        return True  # tautology
                    else:
                        cref = self.arena.alloc(lits)
                        self.clauses.append(cref)
                        self.watches[l0 ^ 1].append(cref)
                        self.watches[l1 ^ 1].append(cref)
                        return True
        seen: set = set()
        out: List[int] = []
        stripped = False
        for l in lits:
            v = l >> 1
            if v >= len(assign):
                self.ensure_vars(v + 1)
                assign = self.assign
            a = assign[v]
            if a >= 0:
                if a ^ (l & 1):
                    return True  # clause already satisfied at level 0
                stripped = True  # literal is dead: the kept clause is a
                continue         # derived strengthening of the input
            if l in seen:
                continue
            if (l ^ 1) in seen:
                return True  # tautology
            seen.add(l)
            out.append(l)
        if not out:
            if proof is not None:
                proof.add_empty()
            self.ok = False
            return False
        if proof is not None and stripped:
            # RUP via the level-0 units that falsified the dropped lits.
            proof.add(out)
        if len(out) == 1:
            if not self._enqueue(out[0], CREF_NONE):
                if proof is not None:
                    proof.add_empty()
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict != CREF_NONE:
                if proof is not None:
                    proof.add_empty()
                self.ok = False
                return False
            return True
        cref = self.arena.alloc(out)
        self.clauses.append(cref)
        self._watch(cref, len(out), out[0], out[1])
        return True

    def _watch(self, cref: int, size: int, l0: int, l1: int) -> None:
        self.watches[l0 ^ 1].append(cref)
        self.watches[l1 ^ 1].append(cref)

    def _rebuild_watches(self) -> None:
        """Re-derive every watcher list from the clause lists (used after
        arena compaction; also drops any lazily-dead crefs still sitting
        in the lists)."""
        for lst in self.watches:
            del lst[:]
        data = self.arena.data
        for group in (self.clauses, self.learnts):
            for cref in group:
                size = data[cref] >> 2
                l0 = data[cref + 2]
                l1 = data[cref + 3]
                self._watch(cref, size, l0, l1)

    def _garbage_collect(self) -> None:
        """Compact the arena and remap every held cref."""
        mapping = self.arena.compact(self.clauses + self.learnts)
        self.clauses = [mapping[c] for c in self.clauses]
        self.learnts = [mapping[c] for c in self.learnts]
        reason = self.reason
        for v in range(len(reason)):
            r = reason[v]
            if r >= 0:
                # Locked (reason) clauses are never deleted, so every
                # reason survives compaction.
                reason[v] = mapping[r]
        self._rebuild_watches()
        self.num_gcs += 1

    # ------------------------------------------------------------------
    # Trail operations
    # ------------------------------------------------------------------
    def _enqueue(self, literal: int, from_cref: int) -> bool:
        val = self.value_lit(literal)
        if val != UNDEF:
            return val == TRUE
        v = literal >> 1
        self.assign[v] = TRUE if (literal & 1) == 0 else FALSE
        self.vals[literal] = TRUE
        self.vals[literal ^ 1] = FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = from_cref
        self.trail.append(literal)
        return True

    def _propagate(self) -> int:
        """Unit propagation. Returns a conflicting cref or CREF_NONE.

        This is the solver's hot loop; it inlines literal valuation
        (``assign[v] ^ (lit & 1)`` with -1 for unassigned) and enqueueing,
        and reads clause literals straight out of the flat arena.  The
        visit order matches the old object-based solver exactly (see the
        module docstring: determinism across representations).  MiniSat's
        blocker-literal trick was tried here and reverted: skipping a
        visit whose blocker is satisfied also skips the position-0/1
        normalization swap and the watch *move* the old solver performs
        when position 0 is unassigned but position 1 is true, and both
        leak into conflict-clause scan order — i.e. it changes models."""
        t0 = perf_counter()
        trail = self.trail
        watches = self.watches
        assign = self.assign
        vals = self.vals
        level = self.level
        reason = self.reason
        data = self.arena.data
        # Propagation never opens a decision level, so the level every
        # implied variable lands on is fixed for the whole call; qhead
        # lives in a local and is written back only at the exits.
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        props = 0
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1
            # Compact the watcher list in place (write cursor j) instead
            # of allocating a replacement list for every propagated
            # literal.  Clauses that move to a new watch — or that were
            # lazily deleted — are simply not copied forward.
            watchers = watches[p]
            falsed = p ^ 1
            j = 0
            for i in range(len(watchers)):
                cref = watchers[i]
                header = data[cref]
                if header & 2:
                    continue  # deleted: lazy watcher removal
                base = cref + 2
                first = data[base]
                # Ensure the falsified literal is at position 1.
                if first == falsed:
                    first = data[base + 1]
                    data[base] = first
                    data[base + 1] = falsed
                vf = vals[first]
                if vf > 0:
                    watchers[j] = cref
                    j += 1
                    continue
                # Search for a new literal to watch (any non-false one).
                found = False
                for k in range(base + 2, base + (header >> 2)):
                    lk = data[k]
                    if vals[lk] != 0:
                        data[base + 1] = lk
                        data[k] = falsed
                        watches[lk ^ 1].append(cref)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting on `first`.
                watchers[j] = cref
                j += 1
                if vf == 0:
                    # first is FALSE: conflict. Restore remaining watchers.
                    watchers[j:] = watchers[i + 1:]
                    self.qhead = len(trail)
                    self.num_propagations += props
                    self.propagate_seconds += perf_counter() - t0
                    return cref
                v = first >> 1
                assign[v] = 1 - (first & 1)
                vals[first] = 1
                vals[first ^ 1] = 0
                level[v] = cur_level
                reason[v] = cref
                trail.append(first)
            del watchers[j:]
        self.qhead = qhead
        self.num_propagations += props
        self.propagate_seconds += perf_counter() - t0
        return CREF_NONE

    def _new_decision_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        trail = self.trail
        assign = self.assign
        vals = self.vals
        reason = self.reason
        polarity = self.polarity
        order = self.order
        # Direct position-table access (order._pos) skips a __contains__
        # call per unwound variable; this loop undoes every assignment a
        # restart or backjump retracts, so it runs millions of times.
        pos = order._pos if order is not None else None
        bound = self.trail_lim[target_level]
        for idx in range(len(trail) - 1, bound - 1, -1):
            literal = trail[idx]
            v = literal >> 1
            polarity[v] = (literal & 1) == 0
            assign[v] = UNDEF
            vals[literal] = UNDEF
            vals[literal ^ 1] = UNDEF
            reason[v] = CREF_NONE
            if pos is not None and pos[v] < 0:
                order.insert(v)
        del trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(trail)

    # ------------------------------------------------------------------
    # Conflict analysis (1-UIP)
    # ------------------------------------------------------------------
    def _bump_var(self, v: int) -> None:
        activity = self.activity
        value = activity[v] + self.var_inc
        activity[v] = value
        if value > 1e100:
            for i in range(len(activity)):
                activity[i] *= 1e-100
            self.var_inc *= 1e-100
        order = self.order
        if order is not None:
            # Inlined order.bumped(v): one bound-method call per bump is
            # measurable at analyze rates.
            i = order._pos[v]
            if i >= 0:
                order._sift_up(i)

    def _bump_clause(self, cref: int) -> None:
        if self.arena.bump_activity(cref, self.cla_inc) > 1e20:
            self.arena.rescale_activities(1e-20)
            self.cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """Derive a 1-UIP learnt clause and its backjump level."""
        t0 = perf_counter()
        data = self.arena.data
        level = self.level
        trail = self.trail
        reason = self.reason
        seen = self._seen          # persistent scratch; cleared on exit
        toclear: List[int] = []
        learnt: List[int] = [0]    # placeholder for the asserting literal
        counter = 0
        p = -1                     # no asserting literal yet
        cref = conflict
        index = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            header = data[cref]
            if header & 1:  # learnt
                self._bump_clause(cref)
            base = cref + 2
            # For a reason clause, propagation left the implied literal
            # (= p) at position 0; skip it.  The initial conflict clause
            # (p == -1) is scanned in full.
            start = base if p == -1 else base + 1
            for k in range(start, base + (header >> 2)):
                q = data[k]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    toclear.append(v)
                    self._bump_var(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Select next literal on the trail to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            cref = reason[v]
        learnt[0] = p ^ 1
        # Clause minimization: drop literals implied by the rest.
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q >> 1]
            if r < 0:
                kept.append(q)
                continue
            nq = q ^ 1
            rbase = r + 2
            redundant = True
            for k in range(rbase, rbase + (data[r] >> 2)):
                other = data[k]
                if other == nq:
                    continue
                ov = other >> 1
                if not seen[ov] and level[ov] != 0:
                    redundant = False
                    break
            if not redundant:
                kept.append(q)
        learnt = kept
        for v in toclear:
            seen[v] = 0
        if len(learnt) == 1:
            bt_level = 0
        else:
            # Move the literal with the highest level to position 1.
            max_i = 1
            for k in range(2, len(learnt)):
                if level[learnt[k] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[learnt[1] >> 1]
        self.analyze_seconds += perf_counter() - t0
        return learnt, bt_level

    # ------------------------------------------------------------------
    # Learnt-clause DB reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Drop the lazier half of the learnt DB.

        Deletion only flips the header bit (watchers clean themselves up
        lazily during propagation); when enough of the arena is dead a
        compacting GC runs.  There is no full watcher rebuild here — that
        rebuild made the old representation's reduction quadratic on
        clause-heavy instances."""
        arena = self.arena
        data = arena.data
        acts = arena.activities
        proof = self.proof
        self.learnts.sort(key=lambda c: acts[data[c + 1]])
        keep_from = len(self.learnts) // 2
        removed = 0
        for cref in self.learnts[:keep_from]:
            if (data[cref] >> 2) > 2 and not self._is_reason(cref):
                if proof is not None:
                    proof.delete(arena.literals(cref))
                arena.delete(cref)
                removed += 1
        if removed:
            deleted_bit = 2
            self.learnts = [
                c for c in self.learnts if not data[c] & deleted_bit
            ]
        if arena.should_collect():
            self._garbage_collect()

    def _is_reason(self, cref: int) -> bool:
        first = self.arena.data[cref + 2]
        v = first >> 1
        return self.reason[v] == cref and self.value_lit(first) == TRUE

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int:
        if self.order is None:
            from .heap import ActivityHeap

            self.order = ActivityHeap(self.activity)
            self.order.build(range(self.num_vars))
        assign = self.assign
        order = self.order
        while len(order):
            v = order.pop_max()
            if assign[v] == UNDEF:
                return v
        return -1

    def solve(self, budget: Optional[Budget] = None) -> Optional[bool]:
        """Solve the formula.

        Returns True (SAT), False (UNSAT), or None if the budget ran out.
        ``last_solve_stats`` afterwards holds this call's deltas
        (conflicts/decisions/propagations/restarts/learned plus the
        per-phase second counters) — the per-call view the tracing layer
        records, as opposed to the lifetime totals of :meth:`stats`.
        """
        before = (
            self.num_conflicts,
            self.num_decisions,
            self.num_propagations,
            self.num_restarts,
            self.num_learned,
            self.propagate_seconds,
            self.analyze_seconds,
        )
        try:
            return self._solve(budget)
        finally:
            self.last_solve_stats = {
                "conflicts": self.num_conflicts - before[0],
                "decisions": self.num_decisions - before[1],
                "propagations": self.num_propagations - before[2],
                "restarts": self.num_restarts - before[3],
                "learned": self.num_learned - before[4],
                "propagate_seconds": self.propagate_seconds - before[5],
                "analyze_seconds": self.analyze_seconds - before[6],
            }

    def _solve(self, budget: Optional[Budget]) -> Optional[bool]:
        if not self.ok:
            return False
        self._cancel_until(0)
        proof = self.proof
        conflict = self._propagate()
        if conflict != CREF_NONE:
            if proof is not None:
                proof.add_empty()
            self.ok = False
            return False
        restart_idx = 1
        restart_limit = 32 * luby(restart_idx)
        conflicts_this_restart = 0
        max_learnts = max(1000, len(self.clauses) // 2)
        last_props = self.num_propagations
        while True:
            conflict = self._propagate()
            if conflict != CREF_NONE:
                self.num_conflicts += 1
                conflicts_this_restart += 1
                if budget is not None:
                    budget.note_conflict()
                    if budget.exhausted():
                        self._cancel_until(0)
                        return None
                if not self.trail_lim:
                    if proof is not None:
                        proof.add_empty()
                    self.ok = False
                    return False
                learnt, bt_level = self._analyze(conflict)
                self.num_learned += 1
                if proof is not None:
                    proof.add(learnt)
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], CREF_NONE)
                else:
                    cref = self.arena.alloc(learnt, learnt=True)
                    self.learnts.append(cref)
                    self._watch(cref, len(learnt), learnt[0], learnt[1])
                    self._bump_clause(cref)
                    self._enqueue(learnt[0], cref)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                if len(self.learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue
            if budget is not None:
                # Wall-clock safety net for propagation-heavy solves
                # that rarely conflict (the conflict-path check above
                # would never fire).
                props = self.num_propagations
                if budget.note_propagations(props - last_props):
                    self._cancel_until(0)
                    return None
                last_props = props
            if conflicts_this_restart >= restart_limit:
                if budget is not None and budget.poll():
                    self._cancel_until(0)
                    return None
                self.num_restarts += 1
                restart_idx += 1
                restart_limit = 32 * luby(restart_idx)
                conflicts_this_restart = 0
                self._cancel_until(0)
                continue
            v = self._pick_branch_var()
            if v < 0:
                return True  # all variables assigned: SAT
            self.num_decisions += 1
            self._new_decision_level()
            literal = 2 * v + (0 if self.polarity[v] else 1)
            self._enqueue(literal, CREF_NONE)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model(self) -> List[bool]:
        """The satisfying assignment after a True result (per variable)."""
        return [a == TRUE for a in self.assign]

    def model_value(self, literal: int) -> bool:
        return self.value_lit(literal) == TRUE

    def stats(self) -> Dict[str, float]:
        return {
            "vars": self.num_vars,
            "clauses": len(self.clauses),
            "learnts": len(self.learnts),
            "conflicts": self.num_conflicts,
            "decisions": self.num_decisions,
            "propagations": self.num_propagations,
            "restarts": self.num_restarts,
            "learned": self.num_learned,
            "clauses_added": self.num_clauses_added,
            "arena_words": len(self.arena),
            "arena_gcs": self.num_gcs,
            "propagate_seconds": round(self.propagate_seconds, 6),
            "analyze_seconds": round(self.analyze_seconds, 6),
        }
