"""Unit tests for the flat clause arena and the arena-backed solver
internals (lazy deletion, compaction, activity slots, phase timers)."""

import pytest

from repro.smt.sat import SatSolver, lit, luby
from repro.smt.sat.arena import CREF_NONE, HEADER_WORDS, ClauseArena


class TestArenaLayout:
    def test_alloc_and_read_back(self):
        arena = ClauseArena()
        c1 = arena.alloc([0, 3, 5])
        c2 = arena.alloc([2, 7], learnt=True)
        assert arena.literals(c1) == [0, 3, 5]
        assert arena.literals(c2) == [2, 7]
        assert arena.size(c1) == 3
        assert arena.size(c2) == 2
        assert not arena.is_learnt(c1)
        assert arena.is_learnt(c2)
        assert not arena.is_deleted(c1)
        assert len(arena) == 2 * HEADER_WORDS + 5

    def test_alloc_rejects_units(self):
        arena = ClauseArena()
        with pytest.raises(ValueError):
            arena.alloc([4])

    def test_delete_is_lazy_and_idempotent(self):
        arena = ClauseArena()
        c1 = arena.alloc([0, 2, 4])
        arena.delete(c1)
        assert arena.is_deleted(c1)
        wasted = arena.wasted
        arena.delete(c1)
        assert arena.wasted == wasted  # second delete is a no-op
        # The words are still there until compaction.
        assert len(arena) == HEADER_WORDS + 3

    def test_activity_slots_recycled(self):
        arena = ClauseArena()
        c1 = arena.alloc([0, 2], learnt=True)
        arena.bump_activity(c1, 2.5)
        assert arena.activity(c1) == 2.5
        arena.delete(c1)
        c2 = arena.alloc([4, 6], learnt=True)
        # The freed slot is reused and starts clean.
        assert arena.activity(c2) == 0.0
        assert len(arena.activities) == 1

    def test_input_clause_activity_is_zero(self):
        arena = ClauseArena()
        c1 = arena.alloc([0, 2])
        assert arena.activity(c1) == 0.0

    def test_compact_relocates_and_preserves_activities(self):
        arena = ClauseArena()
        c1 = arena.alloc([0, 2, 4])
        c2 = arena.alloc([1, 3], learnt=True)
        c3 = arena.alloc([5, 7])
        arena.bump_activity(c2, 9.0)
        arena.delete(c1)
        mapping = arena.compact([c1, c2, c3])
        assert c1 not in mapping  # deleted clauses are dropped
        assert arena.literals(mapping[c2]) == [1, 3]
        assert arena.literals(mapping[c3]) == [5, 7]
        assert arena.activity(mapping[c2]) == 9.0
        assert arena.wasted == 0

    def test_should_collect_threshold(self):
        arena = ClauseArena()
        crefs = [arena.alloc([2 * i, 2 * i + 1]) for i in range(10)]
        assert not arena.should_collect()
        for cref in crefs[:6]:
            arena.delete(cref)
        assert arena.should_collect()


class TestSolverArenaIntegration:
    def _php(self, holes):
        """Pigeonhole principle instance (unsat, conflict-heavy)."""
        s = SatSolver()

        def var(p, h):
            return p * holes + h

        for p in range(holes + 1):
            s.add_clause([lit(var(p, h)) for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    s.add_clause(
                        [lit(var(p1, h), False), lit(var(p2, h), False)]
                    )
        return s

    def test_reasons_always_live_after_reduce(self):
        # A conflict-heavy instance exercises _reduce_db and (with the
        # small arena) compaction; the run completing without an index
        # error is the regression check for cref remapping.
        s = self._php(6)
        assert s.solve() is False

    def test_phase_timers_accumulate(self):
        s = self._php(5)
        assert s.solve() is False
        assert s.propagate_seconds > 0.0
        assert s.analyze_seconds > 0.0
        stats = s.stats()
        assert stats["propagate_seconds"] >= 0.0
        assert stats["analyze_seconds"] >= 0.0
        assert "arena_words" in stats
        delta = s.last_solve_stats
        assert delta["propagate_seconds"] > 0.0
        assert delta["analyze_seconds"] > 0.0

    def test_incremental_add_after_solve(self):
        s = SatSolver()
        s.ensure_vars(3)
        s.add_clause([lit(0), lit(1)])
        assert s.solve() is True
        s.add_clause([lit(0, False)])
        s.add_clause([lit(1, False), lit(2)])
        assert s.solve() is True
        m = s.model()
        assert not m[0] and m[1] and m[2]


class TestLubyMemo:
    def _reference(self, i):
        # Direct recurrence, independently of the memoized implementation.
        while True:
            if (i + 1) & i == 0:
                return (i + 1) >> 1
            k = 1
            while (1 << (k + 1)) - 1 < i:
                k += 1
            i -= (1 << k) - 1

    def test_matches_reference_on_long_prefix(self):
        for i in range(1, 300):
            assert luby(i) == self._reference(i)

    def test_memo_stable_on_repeat_calls(self):
        assert luby(63) == self._reference(63)
        assert luby(63) == luby(63)


# ---------------------------------------------------------------------------
# Proof-logging fuzz: every UNSAT verdict must come with a refutation the
# independent RUP checker accepts, checked against the ORIGINAL clause list
# (never solver state).
# ---------------------------------------------------------------------------

class TestProofFuzz:
    TRIALS = 500

    def _random_cnf(self, rng, max_vars=8, max_clauses=24, max_width=4):
        n = rng.randint(1, max_vars)
        m = rng.randint(1, max_clauses)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(max_width, n))
            vs = rng.sample(range(n), width)
            clauses.append([lit(v, rng.random() < 0.5) for v in vs])
        return n, clauses

    def test_every_unsat_yields_checkable_drat(self):
        import random

        from repro.smt.sat.dratcheck import check_drat_text

        rng = random.Random(20260807)
        unsat_seen = 0
        for trial in range(self.TRIALS):
            n, clauses = self._random_cnf(rng)
            s = SatSolver()
            log = s.enable_proof()
            s.ensure_vars(n)
            ok = True
            for clause in clauses:
                if not s.add_clause(clause):
                    ok = False
                    break
            result = s.solve() if ok else False
            if result is not False:
                continue
            unsat_seen += 1
            assert log.has_refutation, (trial, clauses)
            check = check_drat_text(clauses, log.to_drat())
            assert check.verified, (trial, check.reason, clauses)
        # The corpus must actually exercise the UNSAT path.
        assert unsat_seen > 50
