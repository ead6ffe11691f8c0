"""DRAT proof logging, the independent RUP checker, and the wall-clock
budget fixes that ride along with them.

The heavyweight end-to-end fuzz (every UNSAT random CNF must yield a
checker-accepted refutation) lives in ``tests/smt/test_arena.py`` next to
the solver-integration fuzz; this module covers the pieces in isolation.
"""

import pytest

from repro.smt.sat import (
    Budget,
    ProofLog,
    SatSolver,
    check_proof,
    lit,
    parse_drat,
)
from repro.smt.sat.dratcheck import check_drat_text


def php_clauses(holes):
    """Pigeonhole php(holes): holes + 1 pigeons, provably UNSAT."""

    def var(p, h):
        return p * holes + h

    clauses = []
    for p in range(holes + 1):
        clauses.append([lit(var(p, h)) for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append(
                    [lit(var(p1, h), False), lit(var(p2, h), False)]
                )
    return clauses


# ---------------------------------------------------------------------------
# ProofLog
# ---------------------------------------------------------------------------

class TestProofLog:
    def test_drat_rendering(self):
        log = ProofLog()
        log.add([lit(0), lit(1, False)])
        log.delete([lit(2)])
        log.add_empty()
        assert log.to_drat() == "1 -2 0\nd 3 0\n0\n"
        assert log.additions == 2
        assert log.deletions == 1
        assert log.clauses_logged == 3
        assert log.has_refutation

    def test_no_refutation_without_empty_clause(self):
        log = ProofLog()
        log.add([lit(0)])
        log.delete([lit(0)])
        assert not log.has_refutation

    def test_input_digest_is_order_sensitive(self):
        a, b = ProofLog(), ProofLog()
        a.log_input([lit(0)])
        a.log_input([lit(1)])
        b.log_input([lit(1)])
        b.log_input([lit(0)])
        assert a.input_digest() != b.input_digest()

    def test_input_dimacs_round_trips(self):
        from repro.smt.sat import parse_dimacs

        log = ProofLog()
        log.log_input([lit(0), lit(2, False)])
        log.log_input([lit(1)])
        num_vars, clauses = parse_dimacs(log.input_dimacs())
        assert num_vars == 3
        assert clauses == [[lit(0), lit(2, False)], [lit(1)]]

    def test_drat_text_round_trips_through_parser(self):
        log = ProofLog()
        log.add([lit(3), lit(4, False)])
        log.delete([lit(0), lit(1)])
        log.add_empty()
        steps = parse_drat(log.to_drat())
        assert steps == [
            (False, [lit(3), lit(4, False)]),
            (True, [lit(0), lit(1)]),
            (False, []),
        ]


class TestParseDrat:
    def test_rejects_unterminated_line(self):
        with pytest.raises(ValueError):
            parse_drat("1 2\n")

    def test_rejects_bad_token(self):
        with pytest.raises(ValueError):
            parse_drat("1 x 0\n")

    def test_empty_text_is_empty_proof(self):
        assert parse_drat("") == []


# ---------------------------------------------------------------------------
# The independent checker
# ---------------------------------------------------------------------------

class TestRupChecker:
    def test_accepts_resolution_refutation(self):
        # (a) ∧ (¬a ∨ b) ∧ (¬b): unit propagation alone refutes it.
        clauses = [[lit(0)], [lit(0, False), lit(1)], [lit(1, False)]]
        result = check_drat_text(clauses, "0\n")
        assert result.verified

    def test_rejects_non_rup_addition(self):
        # (a ∨ b) does not imply (a): asserting ¬a does not conflict.
        clauses = [[lit(0), lit(1)]]
        result = check_drat_text(clauses, "1 0\n0\n")
        assert not result.ok
        assert "not RUP" in result.reason or result.reason

    def test_rejects_proof_without_empty_clause(self):
        clauses = [[lit(0)], [lit(0, False)]]
        result = check_drat_text(clauses, "")
        assert not result.ok

    def test_deletion_weakens_but_stays_sound(self):
        # All four binary clauses over {a, b}: UNSAT, and "1 0\n0\n" is a
        # valid refutation — but not after (a ∨ b) has been deleted
        # (nothing pins it: no root propagation happens here).
        clauses = [
            [lit(0), lit(1)],
            [lit(0), lit(1, False)],
            [lit(0, False), lit(1)],
            [lit(0, False), lit(1, False)],
        ]
        assert check_drat_text(clauses, "1 0\n0\n").verified
        result = check_drat_text(clauses, "d 1 2 0\n1 0\n0\n")
        assert not result.ok

    def test_pinned_reason_deletions_are_ignored(self):
        # (a) root-propagates; deleting the reason clause of a root
        # assignment is ignored (drat-trim semantics) so the later empty
        # clause still verifies.
        clauses = [[lit(0)], [lit(0, False)]]
        result = check_drat_text(clauses, "d 1 0\n0\n")
        assert result.verified
        assert result.deletions_ignored == 1

    def test_checker_shares_no_solver_state(self):
        # The checker consumes plain literal lists — solving the same
        # instance first must not change the verdict.
        clauses = [[lit(0)], [lit(0, False)]]
        s = SatSolver()
        s.ensure_vars(1)
        for c in clauses:
            if not s.add_clause(c):
                break
        assert s.solve() is False
        assert check_drat_text(clauses, "0\n").verified

    def test_check_proof_reports_counts(self):
        clauses = [[lit(0)], [lit(0, False), lit(1)], [lit(1, False)]]
        result = check_proof(2, clauses, [(True, [lit(1, False)]), (False, [])])
        # The deletion targets a reason clause: ignored, then RUP check.
        assert result.additions == 1
        assert result.deletions == 1


# ---------------------------------------------------------------------------
# Solver-side logging
# ---------------------------------------------------------------------------

class TestSolverProofLogging:
    def test_enable_proof_must_precede_clauses(self):
        s = SatSolver()
        s.ensure_vars(1)
        s.add_clause([lit(0)])
        with pytest.raises(ValueError):
            s.enable_proof()

    def test_enable_proof_is_idempotent(self):
        s = SatSolver()
        log = s.enable_proof()
        assert s.enable_proof() is log

    def test_off_by_default(self):
        assert SatSolver().proof is None

    def test_contradictory_units_log_empty_clause(self):
        s = SatSolver()
        log = s.enable_proof()
        s.ensure_vars(1)
        s.add_clause([lit(0)])
        assert not s.add_clause([lit(0, False)])
        assert log.has_refutation
        assert check_drat_text(log.inputs, log.to_drat()).verified

    def test_empty_input_clause_logs_empty_clause(self):
        s = SatSolver()
        log = s.enable_proof()
        assert not s.add_clause([])
        assert log.has_refutation
        assert check_drat_text(log.inputs, log.to_drat()).verified

    def test_learnt_clauses_are_logged_and_check(self):
        # php(4): UNSAT after 28 conflicts, so the log holds 1-UIP learnt
        # clauses but no deletions (DB reduction first runs past 1,000
        # learnt clauses).
        clauses = php_clauses(4)
        s = SatSolver()
        log = s.enable_proof()
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is False
        assert log.additions > 0
        result = check_drat_text(clauses, log.to_drat())
        assert result.verified, result.reason

    def test_db_reduction_deletions_are_logged_and_check(self):
        # php(6): UNSAT after about a thousand conflicts, enough for
        # learnt-DB reduction to delete clauses, so the checker must
        # accept a log that carries the solver's own deletions.
        clauses = php_clauses(6)
        s = SatSolver()
        log = s.enable_proof()
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is False
        assert log.deletions > 0
        result = check_drat_text(clauses, log.to_drat())
        assert result.verified, result.reason


# ---------------------------------------------------------------------------
# Budget wall-clock fixes
# ---------------------------------------------------------------------------

class TestBudgetWallClock:
    def test_poll_trips_on_elapsed_clock(self):
        now = [0.0]
        budget = Budget(max_seconds=5.0, clock=lambda: now[0])
        assert not budget.poll()
        now[0] = 6.0
        assert budget.poll()
        assert budget.exhausted()

    def test_note_propagations_polls_only_at_threshold(self, monkeypatch):
        monkeypatch.setattr(Budget, "PROPS_PER_CLOCK_CHECK", 100)
        now = [0.0]
        budget = Budget(max_seconds=5.0, clock=lambda: now[0])
        now[0] = 10.0
        # Below the threshold the clock is never read.
        assert not budget.note_propagations(99)
        # Crossing it polls and trips.
        assert budget.note_propagations(1)

    def test_note_propagations_without_seconds_budget_is_free(self):
        reads = []

        def clock():
            reads.append(1)
            return 0.0

        budget = Budget(max_conflicts=10, clock=clock)
        baseline = len(reads)
        assert not budget.note_propagations(10**9)
        assert len(reads) == baseline

    def test_propagation_heavy_solve_respects_wall_budget(self, monkeypatch):
        # Regression: a long implication chain propagates thousands of
        # literals off a single decision and produces *no* conflicts, so
        # a budget polled only on conflicts never fires.  The fake clock
        # jumps 10s per read against a 5s budget: the first propagation
        # poll must abort the solve.
        monkeypatch.setattr(Budget, "PROPS_PER_CLOCK_CHECK", 64)
        n = 400
        s = SatSolver()
        s.ensure_vars(n)
        for v in range(n - 1):
            # v_i <-> v_{i+1}: deciding any variable propagates the rest.
            s.add_clause([lit(v, False), lit(v + 1)])
            s.add_clause([lit(v), lit(v + 1, False)])
        now = [0.0]

        def clock():
            now[0] += 10.0
            return now[0]

        result = s.solve(budget=Budget(max_seconds=5.0, clock=clock))
        assert result is None

    def test_satisfiable_chain_completes_without_budget(self):
        n = 400
        s = SatSolver()
        s.ensure_vars(n)
        for v in range(n - 1):
            s.add_clause([lit(v, False), lit(v + 1)])
            s.add_clause([lit(v), lit(v + 1, False)])
        assert s.solve() is True
