"""Unit and property tests for the CDCL SAT solver."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import (
    Budget,
    SatSolver,
    lit,
    lit_from_dimacs,
    luby,
    neg,
    parse_dimacs,
    solver_from_dimacs,
    to_dimacs,
    write_dimacs,
)


def brute_force_sat(num_vars: int, clauses) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[l >> 1] ^ bool(l & 1) for l in c) for c in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Literal encoding
# ---------------------------------------------------------------------------

class TestLiterals:
    def test_positive_literal(self):
        assert lit(0) == 0
        assert lit(3) == 6

    def test_negative_literal(self):
        assert lit(0, False) == 1
        assert lit(3, False) == 7

    def test_negation_is_involution(self):
        for l in range(20):
            assert neg(neg(l)) == l

    def test_dimacs_round_trip(self):
        for d in (1, -1, 5, -17):
            assert to_dimacs(lit_from_dimacs(d)) == d

    def test_dimacs_zero_rejected(self):
        with pytest.raises(ValueError):
            lit_from_dimacs(0)


# ---------------------------------------------------------------------------
# Luby sequence
# ---------------------------------------------------------------------------

def test_luby_prefix():
    expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert [luby(i) for i in range(1, 16)] == expected


def test_luby_large_index_terminates():
    assert luby(10_000) >= 1


# ---------------------------------------------------------------------------
# Basic solving
# ---------------------------------------------------------------------------

class TestBasicSolving:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve() is True

    def test_unit_clause(self):
        s = SatSolver()
        s.add_clause([lit(0)])
        assert s.solve() is True
        assert s.model()[0] is True

    def test_contradictory_units(self):
        s = SatSolver()
        s.add_clause([lit(0)])
        assert s.add_clause([lit(0, False)]) is False
        assert s.solve() is False

    def test_simple_implication_chain(self):
        s = SatSolver()
        n = 20
        s.ensure_vars(n)
        for i in range(n - 1):
            s.add_clause([lit(i, False), lit(i + 1)])  # x_i -> x_{i+1}
        s.add_clause([lit(0)])
        assert s.solve() is True
        assert all(s.model())

    def test_xor_chain_unsat(self):
        # x0 xor x1, x1 xor x2, x0 xor x2 with odd parity is unsat.
        s = SatSolver()
        s.ensure_vars(3)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            s.add_clause([lit(a), lit(b)])
            s.add_clause([lit(a, False), lit(b, False)])
        assert s.solve() is False

    def test_tautological_clause_ignored(self):
        s = SatSolver()
        s.add_clause([lit(0), lit(0, False)])
        assert s.solve() is True

    def test_duplicate_literals_collapse(self):
        s = SatSolver()
        s.add_clause([lit(0), lit(0), lit(0)])
        assert s.solve() is True
        assert s.model()[0] is True


class TestPigeonhole:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_php_unsat(self, n):
        s = SatSolver()

        def var(p, h):
            return p * n + h

        for p in range(n + 1):
            s.add_clause([lit(var(p, h)) for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    s.add_clause(
                        [lit(var(p1, h), False), lit(var(p2, h), False)]
                    )
        assert s.solve() is False


class TestIncremental:
    def test_incremental_clause_addition_after_sat(self):
        s = SatSolver()
        s.ensure_vars(2)
        s.add_clause([lit(0), lit(1)])
        assert s.solve() is True
        s.add_clause([lit(0, False)])
        s.add_clause([lit(1, False)])
        assert s.solve() is False


class TestBudget:
    def test_budget_conflicts_exhausts(self):
        # A hard PHP instance under a tiny conflict budget returns None.
        n = 7
        s = SatSolver()

        def var(p, h):
            return p * n + h

        for p in range(n + 1):
            s.add_clause([lit(var(p, h)) for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    s.add_clause(
                        [lit(var(p1, h), False), lit(var(p2, h), False)]
                    )
        assert s.solve(budget=Budget(max_conflicts=5)) is None

    def test_budget_zero_seconds(self):
        s = SatSolver()
        s.ensure_vars(2)
        s.add_clause([lit(0), lit(1)])
        s.add_clause([lit(0, False), lit(1)])
        s.add_clause([lit(0), lit(1, False)])
        s.add_clause([lit(0, False), lit(1, False)])
        result = s.solve(budget=Budget(max_seconds=0.0))
        assert result in (None, False)


# ---------------------------------------------------------------------------
# Property tests vs. brute force
# ---------------------------------------------------------------------------

@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    num_clauses = draw(st.integers(min_value=1, max_value=30))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            2 * draw(st.integers(min_value=0, max_value=num_vars - 1))
            + draw(st.integers(min_value=0, max_value=1))
            for _ in range(width)
        ]
        clauses.append(clause)
    return num_vars, clauses


@given(cnf_instances())
@settings(max_examples=120, deadline=None)
def test_solver_agrees_with_brute_force(instance):
    num_vars, clauses = instance
    s = SatSolver()
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    result = s.solve() if s.ok else False
    assert result == brute_force_sat(num_vars, clauses)
    if result:
        model = s.model()
        for c in clauses:
            assert any(model[l >> 1] ^ bool(l & 1) for l in c)


def random_cnf(rng, max_vars=8, max_clauses=24, max_width=4):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(max_width, n))
        vs = rng.sample(range(n), width)
        clauses.append([lit(v, rng.random() < 0.5) for v in vs])
    return n, clauses


def build_solver(n, clauses):
    s = SatSolver()
    s.ensure_vars(n)
    for clause in clauses:
        if not s.add_clause(clause):
            break
    return s


def model_satisfies(model, clauses):
    return all(
        any(model[l >> 1] ^ bool(l & 1) for l in clause)
        for clause in clauses
    )


def test_500_random_cnfs_agree_with_brute_force():
    """Wider clauses and more instances than the hypothesis property
    above: every answer is checked against brute-force enumeration and
    every model against the original clauses."""
    rng = random.Random(20260806)
    for trial in range(500):
        n, clauses = random_cnf(rng)
        expect = brute_force_sat(n, clauses)
        s = build_solver(n, clauses)
        result = s.solve() if s.ok else False
        assert result == expect, (trial, clauses)
        if result:
            assert model_satisfies(s.model(), clauses), (
                trial, clauses, s.model()
            )


# ---------------------------------------------------------------------------
# Search trajectory
# ---------------------------------------------------------------------------

def php_clauses(holes):
    """Pigeonhole php(holes): holes + 1 pigeons, provably UNSAT."""

    def var(p, h):
        return p * holes + h

    clauses = [[lit(var(p, h)) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append(
                    [lit(var(p1, h), False), lit(var(p2, h), False)]
                )
    return clauses


def trajectory_corpus():
    """200 random 3-CNFs over 30 variables near the satisfiability
    threshold (110-140 clauses; 140 are SAT), then php(4), php(5) and
    php(6)."""
    rng = random.Random(2025)
    for _ in range(200):
        m = rng.randint(110, 140)
        yield 30, [
            [2 * v + rng.randint(0, 1) for v in rng.sample(range(30), 3)]
            for _ in range(m)
        ]
    for holes in (4, 5, 6):
        yield holes * (holes + 1), php_clauses(holes)


def trajectory(num_vars, clauses):
    """``result conflicts decisions propagations model`` of one solve,
    the model as a hex bitmask over the variables (0 when UNSAT)."""
    s = build_solver(num_vars, clauses)
    result = s.solve() if s.ok else False
    model = 0
    if result:
        for v, value in enumerate(s.model()):
            if value:
                model |= 1 << v
    return (
        f"{'S' if result else 'U'} {s.num_conflicts} {s.num_decisions} "
        f"{s.num_propagations} {model:x}"
    )


def test_search_trajectory_is_pinned():
    """Propagation and decision order are part of the solver's contract:
    a different model changes every CEGIS counterexample downstream, and
    with it every compile's iteration count.  So every instance's search
    counters and model must stay exactly as recorded in
    PINNED_TRAJECTORIES.  A deliberate change to the search regenerates
    the table (one ``trajectory`` line per corpus instance) and says so."""
    rows = PINNED_TRAJECTORIES.strip().splitlines()
    corpus = list(trajectory_corpus())
    assert len(rows) == len(corpus) == 203
    for index, ((num_vars, clauses), row) in enumerate(zip(corpus, rows)):
        assert trajectory(num_vars, clauses) == row, index


# ---------------------------------------------------------------------------
# DIMACS I/O
# ---------------------------------------------------------------------------

class TestDimacs:
    def test_parse_simple(self):
        text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 3
        assert clauses == [[lit(0), lit(1, False)], [lit(1), lit(2)]]

    def test_round_trip(self):
        clauses = [[lit(0), lit(2, False)], [lit(1)]]
        text = write_dimacs(3, clauses)
        num_vars, parsed = parse_dimacs(text)
        assert num_vars == 3
        assert parsed == clauses

    def test_solver_from_dimacs(self):
        s = solver_from_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
        assert s.solve() is True
        assert s.model()[1] is True

    def test_malformed_problem_line(self):
        with pytest.raises(ValueError):
            parse_dimacs("p qbf 1 1\n1 0\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            parse_dimacs("c nothing here\n")


class TestSolverInternals:
    def test_learnt_clause_reduction_preserves_correctness(self):
        # A formula large enough to trigger clause-DB reduction repeatedly,
        # still solved correctly.
        rng = random.Random(42)
        nv, clauses = 40, []
        for _ in range(400):
            clauses.append(
                [2 * rng.randrange(nv) + rng.randint(0, 1) for _ in range(3)]
            )
        s = SatSolver()
        s.ensure_vars(nv)
        ok = True
        for c in clauses:
            ok = s.add_clause(c) and ok
        result = s.solve() if ok else False
        if result:
            model = s.model()
            for c in clauses:
                assert any(model[l >> 1] ^ bool(l & 1) for l in c)

    def test_restarts_happen_on_hard_instances(self):
        n = 6
        s = SatSolver()

        def var(p, h):
            return p * n + h

        for p in range(n + 1):
            s.add_clause([lit(var(p, h)) for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    s.add_clause(
                        [lit(var(p1, h), False), lit(var(p2, h), False)]
                    )
        assert s.solve() is False
        assert s.stats()["restarts"] >= 1
        assert s.stats()["conflicts"] > 100

    def test_stats_keys(self):
        s = SatSolver()
        s.add_clause([lit(0)])
        s.solve()
        stats = s.stats()
        for key in ("vars", "clauses", "learnts", "conflicts",
                    "decisions", "propagations", "restarts"):
            assert key in stats

    def test_solver_reusable_after_unsat_formula(self):
        s = SatSolver()
        s.add_clause([lit(0)])
        assert s.add_clause([lit(0, False)]) is False
        assert s.solve() is False
        # Permanently unsat: further solves stay False, no exceptions.
        assert s.solve() is False


# One row per trajectory_corpus() instance, in order: result (S/U),
# conflicts, decisions, propagations, model bitmask in hex.  The last
# three rows are php(4), php(5) and php(6).
PINNED_TRAJECTORIES = """
U 22 28 211 0
S 17 28 196 22a412bd
U 32 35 281 0
U 25 34 231 0
S 7 17 82 676412e
U 19 22 232 0
S 8 15 81 1cf6402a
S 1 8 31 2606e18
U 31 34 284 0
S 12 16 142 3e96f4eb
S 1 8 51 1d3a1856
S 10 11 124 1903f4f7
S 3 10 41 4873c46
S 1 12 42 535ace
S 8 16 135 a44d7e4
S 6 18 83 168dbf9c
S 14 21 171 1c6dbed0
U 36 38 329 0
S 1 11 31 129fa0
S 8 14 108 3ce9580c
S 9 20 109 339683aa
S 14 18 170 2b4ebd76
U 26 26 246 0
S 8 13 108 b112888
S 8 18 102 f1606fc
S 18 25 175 3ce294c3
S 12 19 137 792cc77
U 14 16 102 0
U 27 27 260 0
S 1 8 34 2a46502
S 11 20 145 196a3537
S 8 13 91 1473696c
S 6 13 82 1f03acd0
U 21 26 204 0
S 1 11 33 28867e
U 28 31 255 0
S 1 8 34 aaacab4
S 11 16 123 10449321
S 8 13 82 276d1150
S 4 14 61 897780
S 6 9 67 1b19cbfe
S 4 9 70 10ff5ea6
S 0 12 30 78b20
S 7 16 87 1d93e928
S 1 12 33 1764e40
U 17 25 149 0
U 23 22 237 0
S 1 9 33 5cbbc54
S 1 8 34 10d0a2ba
U 27 30 276 0
S 6 14 94 19e8df06
U 21 20 199 0
S 0 11 30 46e8a6
S 4 10 56 1fb3314c
S 17 25 196 3154eaf5
S 15 28 180 11f1cc91
S 2 9 50 107307c
S 1 10 34 efeadc
S 14 25 157 28c96dab
S 25 34 267 28c10e62
U 31 32 251 0
S 28 40 317 3c0cc8f6
S 3 12 47 70417da
S 5 14 76 5d9626c
U 24 29 258 0
S 10 15 122 3d7ed6d4
S 8 14 89 2c6e7e80
S 25 37 222 2bf85e69
S 6 18 90 310da862
S 2 8 46 138e8a40
S 7 10 108 346ef62b
S 3 10 47 15b0705e
U 21 21 194 0
U 29 34 273 0
U 39 48 371 0
S 38 44 398 28e6d5cd
S 9 25 93 3711780
U 22 23 243 0
U 24 23 195 0
U 29 31 331 0
S 7 17 72 111f1d00
U 24 25 219 0
S 14 19 140 164e68c2
U 26 27 230 0
U 30 33 294 0
S 17 24 191 2123573a
S 14 18 146 32c7c3ea
S 19 32 208 26afa1c4
S 3 16 43 1db5ca0
S 3 19 65 3cca93a
U 15 16 144 0
S 2 15 48 27c4784
S 5 12 62 f87a250
U 16 18 144 0
S 22 36 220 2dc23225
U 29 30 259 0
S 15 25 186 368a4ae0
S 17 23 174 2ca5b1ab
S 10 19 122 25462004
S 3 19 58 1725484
S 38 53 332 316d9ccd
S 7 15 97 1b96c374
S 21 29 235 6a5319f
S 1 14 51 b6ff504
U 15 14 180 0
S 2 7 44 2f133d8
U 30 33 314 0
S 6 11 87 367a5c78
S 13 19 150 3d7ff467
S 18 26 154 32608879
U 31 39 271 0
S 3 12 64 98b9438
U 28 34 248 0
U 29 32 256 0
U 31 33 246 0
S 9 16 114 2a9c561e
S 12 20 145 173e190a
U 32 33 346 0
U 16 17 136 0
U 32 38 268 0
S 13 14 160 3cfdc366
U 16 19 174 0
S 20 30 205 b360d6d
S 2 9 53 fe832a6
S 6 11 58 316e7374
S 19 29 172 e91ff5e
S 6 18 85 6d2cbf2
S 11 21 114 28cae2b2
S 20 27 206 26a0e54b
S 0 7 30 b1a1d80
S 14 23 186 2fbcfd3
S 5 16 60 8e5574e
S 5 17 61 e2727f2
S 18 24 221 981dc5d
U 33 36 367 0
U 20 21 205 0
S 14 25 154 28a14665
S 6 10 81 1859c41e
S 7 15 94 1bbc6000
S 2 13 43 235bd26
S 3 13 59 18adad0
S 1 9 37 12edcfc
U 24 26 208 0
U 33 35 294 0
S 9 12 119 3d989494
U 22 23 196 0
S 5 17 91 c4b53c4
U 16 18 148 0
S 4 11 54 5179880
U 29 31 273 0
S 17 24 167 35ba69d2
S 25 33 253 2d00fd73
S 12 22 120 329e83bd
S 3 8 60 59e0fc4
U 32 34 342 0
S 3 11 62 744f994
S 0 12 30 138768
U 17 18 174 0
U 22 26 220 0
U 17 17 195 0
S 3 9 60 2eee1d4
S 17 20 208 9d6513
S 21 28 234 16f55ff9
S 0 10 30 21200
S 3 12 75 c2fed0c
U 31 33 308 0
S 5 12 66 1eab6caa
U 25 25 228 0
S 5 13 86 10fe2a5e
S 0 9 30 838f40
S 12 25 129 3aafe2a6
S 8 13 69 1a754d98
S 0 11 30 1902e2
S 9 18 107 61d6fb2
S 11 23 116 46f8826
S 1 16 37 8f07e6
S 21 26 210 13ed5dad
U 20 20 209 0
S 4 11 72 8e290bc
S 10 17 124 1d028e76
U 20 22 195 0
S 16 24 168 217498ed
S 0 12 30 512fcc
S 13 28 140 171df1ee
S 1 12 37 278ce4
U 19 20 174 0
S 22 30 260 16df747e
U 20 22 194 0
U 26 29 208 0
S 5 14 74 1a5645a4
S 5 16 82 2e203816
S 9 14 144 26e6ca2e
S 11 23 135 2896cfd0
S 6 14 108 de48e16
S 0 13 30 d14a0
S 7 14 107 27175aa2
U 40 50 373 0
S 2 16 48 24d566
U 25 27 223 0
U 10 9 93 0
U 28 31 277 0
U 168 219 1909 0
U 1056 1321 12971 0
"""
