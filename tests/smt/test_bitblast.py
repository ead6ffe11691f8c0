"""Bit-blasting correctness: solver models must satisfy the original terms
under the Python evaluator, and unsatisfiability must agree with brute
force on small widths."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    And,
    BitVec,
    BitVecVal,
    Bool,
    BvAdd,
    BvAnd,
    BvNot,
    BvOr,
    BvSub,
    BvXor,
    Concat,
    Eq,
    Extract,
    If,
    Implies,
    Not,
    Or,
    SAT,
    Solver,
    ULE,
    ULT,
    UNSAT,
    Xor,
    evaluate,
)


class TestSolverFacade:
    def test_trivial_sat(self):
        s = Solver()
        s.add(Bool("p"))
        assert s.check() == SAT
        assert s.model()[Bool("p")] is True

    def test_trivial_unsat(self):
        s = Solver()
        p = Bool("p")
        s.add(p)
        s.add(Not(p))
        assert s.check() == UNSAT

    def test_model_before_check_raises(self):
        with pytest.raises(RuntimeError):
            Solver().model()

    def test_model_after_add_raises(self):
        # The Model is read off the last check's assignment on the first
        # model() call; an add() ends that assignment.
        s = Solver()
        s.add(Bool("p"))
        assert s.check() == SAT
        assert s.model() is s.model()
        s.add(Bool("q"))
        with pytest.raises(RuntimeError):
            s.model()
        assert s.check() == SAT
        assert s.model()[Bool("q")] is True

    def test_non_bool_assertion_rejected(self):
        with pytest.raises(TypeError):
            Solver().add(BitVec("x", 4))

    def test_model_eval_whole_term(self):
        x = BitVec("mx", 8)
        s = Solver()
        s.add(Eq(BvAdd(x, BitVecVal(1, 8)), BitVecVal(0, 8)))
        assert s.check() == SAT
        m = s.model()
        assert m[x] == 255
        assert m.eval(BvAdd(x, BitVecVal(2, 8))) == 1


class TestArithmetic:
    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_addition_inverse(self, width):
        x = BitVec(f"ax{width}", width)
        y = BitVec(f"ay{width}", width)
        s = Solver()
        s.add(Eq(BvAdd(x, y), BitVecVal(0, width)))
        s.add(Not(Eq(x, BitVecVal(0, width))))
        assert s.check() == SAT
        m = s.model()
        assert (m[x] + m[y]) % (1 << width) == 0

    def test_subtraction_is_add_inverse(self):
        x = BitVec("sx", 8)
        s = Solver()
        s.add(Eq(BvSub(x, BitVecVal(10, 8)), BitVecVal(250, 8)))
        assert s.check() == SAT
        assert (s.model()[x] - 10) & 0xFF == 250

    def test_ult_total_order_unsat(self):
        x, y = BitVec("ox", 6), BitVec("oy", 6)
        s = Solver()
        s.add(ULT(x, y))
        s.add(ULT(y, x))
        assert s.check() == UNSAT

    def test_ule_antisymmetric(self):
        x, y = BitVec("ux", 6), BitVec("uy", 6)
        s = Solver()
        s.add(ULE(x, y))
        s.add(ULE(y, x))
        s.add(Not(Eq(x, y)))
        assert s.check() == UNSAT


# ---------------------------------------------------------------------------
# Property: random formulas, model correctness and brute-force agreement
# ---------------------------------------------------------------------------

def _random_term(rng, variables, depth, width):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(variables)
        return BitVecVal(rng.getrandbits(width), width)
    op = rng.choice(["and", "or", "xor", "add", "sub", "not", "ite"])
    if op == "not":
        return BvNot(_random_term(rng, variables, depth - 1, width))
    if op == "ite":
        cond = Eq(
            _random_term(rng, variables, depth - 1, width),
            _random_term(rng, variables, depth - 1, width),
        )
        return If(
            cond,
            _random_term(rng, variables, depth - 1, width),
            _random_term(rng, variables, depth - 1, width),
        )
    a = _random_term(rng, variables, depth - 1, width)
    b = _random_term(rng, variables, depth - 1, width)
    return {"and": BvAnd, "or": BvOr, "xor": BvXor, "add": BvAdd, "sub": BvSub}[
        op
    ](a, b)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_random_equation_solver_vs_brute_force(seed, width):
    rng = random.Random(seed)
    variables = [BitVec(f"f{seed}_{i}", width) for i in range(2)]
    term = _random_term(rng, variables, 3, width)
    target = rng.getrandbits(width)
    s = Solver()
    s.add(Eq(term, BitVecVal(target, width)))
    result = s.check()
    brute = None
    for combo in itertools.product(range(1 << width), repeat=2):
        env = dict(zip(variables, combo))
        if evaluate(term, env) == target:
            brute = env
            break
    if result == SAT:
        m = s.model()
        env = {v: m[v] for v in variables}
        assert evaluate(term, env) == target
        assert brute is not None
    else:
        assert brute is None


@given(st.integers(min_value=0, max_value=255), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_concat_extract_round_trip_symbolic(value, width):
    value &= (1 << width) - 1
    x = BitVec(f"rc{width}", width)
    s = Solver()
    padded = Concat(BitVecVal(0, 4), x)
    s.add(Eq(Extract(width - 1, 0, padded), BitVecVal(value, width)))
    assert s.check() == SAT
    assert s.model()[x] == value


class TestConstantFolding:
    """Constant-aware gate encodings: when constants reach the blaster
    (the term layer only folds const-const nodes, so const-vs-variable
    structures arrive intact) the gates short-circuit instead of
    emitting Tseitin auxiliaries — fewer clauses, identical answers."""

    def _clause_count(self, term, fold):
        from repro.smt import BitBlaster, SatSolver

        sat = SatSolver()
        BitBlaster(sat, fold_constants=fold).assert_term(term)
        return sat.num_clauses_added

    def _masked_eq(self, width=8, const=0xA6, mask_var="m", val_var="v"):
        # The §6.4-ablation encoder shape that floods the blaster with
        # per-bit constant AND inputs: const & mask == value & mask.
        m = BitVec(mask_var, width)
        v = BitVec(val_var, width)
        return Eq(BvAnd(BitVecVal(const, width), m), BvAnd(v, m))

    def test_masked_eq_emits_fewer_clauses(self):
        term = self._masked_eq()
        folded = self._clause_count(term, True)
        unfolded = self._clause_count(term, False)
        assert folded < unfolded

    def test_ult_against_constant_emits_fewer_clauses(self):
        term = ULT(BitVec("u", 8), BitVecVal(100, 8))
        assert self._clause_count(term, True) < (
            self._clause_count(term, False)
        )

    def test_ite_with_constant_arms_emits_fewer_clauses(self):
        c = Bool("c")
        term = Eq(
            If(c, BitVecVal(3, 4), BitVec("e", 4)),
            BitVec("o", 4),
        )
        assert self._clause_count(term, True) < (
            self._clause_count(term, False)
        )

    def _check_both(self, terms):
        """Solve the same assertions with folding on and off; statuses
        must agree, and a SAT model must satisfy every term."""
        from repro.smt import bitblast as bitblast_mod

        results = {}
        saved = bitblast_mod.FOLD_CONSTANTS
        try:
            for fold in (True, False):
                bitblast_mod.FOLD_CONSTANTS = fold
                s = Solver()
                for t in terms:
                    s.add(t)
                status = s.check()
                model = s.model() if status == SAT else None
                results[fold] = (status, model)
        finally:
            bitblast_mod.FOLD_CONSTANTS = saved
        assert results[True][0] == results[False][0]
        return results

    def test_fold_preserves_sat_and_models(self):
        term = self._masked_eq(const=0x5C)
        extra = ULT(BitVecVal(0, 8), BitVec("m", 8))  # force mask != 0
        results = self._check_both([term, extra])
        assert results[True][0] == SAT
        for _fold, (status, model) in results.items():
            assert model.eval(term) is True

    def test_fold_preserves_unsat(self):
        x = BitVec("x", 4)
        terms = [
            Eq(BvAnd(BitVecVal(0b1010, 4), x), BitVecVal(0b0101, 4)),
        ]
        results = self._check_both(terms)
        assert results[True][0] == UNSAT

    @settings(max_examples=30, deadline=None)
    @given(
        const=st.integers(0, 255),
        pattern=st.integers(0, 255),
        op=st.sampled_from(["and", "or", "xor", "add", "sub"]),
    )
    def test_fold_agrees_with_brute_force(self, const, pattern, op):
        build = {
            "and": BvAnd, "or": BvOr, "xor": BvXor,
            "add": BvAdd, "sub": BvSub,
        }[op]
        x = BitVec(f"bf_{op}", 8)
        term = Eq(build(BitVecVal(const, 8), x), BitVecVal(pattern, 8))
        expect_sat = any(
            evaluate(term, {x: v}) for v in range(256)
        )
        results = self._check_both([term])
        assert (results[True][0] == SAT) == expect_sat


# ---------------------------------------------------------------------------
# Polarity-aware encoding: And/Or gates carry only the halves their uses need
# ---------------------------------------------------------------------------

_PA, _PB, _PC = Bool("pol_a"), Bool("pol_b"), Bool("pol_c")
_PX = BitVec("pol_x", 2)
# Bool variables plus fully-encoded bit-vector atoms, so gate polarity
# meets constant folding and the both-polarity Xor/eq/ult gates.
_POL_ATOMS = (_PA, _PB, _PC, Eq(_PX, BitVecVal(1, 2)), ULT(_PX, BitVecVal(2, 2)))
_POL_ENVS = [
    {_PA: a, _PB: b, _PC: c, _PX: x}
    for a, b, c, x in itertools.product(
        (False, True), (False, True), (False, True), range(4)
    )
]
_POL_BUILD = {
    "and": lambda a, b, c: And(a, b),
    "and3": lambda a, b, c: And(a, b, c),
    "or": lambda a, b, c: Or(b, a),
    "or3": lambda a, b, c: Or(a, b, c),
    "not": lambda a, b, c: Not(a),
    "xor": lambda a, b, c: Xor(a, b),
    "ite": lambda a, b, c: If(a, b, c),
}


class TestPolarity:
    """And/Or gates emit only the implications their uses need (POS:
    literal → term, NEG: term → literal), and a gate later needed in the
    other polarity gains the missing half.  Brute force and ``evaluate``
    are the reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(sorted(_POL_BUILD)),
                st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
            ),
            min_size=1, max_size=12,
        ),
        clauses=st.lists(
            st.lists(
                st.tuples(st.integers(0, 63), st.booleans()),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=6,
        ),
        fold=st.booleans(),
    )
    def test_incremental_shared_formulas_match_brute_force(
        self, steps, clauses, fold
    ):
        # A pool of formulas that share subterms; each assertion is a
        # disjunction of pool formulas or their negations.  A disjunct is
        # encoded as a gate (a lone one is flattened by assert_term), so a
        # subterm first needed in one polarity is often needed in the
        # other by a later assertion.
        from repro.smt import bitblast as bitblast_mod

        pool = list(_POL_ATOMS)
        for op, i, j, k in steps:
            pool.append(_POL_BUILD[op](
                *(pool[n % len(pool)] for n in (i, j, k))
            ))
        saved = bitblast_mod.FOLD_CONSTANTS
        bitblast_mod.FOLD_CONSTANTS = fold
        try:
            s = Solver()
        finally:
            bitblast_mod.FOLD_CONSTANTS = saved
        asserted = []
        for clause in clauses:
            picked = [(pool[i % len(pool)], negate) for i, negate in clause]
            asserted.append(Or(*(Not(t) if n else t for t, n in picked)))
            s.add(asserted[-1])
            expect_sat = any(
                all(evaluate(t, env) for t in asserted) for env in _POL_ENVS
            )
            status = s.check()
            assert status == (SAT if expect_sat else UNSAT)
            if status == SAT:
                model = s.model()
                assert all(model.eval(t) is True for t in asserted)

    def test_gate_gains_the_missing_half(self):
        # x is first needed negatively (under the Not), then positively:
        # Or(x, d) with d false forces x's literal, and only the half
        # emitted on the second use makes that literal imply a and b.
        a, b, c, d = (Bool(f"up_{n}") for n in "abcd")
        x = And(a, b)
        s = Solver()
        s.add(Or(Not(x), c))
        s.add(Or(x, d))
        s.add(Not(d))
        models = 0
        while s.check() == SAT:
            m = s.model()
            assert m[a] and m[b], m
            models += 1
            # Block this assignment to reach every model.
            s.add(Or(*(Not(v) if m[v] else v for v in (a, b, c, d))))
        assert models == 1  # a, b, c true; d false

    def test_negated_and_is_one_clause_without_a_gate(self):
        from repro.smt import BitBlaster, SatSolver
        from repro.smt.sat.clause import neg

        a, b, c = Bool("na_a"), Bool("na_b"), Bool("na_c")
        sat = SatSolver()
        blaster = BitBlaster(sat)
        blaster.assert_term(Not(And(a, b, c)))
        lits = [blaster.bool_lit(v) for v in (a, b, c)]
        assert sat.num_vars == 3
        assert sat.num_clauses_added == 1
        assert [list(sat.arena.literals(cref)) for cref in sat.clauses] == [
            [neg(lit) for lit in lits]
        ]
