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
    SAT,
    Solver,
    ULE,
    ULT,
    UNSAT,
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
