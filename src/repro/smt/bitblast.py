"""Tseitin bit-blasting from the term layer down to CNF.

Each Bool term maps to one packed SAT literal; each BitVec term maps to a
list of packed literals, least-significant bit first.  The blaster caches
per-term results so shared sub-terms are encoded once (terms are interned,
so the cache is an identity dict).
"""

from __future__ import annotations

from typing import Dict, List

from ..resilience.injection import fault_point
from .sat.clause import neg
from .sat.solver import SatSolver
from .terms import BOOL, Term

# Default for constant-aware gate folding (see BitBlaster).  Folding is
# semantics-preserving — it only short-circuits gates whose output is
# already determined — so this stays True.  The unfolded encoding is the
# reference that tests/smt/test_bitblast.py::TestConstantFolding checks
# clause counts, SAT/UNSAT verdicts and models against.
FOLD_CONSTANTS = True


class BitBlaster:
    """Incrementally encodes terms into a :class:`SatSolver` instance.

    Gate encodings are **constant-aware**: once the constant literal
    exists, gates fold known-true/known-false inputs (and equal or
    complementary input pairs) before emitting Tseitin auxiliaries.
    Constant inputs are common in the synthesis encodings — test
    constraints substitute concrete input bits into the shared candidate
    circuit — and every folded gate saves an auxiliary variable and its
    defining clauses without changing any SAT/UNSAT answer.
    """

    def __init__(
        self,
        solver: SatSolver,
        fold_constants: bool | None = None,
    ) -> None:
        self.solver = solver
        self._bool_cache: Dict[Term, int] = {}
        self._bv_cache: Dict[Term, List[int]] = {}
        self._true_lit: int | None = None
        self._fold = (
            FOLD_CONSTANTS if fold_constants is None else fold_constants
        )
        # Structural CNF cache: gate outputs keyed by (op, canonical
        # input-literal tuple).  The term caches above only hash-cons
        # whole terms; across CEGIS iterations the *terms* differ (fresh
        # test constants substituted into the shared candidate circuit)
        # while huge swaths of the gate structure repeat literal-for-
        # literal.  A Tseitin output is functionally determined by its
        # inputs and its defining clauses are never retracted (the
        # facade never retracts a clause), so reusing the output literal
        # is always sound and emits each distinct gate exactly once.
        self._gate_cache: Dict[tuple, int] = {}
        self.gate_cache_hits = 0

    # ------------------------------------------------------------------
    # Literal helpers
    # ------------------------------------------------------------------
    def fresh_lit(self) -> int:
        return 2 * self.solver.new_var()

    def true_lit(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.fresh_lit()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def false_lit(self) -> int:
        return neg(self.true_lit())

    def const_lit(self, value: bool) -> int:
        return self.true_lit() if value else self.false_lit()

    def _lit_const(self, l: int) -> bool | None:
        """True/False when ``l`` is the constant literal (or its
        negation); None otherwise.  Never allocates the constant — before
        it exists, no literal can be it."""
        t = self._true_lit
        if t is None:
            return None
        if l == t:
            return True
        if l == (t ^ 1):
            return False
        return None

    # ------------------------------------------------------------------
    # Gate encodings
    # ------------------------------------------------------------------
    def _and_gate(self, inputs: List[int]) -> int:
        if self._fold:
            seen: set = set()
            folded: List[int] = []
            for l in inputs:
                c = self._lit_const(l)
                if c is False or (l ^ 1) in seen:
                    return self.false_lit()
                if c is True or l in seen:
                    continue
                seen.add(l)
                folded.append(l)
            inputs = folded
        else:
            inputs = [l for l in inputs]
        if not inputs:
            return self.true_lit()
        if len(inputs) == 1:
            return inputs[0]
        key = ("and", tuple(sorted(inputs)))
        hit = self._gate_cache.get(key)
        if hit is not None:
            self.gate_cache_hits += 1
            return hit
        out = self.fresh_lit()
        add = self.solver.add_clause
        for l in inputs:
            add([neg(out), l])
        add([out] + [neg(l) for l in inputs])
        self._gate_cache[key] = out
        return out

    def _xor_gate(self, a: int, b: int) -> int:
        if self._fold:
            ca = self._lit_const(a)
            cb = self._lit_const(b)
            if ca is not None:
                if cb is not None:
                    return self.const_lit(ca != cb)
                return neg(b) if ca else b
            if cb is not None:
                return neg(a) if cb else a
            if a == b:
                return self.false_lit()
            if a == (b ^ 1):
                return self.true_lit()
        key = ("xor", a, b) if a <= b else ("xor", b, a)
        hit = self._gate_cache.get(key)
        if hit is not None:
            self.gate_cache_hits += 1
            return hit
        out = self.fresh_lit()
        add = self.solver.add_clause
        add([neg(out), a, b])
        add([neg(out), neg(a), neg(b)])
        add([out, neg(a), b])
        add([out, a, neg(b)])
        self._gate_cache[key] = out
        return out

    def _ite_gate(self, c: int, t: int, e: int) -> int:
        if self._fold:
            cc = self._lit_const(c)
            if cc is not None:
                return t if cc else e
            if t == e:
                return t
            ct = self._lit_const(t)
            ce = self._lit_const(e)
            if ct is True:
                # (c ? 1 : e)  =  c ∨ e
                return self._or_gate_list([c, e])
            if ct is False:
                # (c ? 0 : e)  =  ¬c ∧ e
                return self._and_gate([neg(c), e])
            if ce is True:
                return self._or_gate_list([neg(c), t])
            if ce is False:
                return self._and_gate([c, t])
        # Canonical form: condition stored with positive polarity.
        key = ("ite", c, t, e) if not c & 1 else ("ite", c ^ 1, e, t)
        hit = self._gate_cache.get(key)
        if hit is not None:
            self.gate_cache_hits += 1
            return hit
        out = self.fresh_lit()
        add = self.solver.add_clause
        add([neg(c), neg(t), out])
        add([neg(c), t, neg(out)])
        add([c, neg(e), out])
        add([c, e, neg(out)])
        self._gate_cache[key] = out
        return out

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        s = self._xor_gate(self._xor_gate(a, b), cin)
        carry = self._or_gate_list(
            [self._and_gate([a, b]), self._and_gate([a, cin]), self._and_gate([b, cin])]
        )
        return s, carry

    def _or_gate_list(self, inputs: List[int]) -> int:
        if self._fold:
            seen: set = set()
            folded: List[int] = []
            for l in inputs:
                c = self._lit_const(l)
                if c is True or (l ^ 1) in seen:
                    return self.true_lit()
                if c is False or l in seen:
                    continue
                seen.add(l)
                folded.append(l)
            inputs = folded
        if not inputs:
            return self.false_lit()
        if len(inputs) == 1:
            return inputs[0]
        key = ("or", tuple(sorted(inputs)))
        hit = self._gate_cache.get(key)
        if hit is not None:
            self.gate_cache_hits += 1
            return hit
        out = self.fresh_lit()
        add = self.solver.add_clause
        for l in inputs:
            add([neg(l), out])
        add([neg(out)] + inputs)
        self._gate_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # Term encoding
    # ------------------------------------------------------------------
    def bool_lit(self, term: Term) -> int:
        """The SAT literal representing a Bool term."""
        if term.sort != BOOL:
            raise TypeError(f"bool_lit on non-Bool term {term!r}")
        hit = self._bool_cache.get(term)
        if hit is not None:
            return hit
        op = term.op
        if op == "const":
            lit = self.const_lit(term.extra[0])
        elif op == "var":
            lit = self.fresh_lit()
        elif op == "not":
            lit = neg(self.bool_lit(term.args[0]))
        elif op == "and":
            lit = self._and_gate([self.bool_lit(a) for a in term.args])
        elif op == "or":
            lit = self._or_gate_list([self.bool_lit(a) for a in term.args])
        elif op == "xor":
            lit = self._xor_gate(
                self.bool_lit(term.args[0]), self.bool_lit(term.args[1])
            )
        elif op == "eq":
            lit = self._encode_eq(term.args[0], term.args[1])
        elif op == "ult":
            lit = self._encode_ult(term.args[0], term.args[1])
        else:
            raise NotImplementedError(f"bool_lit: op {op}")
        self._bool_cache[term] = lit
        return lit

    def bv_lits(self, term: Term) -> List[int]:
        """The SAT literals (LSB-first) representing a BitVec term."""
        if term.sort == BOOL:
            raise TypeError(f"bv_lits on Bool term {term!r}")
        hit = self._bv_cache.get(term)
        if hit is not None:
            return hit
        op = term.op
        if op == "const":
            value = term.extra[0]
            lits = [self.const_lit(bool((value >> i) & 1)) for i in range(term.width)]
        elif op == "var":
            lits = [self.fresh_lit() for _ in range(term.width)]
        elif op == "bvnot":
            lits = [neg(l) for l in self.bv_lits(term.args[0])]
        elif op in ("bvand", "bvor", "bvxor"):
            a = self.bv_lits(term.args[0])
            b = self.bv_lits(term.args[1])
            if op == "bvand":
                lits = [self._and_gate([x, y]) for x, y in zip(a, b)]
            elif op == "bvor":
                lits = [self._or_gate_list([x, y]) for x, y in zip(a, b)]
            else:
                lits = [self._xor_gate(x, y) for x, y in zip(a, b)]
        elif op == "bvadd":
            a = self.bv_lits(term.args[0])
            b = self.bv_lits(term.args[1])
            lits = []
            carry = self.false_lit()
            for x, y in zip(a, b):
                s, carry = self._full_adder(x, y, carry)
                lits.append(s)
        elif op == "bvsub":
            a = self.bv_lits(term.args[0])
            b = self.bv_lits(term.args[1])
            lits = []
            carry = self.true_lit()  # a + ~b + 1
            for x, y in zip(a, b):
                s, carry = self._full_adder(x, neg(y), carry)
                lits.append(s)
        elif op == "shl":
            a = self.bv_lits(term.args[0])
            k = term.extra[0]
            lits = [self.false_lit()] * k + a[: term.width - k]
        elif op == "lshr":
            a = self.bv_lits(term.args[0])
            k = term.extra[0]
            lits = a[k:] + [self.false_lit()] * k
        elif op == "concat":
            # First arg is most significant: reverse for LSB-first layout.
            lits = []
            for part in reversed(term.args):
                lits.extend(self.bv_lits(part))
        elif op == "extract":
            hi, lo = term.extra
            lits = self.bv_lits(term.args[0])[lo : hi + 1]
        elif op == "ite":
            c = self.bool_lit(term.args[0])
            t = self.bv_lits(term.args[1])
            e = self.bv_lits(term.args[2])
            lits = [self._ite_gate(c, x, y) for x, y in zip(t, e)]
        else:
            raise NotImplementedError(f"bv_lits: op {op}")
        self._bv_cache[term] = lits
        return lits

    def _encode_eq(self, a: Term, b: Term) -> int:
        la = self.bv_lits(a)
        lb = self.bv_lits(b)
        diffs = [self._xor_gate(x, y) for x, y in zip(la, lb)]
        return neg(self._or_gate_list(diffs))

    def _encode_ult(self, a: Term, b: Term) -> int:
        la = self.bv_lits(a)
        lb = self.bv_lits(b)
        # Ripple from LSB: lt_i = (~a_i & b_i) | (a_i==b_i) & lt_{i-1}
        lt = self.false_lit()
        for x, y in zip(la, lb):
            strictly = self._and_gate([neg(x), y])
            equal = neg(self._xor_gate(x, y))
            lt = self._or_gate_list([strictly, self._and_gate([equal, lt])])
        return lt

    # ------------------------------------------------------------------
    # Assertions and model extraction
    # ------------------------------------------------------------------
    def assert_term(self, term: Term) -> None:
        """Assert a Bool term.

        Top-level conjunctions are asserted conjunct-by-conjunct and
        top-level disjunctions become a single clause over their arguments'
        literals — avoiding one Tseitin auxiliary variable per asserted
        constraint, which matters a great deal for the one-hot-heavy
        synthesis encodings."""
        fault_point("bitblast")
        if term.op == "and":
            for arg in term.args:
                self.assert_term(arg)
            return
        if term.op == "or":
            self.solver.add_clause([self.bool_lit(a) for a in term.args])
            return
        self.solver.add_clause([self.bool_lit(term)])

    def model_bool(self, term: Term) -> bool:
        return self.solver.model_value(self.bool_lit(term))

    def model_bv(self, term: Term) -> int:
        value = 0
        for i, lit in enumerate(self.bv_lits(term)):
            if self.solver.model_value(lit):
                value |= 1 << i
        return value
