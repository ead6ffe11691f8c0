"""Polarity-aware (Plaisted–Greenbaum) Tseitin bit-blasting from the term
layer down to CNF.

Each Bool term maps to one packed SAT literal; each BitVec term maps to a
list of packed literals, least-significant bit first.  The blaster caches
per-term results so shared sub-terms are encoded once (terms are interned,
so the cache is an identity dict).

And/Or gates are encoded by polarity (Plaisted & Greenbaum, "A
structure-preserving clause form translation", 1986): the caller of
:meth:`BitBlaster.bool_lit` names the implications it needs between the
term and its literal, and an And/Or gate emits only the clauses for those.
A term asserted true needs only literal→term (:data:`POS`); a term that
occurs under a negation needs only term→literal (:data:`NEG`).  Children
are requested in their parent's polarity and ``Not`` flips it.  A gate
first encoded in one polarity and later needed in the other gains only
the missing half.  Xor, equality, comparison, if-then-else and every
bit-vector gate are encoded in both polarities.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..resilience.injection import fault_point
from .sat.clause import neg
from .sat.solver import SatSolver
from .terms import BOOL, Not, Term

# Default for constant-aware gate folding (see BitBlaster).  Folding is
# semantics-preserving — it only short-circuits gates whose output is
# already determined — so this stays True.  The unfolded encoding is the
# reference that tests/smt/test_bitblast.py::TestConstantFolding checks
# clause counts, SAT/UNSAT verdicts and models against.
FOLD_CONSTANTS = True

# Polarity bits: which implications between a Bool term and its literal
# the caller of ``bool_lit`` needs.
POS = 1  # literal → term: the term occurs positively (asserted true)
NEG = 2  # term → literal: the term occurs negated
BOTH = POS | NEG
_FLIP = (0, NEG, POS, BOTH)  # the polarity a Not's argument is needed in


class BitBlaster:
    """Incrementally encodes terms into a :class:`SatSolver` instance.

    Gate encodings are **constant-aware**: once the constant literal
    exists, gates fold known-true/known-false inputs (and equal or
    complementary input pairs) before emitting gate auxiliaries.
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
        # Bool term -> (literal, polarity bits already encoded).
        self._bool_cache: Dict[Term, Tuple[int, int]] = {}
        self._bv_cache: Dict[Term, List[int]] = {}
        self._true_lit: int | None = None
        self._fold = (
            FOLD_CONSTANTS if fold_constants is None else fold_constants
        )
        # Structural CNF cache: (output literal, polarity halves emitted)
        # keyed by (op, canonical input-literal tuple).  The term caches
        # above only hash-cons whole terms; across CEGIS iterations the
        # *terms* differ (fresh test constants substituted into the
        # shared candidate circuit) while huge swaths of the gate
        # structure repeat literal-for-literal.  Each half relates the
        # output only to the gate's function of its inputs, and clauses
        # are never retracted (the facade never retracts a clause), so
        # every term that maps to a key can share its output as long as
        # it gets the halves it needs: each half of each distinct gate
        # is emitted at most once.
        self._gate_cache: Dict[tuple, Tuple[int, int]] = {}
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
    def _gate(self, op: str, inputs: List[int], pol: int = BOTH) -> int:
        """The output literal of ``op`` ("and" or "or") over ``inputs``,
        defined by the clauses of polarity ``pol`` only.

        An AND's POS half is one ``¬out ∨ in`` clause per input and its
        NEG half the one clause ``out ∨ ¬in₁ ∨ … ∨ ¬inₙ``; an OR's halves
        are the duals.  The gate cache records which halves a gate has,
        so a later request in another polarity emits only the missing
        one."""
        is_and = op == "and"
        if self._fold:
            # The absorbing constant (False for AND, True for OR) or a
            # complementary pair decides the gate; the other constant
            # and repeated inputs drop out.
            absorbing = not is_and
            seen: set = set()
            folded: List[int] = []
            for l in inputs:
                c = self._lit_const(l)
                if c is absorbing or (l ^ 1) in seen:
                    return self.const_lit(absorbing)
                if c is not None or l in seen:
                    continue
                seen.add(l)
                folded.append(l)
            inputs = folded
        if not inputs:
            return self.const_lit(is_and)
        if len(inputs) == 1:
            return inputs[0]
        key = (op, tuple(sorted(inputs)))
        hit = self._gate_cache.get(key)
        if hit is None:
            out, done = self.fresh_lit(), 0
        else:
            out, done = hit
            pol &= ~done
            if not pol:
                self.gate_cache_hits += 1
                return out
        self._gate_cache[key] = (out, done | pol)
        add = self.solver.add_clause
        if is_and:
            if pol & POS:
                for l in inputs:
                    add([neg(out), l])
            if pol & NEG:
                add([out] + [neg(l) for l in inputs])
        else:
            if pol & NEG:
                for l in inputs:
                    add([neg(l), out])
            if pol & POS:
                add([neg(out)] + inputs)
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
            return hit[0]
        out = self.fresh_lit()
        add = self.solver.add_clause
        add([neg(out), a, b])
        add([neg(out), neg(a), neg(b)])
        add([out, neg(a), b])
        add([out, a, neg(b)])
        self._gate_cache[key] = (out, BOTH)
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
                return self._gate("or", [c, e])
            if ct is False:
                # (c ? 0 : e)  =  ¬c ∧ e
                return self._gate("and", [neg(c), e])
            if ce is True:
                return self._gate("or", [neg(c), t])
            if ce is False:
                return self._gate("and", [c, t])
        # Canonical form: condition stored with positive polarity.
        key = ("ite", c, t, e) if not c & 1 else ("ite", c ^ 1, e, t)
        hit = self._gate_cache.get(key)
        if hit is not None:
            self.gate_cache_hits += 1
            return hit[0]
        out = self.fresh_lit()
        add = self.solver.add_clause
        add([neg(c), neg(t), out])
        add([neg(c), t, neg(out)])
        add([c, neg(e), out])
        add([c, e, neg(out)])
        self._gate_cache[key] = (out, BOTH)
        return out

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        s = self._xor_gate(self._xor_gate(a, b), cin)
        carry = self._gate("or", [
            self._gate("and", [a, b]),
            self._gate("and", [a, cin]),
            self._gate("and", [b, cin]),
        ])
        return s, carry

    # ------------------------------------------------------------------
    # Term encoding
    # ------------------------------------------------------------------
    def bool_lit(self, term: Term, pol: int = BOTH) -> int:
        """The SAT literal representing a Bool term, defined in polarity
        ``pol``: :data:`POS` guarantees literal → term, :data:`NEG`
        term → literal, :data:`BOTH` (the default) equivalence."""
        if term.sort != BOOL:
            raise TypeError(f"bool_lit on non-Bool term {term!r}")
        hit = self._bool_cache.get(term)
        if hit is None:
            done = 0
        else:
            lit, done = hit
            pol &= ~done
            if not pol:
                return lit
        op = term.op
        if op == "not":
            lit = neg(self.bool_lit(term.args[0], _FLIP[pol]))
        elif op == "and" or op == "or":
            lit = self._gate(
                op, [self.bool_lit(a, pol) for a in term.args], pol
            )
        else:
            pol = BOTH
            if op == "const":
                lit = self.const_lit(term.extra[0])
            elif op == "var":
                lit = self.fresh_lit()
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
        self._bool_cache[term] = (lit, done | pol)
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
                lits = [self._gate("and", [x, y]) for x, y in zip(a, b)]
            elif op == "bvor":
                lits = [self._gate("or", [x, y]) for x, y in zip(a, b)]
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
        return neg(self._gate("or", diffs))

    def _encode_ult(self, a: Term, b: Term) -> int:
        la = self.bv_lits(a)
        lb = self.bv_lits(b)
        # Ripple from LSB: lt_i = (~a_i & b_i) | (a_i==b_i) & lt_{i-1}
        lt = self.false_lit()
        for x, y in zip(la, lb):
            strictly = self._gate("and", [neg(x), y])
            equal = neg(self._xor_gate(x, y))
            lt = self._gate("or", [strictly, self._gate("and", [equal, lt])])
        return lt

    # ------------------------------------------------------------------
    # Assertions and model extraction
    # ------------------------------------------------------------------
    def assert_term(self, term: Term) -> None:
        """Assert a Bool term.

        An asserted term is needed only in positive polarity, and
        asserted And/Or structure gets no gate variable of its own: a
        conjunction is asserted conjunct by conjunct, a disjunction
        becomes one clause over its arguments' POS literals, ``Not(Or)``
        asserts each negated argument, and ``Not(And)`` becomes one
        clause over its arguments' negated NEG literals.  This matters
        a great deal for the synthesis encodings, whose leaf
        constraints are negated path guards."""
        fault_point("bitblast")
        op = term.op
        if op == "and":
            for arg in term.args:
                self.assert_term(arg)
            return
        if op == "or":
            self.solver.add_clause([self.bool_lit(a, POS) for a in term.args])
            return
        if op == "not":
            inner = term.args[0]
            if inner.op == "or":
                for arg in inner.args:
                    self.assert_term(Not(arg))
                return
            if inner.op == "and":
                self.solver.add_clause(
                    [neg(self.bool_lit(a, NEG)) for a in inner.args]
                )
                return
        self.solver.add_clause([self.bool_lit(term, POS)])

    def model_bool(self, term: Term) -> bool:
        return self.solver.model_value(self.bool_lit(term))

    def model_bv(self, term: Term) -> int:
        value = 0
        for i, lit in enumerate(self.bv_lits(term)):
            if self.solver.model_value(lit):
                value |= 1 << i
        return value
