"""Term layer of the SMT substrate: Booleans and fixed-width bit-vectors.

This module provides a small, z3py-flavoured expression API (``BitVec``,
``BitVecVal``, ``Bool``, ``And``, ``If``, ``Extract`` ...) over immutable,
hash-consed terms with aggressive constant folding.  Terms are bit-blasted
to CNF by :mod:`repro.smt.bitblast` and solved with the CDCL solver in
:mod:`repro.smt.sat`.

The paper's ParserHawk builds all of its synthesis and verification formulas
in z3py; this layer is the drop-in substrate for the same role.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

BOOL = "Bool"


class Term:
    """An immutable expression node.

    ``sort`` is either the string ``"Bool"`` or an integer bit-width.
    Terms are interned: structurally identical terms are the same object,
    which makes equality checks and bit-blasting caches cheap.
    """

    __slots__ = ("op", "args", "extra", "sort", "_hash", "_neg")

    _interned: Dict[tuple, "Term"] = {}

    def __new__(
        cls,
        op: str,
        args: Tuple["Term", ...],
        extra: tuple,
        sort: Union[str, int],
    ) -> "Term":
        key = (op, args, extra, sort)
        found = cls._interned.get(key)
        if found is not None:
            return found
        self = object.__new__(cls)
        self.op = op
        self.args = args
        self.extra = extra
        self.sort = sort
        self._hash = hash(key)
        # Memoized negation (filled in by Not); the synthesis encodings
        # negate the same guard terms tens of thousands of times per
        # compile, so one slot beats re-interning a ("not", ...) key.
        self._neg = None
        cls._interned[key] = self
        return self

    # -- generic helpers -------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    @property
    def width(self) -> int:
        if self.sort == BOOL:
            raise TypeError("width of a Bool term")
        return self.sort

    @property
    def is_bool(self) -> bool:
        return self.sort == BOOL

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def value(self) -> int:
        if not self.is_const:
            raise TypeError(f"not a constant: {self!r}")
        return self.extra[0]

    @property
    def name(self) -> str:
        if self.op != "var":
            raise TypeError(f"not a variable: {self!r}")
        return self.extra[0]

    # -- operator overloading --------------------------------------------
    # NOTE: unlike z3py, ``==`` is *not* overloaded to build equations.
    # Terms are interned, so Python equality is structural equality via
    # identity, which keeps sets/dicts/`in` checks sound.  Build equations
    # with the explicit :func:`Eq`.
    def __and__(self, other):
        other = _coerce(other, self.sort)
        return BvAnd(self, other) if not self.is_bool else And(self, other)

    def __rand__(self, other):
        return self.__and__(other)

    def __or__(self, other):
        other = _coerce(other, self.sort)
        return BvOr(self, other) if not self.is_bool else Or(self, other)

    def __ror__(self, other):
        return self.__or__(other)

    def __xor__(self, other):
        other = _coerce(other, self.sort)
        return BvXor(self, other) if not self.is_bool else Xor(self, other)

    def __invert__(self):
        return Not(self) if self.is_bool else BvNot(self)

    def __add__(self, other):
        return BvAdd(self, _coerce(other, self.sort))

    def __radd__(self, other):
        return BvAdd(_coerce(other, self.sort), self)

    def __sub__(self, other):
        return BvSub(self, _coerce(other, self.sort))

    def __rsub__(self, other):
        return BvSub(_coerce(other, self.sort), self)

    def __lshift__(self, amount: int):
        return Shl(self, amount)

    def __rshift__(self, amount: int):
        return Lshr(self, amount)

    def __repr__(self) -> str:
        return _render(self)


def _render(t: Term, depth: int = 0) -> str:
    if depth > 6:
        return "..."
    if t.op == "var":
        return t.extra[0]
    if t.op == "const":
        if t.sort == BOOL:
            return "true" if t.extra[0] else "false"
        return f"{t.extra[0]}#{t.sort}"
    if t.op == "extract":
        hi, lo = t.extra
        return f"{_render(t.args[0], depth + 1)}[{hi}:{lo}]"
    inner = " ".join(_render(a, depth + 1) for a in t.args)
    extra = "".join(f" {e}" for e in t.extra)
    return f"({t.op}{extra} {inner})"


def _coerce(value, sort) -> Term:
    if isinstance(value, Term):
        return value
    if sort == BOOL:
        return BoolVal(bool(value))
    return BitVecVal(int(value), sort)


_MASKS: Dict[int, int] = {}


def _mask(width: int) -> int:
    m = _MASKS.get(width)
    if m is None:
        m = (1 << width) - 1
        _MASKS[width] = m
    return m


# ---------------------------------------------------------------------------
# Constructors: atoms
# ---------------------------------------------------------------------------

def Bool(name: str) -> Term:
    """A fresh (named) Boolean variable."""
    return Term("var", (), (name,), BOOL)


def BoolVal(value: bool) -> Term:
    return Term("const", (), (bool(value),), BOOL)


TRUE = BoolVal(True)
FALSE = BoolVal(False)


def BitVec(name: str, width: int) -> Term:
    """A named bit-vector variable of the given width."""
    if width <= 0:
        raise ValueError(f"bit-vector width must be positive, got {width}")
    return Term("var", (), (name,), width)


def BitVecVal(value: int, width: int) -> Term:
    if width <= 0:
        raise ValueError(f"bit-vector width must be positive, got {width}")
    return Term("const", (), (value & _mask(width),), width)


# ---------------------------------------------------------------------------
# Boolean connectives (with folding)
# ---------------------------------------------------------------------------

def Not(a: Term) -> Term:
    try:
        neg = a._neg
    except AttributeError:
        _expect_bool(a, "Not")  # raises TypeError for non-Term inputs
        raise
    if neg is not None:
        return neg
    _expect_bool(a, "Not")
    if a.is_const:
        neg = BoolVal(not a.value)
    elif a.op == "not":
        neg = a.args[0]
    else:
        neg = Term("not", (a,), (), BOOL)
    a._neg = neg
    neg._neg = a
    return neg


def And(*args) -> Term:
    terms = _flatten_bool(args, "and")
    seen = set()
    out = []
    for t in terms:
        if t.is_const:
            if not t.value:
                return FALSE
            continue
        if t not in seen:
            seen.add(t)
            out.append(t)
    # Complementary-pair folding without constructing Not(t) per element:
    # if both x and ¬x survived dedup, the iteration reaches the "not"
    # node and finds its argument in `seen`.
    for t in out:
        if t.op == "not" and t.args[0] in seen:
            return FALSE
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return Term("and", tuple(out), (), BOOL)


def Or(*args) -> Term:
    terms = _flatten_bool(args, "or")
    seen = set()
    out = []
    for t in terms:
        if t.is_const:
            if t.value:
                return TRUE
            continue
        if t not in seen:
            seen.add(t)
            out.append(t)
    for t in out:
        if t.op == "not" and t.args[0] in seen:
            return TRUE
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Term("or", tuple(out), (), BOOL)


def Xor(a: Term, b: Term) -> Term:
    _expect_bool(a, "Xor")
    _expect_bool(b, "Xor")
    if a.is_const and b.is_const:
        return BoolVal(a.value != b.value)
    if a.is_const:
        return Not(b) if a.value else b
    if b.is_const:
        return Not(a) if b.value else a
    if a is b:
        return FALSE
    return Term("xor", (a, b), (), BOOL)


def Implies(a: Term, b: Term) -> Term:
    return Or(Not(a), b)


def Iff(a: Term, b: Term) -> Term:
    return Not(Xor(a, b))


def _flatten_bool(args: Sequence, op: str):
    out = []
    stack = list(args)
    stack.reverse()
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(reversed(item))
            continue
        if isinstance(item, bool):
            item = BoolVal(item)
        if not isinstance(item, Term) or not item.is_bool:
            raise TypeError(f"{op} expects Bool terms, got {item!r}")
        if item.op == op:
            out.extend(item.args)
        else:
            out.append(item)
    return out


def _expect_bool(t: Term, op: str) -> None:
    if not isinstance(t, Term) or not t.is_bool:
        raise TypeError(f"{op} expects a Bool term, got {t!r}")


def _expect_bv(t: Term, op: str) -> None:
    if not isinstance(t, Term) or t.is_bool:
        raise TypeError(f"{op} expects a BitVec term, got {t!r}")


def _expect_same_width(a: Term, b: Term, op: str) -> None:
    _expect_bv(a, op)
    _expect_bv(b, op)
    if a.width != b.width:
        raise TypeError(f"{op}: width mismatch {a.width} vs {b.width}")


# ---------------------------------------------------------------------------
# Bit-vector operations (with folding)
# ---------------------------------------------------------------------------

def BvNot(a: Term) -> Term:
    _expect_bv(a, "BvNot")
    if a.is_const:
        return BitVecVal(~a.value, a.width)
    if a.op == "bvnot":
        return a.args[0]
    return Term("bvnot", (a,), (), a.width)


def _bv_binary(op: str, a: Term, b: Term, fold) -> Term:
    _expect_same_width(a, b, op)
    if a.is_const and b.is_const:
        return BitVecVal(fold(a.value, b.value), a.width)
    return Term(op, (a, b), (), a.width)


def BvAnd(a: Term, b: Term) -> Term:
    _expect_same_width(a, b, "bvand")
    if a.is_const and a.value == 0:
        return a
    if b.is_const and b.value == 0:
        return b
    if a.is_const and a.value == _mask(a.width):
        return b
    if b.is_const and b.value == _mask(b.width):
        return a
    if a is b:
        return a
    return _bv_binary("bvand", a, b, lambda x, y: x & y)


def BvOr(a: Term, b: Term) -> Term:
    _expect_same_width(a, b, "bvor")
    if a.is_const and a.value == 0:
        return b
    if b.is_const and b.value == 0:
        return a
    if a is b:
        return a
    return _bv_binary("bvor", a, b, lambda x, y: x | y)


def BvXor(a: Term, b: Term) -> Term:
    _expect_same_width(a, b, "bvxor")
    if a.is_const and a.value == 0:
        return b
    if b.is_const and b.value == 0:
        return a
    if a is b:
        return BitVecVal(0, a.width)
    return _bv_binary("bvxor", a, b, lambda x, y: x ^ y)


def BvAdd(a: Term, b: Term) -> Term:
    _expect_same_width(a, b, "bvadd")
    if a.is_const and a.value == 0:
        return b
    if b.is_const and b.value == 0:
        return a
    return _bv_binary("bvadd", a, b, lambda x, y: x + y)


def BvSub(a: Term, b: Term) -> Term:
    _expect_same_width(a, b, "bvsub")
    if b.is_const and b.value == 0:
        return a
    if a is b:
        return BitVecVal(0, a.width)
    return _bv_binary("bvsub", a, b, lambda x, y: x - y)


def Shl(a: Term, amount: int) -> Term:
    _expect_bv(a, "Shl")
    amount = int(amount)
    if amount == 0:
        return a
    if amount >= a.width:
        return BitVecVal(0, a.width)
    if a.is_const:
        return BitVecVal(a.value << amount, a.width)
    return Term("shl", (a,), (amount,), a.width)


def Lshr(a: Term, amount: int) -> Term:
    _expect_bv(a, "Lshr")
    amount = int(amount)
    if amount == 0:
        return a
    if amount >= a.width:
        return BitVecVal(0, a.width)
    if a.is_const:
        return BitVecVal(a.value >> amount, a.width)
    return Term("lshr", (a,), (amount,), a.width)


def Concat(*parts) -> Term:
    """Concatenate bit-vectors; the FIRST argument holds the MOST
    significant bits (matching z3/SMT-LIB convention)."""
    flat = []
    for p in parts:
        if isinstance(p, (list, tuple)):
            flat.extend(p)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("Concat of nothing")
    for p in flat:
        _expect_bv(p, "Concat")
    if len(flat) == 1:
        return flat[0]
    if all(p.is_const for p in flat):
        value = 0
        width = 0
        for p in flat:
            value = (value << p.width) | p.value
            width += p.width
        return BitVecVal(value, width)
    width = sum(p.width for p in flat)
    return Term("concat", tuple(flat), (), width)


def Extract(hi: int, lo: int, a: Term) -> Term:
    """Bits a[hi:lo] inclusive (z3 convention), width hi-lo+1."""
    _expect_bv(a, "Extract")
    if not 0 <= lo <= hi < a.width:
        raise ValueError(f"Extract({hi}, {lo}) out of range for width {a.width}")
    if lo == 0 and hi == a.width - 1:
        return a
    if a.is_const:
        return BitVecVal(a.value >> lo, hi - lo + 1)
    if a.op == "extract":
        inner_hi, inner_lo = a.extra
        return Extract(inner_lo + hi, inner_lo + lo, a.args[0])
    if a.op == "concat":
        # Push extraction through concatenation when it stays in one part.
        offset = a.width
        for part in a.args:
            offset -= part.width
            if lo >= offset and hi < offset + part.width:
                return Extract(hi - offset, lo - offset, part)
    return Term("extract", (a,), (hi, lo), hi - lo + 1)


def ZeroExt(extra_bits: int, a: Term) -> Term:
    _expect_bv(a, "ZeroExt")
    if extra_bits == 0:
        return a
    if extra_bits < 0:
        raise ValueError("ZeroExt needs a non-negative bit count")
    return Concat(BitVecVal(0, extra_bits), a)


# ---------------------------------------------------------------------------
# Relations and conditionals
# ---------------------------------------------------------------------------

def Eq(a: Term, b: Term) -> Term:
    if isinstance(a, Term) and isinstance(b, (int, bool)):
        b = _coerce(b, a.sort)
    if isinstance(b, Term) and isinstance(a, (int, bool)):
        a = _coerce(a, b.sort)
    if a.sort != b.sort:
        raise TypeError(f"Eq: sort mismatch {a.sort} vs {b.sort}")
    if a is b:
        return TRUE
    if a.is_bool:
        return Iff(a, b)
    if a.is_const and b.is_const:
        return BoolVal(a.value == b.value)
    return Term("eq", (a, b), (), BOOL)


def ULT(a: Term, b: Term) -> Term:
    _expect_same_width(a, b, "ULT")
    if a.is_const and b.is_const:
        return BoolVal(a.value < b.value)
    if b.is_const and b.value == 0:
        return FALSE
    if a is b:
        return FALSE
    return Term("ult", (a, b), (), BOOL)


def ULE(a: Term, b: Term) -> Term:
    _expect_same_width(a, b, "ULE")
    if a.is_const and b.is_const:
        return BoolVal(a.value <= b.value)
    if a.is_const and a.value == 0:
        return TRUE
    if a is b:
        return TRUE
    return Not(ULT(b, a))


def UGT(a: Term, b: Term) -> Term:
    return ULT(b, a)


def UGE(a: Term, b: Term) -> Term:
    return ULE(b, a)


def If(cond: Term, then_t, else_t) -> Term:
    _expect_bool(cond, "If")
    if isinstance(then_t, Term):
        else_t = _coerce(else_t, then_t.sort)
    elif isinstance(else_t, Term):
        then_t = _coerce(then_t, else_t.sort)
    else:
        raise TypeError("If needs at least one Term branch")
    if then_t.sort != else_t.sort:
        raise TypeError(f"If: sort mismatch {then_t.sort} vs {else_t.sort}")
    if cond.is_const:
        return then_t if cond.value else else_t
    if then_t is else_t:
        return then_t
    if then_t.sort == BOOL:
        return Or(And(cond, then_t), And(Not(cond), else_t))
    return Term("ite", (cond, then_t, else_t), (), then_t.sort)


def PopCountAtMost(bits: Sequence[Term], k: int) -> Term:
    """True when at most ``k`` of the Bool terms are true (small-n encoding)."""
    bits = list(bits)
    if k >= len(bits):
        return TRUE
    if k < 0:
        return FALSE
    # Sequential counter would be smaller, but benchmark sizes are tiny.
    import itertools

    violations = []
    for combo in itertools.combinations(bits, k + 1):
        violations.append(And(*combo))
    return Not(Or(*violations))


_FRESH_COUNTER = [0]


def _fresh_bool(prefix: str) -> Term:
    _FRESH_COUNTER[0] += 1
    return Bool(f"__{prefix}{_FRESH_COUNTER[0]}")


# AtMostOne over the same input tuple recurs constantly in the synthesis
# encodings (every CEGIS iteration re-asserts the selector one-hots), and
# the large-input encoding mints fresh auxiliary variables per call —
# identical inputs would otherwise blow up the variable count linearly in
# the iteration count.  Memoizing on the interned input terms returns the
# exact same term (and the same auxiliaries), which downstream hash-consed
# bit-blasting then encodes exactly once.  Re-asserting a returned term is
# idempotent, so sharing auxiliaries keeps the documented positive-
# assertion-only contract sound.
_AMO_CACHE: Dict[Tuple["Term", ...], "Term"] = {}


def AtMostOne(bits: Sequence[Term]) -> Term:
    """At most one of the Bool terms holds.

    NOTE: the large-input encoding introduces implication-defined auxiliary
    variables and is only sound when the result is asserted POSITIVELY
    (top-level constraint); do not nest it under negation.

    Pairwise encoding for small inputs; the sequential (commander-chain)
    encoding with fresh auxiliary variables for larger ones, keeping the
    clause count linear — essential for the synthesis encodings' wide
    one-hot selectors."""
    bits = list(bits)
    key = tuple(bits)
    hit = _AMO_CACHE.get(key)
    if hit is not None:
        return hit
    result = _at_most_one(bits)
    _AMO_CACHE[key] = result
    return result


def _at_most_one(bits: Sequence[Term]) -> Term:
    n = len(bits)
    if n <= 1:
        return TRUE
    if n <= 6:
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                pairs.append(Or(Not(bits[i]), Not(bits[j])))
        return And(*pairs)
    parts = []
    prev = None  # a_i: some of bits[0..i] is true
    for i, x in enumerate(bits[:-1]):
        aux = _fresh_bool("amo")
        parts.append(Or(Not(x), aux))
        if prev is not None:
            parts.append(Or(Not(prev), aux))
            parts.append(Or(Not(x), Not(prev)))
        prev = aux
    assert prev is not None
    parts.append(Or(Not(bits[-1]), Not(prev)))
    return And(*parts)


def ExactlyOne(bits: Sequence[Term]) -> Term:
    """True when exactly one of the Bool terms holds (one-hot)."""
    bits = list(bits)
    if not bits:
        return FALSE
    return And(Or(*bits), AtMostOne(bits))


# ---------------------------------------------------------------------------
# Concrete evaluation (used by tests and by model completion)
# ---------------------------------------------------------------------------

def evaluate(term: Term, env: Dict[Term, int], cache: Optional[dict] = None):
    """Evaluate a term under an environment mapping variable terms to
    Python ints/bools.  Returns an int (BitVec) or bool (Bool)."""
    if cache is None:
        cache = {}
    hit = cache.get(term)
    if hit is not None:
        return hit
    op = term.op
    if op == "const":
        result = term.extra[0]
    elif op == "var":
        if term not in env:
            raise KeyError(f"no value for variable {term!r}")
        result = env[term]
        if term.sort != BOOL:
            result = int(result) & _mask(term.width)
        else:
            result = bool(result)
    else:
        args = [evaluate(a, env, cache) for a in term.args]
        if op == "not":
            result = not args[0]
        elif op == "and":
            result = all(args)
        elif op == "or":
            result = any(args)
        elif op == "xor":
            result = args[0] != args[1]
        elif op == "eq":
            result = args[0] == args[1]
        elif op == "ult":
            result = args[0] < args[1]
        elif op == "bvnot":
            result = ~args[0] & _mask(term.width)
        elif op == "bvand":
            result = args[0] & args[1]
        elif op == "bvor":
            result = args[0] | args[1]
        elif op == "bvxor":
            result = args[0] ^ args[1]
        elif op == "bvadd":
            result = (args[0] + args[1]) & _mask(term.width)
        elif op == "bvsub":
            result = (args[0] - args[1]) & _mask(term.width)
        elif op == "shl":
            result = (args[0] << term.extra[0]) & _mask(term.width)
        elif op == "lshr":
            result = args[0] >> term.extra[0]
        elif op == "concat":
            result = 0
            for sub, val in zip(term.args, args):
                result = (result << sub.width) | val
        elif op == "extract":
            hi, lo = term.extra
            result = (args[0] >> lo) & _mask(hi - lo + 1)
        elif op == "ite":
            result = args[1] if args[0] else args[2]
        else:
            raise NotImplementedError(f"evaluate: op {op}")
    cache[term] = result
    return result


def collect_vars(
    term: Term, into: Optional[set] = None, seen: Optional[set] = None
) -> set:
    """All variable terms appearing in ``term``.

    ``seen`` may be a caller-owned set that persists across calls: terms
    are interned, so a term already in ``seen`` was fully scanned before
    and contributes nothing new — an incremental caller (the Solver
    facade, whose assertions share most of their sub-DAG) skips re-walking
    the shared structure on every assert."""
    if into is None:
        into = set()
    if seen is None:
        seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if t.op == "var":
            into.add(t)
        stack.extend(t.args)
    return into
