"""SMT substrate: Bool/BitVec terms, bit-blasting, CDCL SAT, z3-style Solver.

The paper builds ParserHawk on z3py; this package is the from-scratch
replacement used throughout the reproduction (see DESIGN.md).
"""

from .bitblast import BitBlaster
from .sat import Budget, SatSolver
from .solver import SAT, UNKNOWN, UNSAT, Model, Solver
from .terms import (
    BOOL,
    FALSE,
    TRUE,
    And,
    AtMostOne,
    BitVec,
    BitVecVal,
    Bool,
    BoolVal,
    BvAdd,
    BvAnd,
    BvNot,
    BvOr,
    BvSub,
    BvXor,
    Concat,
    Eq,
    ExactlyOne,
    Extract,
    If,
    Iff,
    Implies,
    Lshr,
    Not,
    Or,
    PopCountAtMost,
    Shl,
    Term,
    UGE,
    UGT,
    ULE,
    ULT,
    Xor,
    ZeroExt,
    collect_vars,
    evaluate,
)

__all__ = [
    "AtMostOne",
    "And", "BOOL", "BitBlaster", "BitVec", "BitVecVal", "Bool",
    "BoolVal", "Budget", "BvAdd", "BvAnd", "BvNot", "BvOr", "BvSub", "BvXor",
    "Concat", "Eq", "ExactlyOne", "Extract", "FALSE", "If", "Iff", "Implies",
    "Lshr", "Model", "Not", "Or", "PopCountAtMost", "SAT", "SatSolver",
    "Shl", "Solver", "TRUE", "Term", "UGE", "UGT", "ULE", "ULT", "UNKNOWN",
    "UNSAT", "Xor", "ZeroExt", "collect_vars", "evaluate",
]
