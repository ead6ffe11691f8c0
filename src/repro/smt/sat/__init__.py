"""From-scratch CDCL SAT solver used as ParserHawk's search substrate."""

from .arena import CREF_NONE, ClauseArena
from .clause import lit, lit_from_dimacs, neg, sign_of, to_dimacs, var_of
from .dimacs import (
    dump_solver,
    load_dimacs,
    parse_dimacs,
    solver_from_dimacs,
    write_dimacs,
)
from .dratcheck import ProofCheckResult, check_proof, parse_drat
from .proof import ProofLog
from .simplify import Simplifier, SimplifyStats
from .solver import Budget, SatSolver, luby

__all__ = [
    "Budget",
    "CREF_NONE",
    "ClauseArena",
    "ProofCheckResult",
    "ProofLog",
    "SatSolver",
    "Simplifier",
    "SimplifyStats",
    "check_proof",
    "parse_drat",
    "dump_solver",
    "lit",
    "lit_from_dimacs",
    "load_dimacs",
    "luby",
    "neg",
    "parse_dimacs",
    "sign_of",
    "solver_from_dimacs",
    "to_dimacs",
    "var_of",
    "write_dimacs",
]
