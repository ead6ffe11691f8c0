"""From-scratch CDCL SAT solver used as ParserHawk's search substrate."""

from .arena import CREF_NONE, ClauseArena
from .clause import lit, lit_from_dimacs, neg, to_dimacs
from .dimacs import parse_dimacs, solver_from_dimacs, write_dimacs
from .dratcheck import ProofCheckResult, check_proof, parse_drat
from .proof import ProofLog
from .solver import Budget, SatSolver, luby

__all__ = [
    "Budget",
    "CREF_NONE",
    "ClauseArena",
    "ProofCheckResult",
    "ProofLog",
    "SatSolver",
    "check_proof",
    "parse_drat",
    "lit",
    "lit_from_dimacs",
    "luby",
    "neg",
    "parse_dimacs",
    "solver_from_dimacs",
    "to_dimacs",
    "write_dimacs",
]
