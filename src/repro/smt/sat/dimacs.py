"""DIMACS CNF reading/writing for the SAT substrate.

``repro sat solve`` reads its input with :func:`parse_dimacs`, and proof
bundles store the formula a DRAT refutation refutes as DIMACS text
(:meth:`~repro.smt.sat.proof.ProofLog.input_dimacs`), which
:mod:`repro.persist.certify` parses back.
"""

from __future__ import annotations

from typing import List, Tuple

from .clause import lit_from_dimacs, to_dimacs
from .solver import SatSolver


def parse_dimacs(text: str) -> Tuple[int, List[List[int]]]:
    """Parse DIMACS CNF text into (num_vars, clauses-of-packed-literals).

    Tolerant where the ecosystem is (clauses spanning lines, ``%``
    trailers, a header that under-declares the variable count — the
    count grows to cover the literals actually used), strict where
    silence would corrupt the formula: a malformed or duplicated
    problem line and non-integer literal tokens raise ``ValueError``
    with the offending text named.
    """
    num_vars = 0
    clauses: List[List[int]] = []
    current: List[int] = []
    declared = False
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if declared:
                raise ValueError(f"duplicate problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            try:
                num_vars = int(parts[2])
                num_clauses = int(parts[3])
            except ValueError:
                raise ValueError(
                    f"non-numeric counts in problem line: {line!r}"
                ) from None
            if num_vars < 0 or num_clauses < 0:
                raise ValueError(
                    f"negative counts in problem line: {line!r}"
                )
            declared = True
            continue
        if line.startswith("%"):
            break
        for tok in line.split():
            try:
                val = int(tok)
            except ValueError:
                raise ValueError(f"bad literal token: {tok!r}") from None
            if val == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit_from_dimacs(val))
                num_vars = max(num_vars, abs(val))
    if current:
        clauses.append(current)
    if not declared and not clauses:
        raise ValueError("no problem line and no clauses found")
    return num_vars, clauses


def solver_from_dimacs(text: str) -> SatSolver:
    num_vars, clauses = parse_dimacs(text)
    solver = SatSolver()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def write_dimacs(num_vars: int, clauses: List[List[int]]) -> str:
    """Render packed-literal clauses as DIMACS CNF text."""
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(to_dimacs(l)) for l in clause) + " 0")
    return "\n".join(lines) + "\n"

